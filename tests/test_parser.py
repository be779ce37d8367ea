import pytest
from conftest import parse_expr, parse_type
from test_span_pins import walk

from minimz.ast import (
    DAlias,
    DValSig,
    KIND_PERM,
    KIND_TYPE,
    TArrow,
    TBar,
    TExists,
    TForall,
    TTuple,
)
from minimz.kinds import ResolveError
from minimz.lexer import tokenize
from minimz.parser import ParseError, Parser, parse_file
from minimz.driver import check_text, load_text

WAND_SOURCE = """
alias wand (pre: perm) (post: perm) =
  {ammo: perm} ((| consumes (pre * ammo)) -> (| post) | ammo)
"""


def test_wand_alias_shape():
    file = parse_file(WAND_SOURCE)
    (decl,) = file.decls
    assert isinstance(decl, DAlias)
    assert decl.params == (("pre", KIND_PERM), ("post", KIND_PERM))
    body = decl.body
    assert isinstance(body, TExists)
    assert body.binders == (("ammo", KIND_PERM),)
    bar = body.body
    assert isinstance(bar, TBar)
    assert isinstance(bar.carrier, TArrow)


def test_size_signature_forall():
    file = parse_file("val size: [a] tree a -> int")
    (decl,) = file.decls
    assert isinstance(decl, DValSig)
    assert isinstance(decl.ty, TForall)
    assert decl.ty.binders == (("a", KIND_TYPE),)
    assert isinstance(decl.ty.body, TArrow)


def test_juxtaposed_non_applicable_types_rejected():
    # `int int` parses as an application but resolution rejects the arity.
    with pytest.raises(ResolveError) as exc:
        load_text("val x: int int", "t")
    assert exc.value.code == "E-KIND"


def test_bar_binds_looser_than_arrow_inside_parens():
    ty = parse_type("(f: (a | s) -> bool, t: tree a | s) -> bool")
    assert isinstance(ty, TArrow)
    dom = ty.domain
    assert isinstance(dom, TBar)
    assert isinstance(dom.carrier, TTuple)
    comps = dom.carrier.comps
    assert [c.name for c in comps] == ["f", "t"]
    assert isinstance(comps[0].ty, TArrow)
    assert isinstance(comps[0].ty.domain, TBar)


def test_star_is_flat_after_parse():
    ty = parse_type("t @ tree a * x @ a * r @ tree a")
    from minimz.ast import TStar

    assert isinstance(ty, TStar)
    assert len(ty.items) == 3


def test_consumes_positions():
    ty = parse_type("(consumes it: i, f: (a | p) -> bool | consumes p) -> int")
    assert isinstance(ty, TArrow)
    dom = ty.domain
    assert isinstance(dom, TBar) and dom.consumed
    comps = dom.carrier.comps
    assert comps[0].consumed and not comps[1].consumed


def test_grouping_is_not_a_tuple():
    assert parse_type("(tree a)") == parse_type("tree a")
    unit = parse_type("()")
    assert isinstance(unit, TTuple) and unit.comps == ()


def test_parse_error_reports_expected():
    with pytest.raises(ParseError):
        parse_file("val x:")
    with pytest.raises(ParseError):
        parse_file("data tree =")


def test_an_integer_literal_must_fit_in_64_signed_bits():
    from minimz.ast import EInt, Span

    big = "9223372036854775807"
    assert parse_expr(big) == EInt(2**63 - 1)
    text = "val main () = add (9223372036854775808, 0)"
    with pytest.raises(ParseError) as exc:
        parse_file(text)
    assert exc.value.span == Span(text.index("9"), 19)
    assert exc.value.message == (
        "integer literal 9223372036854775808 exceeds 9223372036854775807, the largest int"
    )


def test_sequencing_sugar():
    from minimz.ast import ELet, PVar

    e = parse_expr("f x; 1")
    assert isinstance(e, ELet)
    assert isinstance(e.pattern, PVar) and e.pattern.name == "seq%"


def test_tag_update_syntax():
    from minimz.ast import ETagUpdate

    e = parse_expr("tag of t <- Leaf")
    assert isinstance(e, ETagUpdate) and e.tag == "Leaf" and e.fields == ()
    e2 = parse_expr("tag of t <- Node { left = l; elem = x; right = r }")
    assert isinstance(e2, ETagUpdate) and len(e2.fields) == 3


def test_explicit_type_application():
    from minimz.ast import ECall

    e = parse_expr("f [int, (t @ tree a)] x")
    assert isinstance(e, ECall)
    assert e.type_args is not None and len(e.type_args) == 2


def test_spans_are_not_structural():
    a = parse_file("val  size:  [a] tree a -> int")
    b = parse_file("val size: [a] tree a -> int")
    assert a == b


FIELD_VALUES = [
    "x", "42", "Leaf", "true", "tag", "x y", "f x 1", "x.f", "x.f.g", "Leaf.f", "x.f <- y",
    "x <- 1", "Node { a = 1 }", "(x)", "(x, y)", "tag of x <- Leaf", "f [int] y", "x [int]",
    "9223372036854775808", "9223372036854775807", "let", "", "(",
]


@pytest.mark.parametrize("follow", [";", "}", " in", ""])
@pytest.mark.parametrize("value", FIELD_VALUES)
def test_a_field_value_is_read_as_parse_assign_reads_it(value, follow):
    # the node, the spans of it and its parts, and the position after it;
    # or the error, with its span
    def read(method: str):
        parser = Parser(tokenize(value + follow))
        try:
            node = getattr(parser, method)()
        except ParseError as exc:
            return exc.message, exc.span
        spans: list[str] = []
        walk(node, spans)
        return node, spans, parser.pos

    assert read("parse_field_value") == read("parse_assign")


def test_a_construction_nested_in_fields_costs_two_frames_a_level():
    # `parse_field_value` reads a construction in a field without the calls
    # down to `parse_postfix`, so 350 levels load and check under the
    # default recursion limit; at four frames a level they would not
    lib = "data mutable mlist a = MNil | MCons { head: a; tail: mlist a }\n"
    literal = "MNil"
    for i in range(350):
        literal = f"MCons {{ head = {i}; tail = {literal} }}"
    src = lib + f"val main: () -> mlist int\nval main () = {literal}\n"
    assert check_text(src, "t")[2] == []
