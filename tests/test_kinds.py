import subprocess
import sys

import pytest

from minimz.ast import KIND_PERM, KIND_TYPE, Scope, TApp, TVar
from minimz.driver import check_text, load_text, prelude
from minimz.kinds import AliasInfo, DataInfo, ResolveError, Resolver, kind_of
from minimz.lexer import line_col
from minimz.parser import ParseError

TREE = """
data mutable tree a =
  Leaf
| Node { left: tree a; elem: a; right: tree a }
"""


def test_tree_resolves_with_constructor_kind():
    file, env = load_text(TREE + "\nval size: [a] tree a -> int", "t")
    info = env.types["tree"]
    assert isinstance(info, DataInfo)
    assert info.params == (("a", KIND_TYPE),)
    assert kind_of(TApp("tree", (TVar("a"),)), env, {"a": KIND_TYPE}) == KIND_TYPE
    with pytest.raises(ResolveError) as exc:
        load_text(TREE + "\nval size: tree empty -> int", "t")
    assert exc.value.message == "expected kind type, found perm for empty"


def test_cyclic_alias_rejected():
    with pytest.raises(ResolveError) as exc:
        load_text("alias a = a", "t")
    assert exc.value.code == "E-KIND"
    assert "cyclic" in exc.value.message


def test_mutual_alias_cycle_rejected():
    with pytest.raises(ResolveError):
        load_text("alias b = c\nalias c = b", "t")


def test_abstract_iterator_kind():
    _, env = load_text("abstract tree_iterator a (post: perm)", "t")
    info = env.types["tree_iterator"]
    assert info.params == (("a", KIND_TYPE), ("post", KIND_PERM))
    assert kind_of(TApp("tree_iterator", (TVar("a"), TVar("p"))), env, {}) == KIND_TYPE
    with pytest.raises(ResolveError) as exc:
        load_text("abstract tree_iterator a (post: perm)\nval f: tree_iterator int int", "t")
    assert exc.value.message == "expected kind perm, found type for int"


def test_anchored_permission_kind():
    _, base = prelude()
    resolver = Resolver(base.clone())
    resolver.tyvars, resolver.values = Scope(a=KIND_TYPE), Scope(t=None)
    from conftest import parse_type

    ty = resolver.resolve_type(parse_type("t @ list a"))
    assert kind_of(ty, resolver.env, resolver.tyvars) == KIND_PERM


def test_an_inner_quantifier_binds_its_variable_for_its_body_alone():
    # resolve_type: `b` is a type variable inside `[b] ...`, unbound after it
    load_text("val f: ([b] (x: b) -> b, int) -> int", "t")
    with pytest.raises(ResolveError) as exc:
        load_text("val f: ([b] (x: b) -> b, b) -> int", "t")
    assert (exc.value.code, exc.value.message) == ("E-UNBOUND", "unbound type name 'b'")
    # kind_of: an inner `p: perm` is a permission inside its body alone
    load_text("val f: [a] ([p: perm] (x: a | p) -> int, a) -> int", "t")
    with pytest.raises(ResolveError) as exc:
        load_text("val f: [a] ([p: perm] (x: p | a) -> int, a) -> int", "t")
    assert exc.value.message == "expected kind type, found perm for p"
    env = prelude()[1]
    assert [kind_of(TVar("p"), env, {"p": k}) for k in (KIND_TYPE, KIND_PERM)] == [
        KIND_TYPE,
        KIND_PERM,
    ]


def test_constructor_arity_error():
    with pytest.raises(ResolveError) as exc:
        load_text(TREE + "\nval x: tree", "t")
    assert exc.value.code == "E-KIND"


def test_focused_application_kind():
    src = TREE + "\nval f: [a, post: perm] (consumes it: ref (focused (list (tree a)) post)) -> (| post)"
    _, env = load_text(src, "t")  # resolves without error
    assert "f" in env.sigs


def test_bar_right_side_must_be_perm():
    with pytest.raises(ResolveError) as exc:
        load_text("val f: (int | int) -> int", "t")
    assert exc.value.code == "E-KIND"


def test_a_field_of_a_structural_type_is_a_type():
    with pytest.raises(ResolveError) as exc:
        load_text("val f: (x: Cons { head: empty; tail: list int }) -> int", "t")
    assert (exc.value.code, exc.value.message) == (
        "E-KIND",
        "expected kind type, found perm for empty",
    )


def test_unbound_value_in_type():
    with pytest.raises(ResolveError) as exc:
        load_text("val f: [a] (x: a) -> (| y @ a)", "t")
    assert exc.value.code == "E-UNBOUND"


def test_duplicate_tag_rejected():
    with pytest.raises(ResolveError):
        load_text("data d1 = K { a: int }\ndata d2 = K { b: int }", "t")


def test_unannotated_binders_default_to_type():
    file, env = load_text("val f: [a, s: perm] (x: a | s) -> bool", "t")
    from minimz.ast import TForall

    sig = env.sigs["f"]
    assert isinstance(sig, TForall)
    assert sig.binders == (("a", KIND_TYPE), ("s", KIND_PERM))


def test_def_requires_signature():
    with pytest.raises(ResolveError) as exc:
        load_text("val f (x) = x", "t")
    assert exc.value.code == "E-UNBOUND"


def test_pattern_field_set_must_match():
    src = TREE + """
val f: [a] (consumes t: tree a) -> int
val f (t) =
  match t with
  | Leaf -> 0
  | Node { left = l } -> 1
"""
    with pytest.raises(ResolveError) as exc:
        load_text(src, "t")
    assert exc.value.code == "E-MATCH"


def test_an_alias_has_the_kind_of_its_body():
    src = """
alias same (p: perm) = p
alias both (p: perm) (r: perm) = p * r
alias pair a = (a, a)
alias twice (p: perm) = same (both p p)
"""
    _, env = load_text(src, "t")
    kinds = {}
    for name in ("same", "both", "pair", "twice", "wand", "focused"):
        info = env.types[name]
        assert isinstance(info, AliasInfo)
        kinds[name] = info.kind
    assert kinds == {
        "same": KIND_PERM,
        "both": KIND_PERM,
        "pair": KIND_TYPE,
        "twice": KIND_PERM,
        "wand": KIND_TYPE,
        "focused": KIND_TYPE,
    }


def test_an_alias_is_used_after_its_definition():
    # an alias's kind is its body's, known once its body is resolved
    with pytest.raises(ResolveError) as exc:
        load_text("alias a = b\nalias b = int", "t")
    assert (exc.value.code, exc.value.message) == (
        "E-KIND",
        "alias 'b' used before its definition",
    )


@pytest.mark.parametrize(
    "src",
    [
        "val f: [q: perm] (x: int | [a] q) -> int",
        "val f: [q: perm] (x: int | {a} q) -> int",
        "val f: [q: perm] (x: int, y: [a] (x @ a)) -> int",
        "alias pick (p: perm) = [a] p\nval f: [q: perm] (x: int | pick q) -> int",
    ],
    ids=["forall", "exists", "anchored", "alias"],
)
def test_a_permission_cannot_be_quantified(src):
    with pytest.raises(ResolveError) as exc:
        load_text(src, "t")
    assert (exc.value.code, exc.value.message) == ("E-KIND", "a permission cannot be quantified")
    assert src[exc.value.span.start :].startswith(("[a]", "{a}"))


# A definition whose body is a construction, each of whose fields the
# resolver compares with the branch's and whose values it resolves, and the
# parser reads a lone atom of in place.
BUILD = TREE + "\nval f: (x: int) -> tree int\nval f (x) =\n  "


def first_error(src: str) -> tuple[str, str, str, str]:
    """The first error of loading, then checking, `src`: its code (`parse`
    for a `ParseError`), the `line:col` where its span starts, the text
    its span covers, and its message."""
    try:
        _, _, diags = check_text(src, "t")
    except ResolveError as exc:
        code, span, message = exc.code, exc.span, exc.message
    except ParseError as exc:
        code, span, message = "parse", exc.span, exc.message
    else:
        code, span, message = diags[0].code, diags[0].span, diags[0].message
    line, col = line_col(src, span.start)
    return code, f"{line}:{col}", src[span.start : span.start + span.length], message


NODE = "Node { left = Leaf; elem = x; right = Leaf }"
MUST_SET = "construction of 'Node' must set exactly ['left', 'elem', 'right'], got "


@pytest.mark.parametrize(
    "src, code, where, spanned, message",
    [
        (
            "val f: int\n\nval f (x) = x",
            "E-KIND", "3:1", "val f (x) = x",
            "signature of 'f' is not a function type",
        ),
        (
            "val g: (int, int) -> int\n\nval g (x) = x",
            "E-ARITY", "3:1", "val g (x) = x",
            "'g' signature expects 2 parameter(s), definition has 1",
        ),
        (
            BUILD + "Node { elem = x; left = Leaf; right = Leaf }",
            "E-MATCH", "8:3", "Node { elem = x; left = Leaf; right = Leaf }",
            MUST_SET + "['elem', 'left', 'right']",
        ),
        (
            BUILD + "Node { left = Leaf; elem = x }",
            "E-MATCH", "8:3", "Node { left = Leaf; elem = x }",
            MUST_SET + "['left', 'elem']",
        ),
        (
            BUILD + "Node { left = Leaf; elem = x; right = Leaf; extra = x }",
            "E-MATCH", "8:3", "Node { left = Leaf; elem = x; right = Leaf; extra = x }",
            MUST_SET + "['left', 'elem', 'right', 'extra']",
        ),
        (
            BUILD + "Node { left = Leaf; elem = zz; right = Leaf }",
            "E-UNBOUND", "8:30", "zz", "unbound value name 'zz'",
        ),
        (
            BUILD + "Node { left = Leaf; elem = 9223372036854775808; right = Leaf }",
            "parse", "8:30", "9223372036854775808",
            "integer literal 9223372036854775808 exceeds 9223372036854775807, the largest int",
        ),
        # a name mismatch of a construction wins over an error in its values
        (
            BUILD + "Node { left = Node { left = Leaf; elem = zz; right = Leaf }; elem = x; rigth = Leaf }",
            "E-MATCH", "8:3",
            "Node { left = Node { left = Leaf; elem = zz; right = Leaf }; elem = x; rigth = Leaf }",
            MUST_SET + "['left', 'elem', 'rigth']",
        ),
        (
            BUILD + "Node { left = Leaf; elem = zz; rigth = Leaf }",
            "E-MATCH", "8:3", "Node { left = Leaf; elem = zz; rigth = Leaf }",
            MUST_SET + "['left', 'elem', 'rigth']",
        ),
        # a field value that goes on after its first atom
        (
            BUILD + "Node { left = Leaf; elem = x zz; right = Leaf }",
            "E-UNBOUND", "8:32", "zz", "unbound value name 'zz'",
        ),
        (
            BUILD + "Node { left = Leaf; elem = x 1; right = Leaf }",
            "E-SUBSUME", "8:30", "x 1", "callee has no function permission",
        ),
        (
            BUILD + "Node { left = Leaf; elem = x.elem; right = Leaf }",
            "E-SUBSUME", "8:30", "x.elem", "no structural permission for field access",
        ),
        (
            BUILD + "Node { left = Leaf; elem = x <- 1; right = Leaf }",
            "parse", "8:32", "<-", "left side of '<-' must be a field access",
        ),
        (
            BUILD + "Node { left = Leaf; elem = x.elem <- zz; right = Leaf }",
            "E-UNBOUND", "8:40", "zz", "unbound value name 'zz'",
        ),
        (
            BUILD + "let t = " + NODE + " in tag of t <- Node { elem = zz }; t",
            "E-UNBOUND", "8:85", "zz", "unbound value name 'zz'",
        ),
    ],
    ids=[
        "signature not a function", "signature arity", "fields out of order",
        "missing field", "extra field", "unbound field value", "over-large field value",
        "outer names before inner values", "names before values", "application",
        "application of a value", "field read", "assignment to a name", "assignment",
        "tag update value",
    ],
)
def test_a_front_end_diagnostic(src, code, where, spanned, message):
    assert first_error(src) == (code, where, spanned, message)


# Resolver errors, each given by `minimz check` on its own line, with the
# position where its span starts; the command exits 2, as for any error
# of the front end.
RESOLVER_ERRORS = {
    "duplicate signature": (
        "val f: () -> int\nval f: () -> int\n",
        "2:1 E-KIND duplicate value signature 'f'",
    ),
    "duplicate definition": (
        "val f: () -> int\nval f () = 1\nval f () = 2\n",
        "3:1 E-KIND duplicate definition of 'f'",
    ),
    "applied type variable": (
        "val f: [a] a int -> int\n",
        "1:12 E-KIND type variable 'a' cannot take arguments",
    ),
    "duplicate branch": (
        "data t = A | B\nval f: (x: t) -> int\n"
        "val f (x) = match x with | A -> 1 | A -> 2 | B -> 3\n",
        "3:37 E-MATCH duplicate branch 'A'",
    ),
    "name bound twice": (
        "val f: () -> int\nval f () = let (y, y) = (1, 2) in y\n",
        "2:20 E-MATCH pattern binds 'y' more than once",
    ),
}


@pytest.mark.parametrize("case", RESOLVER_ERRORS)
def test_check_reports_a_resolver_error_and_exits_two(tmp_path, case):
    text, expected = RESOLVER_ERRORS[case]
    path = tmp_path / "t.mz"
    path.write_text(text)
    out = subprocess.run(
        [sys.executable, "-m", "minimz", "check", str(path)], capture_output=True, text=True
    )
    assert (out.returncode, out.stdout, out.stderr) == (2, "", f"{path}:{expected}\n")
