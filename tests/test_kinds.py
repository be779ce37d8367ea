import pytest

from minimz.ast import KArrow, KIND_PERM, KIND_TYPE, Scope, TVar
from minimz.driver import load_text, prelude
from minimz.kinds import DataInfo, ResolveError, Resolver

TREE = """
data mutable tree a =
  Leaf
| Node { left: tree a; elem: a; right: tree a }
"""


def test_tree_resolves_with_constructor_kind():
    file, env = load_text(TREE + "\nval size: [a] tree a -> int", "t")
    info = env.types["tree"]
    assert isinstance(info, DataInfo)
    assert info.kind == KArrow((KIND_TYPE,), KIND_TYPE)


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
    assert info.kind == KArrow((KIND_TYPE, KIND_PERM), KIND_TYPE)


def test_anchored_permission_kind():
    _, base = prelude()
    resolver = Resolver(base.clone())
    resolver.tyvars, resolver.values = Scope(a=KIND_TYPE), Scope(t=None)
    from minimz.parser import parse_type

    ty = resolver.resolve_type(parse_type("t @ list a"))
    assert resolver.kind_of(ty) == KIND_PERM


def test_an_inner_quantifier_binds_its_variable_for_its_body_alone():
    from minimz.parser import parse_type

    # resolve_type: `b` is a type variable inside `[b] ...`, unbound after it
    load_text("val f: ([b] (x: b) -> b, int) -> int", "t")
    with pytest.raises(ResolveError) as exc:
        load_text("val f: ([b] (x: b) -> b, b) -> int", "t")
    assert (exc.value.code, exc.value.message) == ("E-UNBOUND", "unbound type name 'b'")
    # kind_of: an inner `b: perm` hides an outer `b`, which comes back after it
    resolver = Resolver(prelude()[1].clone())
    resolver.tyvars = Scope(b=KIND_TYPE)
    assert resolver.kind_of(parse_type("[b: perm] b")) == KIND_PERM
    assert resolver.kind_of(TVar("b")) == KIND_TYPE
    assert resolver.tyvars == {"b": KIND_TYPE}


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
