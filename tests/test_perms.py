import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from minimz.ast import (
    KIND_PERM,
    KIND_TYPE,
    TApp,
    TArrow,
    TAt,
    TBar,
    TConcrete,
    TEmpty,
    TExists,
    TForall,
    TMeta,
    TSingleton,
    TStar,
    TTuple,
    TVar,
    TupleComp,
)
from minimz.check import _intersect
from minimz.driver import load_text
from minimz.parser import parse_type
from minimz.perms import (
    AFFINE,
    Anchored,
    DUPLICABLE,
    MetaPerm,
    NameSupply,
    PermEnv,
    PermVar,
    SubsumptionFailure,
    duplicability,
    free_type_vars,
    normalize,
    split_branch,
    subst_type,
)
from minimz.subsume import Subsumer, Unifier

TREE = """
data mutable tree a =
  Leaf
| Node { left: tree a; elem: a; right: tree a }
"""


@pytest.fixture(scope="module")
def tree_env():
    _, env = load_text(TREE, "t")
    return env


def ty(text: str):
    return parse_type(text)


# ---------------------------------------------------------------------------
# Duplicability
# ---------------------------------------------------------------------------


def test_duplicability_table(tree_env):
    env = tree_env
    # Hand-derived facts for every prelude type plus the tree declaration.
    cases = [
        ("int", DUPLICABLE),
        ("bool", DUPLICABLE),
        ("tree int", AFFINE),  # mutable data
        ("ref int", AFFINE),  # mutable data
        ("list int", DUPLICABLE),  # immutable over duplicable elements
        ("list (tree int)", AFFINE),  # immutable over affine elements
        ("list (list int)", DUPLICABLE),
        ("either int bool", DUPLICABLE),
        ("either (ref int) int", AFFINE),
        ("int -> int", DUPLICABLE),
        ("()", DUPLICABLE),
    ]
    from minimz.kinds import Resolver, Scope

    resolver = Resolver(env)
    for text, expected in cases:
        resolved = resolver.resolve_type(ty(text), Scope())
        assert duplicability(resolved, env) == expected, text


def test_type_variables_and_abstract_are_affine(tree_env):
    assert duplicability(TVar("a"), tree_env) == AFFINE
    _, env = load_text("abstract opaque", "t")
    assert duplicability(TApp("opaque", ()), env) == AFFINE


def test_wand_and_focused_are_affine(tree_env):
    from minimz.kinds import Resolver, Scope

    resolver = Resolver(tree_env)
    scope = Scope(tyvars={"post": KIND_PERM}, values={"v"})
    wand = resolver.resolve_type(ty("wand (v @ int) post"), scope)
    assert duplicability(wand, tree_env) == AFFINE
    focused = resolver.resolve_type(ty("focused int post"), scope)
    assert duplicability(focused, tree_env) == AFFINE


def test_singleton_and_empty_are_duplicable(tree_env):
    assert duplicability(TSingleton("x"), tree_env) == DUPLICABLE
    assert duplicability(TEmpty(), tree_env) == DUPLICABLE


# ---------------------------------------------------------------------------
# split_branch
# ---------------------------------------------------------------------------

INT = TApp("int", ())
TREE_INT = TApp("tree", (INT,))


def _split_tree(env, tag, names=None, supply=None):
    """Split `t @ tree int` along its branch `tag`, with field names drawn
    from `supply` (a new one by default) unless `names` are given."""
    from minimz.kinds import DataInfo

    info = env.types["tree"]
    assert isinstance(info, DataInfo)
    branch = info.branches[tag]
    if names is None:
        supply = supply or NameSupply()
        names = (supply.fresh(f) for f, _ in branch.fields)
    return branch, split_branch("t", info, (INT,), branch, names)


def test_split_concrete_node(tree_env):
    branch, atoms = _split_tree(tree_env, "Node")
    structural = atoms[0]
    assert isinstance(structural, Anchored) and structural.anchor == "t"
    sty = structural.ty
    assert isinstance(sty, TConcrete) and sty.tag == "Node" and sty.bar is None
    assert [f for f, _ in sty.fields] == ["left", "elem", "right"]
    assert all(isinstance(v, TSingleton) for _, v in sty.fields)
    # One permission per field, in field order, at the field's anchor.
    assert len(atoms) == 4
    assert [a.anchor for a in atoms[1:]] == [v.name for _, v in sty.fields]
    assert [a.ty for a in atoms[1:]] == [TREE_INT, INT, TREE_INT]
    # A field named None stays in the structural atom, at its type.
    _, kept = _split_tree(tree_env, "Node", ["l", None, "r"])
    assert kept == [
        Anchored("t", TConcrete(
            "Node", (("left", TSingleton("l")), ("elem", INT), ("right", TSingleton("r"))), None
        )),
        Anchored("l", TREE_INT),
        Anchored("r", TREE_INT),
    ]


def test_split_concrete_no_fields(tree_env):
    _, atoms = _split_tree(tree_env, "Leaf")
    assert atoms == [Anchored("t", TConcrete("Leaf", (), None))]


def test_split_then_fold_subsumes_nominal(tree_env):
    _, atoms = _split_tree(tree_env, "Node")
    penv = PermEnv(tree_env, tuple(atoms))
    sub = Subsumer(tree_env, NameSupply())
    left = sub.subsume(penv, [Anchored("t", TREE_INT)])
    # The nominal permission was reassembled: the affine pieces (subtrees)
    # are consumed; only duplicable residue (the int element) may remain.
    for atom in left.atoms:
        assert isinstance(atom, Anchored)
        assert duplicability(atom.ty, tree_env) == DUPLICABLE


def test_split_names_are_fresh(tree_env):
    supply = NameSupply()
    _, first = _split_tree(tree_env, "Node", supply=supply)
    _, second = _split_tree(tree_env, "Node", supply=supply)
    names_first = {a.anchor for a in first[1:]}
    names_second = {a.anchor for a in second[1:]}
    assert names_first.isdisjoint(names_second)
    assert all("$" in n for n in names_first)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def test_normalize_flattens_and_drops_empty():
    perm = TStar((TStar((TAt("x", TApp("int", ())), TEmpty())), TVar("s")))
    atoms = normalize(perm)
    assert atoms == [Anchored("x", TApp("int", ())), PermVar("s")]


def test_normalize_splits_anchored_bar():
    perm = TAt("x", TBar(TApp("int", ()), TVar("s")))
    atoms = normalize(perm)
    assert PermVar("s") in atoms
    assert Anchored("x", TApp("int", ())) in atoms


def test_normalize_idempotent_multiset():
    perm = TStar((TVar("p"), TAt("x", TApp("int", ())), TVar("p")))
    once = normalize(perm)
    from minimz.perms import atoms_to_type

    twice = normalize(atoms_to_type(once))
    assert sorted(map(str, once)) == sorted(map(str, twice))


# ---------------------------------------------------------------------------
# Environment properties
# ---------------------------------------------------------------------------


def test_duplicable_idempotence(tree_env):
    penv = PermEnv(tree_env, (Anchored("x", TApp("int", ())),))
    sub = Subsumer(tree_env, NameSupply())
    out = sub.subsume(penv, [Anchored("x", TApp("int", ())), Anchored("x", TApp("int", ()))])
    assert out.atoms == penv.atoms  # duplicable extraction removes nothing


def test_affine_linearity(tree_env):
    penv = PermEnv(tree_env, (Anchored("x", ty("tree int")),))
    sub = Subsumer(tree_env, NameSupply())
    with pytest.raises(SubsumptionFailure):
        sub.subsume(penv, [Anchored("x", ty("tree int")), Anchored("x", ty("tree int"))])


def test_frame_monotonicity(tree_env):
    """If subsume(env, g) leaves L, then subsume(env + extra, g) leaves
    L + extra, for unrelated extra atoms."""
    rng = random.Random(7)
    base_atoms = [
        Anchored("t", ty("tree int")),
        Anchored("n", TApp("int", ())),
        PermVar("s"),
    ]
    goals = [[Anchored("t", ty("tree int"))], [PermVar("s")], []]
    extras = [Anchored(f"u{i}", ty("tree bool")) for i in range(3)]
    for goal in goals:
        for _ in range(10):
            atoms = list(base_atoms)
            rng.shuffle(atoms)
            penv = PermEnv(tree_env, tuple(atoms))
            sub = Subsumer(tree_env, NameSupply())
            left = sub.subsume(penv, list(goal))
            extra = rng.choice(extras)
            penv2 = PermEnv(tree_env, tuple(atoms) + (extra,))
            sub2 = Subsumer(tree_env, NameSupply())
            left2 = sub2.subsume(penv2, list(goal))
            assert list(left2.atoms) == list(left.atoms) + [extra]


# Names are drawn from one small pool, so permission variables, metavariables
# and anchors share names, and atoms repeat.
_names = st.sampled_from(["x", "y", "z"])
_atoms = st.one_of(
    st.builds(Anchored, _names, st.sampled_from([TApp("int", ()), TSingleton("x")])),
    _names.map(PermVar),
    _names.map(MetaPerm),
)
_edits = st.tuples(
    st.sampled_from(["add", "remove", "replace"]),
    st.integers(0, 40),  # the version edited, among those made so far
    st.integers(0, 40),  # the position of the atom removed or replaced
    st.lists(_atoms, max_size=3),
    st.integers(0, 40),  # a version read after the edit is made
)


def _assert_matches(penv, model):
    """`penv` holds the atoms `model`, in order, and every read agrees."""
    items = penv.items()
    assert [a for _, a in items] == model
    assert penv.atoms == tuple(model)
    assert str(penv) == (" * ".join(map(str, model)) or "empty")
    for h, a in items:
        assert penv.atom(h) == a
    for name in ("x", "y", "z"):
        scan = [(h, a) for h, a in items if isinstance(a, Anchored) and a.anchor == name]
        assert penv.atoms_of(name) == scan
        assert penv.holds_anchor(name) == bool(scan)
        var = [h for h, a in items if a == PermVar(name)]
        assert penv.perm_var(name) == (var[0] if var else None)


@settings(max_examples=200, deadline=None)
@given(st.lists(_atoms, max_size=6), st.lists(_edits, max_size=25))
def test_anchor_index_follows_edits(tree_env, start, edits):
    """Edits applied anywhere in a tree of versions, each version checked
    against a list model after every step, old versions read between edits.
    An edit is made without reading its version first, with the handles
    recorded when that version was made."""
    first = PermEnv(tree_env, start)
    versions = [(first, list(start), [h for h, _ in first.items()])]
    for op, which, pos, new, read in edits:
        base, model, handles = versions[which % len(versions)]
        if op == "add":
            penv, model = base.add(*new), model + new
            kept = handles
        elif not model:
            continue
        else:
            idx = pos % len(model)
            if op == "remove":
                penv = base.remove(handles[idx])
                model = model[:idx] + model[idx + 1 :]
            else:
                penv = base.replace(handles[idx], *new)
                model = model[:idx] + new + model[idx + 1 :]
            kept = handles[:idx] + handles[idx + 1 :]
        _assert_matches(*versions[read % len(versions)][:2])
        handles = [h for h, _ in penv.items()]
        # the atoms an edit keeps keep their handles
        assert [h for h in handles if h in kept] == kept
        versions.append((penv, model, handles))
        for penv, model, _ in versions:
            _assert_matches(penv, model)


def test_rerooting_a_long_history_needs_no_stack(tree_env):
    """Reading the oldest of 100,000 linearly derived versions, and then the
    newest again, reroots along the whole history without recursion."""
    x, y = Anchored("x", INT), Anchored("y", INT)
    oldest = penv = PermEnv(tree_env, (x,))
    for _ in range(50_000):
        penv = penv.add(y)
        ((handle, _),) = penv.atoms_of("y")
        penv = penv.remove(handle)
    newest = penv.add(y)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        assert oldest.atoms == (x,)
        assert [a for _, a in oldest.atoms_of("x")] == [x]
        assert oldest.atoms_of("y") == []
        assert newest.atoms == (x, y)
        assert oldest.atoms == (x,)
    finally:
        sys.setrecursionlimit(limit)
    del oldest, penv, newest  # freeing the history must not overflow the stack either


def _intersect_by_removal(lists):
    """The removal join, kept as the oracle: walk the first list and keep
    each atom still found in a pool of the next list's atoms, list by list."""
    base = list(lists[0])
    for other in lists[1:]:
        pool = list(other)
        kept = []
        for atom in base:
            if atom in pool:
                pool.remove(atom)
                kept.append(atom)
        base = kept
    return base


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_atoms, max_size=8), min_size=1, max_size=4))
def test_counted_join_matches_removal_join(lists):
    assert _intersect(lists) == _intersect_by_removal(lists)


def test_type_maps_keep_unchanged_types():
    a = TVar("a")
    body = TArrow(
        TTuple(
            (
                TupleComp("x", TApp("tree", (a,)), True),
                TupleComp(None, TSingleton("x")),
            )
        ),
        TBar(
            TConcrete("Node", (("elem", a),), TAt("x", TApp("int", ()))),
            TStar((TVar("p"), TEmpty())),
        ),
    )
    t = TForall((("a", KIND_TYPE),), TExists((("p", KIND_PERM),), body))
    assert subst_type(t, {}) is t
    assert subst_type(t, {}, {}) is t
    uni = Unifier()
    solved = uni.fresh("s")
    uni.bind(solved.name, TApp("int", ()))
    assert uni.resolve(t) is t
    # Only the path to a solved metavariable is rebuilt.
    pair = TApp("pair", (solved, body, TMeta("open")))
    resolved = uni.resolve(pair)
    assert resolved == TApp("pair", (TApp("int", ()), body, TMeta("open")))
    assert resolved.args[1] is body and resolved.args[2] is pair.args[2]


# Each case places one subtree under one kind of type node: free type
# variables and alias references must be found there, whichever node it is.
_V = TVar("v")
_INT = TApp("int", ())
_UNDER_EVERY_NODE = {
    "app": lambda t: TApp("list", (t,)),
    "arrow-domain": lambda t: TArrow(t, _INT),
    "arrow-codomain": lambda t: TArrow(_INT, t),
    "tuple": lambda t: TTuple((TupleComp(None, _INT), TupleComp("x", t, True))),
    "bar-carrier": lambda t: TBar(t, TEmpty()),
    "bar-perm": lambda t: TBar(_INT, TAt("x", t)),
    "concrete-field": lambda t: TConcrete("K", (("f", _INT), ("g", t)), None),
    "concrete-bar": lambda t: TConcrete("K", (("f", _INT),), TAt("x", t)),
    "forall": lambda t: TForall((("b", KIND_TYPE),), t),
    "exists": lambda t: TExists((("b", KIND_PERM),), TAt("x", t)),
    "at": lambda t: TAt("x", t),
    "star": lambda t: TStar((TEmpty(), TAt("x", t))),
}


@pytest.mark.parametrize("node", sorted(_UNDER_EVERY_NODE))
def test_traversals_reach_under_every_node_kind(node):
    from minimz.kinds import AliasInfo, ResolveError, Resolver

    wrap = _UNDER_EVERY_NODE[node]
    assert free_type_vars(wrap(_V)) == {"v"}
    assert free_type_vars(wrap(TApp("list", (_V, TVar("w"))))) == {"v", "w"}
    # names bound by `[..]` and `{..}` are not free, at any depth
    for quant in (TForall, TExists):
        assert free_type_vars(quant((("v", KIND_TYPE),), wrap(_V))) == set()
        assert free_type_vars(wrap(quant((("v", KIND_PERM),), _V))) == set()
    assert free_type_vars(wrap(TForall((("w", KIND_TYPE),), _V))) == {"v"}
    # an alias whose body refers back to it is a cycle
    resolver = Resolver(load_text("", "t")[1])
    resolver.env.types["c"] = AliasInfo("c", (), wrap(TApp("c", ())))
    with pytest.raises(ResolveError, match="cyclic alias: c -> c"):
        resolver.check_alias_cycles()
    resolver.env.types["c"] = AliasInfo("c", (), wrap(TApp("d", ())))
    resolver.env.types["d"] = AliasInfo("d", (), TApp("list", (TApp("c", ()),)))
    with pytest.raises(ResolveError, match="cyclic alias: c -> d -> c"):
        resolver.check_alias_cycles()
    resolver.env.types["c"] = AliasInfo("c", (), wrap(_INT))
    resolver.check_alias_cycles()


# ---------------------------------------------------------------------------
# instantiation and capture-avoiding substitution
# ---------------------------------------------------------------------------


def test_instantiate_stop_signature(tree_env):
    stop_ty = ty(
        "[a, post: perm] (consumes it: tree_iterator a post) -> (| post)"
    )
    witnesses = {"a": ty("int"), "post": ty("t @ tree int")}
    out = subst_type(stop_ty.body, witnesses)
    expected = ty(
        "(consumes it: tree_iterator int (t @ tree int)) -> (| t @ tree int)"
    )
    assert out == expected


# An independent, deliberately naive capture-avoiding substitution used as an
# oracle: rename every binder to a globally unique name first, then
# substitute blindly.

_counter = [0]


def _freshen(t):
    from dataclasses import replace

    if isinstance(t, (TForall, TExists)):
        mapping = {}
        binders = []
        for name, kind in t.binders:
            _counter[0] += 1
            new = f"{name}!{_counter[0]}"
            mapping[name] = TVar(new)
            binders.append((new, kind))
        body = _blind_subst(_freshen(t.body), mapping)
        return replace(t, binders=tuple(binders), body=body)
    return _map_children(t, _freshen)


def _map_children(t, f):
    from dataclasses import replace

    if isinstance(t, TApp):
        return replace(t, args=tuple(f(a) for a in t.args))
    if isinstance(t, TArrow):
        return replace(t, domain=f(t.domain), codomain=f(t.codomain))
    if isinstance(t, TTuple):
        return replace(
            t, comps=tuple(TupleComp(c.name, f(c.ty), c.consumed) for c in t.comps)
        )
    if isinstance(t, TBar):
        return replace(t, carrier=f(t.carrier), perm=f(t.perm))
    if isinstance(t, TStar):
        return replace(t, items=tuple(f(i) for i in t.items))
    if isinstance(t, TAt):
        return replace(t, ty=f(t.ty))
    if isinstance(t, (TForall, TExists)):
        return replace(t, body=f(t.body))
    return t


def _blind_subst(t, mapping):
    if isinstance(t, TVar):
        return mapping.get(t.name, t)
    if isinstance(t, (TForall, TExists)):
        inner = {k: v for k, v in mapping.items() if k not in [n for n, _ in t.binders]}
        from dataclasses import replace

        return replace(t, body=_blind_subst(t.body, inner))
    return _map_children(t, lambda u: _blind_subst(u, mapping))


def _alpha_canon(t, env_names=None, counter=None):
    """Canonical renaming of quantifier binders for alpha comparison."""
    from dataclasses import replace

    env_names = env_names or {}
    counter = counter or [0]
    if isinstance(t, TVar):
        return TVar(env_names.get(t.name, t.name))
    if isinstance(t, (TForall, TExists)):
        inner = dict(env_names)
        binders = []
        for name, kind in t.binders:
            counter[0] += 1
            tok = f"#{counter[0]}"
            inner[name] = tok
            binders.append((tok, kind))
        return replace(
            t, binders=tuple(binders), body=_alpha_canon(t.body, inner, counter)
        )
    return _map_children(t, lambda u: _alpha_canon(u, env_names, counter))


# "a$0" is the name a renamed binder `a` would take first.
_tyvar_names = st.sampled_from(["a", "b", "c", "a$0"])


def _types(depth):
    if depth == 0:
        return st.one_of(
            _tyvar_names.map(TVar),
            st.just(TApp("int", ())),
        )
    sub = _types(depth - 1)
    return st.one_of(
        sub,
        st.tuples(sub, sub).map(lambda p: TArrow(p[0], p[1])),
        st.tuples(sub, sub).map(lambda p: TApp("list", (p[0],))),
        st.tuples(_tyvar_names, sub).map(
            lambda p: TForall(((p[0], KIND_TYPE),), p[1])
        ),
        st.tuples(_tyvar_names, sub).map(
            lambda p: TExists(((p[0], KIND_TYPE),), p[1])
        ),
    )


@settings(max_examples=150, deadline=None)
@given(
    _types(3),
    _tyvar_names,
    _types(2),
)
# `a` must be renamed, and not to `a$0`, which the body or a binder takes.
@example(TForall((("a", KIND_TYPE),), TArrow(TVar("a"), TVar("a$0"))), "b", TVar("a"))
@example(
    TForall((("a", KIND_TYPE), ("a$0", KIND_TYPE)), TArrow(TVar("a"), TVar("b"))), "b", TVar("a")
)
def test_capture_avoiding_substitution_against_oracle(term, var, replacement):
    fast = subst_type(term, {var: replacement})
    slow = _blind_subst(_freshen(term), {var: replacement})
    assert _alpha_canon(fast) == _alpha_canon(slow)


# ---------------------------------------------------------------------------
# Direct subsumption examples
# ---------------------------------------------------------------------------


def test_subsume_exact_affine_extraction(tree_env):
    tree_int = TApp("tree", (TApp("int", ()),))
    penv = PermEnv(tree_env, (Anchored("t", tree_int),))
    sub = Subsumer(tree_env, NameSupply())
    left = sub.subsume(penv, [Anchored("t", tree_int)])
    assert left.atoms == ()  # affine: the unique token is gone


def test_subsume_fold_consumes_all_pieces(tree_env):
    tree_int = TApp("tree", (TApp("int", ()),))
    atoms = (
        Anchored(
            "t",
            TConcrete(
                "Node",
                (
                    ("left", TSingleton("l")),
                    ("elem", TSingleton("x")),
                    ("right", TSingleton("r")),
                ),
                None,
            ),
        ),
        Anchored("l", tree_int),
        Anchored("x", TApp("int", ())),
        Anchored("r", tree_int),
    )
    penv = PermEnv(tree_env, atoms)
    sub = Subsumer(tree_env, NameSupply())
    left = sub.subsume(penv, [Anchored("t", tree_int)])
    # the structural atom and both subtree permissions are consumed by the
    # fold; only the duplicable int residue may survive
    assert all(
        duplicability(a.ty, tree_env) == DUPLICABLE
        for a in left.atoms
        if isinstance(a, Anchored)
    )


def test_subsume_empty_env_fails(tree_env):
    penv = PermEnv(tree_env)
    sub = Subsumer(tree_env, NameSupply())
    with pytest.raises(SubsumptionFailure):
        sub.subsume(penv, [Anchored("t", TApp("tree", (TApp("int", ()),)))])


def test_either_of_focused_is_affine(tree_env):
    from minimz.kinds import Resolver, Scope

    resolver = Resolver(tree_env)
    scope = Scope(tyvars={"a": KIND_TYPE, "s": KIND_PERM, "post": KIND_PERM}, values=set())
    resolved = resolver.resolve_type(ty("either (focused a s) (| post)"), scope)
    assert duplicability(resolved, tree_env) == AFFINE
