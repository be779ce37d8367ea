import random
import sys

import pytest
from conftest import parse_type
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
    replace,
)
from minimz.check import _intersect
from minimz.driver import load_text
from minimz.perms import (
    AFFINE,
    Anchored,
    DUPLICABLE,
    MetaPerm,
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
    from minimz.kinds import Resolver

    resolver = Resolver(env)
    for text, expected in cases:
        resolved = resolver.resolve_type(ty(text))
        assert duplicability(resolved, env) == expected, text


def test_type_variables_and_abstract_are_affine(tree_env):
    assert duplicability(TVar("a"), tree_env) == AFFINE
    _, env = load_text("abstract opaque", "t")
    assert duplicability(TApp("opaque", ()), env) == AFFINE


def test_wand_and_focused_are_affine(tree_env):
    from minimz.ast import Scope
    from minimz.kinds import Resolver

    resolver = Resolver(tree_env)
    resolver.tyvars, resolver.values = Scope(post=KIND_PERM), Scope(v=None)
    wand = resolver.resolve_type(ty("wand (v @ int) post"))
    assert duplicability(wand, tree_env) == AFFINE
    focused = resolver.resolve_type(ty("focused int post"))
    assert duplicability(focused, tree_env) == AFFINE


def test_singleton_and_empty_are_duplicable(tree_env):
    assert duplicability(TSingleton("x"), tree_env) == DUPLICABLE
    assert duplicability(TEmpty(), tree_env) == DUPLICABLE


# ---------------------------------------------------------------------------
# split_branch
# ---------------------------------------------------------------------------

INT = TApp("int", ())
TREE_INT = TApp("tree", (INT,))


def _split_tree(env, tag, names=None, uni=None):
    """Split `t @ tree int` along its branch `tag`, with field names drawn
    from the unifier `uni` (a new one by default) unless `names` are given."""
    from minimz.kinds import DataInfo

    info = env.types["tree"]
    assert isinstance(info, DataInfo)
    branch = info.branches[tag]
    if names is None:
        uni = uni or Unifier()
        names = (uni.fresh_name(f) for f, _ in branch.fields)
    return branch, split_branch(env, "t", TREE_INT, tag, names)


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
    sub = Subsumer(tree_env)
    sub.subsume(penv, [Anchored("t", TREE_INT)])
    # The nominal permission was reassembled: the affine pieces (subtrees)
    # are consumed; only duplicable residue (the int element) may remain.
    for atom in penv.atoms:
        assert isinstance(atom, Anchored)
        assert duplicability(atom.ty, tree_env) == DUPLICABLE


def test_split_names_are_fresh(tree_env):
    uni = Unifier()
    _, first = _split_tree(tree_env, "Node", uni=uni)
    _, second = _split_tree(tree_env, "Node", uni=uni)
    names_first = {a.anchor for a in first[1:]}
    names_second = {a.anchor for a in second[1:]}
    assert names_first.isdisjoint(names_second)
    assert all("$" in n for n in names_first)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def test_normalize_flattens_and_drops_empty(tree_env):
    perm = TStar((TStar((TAt("x", TApp("int", ())), TEmpty())), TVar("s")))
    atoms = normalize(tree_env, perm)
    assert atoms == [Anchored("x", TApp("int", ())), PermVar("s")]


def test_normalize_splits_anchored_bar(tree_env):
    perm = TAt("x", TBar(TApp("int", ()), TVar("s")))
    atoms = normalize(tree_env, perm)
    assert PermVar("s") in atoms
    assert Anchored("x", TApp("int", ())) in atoms


def test_normalize_idempotent_multiset(tree_env):
    perm = TStar((TVar("p"), TAt("x", TApp("int", ())), TVar("p")))
    once = normalize(tree_env, perm)
    from minimz.perms import atoms_to_type

    twice = normalize(tree_env, atoms_to_type(once))
    assert sorted(map(str, once)) == sorted(map(str, twice))


def test_normalize_expands_an_alias_of_kind_perm_alone():
    _, env = load_text("alias both (p: perm) (r: perm) = p * r\nalias pair a = (a, a)", "t")
    perm = TApp("both", (TVar("s"), TApp("both", (TAt("x", TApp("int", ())), TEmpty()))))
    assert normalize(env, perm) == [PermVar("s"), Anchored("x", TApp("int", ()))]
    # a type is no permission, not even when an alias names it
    for not_perm in (TApp("pair", (TVar("s"),)), TApp("int", ())):
        with pytest.raises(TypeError):
            normalize(env, not_perm)


# ---------------------------------------------------------------------------
# Environment properties
# ---------------------------------------------------------------------------


def test_duplicable_idempotence(tree_env):
    penv = PermEnv(tree_env, (Anchored("x", TApp("int", ())),))
    sub = Subsumer(tree_env)
    sub.subsume(penv, [Anchored("x", TApp("int", ())), Anchored("x", TApp("int", ()))])
    assert penv.atoms == (Anchored("x", TApp("int", ())),)  # duplicable extraction removes nothing


def test_affine_linearity(tree_env):
    penv = PermEnv(tree_env, (Anchored("x", ty("tree int")),))
    sub = Subsumer(tree_env)
    with pytest.raises(SubsumptionFailure):
        sub.subsume(penv, [Anchored("x", ty("tree int")), Anchored("x", ty("tree int"))])


def test_frame_monotonicity(tree_env):
    """If subsume(env, g) leaves L, then subsume(env + extra, g) leaves
    L + extra, for unrelated extra atoms. Both are met in one environment,
    undone in between."""
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
            mark = penv.mark()
            Subsumer(tree_env).subsume(penv, list(goal))
            left = list(penv.atoms)
            penv.undo_to(mark)
            assert list(penv.atoms) == atoms
            extra = rng.choice(extras)
            penv.add(extra)
            Subsumer(tree_env).subsume(penv, list(goal))
            assert list(penv.atoms) == left + [extra]


# Names are drawn from one small pool, so permission variables, metavariables
# and anchors share names, and atoms repeat.
_names = st.sampled_from(["x", "y", "z"])
_atoms = st.one_of(
    st.builds(Anchored, _names, st.sampled_from([TApp("int", ()), TSingleton("x")])),
    _names.map(PermVar),
    _names.map(MetaPerm),
)
_steps = st.tuples(
    st.sampled_from(["add", "remove", "replace", "reset", "mark", "undo"]),
    st.integers(0, 40),  # the atom removed or replaced, or the mark undone to
    st.lists(_atoms, max_size=3),
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


@settings(max_examples=300, deadline=None)
@given(st.lists(_atoms, max_size=6), st.lists(_steps, max_size=30))
def test_anchor_index_follows_edits(tree_env, start, steps):
    """Random edits, marks and undos to one environment, checked against a
    list model after every step. An undo gives back the atoms of its mark
    with the handles they had; an edit keeps the handles of the atoms it
    keeps, and every atom it puts in gets a handle above every handle
    given out before, an undone one too."""
    penv = PermEnv(tree_env, start)
    model = list(start)
    handles = [h for h, _ in penv.items()]
    issued = max(handles, default=-1)
    marks = []  # (mark, model, handles) of each mark taken, oldest first
    for op, pos, new in steps:
        if op == "mark":
            marks.append((penv.mark(), list(model), list(handles)))
            continue
        if op == "undo":
            if not marks:
                continue
            # a mark newer than the one undone to is gone with its edits
            del marks[pos % len(marks) + 1 :]
            mark, model, handles = marks[-1]
            model, handles = list(model), list(handles)
            penv.undo_to(mark)
            assert [h for h, _ in penv.items()] == handles
            _assert_matches(penv, model)
            continue
        if op == "add":
            penv.add(*new)
            model, kept = model + new, handles
        elif op == "reset":
            penv.reset(new)
            # the slots of the longest common prefix are kept
            k = 0
            while k < min(len(model), len(new)) and model[k] == new[k]:
                k += 1
            model, kept = list(new), handles[:k]
        elif not model:
            continue
        else:
            idx = pos % len(model)
            kept = handles[:idx] + handles[idx + 1 :]
            if op == "remove":
                penv.remove(handles[idx])
                model = model[:idx] + model[idx + 1 :]
            else:
                first = penv.replace(handles[idx], *new)
                model = model[:idx] + new + model[idx + 1 :]
                assert first == (penv.items()[idx][0] if new else None)
        _assert_matches(penv, model)
        handles = [h for h, _ in penv.items()]
        # the atoms an edit keeps keep their handles
        assert [h for h in handles if h in kept] == kept
        put_in = [h for h in handles if h not in kept]
        assert all(h > issued for h in put_in)
        issued = max([issued, *put_in])


def test_undoing_a_long_trail_needs_no_stack(tree_env):
    """Undoing 100,000 edits, back to the environment's first atoms, runs in
    a loop under the interpreter's default recursion limit."""
    x, y = Anchored("x", INT), Anchored("y", INT)
    penv = PermEnv(tree_env, (x,))
    mark = penv.mark()
    for _ in range(50_000):
        penv.add(y)
        ((handle, _),) = penv.atoms_of("y")
        penv.remove(handle)
    penv.add(y)
    assert penv.atoms == (x, y)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        penv.undo_to(mark)
        assert penv.atoms == (x,)
        assert [a for _, a in penv.atoms_of("x")] == [x]
        assert penv.atoms_of("y") == []
        assert penv.mark() == mark
    finally:
        sys.setrecursionlimit(limit)
    del penv  # freeing the environment must not overflow the stack either


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

    def alias(name, body):
        resolver.env.types[name] = info = AliasInfo(name, ())
        info.body = body

    alias("c", wrap(TApp("c", ())))
    with pytest.raises(ResolveError, match="cyclic alias: c -> c"):
        resolver.check_alias_cycles()
    alias("c", wrap(TApp("d", ())))
    alias("d", TApp("list", (TApp("c", ()),)))
    with pytest.raises(ResolveError, match="cyclic alias: c -> d -> c"):
        resolver.check_alias_cycles()
    alias("c", wrap(_INT))
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
        return replace(t, body=_blind_subst(t.body, inner))
    return _map_children(t, lambda u: _blind_subst(u, mapping))


def _alpha_canon(t, env_names=None, counter=None):
    """Canonical renaming of quantifier binders for alpha comparison."""
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
    sub = Subsumer(tree_env)
    sub.subsume(penv, [Anchored("t", tree_int)])
    assert penv.atoms == ()  # affine: the unique token is gone


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
    sub = Subsumer(tree_env)
    sub.subsume(penv, [Anchored("t", tree_int)])
    # the structural atom and both subtree permissions are consumed by the
    # fold; only the duplicable int residue may survive
    assert all(
        duplicability(a.ty, tree_env) == DUPLICABLE
        for a in penv.atoms
        if isinstance(a, Anchored)
    )


def test_subsume_empty_env_fails(tree_env):
    penv = PermEnv(tree_env)
    sub = Subsumer(tree_env)
    with pytest.raises(SubsumptionFailure):
        sub.subsume(penv, [Anchored("t", TApp("tree", (TApp("int", ()),)))])


def test_either_of_focused_is_affine(tree_env):
    from minimz.ast import Scope
    from minimz.kinds import Resolver

    resolver = Resolver(tree_env)
    resolver.tyvars = Scope(a=KIND_TYPE, s=KIND_PERM, post=KIND_PERM)
    resolved = resolver.resolve_type(ty("either (focused a s) (| post)"))
    assert duplicability(resolved, tree_env) == AFFINE


def test_a_bare_bar_carries_its_component_names_over_its_permission(tree_env):
    # As in an arrow's domain, `x` and `y` are each bound by their component.
    def bar(name):
        carrier = TTuple((TupleComp(name, TApp("int", ())),))
        return TBar(carrier, TAt(name, TApp("int", ())))

    sub = Subsumer(tree_env)
    assert sub.unify(bar("x"), bar("y"))
    assert sub.unify(TArrow(bar("x"), TEmpty()), TArrow(bar("y"), TEmpty()))
    assert not sub.unify(bar("x"), TBar(bar("y").carrier, TAt("x", TApp("int", ()))))
    # A domain's inner bar is compared as well as its outer one.
    def nested(p):
        return TArrow(TBar(TBar(bar("x").carrier, TVar(p)), TVar("q")), TEmpty())

    assert sub.unify(nested("p"), nested("p"))
    assert not sub.unify(nested("p"), nested("r"))


def test_a_failed_attempt_leaves_no_binding_behind():
    # Matching `pair ?a ?a` against the first atom binds `?a` to bool before
    # it fails on the second argument; the second atom needs `?a` unbound.
    _, env = load_text("data pair a b = Pair { fst: a; snd: b }\n", "t")
    int_, bool_ = TApp("int", ()), TApp("bool", ())
    penv = PermEnv(
        env,
        (Anchored("x", TApp("pair", (bool_, int_))), Anchored("x", TApp("pair", (int_, int_)))),
    )
    sub = Subsumer(env)
    a = sub.uni.fresh("a")
    sub.subsume(penv, [Anchored("x", TApp("pair", (a, a)))])
    assert sub.uni.resolve(a) == int_
