"""The direct paths of the search and of the checker agree with the
general ones.

A walk's level (`Subsumer._walk`) folds the nodes of a mutable literal
with no level of their own, and searches its goal again when the walk
fails: the search must end as a search that never walks ends, with the
atoms in the same order, the bindings, the guard and the fresh-name
counter, or fail with the same goal and snapshot. Only the handles that a
walk searched again spent may differ. `Checker._plain_call` lets a plain
call skip the general path: it must leave the environment, its handles,
the bindings, the guard and the fresh-name counter as the general path
leaves them, and fail with its goal and snapshot."""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from minimz.ast import (
    KIND_TYPE,
    TApp,
    TAt,
    TConcrete,
    TMeta,
    TSingleton,
    TTuple,
    TupleComp,
)
from minimz.check import Checker
from minimz.driver import load_text
from minimz.perms import Anchored, PermEnv, SubsumptionFailure
from minimz.subsume import Subsumer

TREE = """
data mutable tree a =
  Leaf
| Node { left: tree a; elem: a; right: tree a }

data mutable cell (p: perm) = Cell { v: int | p }
"""
_, ENV = load_text(TREE, "t")

META = "m%0"  # a metavariable, solved by a fold in some cases


class Walks(Subsumer):
    """A subsumer that keeps, for each walk's level it opens, whether the
    walk was kept (True) or its goal searched again (False)."""

    def __init__(self, env):
        super().__init__(env)
        self.walks: list[bool] = []

    def _walk(self, *args):
        i = len(self.walks)
        self.walks.append(True)
        alternatives = super()._walk(*args)
        yield next(alternatives)
        self.walks[i] = False
        yield from alternatives


class SearchOnly(Walks):
    """A subsumer that never walks: every fold opens a level of the search."""

    def _walk_goals(self, *args):
        return None


def node(left: str, elem: str, right: str, elem_ty=None) -> TConcrete:
    elem_field = TSingleton(elem) if elem_ty is None else elem_ty
    fields = (("left", TSingleton(left)), ("elem", elem_field), ("right", TSingleton(right)))
    return TConcrete("Node", fields, None)


def cons(head: str, tail: str) -> TConcrete:
    return TConcrete("Cons", (("head", TSingleton(head)), ("tail", TSingleton(tail))), None)


def tuple_of(*types) -> TTuple:
    return TTuple(tuple(TupleComp(None, t, False) for t in types))


def node_at(name: str, elem, tag: str = "") -> list:
    """The atoms of a one-node literal at `name`, whose element holds
    `elem`, with `tag` after the names of its fields."""
    left, e, right = (name + part + tag for part in "ler")
    return [Anchored(name, node(left, e, right)), Anchored(e, elem),
            Anchored(left, LEAF), Anchored(right, LEAF)]


_I = TApp("int", ())
_REF = TApp("ref", (_I,))
LEAF = TConcrete("Leaf", (), None)
_TREE_INT = TApp("tree", (_I,))
_PAIR = tuple_of(_I, _I)
NAMES = st.sampled_from(["x", "y", "z", "w"])
HELD = st.sampled_from(
    [
        _I, TApp("bool", ()), TApp("tree", (_I,)), LEAF, TConcrete("Nil", (), None),
        # a bar, and a field a fold cannot name
        TConcrete("Leaf", (), TAt("w", _I)), node("y", "z", "w", _I),
    ]
)
SINGLETONS = st.builds(TSingleton, NAMES)
HOLDINGS = st.one_of(
    HELD, st.builds(node, NAMES, NAMES, NAMES), st.builds(cons, NAMES, NAMES),
    # a tuple to open, and one to pick
    st.just(_PAIR), st.builds(tuple_of, SINGLETONS, SINGLETONS),
)
FOLD_GOALS = [
    TApp("tree", (_I,)),
    TApp("tree", (_PAIR,)),
    TApp("tree", (tuple_of(_TREE_INT, _I),)),  # a fold under a pick
    TApp("tree", (TMeta(META, KIND_TYPE),)),
    TApp("tree", (TApp("list", (_I,)),)),  # an immutable tag one level down
    TApp("list", (_I,)),
]


def meet(sub_class, atoms, globals, goal: Anchored):
    """What `sub_class` leaves after meeting `goal` in a new environment
    of `atoms` and `globals`: the atoms in order, the bindings, the guard,
    the next fresh name and the failure's goal and snapshot (None when the
    goal is met); and the subsumer's walks. A walk searched again may have
    spent handles that the search alone does not, so handles are compared
    only through the order of the atoms."""
    penv = PermEnv(ENV, atoms, globals)
    sub = sub_class(ENV)
    try:
        sub.subsume(penv, [goal])
        failure = None
    except SubsumptionFailure as exc:
        failure = (exc.goal, exc.snapshot)
    left = (penv.atoms, dict(sub.uni.bindings), dict(sub.guard), sub.uni.fresh_name("k"))
    return left + (failure,), sub.walks


def tree_of(name: str, depth: int, atoms: list) -> None:
    """Append the atoms of a full tree literal of `depth` levels at `name`."""
    if depth == 0:
        atoms.append(Anchored(name, LEAF))
        return
    atoms.append(Anchored(name, node(name + "l", name + "e", name + "r")))
    atoms.append(Anchored(name + "e", _I))
    tree_of(name + "l", depth - 1, atoms)
    tree_of(name + "r", depth - 1, atoms)


def with_at(atoms: list, anchor: str, ty) -> list:
    """`atoms` with the first atom of `anchor` made of type `ty`."""
    i = next(i for i, a in enumerate(atoms) if a.anchor == anchor)
    return atoms[:i] + [Anchored(anchor, ty)] + atoms[i + 1 :]


_TREE3: list = []
tree_of("x", 3, _TREE3)
_TREE_META = TApp("tree", (TMeta(META, KIND_TYPE),))

# name: (atoms, globals, goal type, for each walk's level whether its walk
# was kept or its goal searched again)
FOLD_CASES = {
    "a tree literal": (_TREE3, None, _TREE_INT, [True]),
    "a goal at a metavariable": (_TREE3, None, _TREE_META, [True]),
    "an immutable tag": (
        [Anchored("x", cons("y", "z")), Anchored("y", _I), Anchored("z", LEAF)], None,
        TApp("list", (_I,)), [],
    ),
    # a fold takes an affine atom whole, with a bar of its own
    "a bar of the atom": (
        with_at(_TREE3, "xll", TConcrete("Leaf", (), TAt("w", _REF))) + [Anchored("w", _REF)],
        None, _TREE_INT, [True],
    ),
    "a field that is no singleton": (
        with_at(_TREE3, "xl", node("xll", "xle", "xlr", _I)), None, _TREE_INT, [False],
    ),
    "a bar of the branch": (
        [Anchored("x", TConcrete("Cell", (("v", TSingleton("z")),), None)), Anchored("z", _I),
         Anchored("y", _REF)], None, TApp("cell", (TAt("y", _REF),)), [True],
    ),
    "an immutable tag one level down": (
        [Anchored("x", node("l", "e", "r")), Anchored("l", LEAF), Anchored("r", LEAF),
         Anchored("e", cons("h", "t")), Anchored("h", _I), Anchored("t", TConcrete("Nil", (), None))],
        None, TApp("tree", (TApp("list", (_I,)),)), [True],
    ),
    "a global": (_TREE3, {"x": _TREE_INT}, _TREE_INT, []),
    "a global two levels down": (_TREE3, {"xll": _TREE_INT}, _TREE_INT, [True]),
    "a failure two levels down": (with_at(_TREE3, "xlle", TApp("bool", ())), None, _TREE_INT,
                                  [False]),
    # the first fold solves the metavariable, then fails; the second,
    # by the search, solves it again
    "a metavariable solved by a fold that fails": (
        [Anchored("x", node("a", "b", "c")), Anchored("x", node("d", "e", "f")),
         Anchored("a", LEAF), Anchored("b", TApp("bool", ())), Anchored("d", LEAF),
         Anchored("e", _I), Anchored("f", LEAF)],
        None, _TREE_META, [False],
    ),
    # the first elem solves the metavariable, which the others then fail
    "a metavariable solved two levels down": (
        with_at(_TREE3, "xlle", TApp("bool", ())), None, _TREE_META, [False],
    ),
    # the walk opens `xe`'s tuple, drawing two names, then fails at `xre`:
    # the search opens it again and must draw the same two
    "fresh names drawn by a walk that fails": (
        node_at("x", _PAIR)[:3] + node_at("xr", TApp("bool", ())),
        None, TApp("tree", (_PAIR,)), [False],
    ),
    # `a`'s fold is met under `xe`'s pick: its first node fails, and its
    # second must be tried before the pick's second tuple
    "a fold under a pick": (
        [Anchored("x", node("xl", "xe", "xr")), Anchored("xl", LEAF), Anchored("xr", LEAF),
         Anchored("xe", tuple_of(TSingleton("a"), TSingleton("b"))),
         Anchored("xe", tuple_of(TSingleton("c"), TSingleton("d"))),
         Anchored("b", _I), Anchored("c", _TREE_INT), Anchored("d", _I)]
        + node_at("a", TApp("bool", ())) + node_at("a", _I, "2"),
        None, TApp("tree", (tuple_of(_TREE_INT, _I),)), [True, False],
    ),
}


@pytest.mark.parametrize("case", FOLD_CASES)
def test_a_fold_falls_back_to_the_search_where_it_must(case):
    atoms, globals, ty, walks = FOLD_CASES[case]
    goal = Anchored("x", ty)
    direct, taken = meet(Walks, atoms, globals, goal)
    assert direct == meet(SearchOnly, atoms, globals, goal)[0]
    assert taken == walks


@st.composite
def near_literals(draw) -> list:
    """The atoms of a tree literal at `x`, with up to two of its anchors'
    first atoms replaced by, or followed by, other holdings."""
    atoms: list = []
    tree_of("x", draw(st.integers(0, 3)), atoms)
    anchors = sorted({a.anchor for a in atoms})
    for _ in range(draw(st.integers(0, 2))):
        extra = Anchored(draw(st.sampled_from(anchors)), draw(HOLDINGS))
        if draw(st.booleans()):
            atoms = with_at(atoms, extra.anchor, extra.ty)
        else:
            atoms.append(extra)
    return atoms


@given(
    st.one_of(near_literals(), st.lists(st.builds(Anchored, NAMES, HOLDINGS), max_size=8)),
    st.sampled_from([None, {"y": TApp("tree", (_I,))}, {"xl": TApp("tree", (_I,))}]),
    st.sampled_from(FOLD_GOALS),
)
def test_a_direct_fold_ends_where_the_search_ends(atoms, globals, ty):
    goal = Anchored("x", ty)
    assert meet(Walks, atoms, globals, goal)[0] == meet(SearchOnly, atoms, globals, goal)[0]


class Calls(Checker):
    """A checker that keeps, after each call, the call's anchor, the
    environment's atoms with their handles, the bindings, the guard and
    the next fresh name."""

    states: list

    def check_file(self, file):
        self.states = []
        return super().check_file(file)

    def _check_call(self, penv, e):
        anchor = super()._check_call(penv, e)
        sub = self.sub
        self.states.append(
            (anchor, penv.items(), dict(sub.uni.bindings), dict(sub.guard),
             sub.uni.fresh_name("k"))
        )
        return anchor


class GeneralCalls(Calls):
    """A checker that takes every call by the general path."""

    def _plain_call(self, *args) -> bool:
        return False


CALLEES = """
val two: (int, int) -> int
val two (a, b) = a
val named: (x: int, y: int) -> int
val named (x, y) = y
val eat: (consumes int, bool) -> int
val eat (a, b) = a
val bump: ref int -> int
val bump (r) = 0
val pick: [a] (a, a) -> a
val pick (x, y) = x
val gen: [a] int -> list a
val gen (x) = Nil
val barred: (int | empty) -> int
val barred (a) = a
val mk: int -> ref int
val mk (x) = Ref { contents = x }
val same: (x: int) -> (=x)
val same (x) = x
val flag: bool -> bool
val flag (b) = b
val both: (int, bool) -> (int, bool)
val both (a, b) = (a, b)
val tagged: (x: int) -> list (=x)
val tagged (x) = Nil
val after: (x: int, y: list (=x)) -> int
val after (x, y) = x
"""
# callee: the number of its arguments; `f` and `g` are local functions,
# whose domains may have a bar that names a local
ARITY = {"two": 2, "named": 2, "eat": 2, "bump": 1, "pick": 2, "gen": 1, "barred": 1, "mk": 1,
         "same": 1, "flag": 1, "both": 2, "tagged": 1, "after": 2, "f": 1, "g": 1}
LOCALS = (
    "  let f = fun (int | consumes r @ ref int): int = 0 in\n"
    "  let g = fun (int | r @ ref int): int = 0 in\n"
)


@st.composite
def call_bodies(draw) -> str:
    """A body of lets, each the call of a callee of `CALLEES` or of a local
    function on names bound before it, literals and `flag`, a global."""
    names = ["p", "q", "r"]
    lines = []
    for i in range(draw(st.integers(1, 8))):
        callee = draw(st.sampled_from(sorted(ARITY)))
        # half of the arguments are ints, which most callees take
        args = [
            draw(st.one_of(st.sampled_from(["1", "p"]), st.sampled_from(names + ["true", "flag"])))
            for _ in range(ARITY[callee])
        ]
        arg = args[0] if len(args) == 1 else f"({', '.join(args)})"
        lines.append(f"  let v{i} = {callee} {arg} in")
        names.append(f"v{i}")
    return "\n".join(lines + ["  0"])


@given(call_bodies())
@example("  let v0 = two (p, 1) in\n  let v1 = named (v0, 1) in\n  let v2 = mk v1 in\n  0")
@example("  let v0 = bump r in\n  let v1 = bump r in\n  0")
@example("  let v0 = tagged p in\n  let v1 = after (p, v0) in\n  0")
@example("  let v0 = g p in\n  let v1 = f p in\n  0")
def test_a_plain_call_ends_where_the_general_path_ends(body):
    text = (
        CALLEES
        + "val main: (p: int, q: bool, r: ref int) -> int\nval main (p, q, r) =\n"
        + LOCALS
        + body
        + "\n"
    )
    file, env = load_text(text, "t")
    plain, general = Calls(env), GeneralCalls(env)
    # a diagnostic compares its code, message, span and snapshot
    assert plain.check_file(file) == general.check_file(file)
    assert plain.states == general.states
