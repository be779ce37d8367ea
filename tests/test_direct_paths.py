"""The direct paths of the search and of the checker agree with the
general ones.

`Subsumer._held` meets a held goal, `x @ T` for a plain `TApp` or a type
variable `T` that the first atom of `x` has, without the search: it must
give what `Subsumer._find_exact`, the step of the search that meets it,
gives, and bind and draw nothing more. `Subsumer._fold` takes a structural
atom by its tag, without `_extract`: it must take what `_extract` takes.
A walk's level (`Subsumer._walk`) folds the nodes of a mutable literal
with no level of their own, and searches its goal again when the walk
fails: the search must end as a search that never walks ends, with the
atoms in the same order, the bindings, the guard and the fresh-name
counter, or fail with the same goal and snapshot. Only the handles that a
walk searched again spent may differ. `Checker._plain_call` lets a plain
call skip the general path: it must leave the environment, its handles,
the bindings, the guard and the fresh-name counter as the general path
leaves them, and fail with its goal and snapshot. And
`perms.is_permission`, which `Subsumer.unify` asks instead of catching
`normalize`'s `TypeError`, accepts what `normalize` accepts."""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from conftest import parse_type

from minimz.ast import (
    KIND_PERM,
    KIND_TYPE,
    TApp,
    TArrow,
    TAt,
    TBar,
    TConcrete,
    TEmpty,
    TMeta,
    TSingleton,
    TStar,
    TTuple,
    TVar,
    TupleComp,
)
from minimz.check import Checker
from minimz.driver import load_text
from minimz.kinds import DataInfo
from minimz.perms import Anchored, PermEnv, SubsumptionFailure, is_permission, normalize
from minimz.subsume import Subsumer

TREE = """
data mutable tree a =
  Leaf
| Node { left: tree a; elem: a; right: tree a }

data mutable cell (p: perm) = Cell { v: int | p }

alias both (p: perm) (r: perm) = p * r
alias pair a = (a, a)
alias same a = a
"""
_, ENV = load_text(TREE, "t")

META = "m%0"  # a metavariable, bound to `int` in some examples

# Each type is made afresh on every draw that asks for a distinct object,
# so an atom's type may equal a goal's without being the same object.
TYPES = {
    "int": lambda: TApp("int", ()),
    "bool": lambda: TApp("bool", ()),
    "list int": lambda: TApp("list", (TApp("int", ()),)),
    "tree int": lambda: TApp("tree", (TApp("int", ()),)),
    "ref int": lambda: TApp("ref", (TApp("int", ()),)),
    "list ?m": lambda: TApp("list", (TMeta(META, KIND_TYPE),)),
    # binds a name, so unifying it draws one: not plain
    "list ([a] a -> a)": lambda: TApp("list", (parse_type("[a] a -> a"),)),
    "Leaf": lambda: TConcrete("Leaf", (), None),
    "Node": lambda: TConcrete(
        "Node", (("left", TSingleton("y")), ("elem", TSingleton("z")), ("right", TSingleton("x"))), None
    ),
    "Nil": lambda: TConcrete("Nil", (), None),
    "Cons": lambda: TConcrete("Cons", (("head", TSingleton("y")), ("tail", TSingleton("z"))), None),
    # structural but for a field a fold cannot name, or for a bar
    "Cons {head: int}": lambda: TConcrete(
        "Cons", (("head", TApp("int", ())), ("tail", TSingleton("z"))), None
    ),
    "Cons {head: ref int}": lambda: TConcrete(
        "Cons", (("head", TApp("ref", (TApp("int", ()),))), ("tail", TSingleton("z"))), None
    ),
    "Nil | y @ ref int": lambda: TConcrete("Nil", (), TAt("y", TApp("ref", (TApp("int", ()),)))),
    "Nil | y @ int": lambda: TConcrete("Nil", (), TAt("y", TApp("int", ()))),
    # type variables: a rigid one is held by an atom of its type
    "a": lambda: TVar("a"),
    "b": lambda: TVar("b"),
}
SHARED = {name: make() for name, make in TYPES.items()}
GOALS = ["int", "bool", "list int", "tree int", "ref int", "list ?m", "list ([a] a -> a)", "a", "b"]
ANCHORS = st.sampled_from(["x", "y", "z"])


def a_type(names):
    """A type named among `names`: the shared object, or a fresh equal one."""
    return st.builds(
        lambda name, fresh: TYPES[name]() if fresh else SHARED[name],
        st.sampled_from(names),
        st.booleans(),
    )


ATOMS = st.lists(st.builds(Anchored, ANCHORS, a_type(sorted(TYPES))), max_size=6)
GLOBALS = st.one_of(
    st.none(),
    st.dictionaries(ANCHORS, a_type(["int", "list int", "tree int"]), max_size=2),
)


def subsumer(bind_meta: bool) -> Subsumer:
    sub = Subsumer(ENV)
    if bind_meta:
        sub.uni.bindings.enter(META, SHARED["int"])
    return sub


@given(ATOMS, GLOBALS, st.booleans(), ANCHORS, a_type(GOALS))
@example([Anchored("x", SHARED["int"])], None, False, "x", TYPES["int"]())
@example([Anchored("x", SHARED["list ?m"])], None, True, "x", SHARED["list ?m"])
@example([Anchored("x", SHARED["tree int"])], None, False, "x", TYPES["tree int"]())
@example(
    [Anchored("x", SHARED["list ([a] a -> a)"])], None, False, "x", SHARED["list ([a] a -> a)"]
)
@example([Anchored("x", SHARED["a"])], None, False, "x", TYPES["a"]())
@example([Anchored("x", SHARED["b"]), Anchored("x", SHARED["a"])], None, False, "x", SHARED["a"])
def test_a_held_goal_is_met_as_the_search_meets_it(atoms, globals, bind_meta, anchor, ty):
    # Both meet the goal in one environment, undone in between.
    penv = PermEnv(ENV, atoms, globals)
    start, mark = penv.items(), penv.mark()
    direct, search = subsumer(bind_meta), subsumer(bind_meta)
    before = dict(direct.uni.bindings)
    if not direct._held(penv, penv.atoms_of(anchor), ty):
        assert penv.items() == start
        return
    held = penv.items()
    penv.undo_to(mark)
    assert penv.items() == start
    assert search._find_exact(penv, penv.atoms_of(anchor), anchor, ty)
    assert penv.items() == held
    assert dict(search.uni.bindings) == dict(direct.uni.bindings) == before
    # neither drew a fresh name, which would number every later name
    assert search.uni.fresh_name("k") == direct.uni.fresh_name("k")


STRUCTURAL = ["Leaf", "Node", "Nil", "Cons", "Cons {head: int}", "Cons {head: ref int}",
              "Nil | y @ ref int", "Nil | y @ int", "int"]


@given(
    st.lists(st.builds(Anchored, ANCHORS, a_type(STRUCTURAL)), max_size=6),
    a_type(["tree int", "list int"]),
)
@example([Anchored("x", SHARED["Nil | y @ ref int"])], SHARED["list int"])
@example([Anchored("x", SHARED["Node"]), Anchored("x", SHARED["Leaf"])], SHARED["tree int"])
def test_a_fold_takes_a_structural_atom_as_extract_takes_it(atoms, ty):
    penv = PermEnv(ENV, atoms)
    info = ENV.types[ty.head]
    assert isinstance(info, DataInfo)
    folds = [
        (h, a.ty)
        for h, a in penv.atoms_of("x")
        if a.ty.__class__ is TConcrete and a.ty.tag in info.branches
    ]
    sub = Subsumer(ENV)
    start = penv.items()
    alternatives = sub._fold(Anchored("x", ty), ty, penv, folds)
    for handle, sty in folds:  # the guard is empty: each is taken once
        if sub._fold_goals(ty, sty) is None:  # a field a fold cannot name
            continue
        mark, _ = next(alternatives)
        taken = penv.items()
        # undone to the fold's mark, as a search backs off to it
        penv.undo_to(mark)
        assert penv.items() == start
        sub._extract(penv, handle, sty)
        assert penv.items() == taken
        penv.undo_to(mark)


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


_INT, _BOOL = TApp("int", ()), TApp("bool", ())
PERMS = [
    TEmpty(),
    TVar("p"),
    TMeta("q%0", KIND_PERM),
    TAt("x", _INT),
    TAt("x", TBar(_INT, TAt("y", _BOOL))),
    TAt("x", TBar(_INT, _INT)),  # a type under the bar
    TAt("x", TBar(TBar(_INT, _INT), TEmpty())),  # under the inner bar
    TApp("both", (TAt("x", _INT), TEmpty())),
    TApp("both", (TAt("x", _INT), _INT)),
    TAt("x", TBar(_INT, TApp("both", (TEmpty(), TAt("y", _BOOL))))),
    _INT,
    TApp("pair", (_INT,)),  # an alias of kind type
    TApp("same", (TVar("p"),)),  # one whose body is a variable
    TArrow(_INT, _INT),
    TTuple(()),
]


@given(
    st.one_of(
        st.sampled_from(PERMS),
        st.lists(st.sampled_from(PERMS), min_size=2, max_size=3).map(
            lambda items: TStar(tuple(items))
        ),
    )
)
def test_is_permission_accepts_what_normalize_accepts(perm):
    try:
        normalize(ENV, perm)
    except TypeError:
        accepted = False
    else:
        accepted = True
    assert is_permission(ENV, perm) == accepted
