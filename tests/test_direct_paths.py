"""The direct paths of the search agree with the search.

`Subsumer._held` meets a held goal, `x @ T` for a plain `TApp` `T` that
the first atom of `x` has, without the search: it must give what
`Subsumer._find_exact`, the step of the search that meets it, gives, and
bind and draw nothing more. `Subsumer._fold` takes a structural atom by
its tag, without `_extract`: it must take what `_extract` takes. And
`perms.is_permission`, which `Subsumer.unify` asks instead of catching
`normalize`'s `TypeError`, accepts what `normalize` accepts."""

from __future__ import annotations

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
)
from minimz.driver import load_text
from minimz.kinds import DataInfo
from minimz.perms import Anchored, PermEnv, is_permission, normalize
from minimz.subsume import Subsumer

TREE = """
data mutable tree a =
  Leaf
| Node { left: tree a; elem: a; right: tree a }

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
}
SHARED = {name: make() for name, make in TYPES.items()}
GOALS = ["int", "bool", "list int", "tree int", "ref int", "list ?m", "list ([a] a -> a)"]
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
        mark, _ = next(alternatives)
        taken = penv.items()
        # undone to the fold's mark, as a search backs off to it
        penv.undo_to(mark)
        assert penv.items() == start
        sub._extract(penv, handle, sty)
        assert penv.items() == taken
        penv.undo_to(mark)


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
