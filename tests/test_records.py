"""The mutable records of `kinds`, `subsume` and `runtime`: built by
position or by keyword, with the defaults below, and equal to a record of
the very same class whose compared fields are equal, which makes them
unhashable. `Cell` and `_Level` compare by identity."""

import pytest

from minimz.ast import Scope
from minimz.kinds import AbstractInfo, AliasInfo, DataInfo, Env, PrimInfo
from minimz.runtime import Cell, OneShot, Stats, VBuiltin, VClosure, VTuple
from minimz.subsume import Subsumer, Unifier, _Level

# Each record class; its fields in order; the defaults of the fields that
# have one; and the fields `==` leaves out.
RECORDS = [
    (DataInfo, "name mutable params branches", {"branches": {}}, ""),
    (AliasInfo, "name params body kind", {"body": None, "kind": None}, ""),
    (AbstractInfo, "name params", {}, ""),
    (PrimInfo, "name params", {"params": ()}, ""),
    (
        Env,
        "types tags sigs dup_memo alias_memo branch_memo",
        {name: {} for name in ("types", "tags", "sigs", "dup_memo", "alias_memo", "branch_memo")},
        "dup_memo alias_memo branch_memo",
    ),
    (VTuple, "items", {}, ""),
    (VClosure, "arity fn", {}, ""),
    (VBuiltin, "name arity fn", {}, ""),
    (OneShot, "inner cell arity", {}, ""),
    (
        Stats,
        "steps allocations oneshot_fires call_steps",
        {"steps": 0, "allocations": 0, "oneshot_fires": 0, "call_steps": {}},
        "",
    ),
]


@pytest.mark.parametrize(
    "cls, names, defaults, uncompared", RECORDS, ids=[cls.__name__ for cls, *_ in RECORDS]
)
def test_a_record_is_built_and_compared_as_before(cls, names, defaults, uncompared):
    fields = {name: name for name in names.split()}
    record = cls(*fields.values())
    assert cls(**fields) == record
    assert [getattr(record, name) for name in fields] == list(fields.values())
    required = [name for name in fields if name not in defaults]
    from_defaults = cls(*required)
    assert {name: getattr(from_defaults, name) for name in defaults} == defaults
    with pytest.raises(TypeError):
        hash(record)
    for name in fields:
        other = cls(**{**fields, name: "other"})
        assert (other == record) is (name in uncompared.split()), name
    assert record != tuple(fields.values()) and record != None  # noqa: E711


def test_each_record_gets_mutable_defaults_of_its_own():
    assert DataInfo("d", False, ()).branches is not DataInfo("d", False, ()).branches
    assert Env().types is not Env().types
    assert Stats().call_steps is not Stats().call_steps


def test_a_subsumer_is_equal_to_one_with_the_same_env_unifier_and_guard():
    env, uni, guard = Env(), Unifier(), Scope()
    assert Subsumer(env, uni, guard) == Subsumer(env=env, uni=uni, guard=guard)
    assert Subsumer(env) != Subsumer(env)  # each makes its own unifier
    assert isinstance(Subsumer(env).uni, Unifier) and Subsumer(env).guard == {}


def test_cells_and_levels_compare_by_identity():
    assert Cell("A", {}, True) != Cell("A", {}, True)
    level = _Level("goal", None, None, iter(()), 0, 0)
    assert level.penv is None and level != _Level("goal", None, None, level.rest, 0, 0)
    cell = Cell("A", {}, True)
    assert cell == cell and hash(cell) == hash(cell)
