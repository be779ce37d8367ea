"""The mutable records of `kinds`, `subsume` and `runtime`: each
constructor takes exactly the parameters that the program passes, by
position or by keyword, and every other field starts at the value pinned
below. Every record compares and hashes by identity: nothing in the
program compares two records by value."""

import inspect

import pytest

from minimz.ast import Scope
from minimz.kinds import AbstractInfo, AliasInfo, DataInfo, Env, PrimInfo
from minimz.runtime import Cell, OneShot, Stats, VBuiltin, VClosure
from minimz.subsume import Subsumer, Unifier, _Level

# Each record class; its constructor's parameters in order; and the value
# each field that no parameter sets starts at.
RECORDS = [
    (DataInfo, "name mutable params", {"branches": {}}),
    (AliasInfo, "name params", {"body": None, "kind": None}),
    (AbstractInfo, "name params", {}),
    (PrimInfo, "name", {"params": ()}),
    (Env, "types tags sigs", {"dup_memo": {}, "alias_memo": {}, "branch_memo": {}}),
    (VClosure, "arity fn", {}),
    (VBuiltin, "name arity fn", {}),
    (OneShot, "inner cell arity", {}),
    (Stats, "", {"steps": 0, "allocations": 0, "oneshot_fires": 0, "call_steps": {}}),
]


@pytest.mark.parametrize(
    "cls, names, initial", RECORDS, ids=[cls.__name__ for cls, *_ in RECORDS]
)
def test_a_record_is_built_and_compared_as_before(cls, names, initial):
    """Built by position or by keyword, as before, from the parameters the
    program passes; compared by identity, as `Cell` and `_Level` were
    before."""
    params = {name: name for name in names.split()}
    assert list(inspect.signature(cls).parameters) == list(params)
    record = cls(*params.values())
    assert [getattr(record, name) for name in params] == list(params.values())
    assert [getattr(cls(**params), name) for name in params] == list(params.values())
    assert {name: getattr(record, name) for name in initial} == initial
    assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    assert record == record and record != cls(*params.values())
    assert {record: 1}[record] == 1


def test_each_record_gets_mutable_defaults_of_its_own():
    assert DataInfo("d", False, ()).branches is not DataInfo("d", False, ()).branches
    assert Env().types == {} and Env().types is not Env().types
    assert Env().dup_memo is not Env().dup_memo
    assert Stats().call_steps is not Stats().call_steps


def test_a_subsumer_makes_its_own_unifier_and_empty_guard():
    env = Env()
    sub = Subsumer(env)
    assert list(inspect.signature(Subsumer).parameters) == ["env"]
    assert sub.env is env and isinstance(sub.uni, Unifier) and sub.uni is not Subsumer(env).uni
    assert isinstance(sub.guard, Scope) and sub.guard == {}
    assert sub != Subsumer(env) and Subsumer.__eq__ is object.__eq__


def test_cells_and_levels_compare_by_identity():
    assert Cell("A", {}, True) != Cell("A", {}, True)
    params = "goal after older rest mark guard_mark".split()
    assert list(inspect.signature(_Level).parameters) == params
    level = _Level("goal", None, None, iter(()), 0, 0)
    assert level.env_mark is None and level != _Level("goal", None, None, level.rest, 0, 0)
    cell = Cell("A", {}, True)
    assert cell == cell and hash(cell) == hash(cell)
