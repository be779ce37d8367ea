"""Values and the helpers that compiled code calls.

An `int` value is a Python `int` and a `bool` value a Python `bool`; since
`bool` is a subclass of `int`, a value's kind is told by `type(v) is int`
or `type(v) is bool`, never by `isinstance`. A tuple is a Python `tuple`,
and the unit value is `()`. A record is its own `Cell`, reached by
reference; a run counts the records it allocates and keeps no heap of
them.

Permissions never reach runtime; what remains is deterministic
left-to-right evaluation. A run of a program the checker passed carries
nothing more: the checker has proved that no one-shot closure fires
twice. An unchecked run adds affinity instrumentation: every closure
value that a tuple literal holds, whether written in the literal or bound
to a name first, is made one-shot (`_package`), and all closures packaged
by the same tuple literal share one spent flag (so a double-barreled pair
can fire at most one barrel). It traps ONE_SHOT_REUSE on a second fire,
so it may trap a program the checker accepts, whose closures of a plain
arrow type may be called any number of times.

A step is the evaluation of one source expression node, counted before the
node's work; a run traps STEP_LIMIT on step `max_steps + 1`. Steps taken
together are one charge, added whole (`_Check.trap`): a node's step with
the reads of the variables it takes right after it, or a call's step with
the read of its global callee. So after a STEP_LIMIT trap the count
passes `max_steps + 1` by the rest of the charge that held that step. A call
evaluates its callee, then its argument: a callee of arity 1 receives the
argument as one value; a tuple literal as long as the arity is evaluated
item by item, and the tuple itself costs no step and packages nothing;
any other argument must evaluate to a tuple as long as the arity.
"""

from __future__ import annotations

import operator
from types import MappingProxyType
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .interp import Interp

_INT_MASK = (1 << 64) - 1
_INT_MIN = -(1 << 63)
_INT_MAX = (1 << 63) - 1

def _wrap64(n: int) -> int:
    n &= _INT_MASK
    return n - (1 << 64) if n >= (1 << 63) else n


class RuntimeTrap(Exception):
    """kind is one of ONE_SHOT_REUSE, BAD_TAG, BAD_FIELD, UNBOUND, DIV_ZERO,
    STEP_LIMIT. `trace` holds the run's trace lines up to the trap (empty
    when tracing is off)."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message
        self.trace: list[str] = []


def _over(limit: int) -> RuntimeTrap:
    return RuntimeTrap("STEP_LIMIT", f"exceeded {limit} steps")


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


class Cell:
    """A record, compared by identity: every record literal allocates a new
    one, and an update writes it in place."""

    __slots__ = ("tag", "fields", "mutable")

    def __init__(self, tag: str, fields: dict[str, Value], mutable: bool):
        self.tag = tag
        self.fields = fields
        self.mutable = mutable


# A function value is called as `f.fn(rt, arg)`, where `rt` is the run and
# `arg` is the argument itself at arity 1 and a tuple of `f.arity`
# arguments otherwise.


class VClosure:
    """A compiled function. A top-level definition's `fn` compiles the
    definition on its first call and puts the result in its place."""

    __slots__ = ("arity", "fn")

    def __init__(self, arity: int, fn: object):
        self.arity = arity
        self.fn = fn


class VBuiltin:
    __slots__ = ("name", "arity", "fn")

    def __init__(self, name: str, arity: int, fn: object):
        self.name = name
        self.arity = arity
        self.fn = fn


class OneShot:
    """A closure instrumented to fire at most once; `cell` is shared by every
    closure packaged by the same tuple literal."""

    __slots__ = ("inner", "cell", "arity")

    def __init__(self, inner: VClosure, cell: list, arity: int):
        self.inner = inner
        self.cell = cell
        self.arity = arity

    def fn(self, rt: Interp, arg):
        cell = self.cell
        if cell[0]:
            raise RuntimeTrap("ONE_SHOT_REUSE", "one-shot closure fired twice")
        cell[0] = True
        rt.stats.oneshot_fires += 1
        if rt.trace_enabled:
            rt.trace.append(f"oneshot {cell[1]}")
        return self.inner.fn(rt, arg)


Value = int | bool | Cell | tuple | VClosure | VBuiltin | OneShot


class Stats:
    def __init__(self) -> None:
        self.steps = 0
        self.allocations = 0
        # The fires of `OneShot` closures: always 0 in a checked run, which
        # wraps none.
        self.oneshot_fires = 0
        # The steps of each returned call, by definition: a definition none
        # of whose calls has returned has no entry.
        self.call_steps: dict[str, list[int]] = {}


def _quot(a: int, b: int) -> int:
    """`a / b` rounded toward zero; b is not 0."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _rem(a: int, b: int) -> int:
    return a - _quot(a, b) * b


# The binary builtins: the Python expression an inlined call computes from
# the two ints, the same as a function, the type of the result, and the
# message of the trap on a zero divisor (None when there is none).
_BINARY = MappingProxyType({
    "add": ("{} + {}", operator.add, int, None),
    "sub": ("{} - {}", operator.sub, int, None),
    "mul": ("{} * {}", operator.mul, int, None),
    "div": ("_quot({}, {})", _quot, int, "division by zero"),
    "mod": ("_rem({}, {})", _rem, int, "modulo by zero"),
    "eq": ("{} == {}", operator.eq, bool, None),
    "lt": ("{} < {}", operator.lt, bool, None),
    "le": ("{} <= {}", operator.le, bool, None),
})


def _builtins() -> dict[str, VBuiltin]:
    def binary(name, fn, result, zero):
        def call(rt: Interp, arg) -> Value:
            a, b = arg
            if type(a) is not int or type(b) is not int:
                raise RuntimeTrap("BAD_FIELD", f"{name} expects integers")
            if zero is not None and b == 0:
                raise RuntimeTrap("DIV_ZERO", zero)
            v = fn(a, b)
            return _wrap64(v) if result is int else v

        return VBuiltin(name, 2, call)

    def not_(rt: Interp, a: Value) -> Value:
        if type(a) is not bool:
            raise RuntimeTrap("BAD_FIELD", "not expects a boolean")
        return not a

    table = {name: binary(name, *spec[1:]) for name, spec in _BINARY.items()}
    table["not"] = VBuiltin("not", 1, not_)
    return table


# ---------------------------------------------------------------------------
# What compiled code calls besides functions
# ---------------------------------------------------------------------------


class _Check(Exception):
    """A check in compiled code that failed, or a step limit passed. Each
    is made when the code is compiled and raised as it is; `Interp.run`
    turns it into the run's trap. `charges` are the steps taken since the
    count was last checked and not yet added to it; the first of them to
    pass the limit stops the run instead. A kind of None is a check of the
    limit made after the charges were added."""

    def __init__(self, kind: str | None, message: str | None, charges: tuple):
        super().__init__(kind, message)
        self.kind, self.message, self.charges = kind, message, charges
        self.total = sum(charges)

    def fill(self, value: object) -> _Check:
        """The check with `value` in the one hole of its message. Program
        names hold no braces, so a message template has no other hole."""
        return _Check(self.kind, self.message.format(value), self.charges)

    def trap(self, rt: Interp) -> RuntimeTrap:
        steps = rt.steps - self.total if self.kind is None else rt.steps
        for charge in self.charges:
            steps += charge
            if steps > rt.max_steps:
                rt.steps = steps
                return _over(rt.max_steps)
        rt.steps = steps
        return RuntimeTrap(self.kind, self.message)


def _package(rt: Interp, items: list) -> tuple:
    """The value of a tuple literal, given the new list of its items: its
    closures become one-shot, sharing one spent flag."""
    cell = None
    for i, v in enumerate(items):
        if type(v) is VClosure:
            if cell is None:
                rt.oneshot_seq += 1
                cell = [False, rt.oneshot_seq]
            items[i] = OneShot(v, cell, v.arity)
    return tuple(items)


def _spread(value: Value, arity: int):
    """The argument of a call of `arity` on `value`: the value itself at
    arity 1, else a tuple as long as the arity."""
    if arity == 1:
        return value
    if type(value) is not tuple or len(value) != arity:
        raise RuntimeTrap("BAD_FIELD", f"call expects {arity} argument(s)")
    return value


def _build(rt: Interp, plan: tuple) -> Cell:
    """A record literal of constants, from its plan: the pending charges'
    `_Check` of the limit, the tag, the fields with the plan of each field
    that is a record literal in place of its value, and whether the record
    is mutable. Fields are made in order, each before its record, as the
    code of the literal would make them; the record is then allocated as
    that code allocates it in place (`codegen._Compiler.construct`): once
    the charges are taken, named in the trace by its ordinal among the
    run's records."""
    limit, tag, fields, mutable = plan
    values = {f: _build(rt, v) if type(v) is tuple else v for f, v in fields}
    rt.steps += limit.total
    if rt.steps > rt.max_steps:
        raise limit
    if rt.trace_enabled:
        rt.trace.append(f"alloc {rt.allocations} {tag}")
    rt.allocations += 1
    return Cell(tag, values, mutable)
