"""Call-by-value interpreter over a mutable heap of tagged records.

Permissions never reach runtime; what remains is deterministic
left-to-right evaluation plus optional affinity instrumentation: any
closure literal packaged directly inside a tuple literal is treated as
one-shot, and all closures packaged by the same tuple literal share one
spent flag (so a double-barreled pair can fire at most one barrel).

A step is the evaluation of one source expression node, counted before the
node's work; a run traps STEP_LIMIT on step `max_steps + 1`. A call
evaluates its callee, then its argument: a callee of arity 1 receives the
argument as one value; a tuple literal as long as the arity is evaluated
item by item, and the tuple itself costs no step and packages nothing;
any other argument must evaluate to a tuple as long as the arity.

Each definition is compiled once per run, on its first call, into nested
Python closures (Feeley and Lapalme, "Using closures for code generation",
1987); the lambdas in its body are compiled with it. Names resolve at
compile time: a parameter or local to a slot of the activation's flat
frame, a name a lambda uses from outside to a copy the lambda takes when it
is made, any other name to the run's globals. Compiled closures capture no
`Interp`, heap, globals or bound method, and reach the run through slot 0
of the frame: closures end up in heap records, so capturing the run would
make every finished run a reference cycle that only the cycle collector
frees.
"""

from __future__ import annotations

import operator
import sys
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import itemgetter

from .ast import (
    DValDef,
    EAssign,
    EBool,
    ECall,
    EConstruct,
    EField,
    EIf,
    EInt,
    ELambda,
    ELet,
    EMatch,
    ETagUpdate,
    ETuple,
    EVar,
    Expr,
    PTuple,
    PVar,
    Pattern,
    SourceFile,
)
from .kinds import DataInfo, Env, domain_comps

_INT_MASK = (1 << 64) - 1

# `Interp.run` raises a process-wide setting, the recursion limit, and puts
# it back when it is done. Runs take turns behind this lock, so no run puts
# back a limit that a run on another thread still needs.
_RUN_LOCK = threading.Lock()


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
# Values and heap
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class VInt:
    value: int


@dataclass(slots=True)
class VBool:
    value: bool


@dataclass(slots=True)
class VAddr:
    addr: int


@dataclass(slots=True)
class VTuple:
    items: list


@dataclass(slots=True)
class Code:
    """A function body compiled to `body`, a closure from a frame to the
    body's value. A frame is a list: the Interp, the arguments, `pad` (one
    None for each local slot), then the closure's captured values. A
    top-level definition starts with `source` set and `body` None, and is
    compiled on its first call."""

    arity: int
    name: str | None  # a top-level definition's name, the key of its call_steps
    source: DValDef | None = None
    body: object = None
    pad: list = field(default_factory=list)


@dataclass(slots=True)
class VClosure:
    code: Code
    captured: tuple = ()  # capture k is the frame's item -1-k


@dataclass(slots=True)
class VBuiltin:
    name: str
    arity: int
    fn: object


@dataclass(slots=True)
class OneShot:
    """A closure instrumented to fire at most once; `cell` is shared by every
    closure packaged by the same tuple literal."""

    inner: VClosure
    cell: list


Value = VInt | VBool | VAddr | VTuple | VClosure | VBuiltin | OneShot

UNIT = VTuple([])


@dataclass(slots=True)
class Cell:
    tag: str
    fields: dict[str, Value]
    mutable: bool


@dataclass
class Stats:
    steps: int = 0
    allocations: int = 0
    oneshot_fires: int = 0
    call_steps: dict[str, list[int]] = field(default_factory=dict)


def _builtins() -> dict[str, VBuiltin]:
    def arith(name, fn):
        def wrapped(a: Value, b: Value) -> Value:
            if not isinstance(a, VInt) or not isinstance(b, VInt):
                raise RuntimeTrap("BAD_FIELD", f"{name} expects integers")
            return VInt(_wrap64(fn(a.value, b.value)))

        return wrapped

    def compare(name, fn):
        def wrapped(a: Value, b: Value) -> Value:
            if not isinstance(a, VInt) or not isinstance(b, VInt):
                raise RuntimeTrap("BAD_FIELD", f"{name} expects integers")
            return VBool(fn(a.value, b.value))

        return wrapped

    def checked_div(a: int, b: int) -> int:
        if b == 0:
            raise RuntimeTrap("DIV_ZERO", "division by zero")
        q = abs(a) // abs(b)
        return q if (a < 0) == (b < 0) else -q

    def checked_mod(a: int, b: int) -> int:
        if b == 0:
            raise RuntimeTrap("DIV_ZERO", "modulo by zero")
        return a - checked_div(a, b) * b

    def not_fn(a: Value) -> Value:
        if not isinstance(a, VBool):
            raise RuntimeTrap("BAD_FIELD", "not expects a boolean")
        return VBool(not a.value)

    table = {
        "add": (2, arith("add", operator.add)),
        "sub": (2, arith("sub", operator.sub)),
        "mul": (2, arith("mul", operator.mul)),
        "div": (2, arith("div", checked_div)),
        "mod": (2, arith("mod", checked_mod)),
        "eq": (2, compare("eq", operator.eq)),
        "lt": (2, compare("lt", operator.lt)),
        "le": (2, compare("le", operator.le)),
        "not": (1, not_fn),
    }
    return {name: VBuiltin(name, arity, fn) for name, (arity, fn) in table.items()}


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------


def _arity(f: Value) -> int:
    t = type(f)
    if t is VClosure:
        return f.code.arity
    if t is VBuiltin:
        return f.arity
    if t is OneShot:
        return f.inner.code.arity
    raise RuntimeTrap("BAD_FIELD", "value is not a function")


def _apply(rt: Interp, f: VClosure | OneShot, args: Sequence[Value]) -> Value:
    """Call closure `f` on as many arguments as its arity."""
    if type(f) is OneShot:
        if f.cell[0]:
            raise RuntimeTrap("ONE_SHOT_REUSE", "one-shot closure fired twice")
        f.cell[0] = True
        rt.stats.oneshot_fires += 1
        if rt.trace_enabled:
            rt.trace.append(f"oneshot {f.cell[1]}")
        f = f.inner
    code = f.code
    body = code.body or _Compiler(rt).definition(code)
    frame = [rt, *args, *code.pad, *f.captured]
    if code.name is None:
        return body(frame)
    before = rt.steps
    result = body(frame)
    rt.stats.call_steps.setdefault(code.name, []).append(rt.steps - before)
    return result


def _package(rt: Interp, items: list) -> VTuple:
    """A tuple literal's value: its closures become one-shot, sharing one
    spent flag."""
    if VClosure in map(type, items):
        rt.oneshot_seq += 1
        cell = [False, rt.oneshot_seq]
        items = [OneShot(v, cell) if type(v) is VClosure else v for v in items]
    return VTuple(items)


def _store(frame: list, target: int | tuple, value: Value) -> None:
    """Store `value` by a compiled pattern: a slot, or a tuple of patterns."""
    if type(target) is int:
        frame[target] = value
        return
    if type(value) is not VTuple or len(value.items) != len(target):
        raise RuntimeTrap("BAD_FIELD", "tuple pattern mismatch")
    for sub, item in zip(target, value.items):
        _store(frame, sub, item)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


class _Scope:
    """The frame layout of one function body while it is compiled. Slot 0
    holds the Interp, slots 1..arity the parameters; a local takes the next
    free slot for as long as it is in scope. A lambda's captures sit at the
    end of its frame and are read with negative indexes, so a capture found
    late in the body moves no slot already handed out."""

    def __init__(self, parent: _Scope | None, params: list[str | None]):
        self.parent = parent
        self.names = {p: slot for slot, p in enumerate(params, 1) if p is not None}
        self.depth = self.size = len(params) + 1
        self.captures: list[int] = []  # the enclosing frame's slot of each capture
        self.captured: dict[str, int] = {}

    def lookup(self, name: str) -> int | None:
        slot = self.names.get(name)
        if slot is None:
            slot = self.captured.get(name)
        if slot is None and self.parent is not None:
            outer = self.parent.lookup(name)
            if outer is not None:
                self.captures.append(outer)
                slot = self.captured[name] = -len(self.captures)
        return slot

    def bind(self, pat: Pattern) -> int | tuple:
        """Give each variable of `pat` a fresh slot; the compiled pattern."""
        if isinstance(pat, PTuple):
            return tuple(self.bind(sub) for sub in pat.items)
        assert isinstance(pat, PVar)
        slot = self.depth
        self.depth += 1
        self.size = max(self.size, self.depth)
        self.names[pat.name] = slot
        return slot

    def mark(self) -> tuple[dict[str, int], int]:
        return dict(self.names), self.depth

    def reset(self, mark: tuple[dict[str, int], int]) -> None:
        self.names, self.depth = mark[0], mark[1]


class _Compiler:
    """Compiles one definition's body, with the lambdas inside it, for one
    run. The closures it makes hold only compile-time constants and other
    closures."""

    def __init__(self, rt: Interp):
        self.limit = rt.max_steps
        self.trace = rt.trace_enabled
        self.globals = rt.globals
        self.env = rt.env
        self.scope: _Scope | None = None

    def definition(self, code: Code):
        assert code.source is not None
        code.body, code.pad, _ = self.function(list(code.source.params), code.source.body)
        return code.body

    def function(self, params: list[str | None], body: Expr):
        """(body closure, pad, enclosing slots of the captures)"""
        self.scope = scope = _Scope(self.scope, params)
        compiled = self.expr(body)
        self.scope = scope.parent
        return compiled, [None] * (scope.size - len(params) - 1), scope.captures

    def expr(self, e: Expr):
        return self.NODES[type(e)](self, e)

    def operands(self, exprs: Sequence[Expr]) -> tuple[int, list, itemgetter | None]:
        """Compile operands that a node evaluates in a row, right after a
        step. The leading ones that are variables bound in the frame are
        read by getters, and the node takes their steps all at once with
        that step: reading such a variable can neither trap nor be seen, so
        a run still traps on the same step. Returns the number of those
        variables, an evaluator for each operand, and a getter of all their
        values at once when every operand is such a variable."""
        slots = [self.scope.lookup(x.name) if isinstance(x, EVar) else None for x in exprs]
        lead = slots.index(None) if None in slots else len(slots)
        evaluators = [
            itemgetter(slot) if i < lead else self.expr(x)
            for i, (x, slot) in enumerate(zip(exprs, slots))
        ]
        fetch = itemgetter(*slots) if lead == len(slots) > 1 else None
        return lead, evaluators, fetch

    def operand(self, e: Expr):
        """(steps to take, evaluator) of a node's only operand."""
        lead, (evaluator,), _ = self.operands([e])
        return 1 + lead, evaluator

    def var(self, e: EVar):
        limit, name = self.limit, e.name
        slot = self.scope.lookup(name)
        if slot is not None:

            def local(fr):
                rt = fr[0]
                n = rt.steps = rt.steps + 1
                if n > limit:
                    raise _over(limit)
                return fr[slot]

            return local
        if name in self.globals:

            def global_(fr):
                rt = fr[0]
                n = rt.steps = rt.steps + 1
                if n > limit:
                    raise _over(limit)
                return rt.globals[name]

            return global_

        def unbound(fr):
            rt = fr[0]
            n = rt.steps = rt.steps + 1
            if n > limit:
                raise _over(limit)
            raise RuntimeTrap("UNBOUND", f"unbound value {name!r}")

        return unbound

    def constant(self, e: EInt | EBool):
        limit = self.limit
        value = VInt(e.value) if isinstance(e, EInt) else VBool(e.value)

        def constant(fr):
            rt = fr[0]
            n = rt.steps = rt.steps + 1
            if n > limit:
                raise _over(limit)
            return value

        return constant

    def call(self, e: ECall):
        limit = self.limit
        charge, callee = self.operand(e.callee)
        # A global callee is read, with its step, the same way.
        name = None
        if charge == 1 and isinstance(e.callee, EVar) and e.callee.name in self.globals:
            charge, name = 2, e.callee.name
        lead, items, fetch, count = 0, [], None, -1
        if isinstance(e.arg, ETuple):
            lead, items, fetch = self.operands(e.arg.items)
            whole, count = self.tuple_of(lead, items, fetch), len(items)
        else:
            whole = self.expr(e.arg)

        def call(fr):
            rt = fr[0]
            n = rt.steps = rt.steps + charge
            if n > limit:
                raise _over(limit)
            f = callee(fr) if name is None else rt.globals[name]
            arity = _arity(f)
            if arity == 1:
                args = [whole(fr)]
            elif arity == count:
                if lead:
                    n = rt.steps = rt.steps + lead
                    if n > limit:
                        raise _over(limit)
                args = [item(fr) for item in items] if fetch is None else fetch(fr)
            else:
                v = whole(fr)
                if type(v) is not VTuple or len(v.items) != arity:
                    raise RuntimeTrap("BAD_FIELD", f"call expects {arity} argument(s)")
                args = v.items
            if type(f) is VBuiltin:
                return f.fn(*args)
            return _apply(rt, f, args)

        return call

    def let(self, e: ELet):
        limit = self.limit
        charge, bound = self.operand(e.bound)
        mark = self.scope.mark()
        target = self.scope.bind(e.pattern)
        body = self.expr(e.body)
        self.scope.reset(mark)

        def let(fr):
            rt = fr[0]
            n = rt.steps = rt.steps + charge
            if n > limit:
                raise _over(limit)
            v = bound(fr)
            if type(target) is int:
                fr[target] = v
            else:
                _store(fr, target, v)
            return body(fr)

        return let

    def match(self, e: EMatch):
        limit = self.limit
        charge, scrutinee = self.operand(e.scrutinee)
        arms: dict[str, tuple] = {}
        for pat, body in e.branches:
            mark = self.scope.mark()
            targets = [(fname, self.scope.bind(fpat)) for fname, fpat in pat.fields]
            arms.setdefault(pat.tag, (targets, self.expr(body)))
            self.scope.reset(mark)

        def match(fr):
            rt = fr[0]
            n = rt.steps = rt.steps + charge
            if n > limit:
                raise _over(limit)
            v = scrutinee(fr)
            if type(v) is not VAddr:
                raise RuntimeTrap("BAD_FIELD", "value is not a record")
            cell = rt.heap[v.addr]
            arm = arms.get(cell.tag)
            if arm is None:
                raise RuntimeTrap("BAD_TAG", f"no branch for tag {cell.tag!r}")
            targets, body = arm
            fields = cell.fields
            for fname, target in targets:
                if fname not in fields:
                    raise RuntimeTrap("BAD_FIELD", f"missing field {fname!r}")
                if type(target) is int:
                    fr[target] = fields[fname]
                else:
                    _store(fr, target, fields[fname])
            return body(fr)

        return match

    def if_(self, e: EIf):
        limit = self.limit
        charge, cond = self.operand(e.cond)
        then, otherwise = self.expr(e.then), self.expr(e.otherwise)

        def if_(fr):
            rt = fr[0]
            n = rt.steps = rt.steps + charge
            if n > limit:
                raise _over(limit)
            c = cond(fr)
            if type(c) is not VBool:
                raise RuntimeTrap("BAD_FIELD", "condition is not a boolean")
            return then(fr) if c.value else otherwise(fr)

        return if_

    def field_(self, e: EField):
        limit, name = self.limit, e.name
        charge, obj = self.operand(e.obj)

        def field_(fr):
            rt = fr[0]
            n = rt.steps = rt.steps + charge
            if n > limit:
                raise _over(limit)
            v = obj(fr)
            if type(v) is not VAddr:
                raise RuntimeTrap("BAD_FIELD", "value is not a record")
            cell = rt.heap[v.addr]
            if name not in cell.fields:
                raise RuntimeTrap("BAD_FIELD", f"no field {name!r} on {cell.tag}")
            return cell.fields[name]

        return field_

    def update(self, e: EAssign | ETagUpdate):
        """`obj.f <- v` and `tag of obj <- T { f = v; ... }`: the new field
        values first, then the object; only a mutable record changes."""
        limit = self.limit
        if isinstance(e, EAssign):
            tag, names, exprs = None, [e.name], [e.value]
        else:
            tag, names, exprs = e.tag, [f for f, _ in e.fields], [fe for _, fe in e.fields]
        lead, values, fetch = self.operands(exprs)
        obj = self.expr(e.obj)

        def update(fr):
            rt = fr[0]
            n = rt.steps = rt.steps + 1 + lead
            if n > limit:
                raise _over(limit)
            vals = [v(fr) for v in values] if fetch is None else fetch(fr)
            v = obj(fr)
            if type(v) is not VAddr:
                raise RuntimeTrap("BAD_FIELD", "value is not a record")
            cell = rt.heap[v.addr]
            if not cell.mutable:
                raise RuntimeTrap("BAD_FIELD", f"{cell.tag} is immutable")
            if tag is not None:
                cell.tag = tag
            cell.fields.update(zip(names, vals))
            return UNIT

        return update

    def construct(self, e: EConstruct):
        limit, tag, trace = self.limit, e.tag, self.trace
        names = [f for f, _ in e.fields]
        lead, values, fetch = self.operands([fe for _, fe in e.fields])
        entry = self.env.tags.get(tag)
        info = self.env.types.get(entry[0]) if entry is not None else None
        mutable = isinstance(info, DataInfo) and info.mutable

        def construct(fr):
            rt = fr[0]
            n = rt.steps = rt.steps + 1 + lead
            if n > limit:
                raise _over(limit)
            vals = [v(fr) for v in values] if fetch is None else fetch(fr)
            fields = dict(zip(names, vals))
            heap = rt.heap
            addr = len(heap)
            heap.append(Cell(tag, fields, mutable))
            if trace:
                rt.trace.append(f"alloc {addr} {tag}")
            return VAddr(addr)

        return construct

    def tuple_(self, e: ETuple):
        return self.tuple_of(*self.operands(e.items))

    def tuple_of(self, lead: int, items: list, fetch: itemgetter | None):
        limit = self.limit

        def tuple_(fr):
            rt = fr[0]
            n = rt.steps = rt.steps + 1 + lead
            if n > limit:
                raise _over(limit)
            return _package(rt, [item(fr) for item in items] if fetch is None else list(fetch(fr)))

        return tuple_

    def lambda_(self, e: ELambda):
        limit = self.limit
        params = [c.name for c in domain_comps(e.domain)]
        body, pad, captures = self.function(params, e.body)
        code = Code(len(params), None, body=body, pad=pad)
        # Capture k sits at frame index -1-k, so the tuple lists them last first.
        sources = captures[::-1]
        take = (
            itemgetter(*sources) if len(sources) > 1
            else lambda fr: tuple([fr[s] for s in sources])
        )

        def lambda_(fr):
            rt = fr[0]
            n = rt.steps = rt.steps + 1
            if n > limit:
                raise _over(limit)
            return VClosure(code, take(fr))

        return lambda_

    NODES = {
        EVar: var,
        EInt: constant,
        EBool: constant,
        ECall: call,
        ELet: let,
        EMatch: match,
        EIf: if_,
        EField: field_,
        EAssign: update,
        ETagUpdate: update,
        EConstruct: construct,
        ETuple: tuple_,
        ELambda: lambda_,
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


class Interp:
    def __init__(self, env: Env, files: list[SourceFile], max_steps: int = 10_000_000,
                 trace: bool = False):
        self.env = env
        self.max_steps = max_steps
        self.heap: list[Cell] = []
        self.stats = Stats()
        self.steps = 0  # the live step count; `run` copies it into `stats`
        self.trace_enabled = trace
        self.trace: list[str] = []
        self.oneshot_seq = 0
        self.globals: dict[str, Value] = dict(_builtins())
        for file in files:
            for decl in file.decls:
                if isinstance(decl, DValDef):
                    code = Code(len(decl.params), decl.name, source=decl)
                    self.globals[decl.name] = VClosure(code)

    # -- entry ----------------------------------------------------------------

    def run(self, entry: str) -> Value:
        """Evaluate a nullary entry point under a raised recursion limit, so
        deep (but checked) recursion works while runaway recursion raises a
        trap. Calls from Python to Python take no C stack, so the depth
        needs no larger stack. Runs on different threads take turns (see
        `_RUN_LOCK`)."""
        main = self.globals.get(entry)
        if main is None:
            raise RuntimeTrap("UNBOUND", f"no entry point {entry!r}")
        if _arity(main) != 0:
            raise RuntimeTrap(
                "BAD_FIELD",
                f"{main.name} expects {main.arity}" if type(main) is VBuiltin
                else "wrong argument count",
            )
        with _RUN_LOCK:
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(300_000)
            try:
                return _apply(self, main, [])
            except RecursionError:
                raise RuntimeTrap("STEP_LIMIT", "evaluation recursion too deep") from None
            finally:
                sys.setrecursionlimit(limit)
                self.stats.steps = self.steps
                self.stats.allocations = len(self.heap)

    # -- rendering ---------------------------------------------------------------

    def render(self, v: Value) -> str:
        """Render `v` in full, without recursion, so that no value is too
        deep to print. A heap cell met again while it is still being rendered
        lies on a cycle and prints as `<cycle>`."""
        out: list[str] = []
        open_cells: set[int] = set()
        # Work, last item first: text to emit, a value to render, or the
        # address of a cell whose rendering ends here.
        work: list[str | int | Value] = [v]
        while work:
            item = work.pop()
            if isinstance(item, str):
                out.append(item)
            elif isinstance(item, int):
                open_cells.discard(item)
            elif isinstance(item, VInt):
                out.append(str(item.value))
            elif isinstance(item, VBool):
                out.append("true" if item.value else "false")
            elif isinstance(item, VTuple):
                work.append(")")
                for i, value in enumerate(reversed(item.items)):
                    work.append(value)
                    if i < len(item.items) - 1:
                        work.append(", ")
                out.append("(")
            elif isinstance(item, (VClosure, VBuiltin, OneShot)):
                out.append("<fun>")
            elif isinstance(item, VAddr):
                cell = self.heap[item.addr]
                if item.addr in open_cells:
                    out.append("<cycle>")
                elif not cell.fields:
                    out.append(cell.tag)
                else:
                    open_cells.add(item.addr)
                    work += [item.addr, " }"]
                    for i, (name, value) in enumerate(reversed(cell.fields.items())):
                        work += [value, f"{name} = "]
                        if i < len(cell.fields) - 1:
                            work.append("; ")
                    out.append(f"{cell.tag} {{ ")
            else:
                out.append(repr(item))
        return "".join(out)




def eval_program(
    env: Env,
    files: list[SourceFile],
    entry: str,
    max_steps: int = 10_000_000,
    trace: bool = False,
) -> tuple[Value, Interp]:
    interp = Interp(env, files, max_steps=max_steps, trace=trace)
    try:
        value = interp.run(entry)
    except RuntimeTrap as trap:
        trap.trace = interp.trace
        raise
    return value, interp
