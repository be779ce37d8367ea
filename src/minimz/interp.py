"""Call-by-value interpreter over a mutable heap of tagged records.

Permissions never reach runtime; what remains is deterministic
left-to-right evaluation plus optional affinity instrumentation: any
closure literal packaged directly inside a tuple literal is treated as
one-shot, and all closures packaged by the same tuple literal share one
spent flag (so a double-barreled pair can fire at most one barrel).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

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
    PTag,
    PTuple,
    PVar,
    Pattern,
    SourceFile,
)
from .kinds import DataInfo, Env, domain_comps

_INT_MASK = (1 << 64) - 1


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


# ---------------------------------------------------------------------------
# Values and heap
# ---------------------------------------------------------------------------


@dataclass
class VInt:
    value: int


@dataclass
class VBool:
    value: bool


@dataclass
class VAddr:
    addr: int


@dataclass
class VTuple:
    items: list


@dataclass
class VClosure:
    params: list[str | None]
    body: Expr
    env: dict
    name: str | None = None  # set for top-level definitions


@dataclass
class VBuiltin:
    name: str
    arity: int
    fn: object


@dataclass
class OneShot:
    """A closure instrumented to fire at most once; `cell` is shared by every
    closure packaged by the same tuple literal."""

    inner: VClosure
    cell: list


Value = VInt | VBool | VAddr | VTuple | VClosure | VBuiltin | OneShot

UNIT = VTuple([])


@dataclass
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
        return int(a / b) if (a < 0) != (b < 0) and a % b else a // b

    def checked_mod(a: int, b: int) -> int:
        if b == 0:
            raise RuntimeTrap("DIV_ZERO", "modulo by zero")
        return a - checked_div(a, b) * b

    def not_fn(a: Value) -> Value:
        if not isinstance(a, VBool):
            raise RuntimeTrap("BAD_FIELD", "not expects a boolean")
        return VBool(not a.value)

    table = {
        "add": (2, arith("add", lambda a, b: a + b)),
        "sub": (2, arith("sub", lambda a, b: a - b)),
        "mul": (2, arith("mul", lambda a, b: a * b)),
        "div": (2, arith("div", checked_div)),
        "mod": (2, arith("mod", checked_mod)),
        "eq": (2, compare("eq", lambda a, b: a == b)),
        "lt": (2, compare("lt", lambda a, b: a < b)),
        "le": (2, compare("le", lambda a, b: a <= b)),
        "not": (1, not_fn),
    }
    return {name: VBuiltin(name, arity, fn) for name, (arity, fn) in table.items()}


class Interp:
    def __init__(self, env: Env, files: list[SourceFile], max_steps: int = 10_000_000,
                 trace: bool = False):
        self.env = env
        self.max_steps = max_steps
        self.heap: list[Cell] = []
        self.stats = Stats()
        self.trace_enabled = trace
        self.trace: list[str] = []
        self._oneshot_seq = 0
        self.globals: dict[str, Value] = dict(_builtins())
        for file in files:
            for decl in file.decls:
                if isinstance(decl, DValDef):
                    self.globals[decl.name] = VClosure(
                        list(decl.params), decl.body, {}, name=decl.name
                    )

    # -- heap -----------------------------------------------------------------

    def alloc(self, tag: str, fields: dict[str, Value]) -> VAddr:
        entry = self.env.tags.get(tag)
        mutable = False
        if entry is not None:
            info = self.env.types.get(entry[0])
            mutable = isinstance(info, DataInfo) and info.mutable
        addr = len(self.heap)
        self.heap.append(Cell(tag, fields, mutable))
        self.stats.allocations += 1
        if self.trace_enabled:
            self.trace.append(f"alloc {addr} {tag}")
        return VAddr(addr)

    def cell(self, v: Value) -> Cell:
        if not isinstance(v, VAddr):
            raise RuntimeTrap("BAD_FIELD", "value is not a record")
        return self.heap[v.addr]

    # -- evaluation -------------------------------------------------------------

    def eval(self, env: dict, e: Expr) -> Value:
        self.stats.steps += 1
        if self.stats.steps > self.max_steps:
            raise RuntimeTrap("STEP_LIMIT", f"exceeded {self.max_steps} steps")
        if isinstance(e, EVar):
            if e.name in env:
                return env[e.name]
            if e.name in self.globals:
                return self.globals[e.name]
            raise RuntimeTrap("UNBOUND", f"unbound value {e.name!r}")
        if isinstance(e, ECall):
            callee = self.eval(env, e.callee)
            args = self.eval_args(env, callee, e.arg)
            return self.invoke(callee, args)
        if isinstance(e, ELet):
            bound = self.eval(env, e.bound)
            env2 = dict(env)
            self.bind(env2, e.pattern, bound)
            return self.eval(env2, e.body)
        if isinstance(e, EInt):
            return VInt(e.value)
        if isinstance(e, EBool):
            return VBool(e.value)
        if isinstance(e, EMatch):
            scrutinee = self.eval(env, e.scrutinee)
            cell = self.cell(scrutinee)
            for pat, body in e.branches:
                assert isinstance(pat, PTag)
                if pat.tag == cell.tag:
                    env2 = dict(env)
                    for fname, fpat in pat.fields:
                        if fname not in cell.fields:
                            raise RuntimeTrap("BAD_FIELD", f"missing field {fname!r}")
                        self.bind(env2, fpat, cell.fields[fname])
                    return self.eval(env2, body)
            raise RuntimeTrap("BAD_TAG", f"no branch for tag {cell.tag!r}")
        if isinstance(e, EIf):
            cond = self.eval(env, e.cond)
            if not isinstance(cond, VBool):
                raise RuntimeTrap("BAD_FIELD", "condition is not a boolean")
            return self.eval(env, e.then if cond.value else e.otherwise)
        if isinstance(e, EField):
            cell = self.cell(self.eval(env, e.obj))
            if e.name not in cell.fields:
                raise RuntimeTrap("BAD_FIELD", f"no field {e.name!r} on {cell.tag}")
            return cell.fields[e.name]
        if isinstance(e, EAssign):
            value = self.eval(env, e.value)
            cell = self.cell(self.eval(env, e.obj))
            if not cell.mutable:
                raise RuntimeTrap("BAD_FIELD", f"{cell.tag} is immutable")
            cell.fields[e.name] = value
            return UNIT
        if isinstance(e, ETagUpdate):
            values = [(fname, self.eval(env, fe)) for fname, fe in e.fields]
            cell = self.cell(self.eval(env, e.obj))
            if not cell.mutable:
                raise RuntimeTrap("BAD_FIELD", f"{cell.tag} is immutable")
            cell.tag = e.tag
            for fname, v in values:
                cell.fields[fname] = v
            return UNIT
        if isinstance(e, EConstruct):
            fields = {fname: self.eval(env, fe) for fname, fe in e.fields}
            return self.alloc(e.tag, fields)
        if isinstance(e, ETuple):
            return self.make_tuple([self.eval(env, item) for item in e.items])
        if isinstance(e, ELambda):
            comps = domain_comps(e.domain)
            params: list[str | None] = [c.name for c in comps]
            return VClosure(params, e.body, dict(env))
        raise RuntimeTrap("UNBOUND", f"cannot evaluate {type(e).__name__}")

    def make_tuple(self, items: list) -> VTuple:
        closures = [i for i, v in enumerate(items) if isinstance(v, VClosure)]
        if closures:
            self._oneshot_seq += 1
            cell = [False, self._oneshot_seq]
            items = [
                OneShot(v, cell) if isinstance(v, VClosure) else v for v in items
            ]
        return VTuple(items)

    def eval_args(self, env: dict, callee: Value, arg: Expr) -> list:
        arity = self.arity(callee)
        if arity == 1:
            return [self.eval(env, arg)]
        if isinstance(arg, ETuple) and len(arg.items) == arity:
            # Argument tuples map one-to-one onto parameters; no packaging
            # (and hence no one-shot instrumentation) happens here.
            return [self.eval(env, item) for item in arg.items]
        value = self.eval(env, arg)
        if isinstance(value, VTuple) and len(value.items) == arity:
            return list(value.items)
        raise RuntimeTrap("BAD_FIELD", f"call expects {arity} argument(s)")

    def arity(self, callee: Value) -> int:
        if isinstance(callee, OneShot):
            return len(callee.inner.params)
        if isinstance(callee, VClosure):
            return len(callee.params)
        if isinstance(callee, VBuiltin):
            return callee.arity
        raise RuntimeTrap("BAD_FIELD", "value is not a function")

    def invoke(self, callee: Value, args: list) -> Value:
        if isinstance(callee, OneShot):
            if callee.cell[0]:
                raise RuntimeTrap("ONE_SHOT_REUSE", "one-shot closure fired twice")
            callee.cell[0] = True
            self.stats.oneshot_fires += 1
            if self.trace_enabled:
                self.trace.append(f"oneshot {callee.cell[1]}")
            return self.invoke(callee.inner, args)
        if isinstance(callee, VBuiltin):
            if len(args) != callee.arity:
                raise RuntimeTrap("BAD_FIELD", f"{callee.name} expects {callee.arity}")
            return callee.fn(*args)
        if isinstance(callee, VClosure):
            if len(args) != len(callee.params):
                raise RuntimeTrap("BAD_FIELD", "wrong argument count")
            env = dict(callee.env)
            for name, value in zip(callee.params, args):
                if name is not None:
                    env[name] = value
            if callee.name is not None:
                before = self.stats.steps
                result = self.eval(env, callee.body)
                self.stats.call_steps.setdefault(callee.name, []).append(
                    self.stats.steps - before
                )
                return result
            return self.eval(env, callee.body)
        raise RuntimeTrap("BAD_FIELD", "value is not a function")

    def bind(self, env: dict, pat: Pattern, value: Value) -> None:
        if isinstance(pat, PVar):
            env[pat.name] = value
        elif isinstance(pat, PTuple):
            if not isinstance(value, VTuple) or len(value.items) != len(pat.items):
                raise RuntimeTrap("BAD_FIELD", "tuple pattern mismatch")
            for sub, item in zip(pat.items, value.items):
                self.bind(env, sub, item)
        else:
            raise RuntimeTrap("BAD_TAG", "unexpected pattern")

    # -- entry ----------------------------------------------------------------

    def run(self, entry: str) -> Value:
        """Evaluate a nullary entry point on a dedicated thread with a large
        stack, so deep (but checked) recursion works while runaway recursion
        raises a trap instead of exhausting the C stack."""
        main = self.globals.get(entry)
        if main is None:
            raise RuntimeTrap("UNBOUND", f"no entry point {entry!r}")
        import threading

        outcome: dict[str, object] = {}

        def work() -> None:
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(300_000)
            try:
                outcome["value"] = self.invoke(main, [])
            except RecursionError:
                outcome["error"] = RuntimeTrap(
                    "STEP_LIMIT", "evaluation recursion too deep"
                )
            except BaseException as exc:  # noqa: BLE001 - reraised on the caller
                outcome["error"] = exc
            finally:
                sys.setrecursionlimit(limit)

        old_stack = threading.stack_size()
        threading.stack_size(512 * 1024 * 1024)
        try:
            thread = threading.Thread(target=work, name=f"minimz-{entry}")
            thread.start()
            thread.join()
        finally:
            threading.stack_size(old_stack)
        if "error" in outcome:
            raise outcome["error"]  # type: ignore[misc]
        return outcome["value"]  # type: ignore[return-value]

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
