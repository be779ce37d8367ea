"""Call-by-value interpreter over mutable tagged records.

The values and the semantics of a step are in `runtime`; each
definition gets its code from `codegen` on its first call in a run. A run
raises the recursion limit, so deep (but checked) recursion works while
runaway recursion traps. A trap for recursion too deep reports the count
as of the last call.
"""

from __future__ import annotations

import sys
import threading
from operator import attrgetter

from .ast import DValDef, SourceFile
from .codegen import first_call, interface
from .kinds import Env
from .runtime import (
    OneShot,
    RuntimeTrap,
    Stats,
    Value,
    VBuiltin,
    VClosure,
    _builtins,
    _Check,
)

# `Interp.run` raises a process-wide setting, the recursion limit, and puts
# it back when it is done. Runs take turns behind this lock, so no run puts
# back a limit that a run on another thread still needs.
_RUN_LOCK = threading.Lock()


# The recursion limit during a run. A call of a definition or lambda takes
# one Python frame (a one-shot closure two, a helper function one more), so
# this bounds the depth of the program's calls to about as many.
_RECURSION_LIMIT = 100_000

_ARITY = attrgetter("arity")


class Interp:
    """The runs of a program. `checked` says whether the checker passed
    the program: its code then carries no affinity instrumentation, since
    the checker has proved that no one-shot closure fires twice; an
    unchecked run wraps the closures of each tuple literal in `OneShot`."""

    def __init__(self, env: Env, files: list[SourceFile], *, checked: bool,
                 max_steps: int = 10_000_000, trace: bool = False):
        self.checked = checked
        self.max_steps = max_steps
        self.stats = Stats()
        # The step count, as of the last call or trap; the records made; and
        # for each compiled definition, the steps of each of its calls that
        # returned, in a list its code appends to. `run` copies them into
        # `stats`.
        self.steps = 0
        self.allocations = 0
        self.calls: dict[str, list[int]] = {}
        self.trace_enabled = trace
        self.trace: list[str] = []
        self.oneshot_seq = 0
        defined: dict[str, Value] = {}
        for file in files:
            for decl, text in zip(file.decls, file.texts):
                if isinstance(decl, DValDef):
                    defined[decl.name] = VClosure(len(decl.params), first_call(decl, text))
        builtins = _builtins()
        self.globals: dict[str, Value] = builtins | defined
        # All that a definition's code depends on of the program (`codegen`).
        self.interface = interface(
            tuple(zip(self.globals, map(_ARITY, self.globals.values()))),
            frozenset(builtins.keys() - defined.keys()),
            frozenset(filter(env.mutable_tag, env.tags)),
        )

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
        if main.arity != 0:
            raise RuntimeTrap(
                "BAD_FIELD",
                f"{main.name} expects {main.arity}" if type(main) is VBuiltin
                else "wrong argument count",
            )
        with _RUN_LOCK:
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(_RECURSION_LIMIT)
            try:
                return main.fn(self, ())
            except _Check as check:
                trap = check.trap(self)
                # A check made at compile time is raised again and again:
                # it keeps no frame of this run.
                check.__traceback__ = check.__context__ = None
                raise trap from None
            except RecursionError:
                raise RuntimeTrap("STEP_LIMIT", "evaluation recursion too deep") from None
            finally:
                sys.setrecursionlimit(limit)
                self.stats.steps = self.steps
                self.stats.allocations = self.allocations
                self.stats.call_steps = {name: s for name, s in self.calls.items() if s}

    # -- rendering ---------------------------------------------------------------

    def render(self, v: Value) -> str:
        """Render `v` in full, without recursion, so that no value is too
        deep to print. A record met again while it is still being rendered
        lies on a cycle and prints as `<cycle>`."""
        out: list[str] = []
        open_cells: set[int] = set()  # the ids of the records being rendered
        # Work, last item first: text to emit, a value to render, or a
        # one-item list holding the id of a record whose rendering ends here.
        work: list = [v]
        while work:
            item = work.pop()
            cls = type(item)
            if cls is str:
                out.append(item)
            elif cls is list:
                open_cells.discard(item[0])
            elif cls is bool:
                out.append("true" if item else "false")
            elif cls is int:
                out.append(str(item))
            elif cls is tuple:
                work.append(")")
                for i, value in enumerate(reversed(item)):
                    work.append(value)
                    if i < len(item) - 1:
                        work.append(", ")
                out.append("(")
            elif cls in (VClosure, VBuiltin, OneShot):
                out.append("<fun>")
            else:  # a record
                if id(item) in open_cells:
                    out.append("<cycle>")
                elif not item.fields:
                    out.append(item.tag)
                else:
                    open_cells.add(id(item))
                    work += [[id(item)], " }"]
                    for i, (name, value) in enumerate(reversed(item.fields.items())):
                        work += [value, f"{name} = "]
                        if i < len(item.fields) - 1:
                            work.append("; ")
                    out.append(f"{item.tag} {{ ")
        return "".join(out)


def eval_program(
    env: Env,
    files: list[SourceFile],
    entry: str,
    *,
    checked: bool,
    max_steps: int = 10_000_000,
    trace: bool = False,
) -> tuple[Value, Interp]:
    interp = Interp(env, files, checked=checked, max_steps=max_steps, trace=trace)
    try:
        value = interp.run(entry)
    except RuntimeTrap as trap:
        trap.trace = interp.trace
        raise
    return value, interp
