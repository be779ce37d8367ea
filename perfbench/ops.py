"""One operation as the CLI performs it, plain or traced layer by layer,
and the check of its outcome against the expectation made with its input.

Both paths are one: `run_plain` calls the driver's public functions, as
`minimz check`, `minimz run` and `minimz test` do. A traced operation is
`run_plain` with the program's own layer functions swapped, for its
duration, for wrappers that record a span around each call:

    driver  driver.prelude           lexer   parser.tokenize
    parser  Parser.parse_file        kinds   driver.resolve
    check   Checker.check_file       interp  interp.eval_program
    cli     Diagnostic.render, Interp.render
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from time import perf_counter_ns

from minimz import check, cli, driver, interp, parser

from workloads import Clean, Op, Planted, Prints, Row


@dataclass
class Outcome:
    diags: list  # Diagnostic, from `check`
    lines: list[str]  # what the CLI prints
    value: str | None = None  # the rendered value of a run
    passed: bool = False  # a manifest row: `minimz test` passes it


def run_plain(op: Op) -> Outcome:
    e = op.expect
    if isinstance(e, Row):
        passed, detail = cli.run_case(e.root, e.expectation, op.path, e.args)
        return Outcome([], [detail], passed=passed)
    if op.entry is None:
        _, _, diags = driver.check_text(op.text, op.path)
        return Outcome(diags, [d.render(op.path, op.text) for d in diags])
    value, program = driver.run_text(op.text, op.entry, op.path)
    rendered = program.render(value)
    return Outcome([], [rendered], value=rendered)


def _interp_counts(result) -> dict[str, int]:
    stats = result[1].stats
    return {
        "steps": stats.steps,
        "allocations": stats.allocations,
        "call_step_records": sum(len(v) for v in stats.call_steps.values()),
    }


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent, op, counts],
    where parent is the index of the enclosing span or -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []  # spans not yet ended, innermost last
        self._op = -1
        self._tokens = 0  # of the file the lexer last read

    def _lexed(self, tokens) -> dict[str, int]:
        self._tokens = len(tokens) - 1  # less the end-of-file token
        return {"tokens": self._tokens}

    def _layers(self):
        """(owner, attribute, layer, counts of the call's result)."""
        return (
            (driver, "prelude", "driver", None),
            (parser, "tokenize", "lexer", self._lexed),
            (parser.Parser, "parse_file", "parser", None),
            (driver, "resolve", "kinds", None),
            (check.Checker, "check_file", "check", lambda _: {"tokens": self._tokens}),
            (interp, "eval_program", "interp", _interp_counts),
            (check.Diagnostic, "render", "cli", None),
            (interp.Interp, "render", "cli", None),
        )

    def _wrap(self, name: str, fn, counts):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_ and spans[open_[-1]][0] == name:
                return fn(*args, **kwargs)  # a recursive call, inside its span
            i = len(spans)
            spans.append([name, perf_counter_ns(), 0, open_[-1] if open_ else -1, self._op, None])
            open_.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[i][2] = perf_counter_ns()
                open_.pop()
            if counts is not None:
                spans[i][5] = counts(result)
            return result

        return traced

    def run(self, op_id: int, op: Op) -> Outcome:
        layers = self._layers()
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in layers]
        for owner, attr, name, counts in layers:
            setattr(owner, attr, self._wrap(name, getattr(owner, attr), counts))
        self._op = op_id
        try:
            return self._wrap("op", run_plain, None)(op)
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def self_times(self) -> dict[str, int]:
        """Nanoseconds per layer name, each span less its children."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, int] = {}
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0) + end - start - child_ns[i]
        return totals

    def counts(self, layer: str, key: str) -> int:
        return sum(
            s[5].get(key, 0) for s in self.spans if s[0] == layer and s[5] is not None
        )


def mismatch(op: Op, out: Outcome) -> str | None:
    """Why `out` is not what `op` expects, or None when it is."""
    e = op.expect
    codes = [d.code for d in out.diags]
    if isinstance(e, Row):
        return None if out.passed else out.lines[0]
    if isinstance(e, Clean):
        return f"unexpected diagnostics {codes}" if out.diags else None
    if isinstance(e, Planted):
        if len(out.diags) != 1:
            return f"expected one {e.code}, got {codes}"
        d = out.diags[0]
        if d.code != e.code or not e.start <= d.span.start < e.end:
            return f"expected {e.code} in [{e.start}, {e.end}), got {d.code} at {d.span.start}"
        return None
    if isinstance(e, Prints):
        return None if out.value == e.value else f"expected {e.value!r}, got {out.value!r}"
    return f"unknown expectation {e!r}"
