"""Golden test of the span of every AST node the parser builds.

`span_pins.txt` holds, for `prelude.mz` and every corpus `.mz` file, one
line per node that keeps a span (types, patterns, expressions,
declarations, branches): its class, `span.start` and `span.length`, in
walk order (a node before its fields, fields in declaration order).
`golden.txt` shows only the spans that diagnostics print; this file shows
the rest. A change to the lexer or the parser that keeps its output must
leave it unchanged.

To rewrite the file after an intended change of the parser's output:

    PYTHONPATH=src python3 tests/test_span_pins.py > tests/span_pins.txt
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path

from conftest import is_node
from minimz.ast import fields
from minimz.driver import CORPUS_DIR
from minimz.parser import parse_file

GOLDEN = Path(__file__).with_name("span_pins.txt")


def walk(value, out: list[str]) -> None:
    if isinstance(value, tuple):
        for item in value:
            walk(item, out)
    elif is_node(value):
        span = getattr(value, "span", None)
        if span is not None:
            out.append(f"{type(value).__name__} {span.start} {span.length}")
        for f in fields(value):
            walk(getattr(value, f.name), out)


def dump() -> str:
    lines: list[str] = []
    for path in sorted(CORPUS_DIR.rglob("*.mz")):
        rel = path.relative_to(CORPUS_DIR).as_posix()
        lines.append(f"== {rel}")
        walk(parse_file(path.read_text(encoding="utf-8"), rel), lines)
    return "\n".join(lines) + "\n"


def test_every_node_keeps_its_pinned_span():
    want = GOLDEN.read_text(encoding="utf-8")
    got = dump()
    diff = "".join(
        difflib.unified_diff(
            want.splitlines(keepends=True),
            got.splitlines(keepends=True),
            GOLDEN.name,
            "now",
        )
    )
    assert got == want, diff


if __name__ == "__main__":
    sys.stdout.write(dump())
