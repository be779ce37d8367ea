"""Golden test of the toolchain's observable output on the corpus.

`golden.txt` holds, for every corpus `.mz` file, the code, span, message
and permission snapshot of each diagnostic, and for every manifest RUN row
the rendered value, step count and allocation count (or the trap). A change
that keeps the checker and interpreter behaviour must leave it unchanged.
Each file is checked the way a fresh `minimz check` would check it, so the
text equals a dump made one file per process.
"""

from __future__ import annotations

import difflib
from pathlib import Path

import pytest

from conftest import CORPUS

from minimz.cli import parse_manifest
from minimz.driver import check_text, run_text
from minimz.interp import RuntimeTrap
from minimz.kinds import ResolveError
from minimz.lexer import LexError
from minimz.parser import ParseError

GOLDEN = Path(__file__).with_name("golden.txt")


def check_lines(rel: str) -> list[str]:
    text = (CORPUS / rel).read_text(encoding="utf-8")
    try:
        _, _, diags = check_text(text, rel)
    except (LexError, ParseError, ResolveError) as exc:
        return [f"check {rel}: {type(exc).__name__} {exc}"]
    if not diags:
        return [f"check {rel}: clean"]
    lines = []
    for d in diags:
        lines.append(f"check {rel}: {d.code} {d.span.start}+{d.span.length} {d.message}")
        lines.append(f"  snapshot: {d.perm_snapshot}")
    return lines


def run_lines(rel: str, args: str) -> list[str]:
    entry, _, expected = args.partition("=")
    text = (CORPUS / rel).read_text(encoding="utf-8")
    try:
        value, interp = run_text(text, entry, rel, checked=not expected.startswith("TRAP:"))
    except RuntimeTrap as trap:
        return [f"run {rel} {entry}: trap {trap.kind}: {trap.message}"]
    stats = interp.stats
    return [
        f"run {rel} {entry}: {interp.render(value)}",
        f"  steps={stats.steps} allocations={stats.allocations}",
    ]


def corpus_files() -> list[str]:
    return sorted(p.relative_to(CORPUS).as_posix() for p in CORPUS.rglob("*.mz"))


def run_rows() -> list[tuple[str, str]]:
    cases = parse_manifest(CORPUS / "manifest.tsv")
    return [(rel, args) for expectation, rel, args in cases if expectation == "RUN"]


def dump() -> str:
    lines: list[str] = []
    for rel in corpus_files():
        lines += check_lines(rel)
    for rel, args in run_rows():
        lines += run_lines(rel, args)
    return "\n".join(lines) + "\n"


def test_corpus_output_matches_golden():
    want = GOLDEN.read_text(encoding="utf-8")
    got = dump()
    diff = "".join(
        difflib.unified_diff(
            want.splitlines(keepends=True),
            got.splitlines(keepends=True),
            "golden.txt",
            "now",
        )
    )
    assert got == want, diff


def test_each_run_row_fits_its_step_count_exactly():
    """A run with `max_steps` equal to its step count finishes, and with one
    fewer it traps on the last step."""
    for rel, args in run_rows():
        entry, _, expected = args.partition("=")
        if expected.startswith("TRAP:"):
            continue
        text = (CORPUS / rel).read_text(encoding="utf-8")
        _, interp = run_text(text, entry, rel)
        steps = interp.stats.steps
        _, exact = run_text(text, entry, rel, max_steps=steps)
        assert exact.stats.steps == steps
        with pytest.raises(RuntimeTrap) as exc:
            run_text(text, entry, rel, max_steps=steps - 1)
        assert (exc.value.kind, exc.value.message) == ("STEP_LIMIT", f"exceeded {steps - 1} steps")
