"""A checked run and an unchecked run of a program that checks clean give
the same results.

The two modes compile each definition with one compiler; only an
unchecked run wraps the closures of each tuple literal in `OneShot`. For
every `RUN` row of the corpus manifest whose program checks clean, and
for the four iteration styles of the `iterate` benchmark workload at two
tree sizes, both modes give the same rendered value or trap, steps,
records allocated, and count and sum of each definition's call steps;
with the trace on, the same trace less its `oneshot` lines. A checked run
fires no one-shot closure.
"""

from __future__ import annotations

import pytest

from test_interp_pins import ITERATE_SIZES, ITERATE_STYLES, iterate_text

from minimz.check import Checker
from minimz.cli import parse_manifest
from minimz.driver import CORPUS_DIR, load_text, prelude
from minimz.interp import Interp, RuntimeTrap


def _checks_clean(text: str, path: str) -> bool:
    file, env = load_text(text, path)
    return not Checker(env).check_file(file)


def _programs():
    for expectation, rel, args in parse_manifest(CORPUS_DIR / "manifest.tsv"):
        if expectation != "RUN":
            continue
        text = (CORPUS_DIR / rel).read_text(encoding="utf-8")
        entry = args.partition("=")[0]
        if _checks_clean(text, rel):
            yield f"{rel}:{entry}", text, entry
    for style in ITERATE_STYLES:
        for n in ITERATE_SIZES:
            yield f"iterate_{style}.mz:n={n}", iterate_text(style, n), "main"


PROGRAMS = {name: (text, entry) for name, text, entry in _programs()}


def _outcome(env, files, entry: str, checked: bool, trace: bool):
    interp = Interp(env, files, checked=checked, trace=trace)
    try:
        shown = interp.render(interp.run(entry))
    except RuntimeTrap as trap:
        shown = f"trap {trap.kind}: {trap.message}"
    stats = interp.stats
    calls = {name: (len(steps), sum(steps)) for name, steps in stats.call_steps.items()}
    trace_lines = [line for line in interp.trace if not line.startswith("oneshot ")]
    return (shown, stats.steps, stats.allocations, calls, trace_lines), stats.oneshot_fires


@pytest.mark.parametrize("name", PROGRAMS)
def test_a_checked_run_gives_the_results_of_an_unchecked_one(name):
    text, entry = PROGRAMS[name]
    file, env = load_text(text, name.partition(":")[0])
    assert Checker(env).check_file(file) == []
    files = [prelude()[0], file]
    for trace in (False, True):
        checked, fires = _outcome(env, files, entry, True, trace)
        unchecked, _ = _outcome(env, files, entry, False, trace)
        assert fires == 0
        assert checked == unchecked
