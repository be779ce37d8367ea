"""Golden test of the interpreter's observable behaviour, step by step.

`interp_pins.txt` holds, for every `run/` and `dyn/` RUN row of the corpus
manifest and for each `--max-steps` value from 1 to the row's full step
count, what an unchecked run gives: the trap, or the rendered value;
`stats.steps`; the records allocated (`stats.allocations`, printed as
`heap=`); the one-shot fires; the trace, as its length and a digest; and
the number and sum of each function's `call_steps`. Every run is
unchecked, since only an unchecked run wraps closures in `OneShot` and so
has fires to pin; `test_run_modes.py` shows that a checked run of each
program that checks clean gives the same results with no fires. A row
longer than `EVERY` steps is pinned at every value up to `EVERY`, then at
every `STRIDE`-th value, then at its full count: its tail repeats one
recursion, and a prime stride lands on each node of it. The file also pins
the four iteration styles of the `iterate` benchmark workload at two tree
sizes, in full, with the trace on and off. A change to the interpreter
that keeps its behaviour must leave the file unchanged.

To rewrite the file after an intended change of behaviour:

    PYTHONPATH=src python3 tests/test_interp_pins.py > tests/interp_pins.txt
"""

from __future__ import annotations

import difflib
import hashlib
import sys
from pathlib import Path

from minimz.check import Checker
from minimz.cli import parse_manifest
from minimz.driver import CORPUS_DIR, load_text, prelude
from minimz.interp import Interp, RuntimeTrap

GOLDEN = Path(__file__).with_name("interp_pins.txt")

EVERY = 2000
STRIDE = 97

# The `iterate` workload's program: a style's library, a balanced tree of
# n ints, and a drain of it into a checksum.
ITERATE_STYLES = {
    "iter": (
        "run/run_iter.mz",
        "  let acc = Ref { contents = Nil } in\n"
        "  let cb =\n"
        "    fun (x: int | acc @ ref (list int)) : bool =\n"
        "      (acc.contents <- Cons { head = x; tail = acc.contents }; true)\n"
        "  in\n"
        "  let finished = iter (cb, t) in\n"
        "  checksum (rev_into (Nil, acc.contents), 0)\n",
    ),
    "adt": ("run/run_adt_loop.mz", "  checksum (drain (new t), 0)\n"),
    "oo": ("run/run_oo_loop.mz", "  checksum (drain_oo (new_tree_iterator t), 0)\n"),
    "cps": ("run/run_cps_loop.mz", "  checksum (drain_cps (cps_start t), 0)\n"),
}
ITERATE_SIZES = (50, 200)
ITERATE_TAIL = """
val build: (lo: int, hi: int) -> tree int

val build (lo, hi) =
  if lt (hi, lo)
  then Leaf
  else
    let mid = div (add (lo, hi), 2) in
    let l = build (lo, sub (mid, 1)) in
    let r = build (add (mid, 1), hi) in
    Node {{ left = l; elem = mid; right = r }}

val checksum: (l: list int, h: int) -> int

val checksum (l, h) =
  match l with
  | Nil -> h
  | Cons {{ head = x; tail = rest }} -> checksum (rest, add (mul (h, 1000003), x))

val main: () -> int

val main () =
  let t = build (1, {n}) in
{drain}"""


def iterate_text(style: str, n: int) -> str:
    rel, drain = ITERATE_STYLES[style]
    text = (CORPUS_DIR / rel).read_text(encoding="utf-8")
    lib = text[: text.index("\nval main:") + 1]
    return lib + ITERATE_TAIL.format(n=n, drain=drain)


def pin(files, env, entry: str, max_steps: int, trace: bool = True) -> tuple[int, str]:
    """(steps, line) of one run of `entry` under `max_steps`."""
    interp = Interp(env, files, checked=False, max_steps=max_steps, trace=trace)
    try:
        shown = interp.render(interp.run(entry))
    except RuntimeTrap as trap:
        shown = f"trap {trap.kind}: {trap.message}"
    stats = interp.stats
    digest = hashlib.sha256("\n".join(interp.trace).encode()).hexdigest()[:16]
    calls = " ".join(
        f"{name}:{len(steps)}/{sum(steps)}" for name, steps in sorted(stats.call_steps.items())
    )
    return stats.steps, (
        f"{shown} | steps={stats.steps} heap={stats.allocations} fires={stats.oneshot_fires}"
        f" trace={len(interp.trace)}:{digest} calls={calls}"
    )


def max_steps_values(full: int):
    yield from range(1, min(full, EVERY) + 1)
    yield from range(EVERY + STRIDE, full, STRIDE)
    if full > EVERY:
        yield full


def dump() -> str:
    prelude_file, _ = prelude()
    lines = []
    for expectation, rel, args in parse_manifest(CORPUS_DIR / "manifest.tsv"):
        if expectation != "RUN" or not rel.startswith(("run/", "dyn/")):
            continue
        entry, _, expected = args.partition("=")
        file, env = load_text((CORPUS_DIR / rel).read_text(encoding="utf-8"), rel)
        if not expected.startswith("TRAP:"):
            assert Checker(env).check_file(file) == []
        files = [prelude_file, file]
        full, line = pin(files, env, entry, 10_000_000)
        lines.append(f"{rel} {entry} full: {line}")
        for k in max_steps_values(full):
            lines.append(f"{rel} {entry} {k}: {pin(files, env, entry, k)[1]}")
    for style in ITERATE_STYLES:
        for n in ITERATE_SIZES:
            file, env = load_text(iterate_text(style, n), f"iterate_{style}.mz")
            assert Checker(env).check_file(file) == []
            for trace in (True, False):
                _, line = pin([prelude_file, file], env, "main", 10_000_000, trace)
                lines.append(f"iterate {style} n={n} trace={trace}: {line}")
    return "\n".join(lines) + "\n"


def test_interpreter_matches_its_pins():
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
