"""In-process A/B of the front end, the checker and the interpreter: two
checkouts in one process, their rounds alternated.

The host's speed drifts by up to 2x over seconds to minutes, so an A/B of
separate processes needs many pairs to tell a change of a few percent.
Here both checkouts run in one Python process, close together in time:

- each side's `src/minimz` is copied, without its `__pycache__`, into a
  temporary directory as the package `minimz_a` or `minimz_b`, which
  imports its own modules by relative imports only, and nothing is written
  into either checkout;
- a workload's rounds are built by B's `perfbench/workloads.py`,
  read-only: the timed rounds at seed 1;
- each round takes every operation's program text through the front end
  (`driver.load_text`: lex, parse and resolve over the prelude; where a
  side's driver has a memo of clean definitions, one it knows is neither
  parsed nor resolved, and where it cuts the text into declarations
  before it lexes, not lexed either) and the checker of one side, then of
  the other, so that the two sides' times of a round span the same
  stretch of time; the side that goes first alternates from program to
  program and from round to round. A side checks through the entry its
  driver uses (`driver.check_loaded`, which skips a definition known
  clean), or, if its driver has none, through a bare
  `Checker(env).check_file`. Every program is loaded and checked as
  `minimz check` does, a trapping row's too;
- an operation with an entry is then run: `interp.eval_program` on the
  environment that `load_text` made, as `driver.run_text` runs it. A
  `run` (as in `iterate` and `check_wide`) runs checked once its program
  checks clean. A manifest `RUN` row (as in `corpus_mix`) runs as
  `minimz test` runs it (`cli._judge`): a row that expects a trap runs
  unchecked whatever its diagnostics, any other row runs checked once
  its program checks clean. Where a side's `eval_program` takes no
  `checked` mode, every run is in its only mode. A checked run wraps no
  closure in `OneShot`, so it fires none.

One untimed round of each side at each of `COMPARED_SEEDS` first fills
the lazy caches, and its outcomes are compared: the script exits 1 if any
diagnostic differs between the sides (code, span, message or snapshot),
or a front-end error, or a run's outcome (the rendered value or the
trap's kind and message, the steps, allocations and one-shot firings, and
each definition's count of returned calls and their steps). So a side
whose checked runs fire no one-shot closure differs from one whose runs
all do, on `iterate`, by its firings alone.
The report gives, per workload and layer, each side's median round time,
the ratio B/A of the medians, and in how many rounds B took less time.

The cyclic collector is held still inside each layer: a round runs with
it disabled, and a full collection runs before each layer of each
program, off the clock. So each layer's time is its own work, not a
collection that another layer's allocations made due, which would move
with where the collector happened to run; and the collector's own work,
which a change that makes more or less cyclic garbage changes, shows in
no column (perfbench's end-to-end times hold it).

On Python 3.12 and later it also gives, beside the times, the bytecode
instructions each side's layers execute in a further untimed round at
`SEED`, after the compared ones, counted as `sys.monitoring` INSTRUCTION
events (PEP 669), and their ratio B/A. Each side's prelude is loaded
before any round, so no layer counts it. The counted round is warm: each
process-wide memo (the memo of clean definitions, `codegen._compiled`
and `_code` among them) holds what the workload's own compared rounds
put in it, so its front end and checks are of the definitions that
fail, its runs find the code of their definitions there, and the counts
are of running code, not of writing it. They are the same whether the workload runs alone (`--workload`) or
after others, and they repeat exactly from run to run:
one round tells a change of well under 1% that the times cannot. A cold
round's counts depend on what the process ran before. They are not time:
work done in C (regular expressions, dict and set operations, sorting,
`compile()`) is not counted, so a change that moves work into C reads as
a gain; and they differ between Python versions, so compare them only
within one. Counting makes that round many times slower.

Run from anywhere, with the two checkouts' roots (A is the baseline):

    python3 scripts/ab_check.py ../parent . --workload check_wide --rounds 15
"""

from __future__ import annotations

import argparse
import gc
import importlib
import inspect
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("iterate", "check_wide", "corpus_mix")
LAYERS = ("front end", "check", "run")
SEED = 1  # of the timed rounds
COMPARED_SEEDS = (1, 2)  # of the untimed rounds whose outcomes are compared
COUNTS = hasattr(sys, "monitoring")  # Python 3.12 and later


def load_side(root: Path, tmp: Path, name: str):
    """The package of `root`'s `src/minimz`, copied under `tmp` as `name`."""
    shutil.copytree(
        root / "src" / "minimz", tmp / name, ignore=shutil.ignore_patterns("__pycache__")
    )
    side = {
        module: importlib.import_module(f"{name}.{module}")
        for module in ("cli", "driver", "check", "interp")
    }
    side["driver"].prelude()
    # The check the side's driver makes of a loaded program.
    side["check_loaded"] = getattr(side["driver"], "check_loaded", None) or (
        lambda file, env: side["check"].Checker(env).check_file(file)
    )
    # Whether the side's interpreter has a checked and an unchecked mode.
    params = inspect.signature(side["interp"].eval_program).parameters
    side["modes"] = "checked" in params
    return side


def run_of(op) -> tuple[str, bool] | None:
    """The entry that `op` runs and whether its run is checked, or None
    when it runs nothing: a `run`'s entry, checked, or a manifest `RUN`
    row's, unchecked when the row expects a trap, as `cli._judge` runs it."""
    if op.entry is not None:
        return op.entry, True
    if getattr(op.expect, "expectation", None) != "RUN" or "=" not in op.expect.args:
        return None
    entry, _, expected = op.expect.args.partition("=")
    return entry, not expected.startswith("TRAP:")


def run_one(side, path: str, text: str, run: tuple[str, bool] | None, times: dict,
            clock=time.perf_counter):
    """The program `text` through the front end and the checker of `side`,
    and a run of `run`'s entry if it is not None, unchecked or with a
    program that checks clean: its diagnostics and the outcome of its run,
    or its front-end error; the layers' readings of `clock`, a time by
    default, are added to `times`. Each layer starts after a collection
    (`run_round` disables the collector)."""
    gc.collect()
    t0 = clock()
    try:
        file, env = side["driver"].load_text(text, path)
    except side["cli"].FRONT_END_ERRORS as exc:
        times["front end"] += clock() - t0
        return ("front-end error", type(exc).__name__, str(exc))
    times["front end"] += clock() - t0
    gc.collect()
    t1 = clock()
    diags = side["check_loaded"](file, env)
    times["check"] += clock() - t1
    found = [(d.code, d.span.start, d.span.length, d.message, d.perm_snapshot) for d in diags]
    if run is None or (run[1] and diags):
        return found, None
    entry, checked = run
    mode = {"checked": checked} if side["modes"] else {}
    files = [side["driver"].prelude()[0], file]
    gc.collect()
    t3 = clock()
    try:
        value, program = side["interp"].eval_program(env, files, entry, **mode)
    except side["interp"].RuntimeTrap as trap:
        return found, ("trap", trap.kind, trap.message)
    finally:
        times["run"] += clock() - t3
    stats = program.stats
    calls = {name: (len(steps), sum(steps)) for name, steps in stats.call_steps.items()}
    counts = (stats.steps, stats.allocations, stats.oneshot_fires, calls)
    return found, (program.render(value), counts)


def run_round(sides: dict, ops: list, first: int, clock=time.perf_counter) -> tuple[dict, dict]:
    """Each of `ops` through both sides, the side that goes first
    alternating from `first`: each side's outcomes, and its layers'
    readings of `clock`. The collector runs only where `run_one` calls it."""
    outcomes: dict[str, list] = {name: [] for name in sides}
    times = {name: dict.fromkeys(LAYERS, 0) for name in sides}
    gc.collect()
    gc.freeze()  # as in a fresh process, the collector does not walk the round's inputs
    gc.disable()
    try:
        for k, op in enumerate(ops):
            for name in ("A", "B") if (first + k) % 2 == 0 else ("B", "A"):
                outcome = run_one(sides[name], op.path, op.text, run_of(op), times[name], clock)
                outcomes[name].append(outcome)
    finally:
        gc.enable()
        gc.unfreeze()
    return outcomes, times


def counted_round(sides: dict, ops: list) -> tuple[dict, dict]:
    """`run_round` from 0, its clock the count of bytecode instructions
    executed so far: each side's outcomes, and its layers' counts. The
    callback's own instructions raise no events."""
    mon = sys.monitoring
    tool = mon.PROFILER_ID
    executed = [0]

    def on_instruction(code, offset):
        executed[0] += 1

    mon.use_tool_id(tool, "ab_check")
    mon.register_callback(tool, mon.events.INSTRUCTION, on_instruction)
    mon.set_events(tool, mon.events.INSTRUCTION)
    try:
        return run_round(sides, ops, 0, lambda: executed[0])
    finally:
        mon.set_events(tool, 0)
        mon.register_callback(tool, mon.events.INSTRUCTION, None)
        mon.free_tool_id(tool)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="root of the baseline checkout")
    parser.add_argument("b", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", choices=WORKLOADS, help="the workload (default: all three)")
    parser.add_argument("--rounds", type=int, default=11, help="timed rounds a side")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory(prefix="minimz-ab-") as tmp:
        sys.path.insert(0, tmp)
        sides = {"A": load_side(args.a, Path(tmp), "minimz_a"),
                 "B": load_side(args.b, Path(tmp), "minimz_b")}
        # `workloads` reads the manifest with `minimz.cli.parse_manifest`:
        # B's, under the name it imports.
        sys.modules["minimz"] = sys.modules["minimz_b"]
        sys.modules["minimz.cli"] = sides["B"]["cli"]
        sys.path.insert(0, str(args.b.resolve() / "perfbench"))
        import workloads

        corpus = Path(tmp) / "minimz_b" / "corpus"
        different = 0
        if not COUNTS:
            print(f"bytecode counts need Python 3.12 or later (sys.monitoring); "
                  f"this is {sys.version.split()[0]}")
        for workload in [args.workload] if args.workload else WORKLOADS:
            for seed in COMPARED_SEEDS:
                ops = workloads.make_round(workload, seed, corpus)
                outcomes, _ = run_round(sides, ops, 0)
                for op, a, b in zip(ops, outcomes["A"], outcomes["B"]):
                    if a != b:
                        different += 1
                        print(f"{workload}, seed {seed}: {op.path}: outcomes differ"
                              f"\n  A: {a}\n  B: {b}")
            ops = workloads.make_round(workload, SEED, corpus)
            counts = counted_round(sides, ops)[1] if COUNTS else None
            rounds: dict[str, list] = {name: [] for name in sides}
            for i in range(args.rounds):
                _, times = run_round(sides, ops, i)
                for name in sides:
                    rounds[name].append(times[name])

            runs = sum(run_of(op) is not None for op in ops)
            print(f"{workload}, seed {SEED}: {len(ops)} programs, {runs} runs, "
                  f"{args.rounds} rounds a side, ms per round, median"
                  + ("; bytecodes of one round" if counts else ""))
            header = f"  {'layer':<10} {'A':>9} {'B':>9} {'B/A':>6} {'B less':>7}"
            if counts:
                header += f" {'bytecodes A':>13} {'bytecodes B':>13} {'B/A':>7}"
            print(header)
            for layer in LAYERS if runs else LAYERS[:-1]:
                a_ms = [r[layer] * 1e3 for r in rounds["A"]]
                b_ms = [r[layer] * 1e3 for r in rounds["B"]]
                a, b = statistics.median(a_ms), statistics.median(b_ms)
                wins = sum(y < x for x, y in zip(a_ms, b_ms))
                line = f"  {layer:<10} {a:9.1f} {b:9.1f} {b / a:6.3f} {wins:>3}/{args.rounds}"
                if counts:
                    ca, cb = counts["A"][layer], counts["B"][layer]
                    line += f" {ca:13,} {cb:13,} {cb / ca:7.4f}"
                print(line)
    if different:
        print(f"{different} program(s) with different outcomes")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
