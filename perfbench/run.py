"""Benchmark of the minimz toolchain: one workload, one seed, one run.

    python3 perfbench/run.py --workload iterate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout holding `src/minimz`. A run builds the
workload's round of operations from the seed, runs it once unmeasured
(warm-up), then a fixed number of times sized so that the run measures
about `--seconds` on the reference machine, with at least MIN_OPS
operations and MIN_ROUNDS rounds. Every output is checked, the warm-up's
too. One process, one thread of load, pinned to one CPU:
`Interp.run`'s helper thread is joined before the next operation starts.

The host's speed drifts by up to 2x over seconds to minutes, so the time
metrics are given at the reference machine's speed: a fixed reference loop
that does not touch minimz is timed before every operation and around every
set-up probe, and each time is scaled by the loop's nominal time over its
local median (see `Speed`). A change to minimz moves the scaled times as it
moves the raw ones; the raw totals are in the run file. Each operation
starts with what earlier ones left frozen out of the collector's reach, as
in a fresh `minimz` process; it is collected after each round, untimed.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` the operations go through the layers one
by one, with a span around each, and the metrics are per layer. Spans and
the result are also written under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_OPS = 100  # so that p90 has ten samples beyond it
MIN_ROUNDS = 4
# Seconds one round takes on the reference machine (see README). A run makes
# `--seconds` / ROUND_S rounds: the same work on every run whatever the
# machine's speed, so that the totals and `peak_rss_mb` compare.
ROUND_S = {"iterate": 2.6, "check_wide": 2.0, "corpus_mix": 2.3}

# Run in a fresh interpreter: the import the `minimz` command makes, then
# the first prelude load.
SETUP_PROBE = """\
import json, time
t0 = time.perf_counter()
import minimz.cli, minimz.driver
t1 = time.perf_counter()
minimz.driver.prelude()
t2 = time.perf_counter()
print(json.dumps([t2 - t0, t2 - t1, minimz.driver.__file__]))
"""


# The reference loop's median wall time between operations on the reference
# machine, in seconds.
REF_NOMINAL_S = 0.0045
REF_WINDOW = 3  # timings of the loop on each side of an operation


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value: int, next: "_Cell | None") -> None:
        self.value = value
        self.next = next


_TABLE = {f"k{i}": i for i in range(64)}
_KEYS = tuple(_TABLE)
_TEXT = " ".join(f"let x{i} = add (x{i // 2}, {i}) in" for i in range(150))
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(\S))")


def _ring(n: int) -> _Cell:
    """n cells linked in a fixed shuffled order, a few MB to walk."""
    cells = [_Cell(i, None) for i in range(n)]
    order = list(range(n))
    random.Random(0).shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        cells[a].next = cells[b]
    return cells[order[0]]


_RING = _ring(40_000)


def _reference_loop() -> int:
    """Fixed work of the kinds minimz does, none of it in minimz: calls,
    attribute and dict lookups, small objects made and freed, a walk over
    objects spread through memory, and a regular-expression scan."""
    cell, h = None, 0
    for i in range(1200):
        cell = _Cell(_TABLE[_KEYS[i & 63]], cell if i & 15 else None)
        h = (h * 31 + cell.value) & 0xFFFFFFFF
    cell = _RING
    for _ in range(3000):
        h = (h + _TABLE[_KEYS[cell.value & 63]]) & 0xFFFFFFFF
        cell = cell.next
    keep = [{"k": (i, str(i)), "v": [i, h]} for i in range(600)]
    return h + len(keep) + sum(1 for _ in _TOKEN.finditer(_TEXT))


class Speed:
    """Timings of the reference loop, in the order taken, wall and CPU.

    `factor(i)` scales a time taken between timings i and i + 1 to the
    reference machine: REF_NOMINAL_S over the median of the REF_WINDOW
    timings on each side. The loop runs with the collector off, so its time
    does not depend on how much minimz keeps alive."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def take(self) -> None:
        gc.disable()
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            _reference_loop()
            c1, w1 = time.process_time(), time.perf_counter()
        finally:
            gc.enable()
        self.wall.append(w1 - w0)
        self.cpu.append(c1 - c0)

    def factor(self, i: int, cpu: bool = False) -> float:
        xs = self.cpu if cpu else self.wall
        return REF_NOMINAL_S / statistics.median(
            xs[max(0, i + 1 - REF_WINDOW): i + 1 + REF_WINDOW]
        )


def measure_setup() -> tuple[float, float]:
    """Seconds of import plus prelude, and of the prelude alone, in a fresh
    process."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    total, load, where = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(where).resolve().is_relative_to(SRC):
        raise RuntimeError(f"setup probe imported minimz from {where}")
    return total, load


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "minimz" / "driver.py").is_file():
        print(f"perfbench: no minimz sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import ops as bench_ops
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: workload must be one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # All load runs on one CPU, so the interpreter's helper thread starts
        # on the CPU its caller is leaving, not on another one that a shared
        # machine may have lent elsewhere at that moment.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    measure_setup()  # not counted: it may write bytecode caches
    round_ops = workloads.make_round(
        args.workload, args.seed, SRC / "minimz" / "corpus"
    )
    tracer = bench_ops.Tracer() if args.trace else None
    run_op = tracer.run if tracer else (lambda _, op: bench_ops.run_plain(op))
    rounds = max(
        MIN_ROUNDS,
        -(-MIN_OPS // len(round_ops)),
        round(args.seconds / ROUND_S[args.workload]),
    )

    attempted = failed = wrong = 0
    op_wall: list[float] = []  # raw, per measured operation
    op_cpu: list[float] = []
    speed = Speed()  # taken before each measured operation, and once at the end

    def one_round(op_base: int, measured: bool = True) -> None:
        nonlocal attempted, failed, wrong
        for k, op in enumerate(round_ops):
            attempted += 1
            if measured:
                speed.take()
            # As in a fresh `minimz` process, the collector does not walk
            # what earlier operations left; it is handed back after the round.
            gc.freeze()
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = run_op(op_base + k, op)
            except Exception:  # a crash of the program under test is a failed operation
                out = None
                failed += 1
                if failed == 1:
                    print(f"perfbench: {op.path} failed", file=sys.stderr)
                    traceback.print_exc()
            finally:
                c1, w1 = time.process_time(), time.perf_counter()
                if measured:
                    op_wall.append(w1 - w0)
                    op_cpu.append(c1 - c0)
            if out is None:
                continue
            why = bench_ops.mismatch(op, out)
            if why is not None:
                wrong += 1
                if wrong == 1:
                    print(f"perfbench: {op.path}: {why}", file=sys.stderr)

    # Warm-up: fills lazy caches; its outputs are checked and counted too.
    one_round(0, measured=False)
    if tracer:
        tracer.spans.clear()
    # One setup probe after each round spreads them over the run. Each is
    # scaled by the reference loop timed three times before and after it.
    setup: list[float] = []
    prelude: list[float] = []
    for r in range(1, rounds + 1):
        gc.unfreeze()
        gc.collect()
        one_round(r * len(round_ops))
        around = Speed()
        for _ in range(3):
            around.take()
        total, load = measure_setup()
        for _ in range(3):
            around.take()
        f = around.factor(2, cpu=False)
        setup.append(total * f)
        prelude.append(load * f)
    gc.unfreeze()
    speed.take()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [w * speed.factor(j) for j, w in enumerate(op_wall)]
    wall_s = sum(latencies)
    cpu_s = sum(c * speed.factor(j, cpu=True) for j, c in enumerate(op_cpu))

    if tracer:
        # Self times at the reference speed, scaled by the run's median
        # timing of the reference loop.
        run_factor = REF_NOMINAL_S / statistics.median(speed.wall)
        self_ns = {k: v * run_factor for k, v in tracer.self_times().items()}
        tokens = tracer.counts("lexer", "tokens")
        steps = tracer.counts("interp", "steps")

        def per_round_ms(layer: str) -> float:
            return self_ns.get(layer, 0) / 1e6 / rounds

        metrics = {
            "driver.prelude_ms": (statistics.median(prelude) * 1e3, "ms"),
            "lexer.ms": (per_round_ms("lexer"), "ms"),
            "lexer.tokens_per_s": (tokens / (self_ns["lexer"] / 1e9), "tokens/s"),
            "parser.ms": (per_round_ms("parser"), "ms"),
            "parser.tokens_per_s": (tokens / (self_ns["parser"] / 1e9), "tokens/s"),
            "kinds.ms": (per_round_ms("kinds"), "ms"),
            "check.ms": (per_round_ms("check"), "ms"),
            "check.tokens_per_s": (
                tracer.counts("check", "tokens") / (self_ns["check"] / 1e9), "tokens/s"
            ),
            "interp.ms": (per_round_ms("interp"), "ms"),
            "interp.steps": (steps / rounds, "count"),
            "interp.ns_per_step": (self_ns["interp"] / steps, "ns"),
            "interp.allocations": (tracer.counts("interp", "allocations") / rounds, "count"),
            "interp.call_step_records": (
                tracer.counts("interp", "call_step_records") / rounds, "count"
            ),
            "cli.render_ms": (per_round_ms("cli"), "ms"),
        }
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall_s, "s"),
            "cpu_s": (cpu_s, "s"),
            "op_ms.p50": (statistics.median(latencies) * 1e3, "ms"),
            "op_ms.p90": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    details = {
        "rounds": rounds,
        "round_ops": len(round_ops),
        "op_paths": [op.path for op in round_ops],
        "op_wall_s": latencies,
        "raw_op_wall_s": op_wall,
        "raw_op_cpu_s": op_cpu,
        "raw_wall_s": sum(op_wall),
        "raw_cpu_s": sum(op_cpu),
        "ref_wall_s": speed.wall,
        "ref_cpu_s": speed.cpu,
        "setup_s": setup,
        "prelude_s": prelude,
    }
    (OUT_DIR / f"run-{stem}.json").write_text(
        json.dumps({"result": result, "details": details}, indent=1) + "\n"
    )
    if tracer:
        with open(OUT_DIR / f"trace-{stem}.jsonl", "w") as f:
            for name, start, end, parent, op_id, counts in tracer.spans:
                record = {"name": name, "start_ns": start, "end_ns": end,
                          "parent": parent, "op": op_id, "counts": counts}
                f.write(json.dumps(record) + "\n")
    print(f"rounds={rounds} ops/round={len(round_ops)} wall_s={wall_s:.6f} "
          f"raw_wall_s={sum(op_wall):.6f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
