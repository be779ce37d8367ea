"""Start-up A/B: how long two checkouts take to import `minimz` and load
the prelude in a fresh process.

Each probe is a new Python process that times, from inside,

    import minimz.cli, minimz.driver; minimz.driver.prelude()

which is what every `minimz check`, `run` and `test` pays before it reads
its file. The probes alternate between the two checkouts, and the side
that goes first alternates from round to round. Two settings are timed:

- no bytecode cache: `PYTHONDONTWRITEBYTECODE=1`, as the benchmark runs,
  so every module of `minimz` is compiled from source;
- bytecode caches: each side keeps its caches under its own temporary
  `PYTHONPYCACHEPREFIX`, written by one untimed probe first.

Each side's `src/minimz` is copied to a temporary directory first, without
its `__pycache__`, and imported from there, so a stale cache in either
checkout cannot reach the numbers, and nothing is written into a checkout.
The report gives the median over the rounds for each side and setting,
then the median `-X importtime` self time of each module that takes at
least 0.5 ms on either side, from separate probes without a cache.

Run from anywhere, with the two checkouts' roots (A is the baseline):

    python3 scripts/startup.py ../parent .
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import minimz.cli, minimz.driver\n"
    "minimz.driver.prelude()\n"
    "print((time.perf_counter() - t) * 1e3)\n"
)
ROUNDS = 11  # probes per side and setting
SHOWN_MS = 0.5  # the least median self time of a module in the report


def probe(src: Path, env: dict[str, str], importtime: bool = False) -> str:
    """Run the probe against the package under `src`; its stdout, or its
    stderr under `-X importtime`."""
    flags = ["-X", "importtime"] if importtime else []
    out = subprocess.run(
        [sys.executable, *flags, "-c", PROBE],
        env={**env, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stderr if importtime else out.stdout


def self_times(report: str) -> dict[str, float]:
    """Milliseconds of self time per module, from `-X importtime` lines
    `import time: self [us] | cumulative | imported package`."""
    times = {}
    for line in report.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, _, name = line[len("import time:") :].split("|")
        times[name.strip()] = int(own) / 1e3
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="root of the baseline checkout")
    parser.add_argument("b", type=Path, help="root of the changed checkout")
    args = parser.parse_args()

    base = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    with tempfile.TemporaryDirectory(prefix="minimz-startup-") as tmp:
        sides = {}
        for name, root in (("A", args.a), ("B", args.b)):
            src = Path(tmp) / name / "src"
            shutil.copytree(
                root / "src" / "minimz",
                src / "minimz",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            cached = {**base, "PYTHONPYCACHEPREFIX": str(Path(tmp) / name / "cache")}
            probe(src, cached)  # writes this side's caches
            sides[name] = (src, cached)
        cold = {**base, "PYTHONDONTWRITEBYTECODE": "1"}

        ms = {(name, setting): [] for name in sides for setting in ("no cache", "cached")}
        selfs: dict[str, list[dict[str, float]]] = {name: [] for name in sides}
        for i in range(ROUNDS):
            for name in ("A", "B") if i % 2 == 0 else ("B", "A"):
                src, cached = sides[name]
                ms[name, "no cache"].append(float(probe(src, cold)))
                ms[name, "cached"].append(float(probe(src, cached)))
                selfs[name].append(self_times(probe(src, cold, importtime=True)))

    print(f"import minimz.cli, minimz.driver + prelude(), ms, median of {ROUNDS} probes")
    print(f"{'setting':<10} {'A':>8} {'B':>8} {'B/A':>6}")
    for setting in ("no cache", "cached"):
        a, b = (statistics.median(ms[name, setting]) for name in ("A", "B"))
        print(f"{setting:<10} {a:8.1f} {b:8.1f} {b / a:6.2f}")

    modules = {m for runs in selfs.values() for run in runs for m in run}
    medians = {
        name: {m: statistics.median(run.get(m, 0.0) for run in runs) for m in modules}
        for name, runs in selfs.items()
    }
    shown = sorted(
        (m for m in modules if max(medians["A"][m], medians["B"][m]) >= SHOWN_MS),
        key=lambda m: -medians["A"][m],
    )
    print()
    print("-X importtime self time, no cache, ms, median (0 where not imported)")
    print(f"{'module':<30} {'A':>8} {'B':>8}")
    for m in shown:
        print(f"{m:<30} {medians['A'][m]:8.1f} {medians['B'][m]:8.1f}")
    totals = [sum(medians[name].values()) for name in ("A", "B")]
    print(f"{'sum of medians':<30} {totals[0]:8.1f} {totals[1]:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
