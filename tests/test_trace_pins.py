"""Golden test of `minimz run --trace`.

`trace_pins.txt` holds, for each command below, the command, its exit
status and everything it prints: the trace lines (`alloc N Tag` for a
record allocated after N others, `oneshot K` for a fire of the K-th
one-shot group), then the value, or the trap a trapped run ends with. A
change to the interpreter that keeps its behaviour must leave the file
unchanged.

To rewrite the file after an intended change of behaviour:

    PYTHONPATH=src python3 tests/test_trace_pins.py > tests/trace_pins.txt
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("trace_pins.txt")
CORPUS = Path(__file__).resolve().parents[1] / "src" / "minimz" / "corpus"

COMMANDS = (
    ("run", "--trace", "run/run_adt_loop.mz", "main"),
    ("run", "--unchecked", "--trace", "dyn/double_wand.mz", "main"),
)


def dump() -> str:
    src = str(CORPUS.parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    lines = []
    for command in COMMANDS:
        args = [str(CORPUS / a) if a.endswith(".mz") else a for a in command]
        out = subprocess.run([sys.executable, "-m", "minimz", *args], capture_output=True,
                             text=True, env=env)
        lines.append(f"$ minimz {' '.join(command)}  (exit {out.returncode})")
        lines += out.stderr.splitlines() + out.stdout.splitlines()
    return "\n".join(lines) + "\n"


def test_the_trace_of_a_run_matches_its_pin():
    want = GOLDEN.read_text(encoding="utf-8")
    got = dump()
    diff = "".join(
        difflib.unified_diff(
            want.splitlines(keepends=True), got.splitlines(keepends=True), GOLDEN.name, "now"
        )
    )
    assert got == want, diff


if __name__ == "__main__":
    sys.stdout.write(dump())
