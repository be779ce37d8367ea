"""The lines of `src/minimz` that tier-1 and `python -m minimz test` never
run.

Both run from the repository's root with a generated `sitecustomize.py`
first on PYTHONPATH, so that every Python process they start loads it:
pytest, and the `minimz` subprocesses of the tests. It turns on
`sys.monitoring` LINE events (PEP 669); each line's callback returns
`DISABLE` after its first hit, so a line costs one event per process. When
the process exits it writes the lines of `src/minimz` it hit to a file of
its own. A subprocess started with a PYTHONPATH of its own does not load
it, and is not counted.

A line counts as executable if it is in the line table of a function's or
a class body's code object, less the function's `def` line: module-level
code runs on import and is left out. The report gives the unreached lines
by file, then their count. The script exits 1 if either run fails, and
needs Python 3.12 or later, with pytest and hypothesis installed.

    python3 scripts/coverage.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "minimz"

SITECUSTOMIZE = """\
import atexit
import os
import sys

_mon = sys.monitoring
_TOOL = _mon.COVERAGE_ID
_PACKAGE = {package!r}
_hits = set()


def _line(code, line):
    if code.co_filename.startswith(_PACKAGE):
        _hits.add((code.co_filename, line))
    return _mon.DISABLE


def _write():
    with open(os.path.join({out!r}, f"hits-{{os.getpid()}}.txt"), "w") as f:
        f.writelines(f"{{name}}\\t{{line}}\\n" for name, line in _hits)


_mon.use_tool_id(_TOOL, "minimz coverage")
_mon.register_callback(_TOOL, _mon.events.LINE, _line)
_mon.set_events(_TOOL, _mon.events.LINE)
atexit.register(_write)
"""


def executable(path: Path) -> set[int]:
    """The lines in the line tables of `path`'s functions and class
    bodies, each table less its own first line: a function's `def` line
    (a method's, or a nested function's, is in its class body's or
    function's table) and a class body's `class` line."""
    lines: set[int] = set()
    work = [c for c in compile(path.read_text(encoding="utf-8"), str(path), "exec").co_consts
            if type(c) is types.CodeType]
    while work:
        code = work.pop()
        lines |= {line for _, _, line in code.co_lines() if line is not None} - {code.co_firstlineno}
        work += [c for c in code.co_consts if type(c) is types.CodeType]
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted `lines`, each run of consecutive lines written `a-b`."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    if sys.version_info < (3, 12):
        print(f"coverage needs Python 3.12 or later (sys.monitoring); "
              f"this is {sys.version.split()[0]}")
        return 2
    with tempfile.TemporaryDirectory(prefix="minimz-coverage-") as tmp:
        site = Path(tmp) / "site"
        out = Path(tmp) / "hits"
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(package=str(PACKAGE) + os.sep, out=str(out)), encoding="utf-8"
        )
        path = [str(site), str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        failed = 0
        for args in (["-m", "pytest", "-q", "--continue-on-collection-errors"],
                     ["-m", "minimz", "test"]):
            result = subprocess.run([sys.executable, *args], cwd=ROOT, env=env)
            failed += result.returncode != 0
        hit: set[tuple[str, int]] = set()
        for file in out.iterdir():
            for row in file.read_text(encoding="utf-8").splitlines():
                name, line = row.split("\t")
                hit.add((name, int(line)))

    total = unreached = 0
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable(path)
        missed = sorted(line for line in lines if (str(path), line) not in hit)
        total += len(lines)
        unreached += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {ranges(missed)}")
    print(f"{unreached} of {total:,} executable lines unreached")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
