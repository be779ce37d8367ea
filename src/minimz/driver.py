"""Front-end pipeline: prelude loading, parsing, resolution, checking."""

from __future__ import annotations

import functools
from pathlib import Path

from .ast import Keyed, SourceFile
from .check import Checker, Diagnostic
from .kinds import Env, resolve
from .parser import parse_file

CORPUS_DIR = Path(__file__).parent / "corpus"
PRELUDE_PATH = CORPUS_DIR / "prelude.mz"


@functools.lru_cache(maxsize=1)
def prelude() -> tuple[SourceFile, Env]:
    text = PRELUDE_PATH.read_text(encoding="utf-8")
    file = parse_file(text, "prelude.mz")
    return resolve(file)


def load_text(text: str, path: str) -> tuple[SourceFile, Env]:
    """Parse and resolve a program on top of the prelude."""
    _, base = prelude()
    file = parse_file(text, path)
    return resolve(file, base.clone())


class CheckedProgramError(Exception):
    """Raised by run_text when the program fails the checker."""

    def __init__(self, diags: list[Diagnostic]):
        super().__init__(f"{len(diags)} diagnostic(s)")
        self.diags = diags


@functools.lru_cache(maxsize=1024)
def checked_clean(definition: Keyed) -> None:
    """Runs the check of a definition whose key (`Checker.check_file`) has
    not checked clean before in the process. A failing check raises, so
    the memo keeps no answer for it. The key leaves out the prelude, which
    `prelude` fixes. The bound holds twice a seed-1 round of all three
    workloads: 71 keys of `iterate`, 17 of `check_wide` and 227 of
    `corpus_mix` (49, 157 and 178 KB, tracemalloc, Python 3.11.7)."""
    definition.take()()


def check_loaded(file: SourceFile, env: Env) -> list[Diagnostic]:
    """The diagnostics of a program that `load_text` made, checked through
    `checked_clean`."""
    return Checker(env).check_file(file, checked_clean)


def check_text(text: str, path: str = "<input>") -> tuple[SourceFile, Env, list[Diagnostic]]:
    file, env = load_text(text, path)
    return file, env, check_loaded(file, env)


def run_text(
    text: str,
    entry: str,
    path: str = "<input>",
    checked: bool = True,
    max_steps: int = 10_000_000,
    trace: bool = False,
):
    """Check (unless disabled) and evaluate `entry`; returns (value, interp)."""
    from .interp import eval_program

    file, env = load_text(text, path)
    if checked:
        diags = check_loaded(file, env)
        if diags:
            raise CheckedProgramError(diags)
    prelude_file, _ = prelude()
    return eval_program(
        env, [prelude_file, file], entry, checked=checked, max_steps=max_steps, trace=trace
    )
