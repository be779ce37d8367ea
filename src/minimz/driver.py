"""Front-end pipeline: prelude loading, parsing, resolution, checking."""

from __future__ import annotations

import functools
from pathlib import Path

from . import parser
from .ast import DValDef, Keyed, SourceFile
from .check import Checker, Diagnostic
from .kinds import Env, resolve
from .parser import Declarations, Parser, first_error, parse_file

CORPUS_DIR = Path(__file__).parent / "corpus"
PRELUDE_PATH = CORPUS_DIR / "prelude.mz"


@functools.lru_cache(maxsize=1)
def prelude() -> tuple[SourceFile, Env]:
    """The prelude, parsed and resolved once a process, so through no
    memo of definitions."""
    text = PRELUDE_PATH.read_text(encoding="utf-8")
    file = parse_file(text, "prelude.mz")
    return resolve(file)


@functools.lru_cache(maxsize=1024)
def clean(definition: Keyed) -> tuple[str, tuple[str, ...], int]:
    """The name, parameters and span length of a definition known clean,
    `Keyed` by all that its parse, resolution and check read (`keys`). A
    lookup (`known`) gives no header to `take`, and raises on a miss, so
    the memo keeps no answer for it; a load learns the header of each
    definition that passed its last stage (`learn`). It keeps no node. The
    key leaves out the prelude, which `prelude` fixes. The bound holds
    twice a seed-1 round of all three workloads: 71 keys of `iterate`, 17
    of `check_wide` and 237 of `corpus_mix`, whose entries keep 52, 161
    and 255 KB (tracemalloc, Python 3.11.7)."""
    header = definition.take()
    if header is None:
        raise LookupError
    return header  # type: ignore[return-value]


def keys(file: Declarations, checked: bool) -> list[tuple]:
    """The key of each definition of a file that `parser.tokenize` cut,
    read from the cut alone, before anything is parsed: whether the load is
    checked; the texts of the file's `data`, `alias` and `abstract`
    declarations and of its signatures, each joined; the names it defines
    (with the signatures, they give the names declared but never defined);
    the definition's text; and how many signatures and how many aliases
    come before it (with the texts, the signatures in scope, in order, and
    the aliases that have a kind, as an alias has one only after its
    declaration)."""
    types, sigs, defined, places = [], [], [], []
    aliases = 0
    for text, keyword, name in zip(file.texts, file.keywords, file.names):
        if name is not None:
            defined.append(name)
            places.append((text, len(sigs), aliases))
        elif keyword == "val":
            sigs.append(text)
        else:
            types.append(text)
            if keyword == "alias":
                aliases += 1
    context = (checked, "".join(types), "".join(sigs), " ".join(defined))
    return [(*context, *place) for place in places]


def known(key: tuple) -> tuple[str, tuple[str, ...], int] | None:
    """The header that `clean` keeps under `key`, or None."""
    try:
        return clean(Keyed(key, None))
    except LookupError:
        return None


def learn(file: SourceFile, failed: set[str]) -> None:
    """Puts in `clean` each definition of `file` that the load did not know
    and that passed its last stage: all but those `failed`."""
    definitions = [d for d in file.decls if d.__class__ is DValDef]
    for decl, key in zip(definitions, file.keys):
        if not decl.known and decl.name not in failed:
            clean(Keyed(key, (decl.name, decl.params, decl.span.length)))


def load_text(text: str, path: str, checked: bool = True) -> tuple[SourceFile, Env]:
    """Parse and resolve a program on top of the prelude. A definition that
    `clean` knows under its key is neither lexed, parsed nor resolved
    unless its body is read, nor checked (`DValDef.known`). An unchecked
    load learns the definitions it parsed once they resolve; a checked one
    leaves that to `check_loaded`, and an unchecked one is not to be
    checked."""
    _, base = prelude()
    with first_error(text):
        decls = parser.tokenize(text)
        found = keys(decls, checked)
        file = Parser.parse_file(decls, path, [known(key) for key in found])
    file, env = resolve(SourceFile(path, file.decls, file.texts, tuple(found)), base.clone())
    if not checked:
        learn(file, set())
    return file, env


class CheckedProgramError(Exception):
    """Raised by run_text when the program fails the checker."""

    def __init__(self, diags: list[Diagnostic]):
        super().__init__(f"{len(diags)} diagnostic(s)")
        self.diags = diags


def check_loaded(file: SourceFile, env: Env) -> list[Diagnostic]:
    """The diagnostics of a program that `load_text` made, checked; each
    definition that checks clean is learned."""
    checker = Checker(env)
    diags = checker.check_file(file)
    learn(file, checker.failed)
    return diags


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

    file, env = load_text(text, path, checked)
    if checked:
        diags = check_loaded(file, env)
        if diags:
            raise CheckedProgramError(diags)
    prelude_file, _ = prelude()
    return eval_program(
        env, [prelude_file, file], entry, checked=checked, max_steps=max_steps, trace=trace
    )
