"""Golden test of the front end's errors.

`front_end_errors.txt` holds, for broken variants of every corpus file, the
error that lexing, parsing and resolving the variant on top of the prelude
raises: its class, code (resolution errors only), span and message, or
`ok` when the variant loads. The variants are each file cut at a fixed
stride, and each file with one character replaced, at a fixed stride, by a
patch from a fixed list. A change to the lexer, the parser or the resolver
that keeps their behaviour must leave the file unchanged.

To rewrite the file after an intended change of behaviour:

    PYTHONPATH=src python3 tests/test_front_end_errors.py > tests/front_end_errors.txt
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path

from minimz.driver import CORPUS_DIR, load_text
from minimz.kinds import ResolveError
from minimz.lexer import LexError
from minimz.parser import ParseError

GOLDEN = Path(__file__).with_name("front_end_errors.txt")

CUT_STRIDE = 131
PATCH_STRIDE = 263
PATCHES = (
    "?", "(", ")", "let ", " in", "@", "-", "--", "Foo", "é", "=", "[", "]",
    "{", "}", "|", "*", ",", ";", ":", ".", "->", "<-", "val", "x'", "0", "fun ",
    "match", "\n", "-- c", "consumes", " ghost",
)


def outcome(text: str, rel: str) -> str:
    try:
        load_text(text, rel)
    except ResolveError as exc:
        return f"ResolveError {exc.code} {exc.span.start}+{exc.span.length} {exc.message}"
    except (LexError, ParseError) as exc:
        name = type(exc).__name__
        return f"{name} {exc.span.start}+{exc.span.length} {exc.message}"
    return "ok"


def variants(text: str):
    """(label, text) of every broken variant of `text`."""
    for k in range(0, len(text), CUT_STRIDE):
        yield f"cut {k}", text[:k]
    for i, k in enumerate(range(PATCH_STRIDE // 2, len(text), PATCH_STRIDE)):
        patch = PATCHES[i % len(PATCHES)]
        yield f"patch {k} {patch!r}", text[:k] + patch + text[k + 1 :]


def dump() -> str:
    lines = []
    for path in sorted(CORPUS_DIR.rglob("*.mz")):
        rel = path.relative_to(CORPUS_DIR).as_posix()
        text = path.read_text(encoding="utf-8")
        for label, variant in variants(text):
            lines.append(f"{rel} {label}: {outcome(variant, rel)}")
    return "\n".join(lines) + "\n"


def test_front_end_errors_match_golden():
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
