"""Seeded mutation fuzzing: the front end never crashes, and any mutant that
still checks cleanly must also run without affinity traps."""

import random
import re
import zlib

import pytest

from conftest import CORPUS

from minimz.driver import CheckedProgramError, check_text, run_text
from minimz.interp import RuntimeTrap
from minimz.kinds import ResolveError
from minimz.lexer import LexError
from minimz.parser import ParseError

FILES = [
    "pos/tree_size.mz",
    "pos/tree_iterator.mz",
    "run/run_adt_loop.mz",
    "run/run_cps_loop.mz",
    "run/run_filter.mz",
]

_IDENT = re.compile(r"[a-z][a-zA-Z0-9_']*")


def _mutate(rng: random.Random, text: str) -> str:
    idents = sorted(set(_IDENT.findall(text)))
    mode = rng.randint(0, 3)
    if mode == 0 and idents:
        target = rng.choice(idents)
        occ = [m.start() for m in re.finditer(rf"\b{re.escape(target)}\b", text)]
        if occ:
            i = rng.choice(occ)
            return text[:i] + rng.choice(idents) + text[i + len(target) :]
    if mode == 1:
        return text.replace("consumes ", "", 1)
    if mode == 2:
        i = rng.randint(0, len(text))
        j = min(len(text), i + rng.randint(1, 30))
        return text[:i] + text[j:]
    lines = text.split("\n")
    del lines[rng.randrange(len(lines))]
    return "\n".join(lines)


@pytest.mark.parametrize("rel", FILES)
def test_mutations_never_crash_and_stay_sound(rel):
    rng = random.Random(zlib.crc32(rel.encode()))
    text = (CORPUS / rel).read_text(encoding="utf-8")
    for _ in range(12):
        mutated = _mutate(rng, text)
        try:
            _, _, diags = check_text(mutated, "fuzz")
        except (LexError, ParseError, ResolveError, RecursionError):
            continue
        if diags or "val main" not in mutated:
            continue
        try:
            run_text(mutated, "main", "fuzz", max_steps=300_000)
        except CheckedProgramError:
            continue
        except RuntimeTrap as trap:
            # liveness and arithmetic are outside the checker's contract
            assert trap.kind in ("STEP_LIMIT", "DIV_ZERO"), (
                f"checked mutant trapped {trap.kind}"
            )
