"""How front-end and checking time grow with the size of a program.

Loads and checks three families of programs at growing sizes and prints, for
each, the best of `REPEATS` times of each front-end layer (lex, parse,
resolve) and of the checker, with the collector on (as `minimz check`
runs), and of the checker with the collector off:

- `pos/tree_size.mz` plus a `main` that binds a balanced tree literal of
  n nodes, at n = 256, 512, 1024 and 2048;
- a `main` made of n sequential lets over ints, at n = 300 and 900;
- n one-line top-level functions, each after its signature, at n = 500,
  1000 and 2000.

Each layer is timed on its own: each timing of a layer redoes the layers
before it afresh, untimed, so no memo carries over from one timing to the
next. The last lines give the ratios 2048/1024, 900/300 and 2000/1000 for
each column; linear time gives 2.0, 3.0 and 2.0.

Run from the root of the repository:

    python3 scripts/check_scaling.py
"""

from __future__ import annotations

import gc
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from minimz.check import Checker  # noqa: E402
from minimz.driver import CORPUS_DIR, load_text, prelude  # noqa: E402
from minimz.kinds import resolve  # noqa: E402
from minimz.parser import Parser, tokenize  # noqa: E402

TREE_SIZES = (256, 512, 1024, 2048)
CHAIN_SIZES = (300, 900)
DEFS_SIZES = (500, 1000, 2000)
REPEATS = 9  # short rows on a shared machine need more than 3 to settle


def tree_literal(rng: random.Random, lo: int, hi: int) -> str:
    """A balanced literal over positions lo..hi, split at the midpoint."""
    if lo > hi:
        return "Leaf"
    mid = (lo + hi) // 2
    left = tree_literal(rng, lo, mid - 1)
    elem = rng.randrange(1000)
    right = tree_literal(rng, mid + 1, hi)
    return f"Node {{ left = {left}; elem = {elem}; right = {right} }}"


def tree_program(n: int) -> str:
    lib = (CORPUS_DIR / "pos/tree_size.mz").read_text(encoding="utf-8")
    literal = tree_literal(random.Random(f"tree/{n}"), 1, n)
    return lib + f"\nval main: () -> int\n\nval main () =\n  let t = {literal} in\n  size t\n"


def let_chain(n: int) -> str:
    """`main` as n sequential lets over ints, each using earlier ones."""
    rng = random.Random(f"lets/{n}")
    lines = ["val main: () -> int", "", "val main () =", f"  let x0 = {rng.randrange(1, 100)} in"]
    for i in range(1, n):
        a, b = rng.randrange(i), rng.randrange(i)
        kind = rng.randrange(3)
        if kind == 0:
            rhs = f"add (x{a}, x{b})"
        elif kind == 1:
            rhs = f"sub (x{a}, x{b})"
        else:
            rhs = f"mul (x{a}, {rng.randrange(3, 100, 2)})"
        lines.append(f"  let x{i} = {rhs} in")
    lines.append(f"  x{n - 1}")
    return "\n".join(lines) + "\n"


def many_defs(n: int) -> str:
    """n one-line functions `fK`, each declared by its signature first."""
    lines = []
    for k in range(n):
        lines += [f"val f{k}: (x: int) -> int", f"val f{k} (x) = add (x, 1)"]
    return "\n".join(lines) + "\n"


def best_ms(prepare, timed, collector: bool = True) -> float:
    """The best of `REPEATS` timings of `timed(prepare())`, in ms, where
    only `timed` runs on the clock."""
    best = float("inf")
    for _ in range(REPEATS):
        arg = prepare()
        gc.collect()
        if not collector:
            gc.disable()
        try:
            start = time.perf_counter()
            timed(arg)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        best = min(best, elapsed)
    return best * 1000


def layer_times(text: str) -> tuple[float, ...]:
    """Lex, parse, resolve, check and check with the collector off, in ms."""
    _, base = prelude()

    def check(loaded) -> None:
        file, env = loaded
        diags = Checker(env).check_file(file)
        if diags:
            raise SystemExit(f"unexpected diagnostics: {diags}")

    def load():
        return load_text(text, "scaling.mz")

    return (
        best_ms(lambda: text, tokenize),
        best_ms(lambda: tokenize(text), lambda tokens: Parser(tokens).parse_file()),
        best_ms(lambda: (Parser(tokenize(text)).parse_file(), base.clone()),
                lambda args: resolve(*args)),
        best_ms(load, check),
        best_ms(load, check, collector=False),
    )


COLUMNS = ("lex", "parse", "resolve", "check", "check, gc off")


def main() -> None:
    rows = [(f"tree literal n={n}", tree_program(n)) for n in TREE_SIZES]
    rows += [(f"let chain n={n}", let_chain(n)) for n in CHAIN_SIZES]
    rows += [(f"definitions n={n}", many_defs(n)) for n in DEFS_SIZES]
    times = {}
    print(f"{'program':<22}" + "".join(f"{c:>14}" for c in COLUMNS) + "   (ms)")
    for name, text in rows:
        times[name] = layer_times(text)
        print(f"{name:<22}" + "".join(f"{t:14.1f}" for t in times[name]), flush=True)
    for big, small in (("tree literal n=2048", "tree literal n=1024"),
                       ("let chain n=900", "let chain n=300"),
                       ("definitions n=2000", "definitions n=1000")):
        ratios = ", ".join(
            f"{c} {b / s:.2f}x" for c, b, s in zip(COLUMNS, times[big], times[small])
        )
        print(f"{big} / {small}: {ratios}")


if __name__ == "__main__":
    main()
