"""How front-end, checking and run time grow with the size of a program.

Loads and checks three families of programs at growing sizes and prints, for
each, the best of `REPEATS` times of each front-end layer (lex, parse,
resolve) and of the checker, with the collector on (as `minimz check`
runs), and of the checker with the collector off; and, for the families
with a `main`, of a run of `main` (compiling it included, as a fresh
`minimz run` process runs it):

- `pos/tree_size.mz` plus a `main` that binds a balanced tree literal of
  n nodes, at n = 256, 512, 1024 and 2048;
- a `main` made of n sequential lets over ints, at n = 1000 and 3000;
- a `main` that builds a list of n cells, one `let` per cell, and returns
  it, at n = 1000 and 3000;
- n one-line top-level functions, each after its signature, at n = 500,
  1000 and 2000.

Each layer is timed on its own: each timing of a layer redoes the layers
before it afresh, untimed, so no memo carries over from one timing to the
next. The lex column times the file's lexer layer, `parser.tokenize`: the
cut of the text before each declaration and the lex of the runs of
declarations between the definitions. A definition is lexed where it is
parsed, so its lex is in the parse column (`Parser.parse_file`). The
parser, the resolver and the checker are timed bare (`Parser.parse_file`,
`resolve`, `Checker(env).check_file`), without the driver's memos of
definitions that parsed, resolved or checked clean, so every timing lexes,
parses, resolves and checks every definition. The last lines give the
ratios 2048/1024, 3000/1000, 3000/1000 and 2000/1000 for each
column; linear time gives 2.0, 3.0, 3.0 and 2.0.

Run from the root of the repository:

    python3 scripts/check_scaling.py

With `--calls` it times nothing: it prints, for the smallest size of each
family, the number of function calls that `cProfile` counts in each of
lex, parse, resolve and check, and in the four together, per node (per
tree node, `let` or definition). The counts do not depend on the machine
or its load, so they show a change to the per-node work of a layer on
their own:

    python3 scripts/check_scaling.py --calls
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from minimz.check import Checker  # noqa: E402
from minimz.codegen import _code, _compiled  # noqa: E402
from minimz.driver import CORPUS_DIR, load_text, parsed_clean, prelude, resolved_clean  # noqa: E402
from minimz.interp import eval_program  # noqa: E402
from minimz.kinds import resolve  # noqa: E402
from minimz.parser import Parser, parse_file, tokenize  # noqa: E402

TREE_SIZES = (256, 512, 1024, 2048)
CHAIN_SIZES = (1000, 3000)
LIST_SIZES = (1000, 3000)
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


def let_list(n: int) -> str:
    """`main` returning a list of n cells, each bound by a `let`: checking
    it folds the cells into `list int`, one inside the other."""
    lines = ["val main: () -> list int", "", "val main () =", "  let l0 = Nil in"]
    lines += [f"  let l{i} = Cons {{ head = {i}; tail = l{i - 1} }} in" for i in range(1, n + 1)]
    return "\n".join(lines + [f"  l{n}"]) + "\n"


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


def layer_times(text: str, runs: bool) -> tuple[float, ...]:
    """Lex, parse, resolve, check, check with the collector off and, when
    `runs`, a run of `main`, in ms."""
    prelude_file, base = prelude()

    def check(loaded) -> None:
        file, env = loaded
        diags = Checker(env).check_file(file)
        if diags:
            raise SystemExit(f"unexpected diagnostics: {diags}")

    def load():
        parsed_clean.cache_clear()  # nothing is left for the check to read lazily
        resolved_clean.cache_clear()
        return load_text(text, "scaling.mz")

    def load_cold():
        _compiled.cache_clear()  # the code of an earlier timing's run
        _code.cache_clear()
        return load()

    def run(loaded) -> None:
        file, env = loaded
        eval_program(env, [prelude_file, file], "main", checked=True)

    times = (
        best_ms(lambda: text, tokenize),
        best_ms(lambda: tokenize(text), lambda decls: Parser.parse_file(decls, "scaling.mz")),
        best_ms(lambda: (parse_file(text, "scaling.mz"), base.clone()),
                lambda args: resolve(*args)),
        best_ms(load, check),
        best_ms(load, check, collector=False),
    )
    return times + (best_ms(load_cold, run),) if runs else times


COLUMNS = ("lex", "parse", "resolve", "check", "check, gc off", "run")
CALL_LAYERS = ("lex", "parse", "resolve", "check", "total")


def calls(fn, *args):
    """`fn(*args)`, and the number of calls `cProfile` counts in it."""
    profile = cProfile.Profile()
    result = profile.runcall(fn, *args)
    return result, pstats.Stats(profile).total_calls


def layer_calls(text: str) -> tuple[int, ...]:
    """The calls counted in each layer of loading and checking `text`, each
    run once on the output of the one before, and their sum."""
    _, base = prelude()
    decls, lex = calls(tokenize, text)
    file, parse = calls(Parser.parse_file, decls, "scaling.mz")
    (file, env), res = calls(resolve, file, base.clone())
    diags, check = calls(lambda: Checker(env).check_file(file))
    if diags:
        raise SystemExit(f"unexpected diagnostics: {diags}")
    return lex, parse, res, check, lex + parse + res + check


def print_calls() -> None:
    rows = [
        (f"tree literal n={TREE_SIZES[0]}", tree_program(TREE_SIZES[0]), TREE_SIZES[0]),
        (f"let chain n={CHAIN_SIZES[0]}", let_chain(CHAIN_SIZES[0]), CHAIN_SIZES[0]),
        (f"let list n={LIST_SIZES[0]}", let_list(LIST_SIZES[0]), LIST_SIZES[0]),
        (f"definitions n={DEFS_SIZES[0]}", many_defs(DEFS_SIZES[0]), DEFS_SIZES[0]),
    ]
    print(f"{'program':<22}" + "".join(f"{c:>10}" for c in CALL_LAYERS) + "   (calls per node)")
    for name, text, n in rows:
        counts = layer_calls(text)
        print(f"{name:<22}" + "".join(f"{c / n:10.1f}" for c in counts), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--calls", action="store_true", help="print profiled calls per node instead of times"
    )
    if parser.parse_args().calls:
        print_calls()
        return
    rows = [(f"tree literal n={n}", tree_program(n), True) for n in TREE_SIZES]
    rows += [(f"let chain n={n}", let_chain(n), True) for n in CHAIN_SIZES]
    rows += [(f"let list n={n}", let_list(n), True) for n in LIST_SIZES]
    rows += [(f"definitions n={n}", many_defs(n), False) for n in DEFS_SIZES]
    times = {}
    print(f"{'program':<22}" + "".join(f"{c:>14}" for c in COLUMNS) + "   (ms)")
    for name, text, runs in rows:
        times[name] = layer_times(text, runs)
        print(f"{name:<22}" + "".join(f"{t:14.1f}" for t in times[name]), flush=True)
    for big, small in (("tree literal n=2048", "tree literal n=1024"),
                       ("let chain n=3000", "let chain n=1000"),
                       ("let list n=3000", "let list n=1000"),
                       ("definitions n=2000", "definitions n=1000")):
        ratios = ", ".join(
            f"{c} {b / s:.2f}x" for c, b, s in zip(COLUMNS, times[big], times[small])
        )
        print(f"{big} / {small}: {ratios}")


if __name__ == "__main__":
    main()
