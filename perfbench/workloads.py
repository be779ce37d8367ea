"""Seeded inputs of the three benchmark workloads.

A workload is one *round*: a fixed list of operations, each the work of one
CLI command (`minimz check FILE`, `minimz run FILE ENTRY`, or one row of
`minimz test`) on a program text, with the outcome it must have. A run
repeats its round a fixed number of times.

Everything random comes from `random.Random` seeded with a string, which
`random` turns into an integer through SHA-512 and never through `hash()`,
so one seed gives byte-identical inputs under any PYTHONHASHSEED. Sizes are
drawn from fixed bands around fixed centres, so two seeds give rounds of
nearly the same cost while the program texts differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from minimz.cli import parse_manifest

WORKLOADS = ("iterate", "check_wide", "corpus_mix")


# ---------------------------------------------------------------------------
# Operations and their expected outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Clean:
    """`check` reports zero diagnostics."""


@dataclass(frozen=True)
class Planted:
    """`check` reports exactly one diagnostic, of `code`, whose span starts
    inside the planted function's text `[start, end)`."""

    code: str
    start: int
    end: int


@dataclass(frozen=True)
class Prints:
    """`run` prints `value`."""

    value: str


@dataclass(frozen=True)
class Row:
    """A manifest row, run and judged by `minimz test`'s own `cli.run_case`
    against the expectation the row writes down."""

    root: Path
    expectation: str
    args: str


Expect = Clean | Planted | Prints | Row


@dataclass(frozen=True)
class Op:
    path: str  # the FILE argument, as diagnostics print it
    text: str
    expect: Expect
    entry: str | None = None  # None for `check`, the ENTRY for `run`


def make_round(workload: str, seed: int, corpus: Path) -> list[Op]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    ops = _MAKERS[workload](rng, corpus)
    rng.shuffle(ops)
    return ops


def library(corpus: Path, rel: str, stop: str) -> str:
    """The text of corpus file `rel` before its first line starting with
    `stop`, verbatim."""
    text = (corpus / rel).read_text(encoding="utf-8")
    at = text.find("\n" + stop)
    if at < 0:
        raise ValueError(f"{rel} has no line starting with {stop!r}")
    return text[: at + 1]


def _jitter(rng: random.Random, centre: int, width: int) -> int:
    return rng.randint(centre - width, centre + width)


# ---------------------------------------------------------------------------
# iterate: drain a built tree through one of the four iteration styles
# ---------------------------------------------------------------------------

# (corpus file, drain of the tree `t` into the checksum)
STYLES = {
    "iter": (
        "run/run_iter.mz",
        "  let acc = Ref { contents = Nil } in\n"
        "  let cb =\n"
        "    fun (x: int | acc @ ref (list int)) : bool =\n"
        "      (acc.contents <- Cons { head = x; tail = acc.contents }; true)\n"
        "  in\n"
        "  let finished = iter (cb, t) in\n"
        "  checksum (rev_into (Nil, acc.contents), 0)\n",
    ),
    "adt": ("run/run_adt_loop.mz", "  checksum (drain (new t), 0)\n"),
    "oo": ("run/run_oo_loop.mz", "  checksum (drain_oo (new_tree_iterator t), 0)\n"),
    "cps": ("run/run_cps_loop.mz", "  checksum (drain_cps (cps_start t), 0)\n"),
}

ITERATE_SIZES = (160, 208, 256, 304, 352, 400)  # tree sizes, each +-8

_ITERATE_TAIL = """
val build: (lo: int, hi: int) -> tree int

val build (lo, hi) =
  if lt (hi, lo)
  then Leaf
  else
    let mid = div (add (lo, hi), 2) in
    let l = build (lo, sub (mid, 1)) in
    let r = build (add (mid, 1), hi) in
    Node {{ left = l; elem = mid; right = r }}

val checksum: (l: list int, h: int) -> int

val checksum (l, h) =
  match l with
  | Nil -> h
  | Cons {{ head = x; tail = rest }} -> checksum (rest, add (mul (h, {base}), x))

val main: () -> int

val main () =
  let t = build (1, {n}) in
{drain}"""


def wrap64(n: int) -> int:
    n &= (1 << 64) - 1
    return n - (1 << 64) if n >= 1 << 63 else n


def checksum(items, base: int) -> int:
    """The interpreter's `checksum` fold: h <- h * base + x in signed 64-bit
    arithmetic, from h = 0."""
    h = 0
    for x in items:
        h = wrap64(h * base + x)
    return h


def _iterate(rng: random.Random, corpus: Path) -> list[Op]:
    ops = []
    for style, (rel, drain) in STYLES.items():
        lib = library(corpus, rel, "val main:")
        for centre in ITERATE_SIZES:
            n = _jitter(rng, centre, 8)
            base = rng.randrange(3, 1 << 31) | 1
            text = lib + _ITERATE_TAIL.format(base=base, n=n, drain=drain)
            expect = Prints(str(checksum(range(1, n + 1), base)))
            ops.append(Op(f"iterate/{style}_{n}.mz", text, expect, entry="main"))
    return ops


# ---------------------------------------------------------------------------
# check_wide: one large function body per program
# ---------------------------------------------------------------------------

TREE_SIZES = (160, 200, 240, 280, 320, 360, 400, 440)  # literal nodes, +-4
CHAIN_SIZES = (112, 144, 176, 208, 240, 272, 304, 336)  # sequential lets, +-4


def tree_literal(rng: random.Random, lo: int, hi: int) -> str:
    """A balanced literal over positions lo..hi, split like `build`."""
    if lo > hi:
        return "Leaf"
    mid = (lo + hi) // 2
    left = tree_literal(rng, lo, mid - 1)
    elem = rng.randrange(1000)
    right = tree_literal(rng, mid + 1, hi)
    return f"Node {{ left = {left}; elem = {elem}; right = {right} }}"


def let_chain(rng: random.Random, n: int) -> str:
    """`main` as n sequential lets over ints, each using earlier ones."""
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


def _check_wide(rng: random.Random, corpus: Path) -> list[Op]:
    lib = (corpus / "pos/tree_size.mz").read_text(encoding="utf-8")
    ops = []
    smallest = None
    for centre in TREE_SIZES:
        n = _jitter(rng, centre, 4)
        main = (
            "\nval main: () -> int\n\nval main () =\n"
            f"  let t = {tree_literal(rng, 1, n)} in\n  size t\n"
        )
        op = Op(f"check_wide/tree_{n}.mz", lib + main, Clean())
        ops.append(op)
        smallest = smallest or (op, n)
    for centre in CHAIN_SIZES:
        n = _jitter(rng, centre, 4)
        ops.append(Op(f"check_wide/lets_{n}.mz", let_chain(rng, n), Clean()))
    # The interpreter barely runs here: one `run` per round, of the
    # smallest tree, whose `main` is the size of its literal.
    op, n = smallest
    ops.append(Op(op.path, op.text, Prints(str(n)), entry="main"))
    return ops


# ---------------------------------------------------------------------------
# corpus_mix: the manifest plus seeded clients of the new/next/stop library
# ---------------------------------------------------------------------------

FAULTS = ("stop", "next", "release")  # double stop, double next, double release
FAULT_CODE = "E-SUBSUME"
CLIENT_PROGRAMS = 27  # one in three carries a planted fault


def manifest_ops(corpus: Path) -> list[Op]:
    """The manifest rows, as `minimz test` reads them."""
    return [
        Op(rel, (corpus / rel).read_text(encoding="utf-8"), Row(corpus, expectation, args))
        for expectation, rel, args in parse_manifest(corpus / "manifest.tsv")
    ]


def take_client(rng: random.Random, name: str, k: int, fault: str | None = None) -> str:
    """A function that takes up to k elements through new/next/release and
    then stops the iterator; `fault` plants one protocol misuse."""
    at = rng.randint(1, k)
    lines = [
        f"val {name}: (consumes t: tree int) -> int",
        "",
        f"val {name} (t) =",
        "  let it = new t in",
    ]
    pad, acc = "  ", "0"
    for j in range(1, k + 1):
        if fault == "next" and j == at:
            lines.append(f"{pad}let skipped = next it in")
        lines += [
            f"{pad}match next it with",
            f"{pad}| Right {{ contents = u }} -> {acc}",
            f"{pad}| Left {{ contents = fc }} ->",
        ]
        pad += "    "
        lines += [f"{pad}let (x{j}, release{j}) = fc in", f"{pad}release{j} ();"]
        if fault == "release" and j == at:
            lines.append(f"{pad}release{j} ();")
        acc = f"add (mul ({acc}, {rng.randrange(3, 100, 2)}), x{j})"
    lines.append(f"{pad}let u = stop it in")
    if fault == "stop":
        lines.append(f"{pad}let v = stop it in")
    lines.append(f"{pad}{acc}")
    return "\n".join(lines) + "\n"


def fold_client(rng: random.Random, name: str) -> str:
    """A recursive fold that drains the iterator to its end."""
    op = rng.choice(("add", "sub"))
    return (
        f"val {name}_loop: [post: perm] (consumes it: tree_iterator int post) -> (int | post)\n"
        "\n"
        f"val {name}_loop (it) =\n"
        "  match next it with\n"
        "  | Right { contents = u } -> 0\n"
        "  | Left { contents = fc } ->\n"
        "      let (x, release) = fc in\n"
        "      release ();\n"
        f"      let rest = {name}_loop it in\n"
        f"      {op} (mul (x, {rng.randrange(3, 100, 2)}), rest)\n"
        "\n"
        f"val {name}: (consumes t: tree int) -> int\n"
        "\n"
        f"val {name} (t) =\n"
        f"  {name}_loop (new t)\n"
    )


def client_program(rng: random.Random, lib: str, index: int, fault: str | None) -> Op:
    """Program `index` holds 2 to 4 clients, their kinds fixed by the index so
    that every seed gives rounds of the same make-up; the seed picks the
    constants and, in a planted program, which take client and which step
    carry the fault."""
    kinds = [(index + j) % 4 for j in range(2 + index % 3)]  # 0: fold, else take k
    takes = [j for j, kind in enumerate(kinds) if kind]
    planted = rng.choice(takes) if fault else -1
    text, span = lib, None
    for j, kind in enumerate(kinds):
        name = f"client{j}"
        if kind == 0:
            body = fold_client(rng, name)
        else:
            body = take_client(rng, name, kind, fault if j == planted else None)
        if j == planted:
            span = (len(text) + 1, len(text) + 1 + len(body))
        text += "\n" + body
    path = f"corpus_mix/client_{index}.mz"
    if span is None:
        return Op(path, text, Clean())
    return Op(path, text, Planted(FAULT_CODE, *span))


def _corpus_mix(rng: random.Random, corpus: Path) -> list[Op]:
    lib = library(corpus, "run/run_adt_loop.mz", "val drain:")
    ops = manifest_ops(corpus)
    for i in range(CLIENT_PROGRAMS):
        fault = FAULTS[i // 3 % 3] if i % 3 == 0 else None
        ops.append(client_program(rng, lib, i, fault))
    return ops


_MAKERS = {"iterate": _iterate, "check_wide": _check_wide, "corpus_mix": _corpus_mix}
