"""The checker's per-node path raises nothing it catches again.

A raised and caught exception costs a Python frame's unwinding: reading
an unset cache slot by catching its `AttributeError`, or leaving a
generator suspended for a `GeneratorExit` to close, costs several times
what the plain read or loop does, once per type node or per lookup. This
test checks the corpus and two large programs under `sys.settrace` and
counts the exceptions raised in the functions of that path. A function is
known by its qualified name, so a generator expression or a lambda inside
a function of the path counts as that function: `all(...)` over a
generator that stops early leaves it suspended for a `GeneratorExit`, and
so does `zip` over a generator longer than the other side.

The search's levels are generators too, and most are closed so: a pick
or a fold that its cut keeps. A mutable literal opens one level, a walk's
(`Subsumer._walk`), however many nodes it has."""

from __future__ import annotations

import random
import sys
from collections import Counter

from conftest import CORPUS, corpus_text

from minimz.check import Checker
from minimz.driver import load_text
from minimz.kinds import ResolveError
from minimz.lexer import LexError
from minimz.parser import ParseError

# Where an exception of each type may not be raised: the qualified names
# of functions, with whatever is defined inside them.
FORBIDDEN = {
    "AttributeError": {"has_meta", "plain"},
    "GeneratorExit": {
        "Subsumer.head_atom",
        "Subsumer._next_head",
        "Subsumer._open_first",
        "Subsumer._try_split",
        "Subsumer.split_along",
        "Checker._auto_refine",
        "PermEnv.has_affine",
        "is_structural_tuple",
        "duplicability",
        "plain",
    },
    # a side of a unification that is no permission is rare: `unify_perms`
    # catches the `TypeError` of `normalize`, and `unify` sees none
    "TypeError": {"Subsumer.unify"},
}


def forbidden(qualname: str, exc: str) -> bool:
    """May `exc` not be raised in the function whose qualified name is
    `qualname`?"""
    return any(
        qualname == fn or qualname.startswith(fn + ".<locals>.")
        for fn in FORBIDDEN.get(exc, ())
    )


def tree_program(rng: random.Random, n: int) -> str:
    """`main` binds one balanced tree literal of n nodes and takes its size,
    below the library of `pos/tree_size.mz`."""

    def literal(lo: int, hi: int) -> str:
        if lo > hi:
            return "Leaf"
        mid = (lo + hi) // 2
        left, elem, right = literal(lo, mid - 1), rng.randrange(1000), literal(mid + 1, hi)
        return f"Node {{ left = {left}; elem = {elem}; right = {right} }}"

    main = f"\nval main: () -> int\n\nval main () =\n  let t = {literal(1, n)} in\n  size t\n"
    return corpus_text("pos/tree_size.mz") + main


def let_chain(rng: random.Random, n: int) -> str:
    """`main` as n lets over ints, each using earlier ones."""
    lines = ["val main: () -> int", "val main () =", "  let x0 = 1 in"]
    for i in range(1, n):
        a, b = rng.randrange(i), rng.randrange(i)
        rhs = rng.choice([f"add (x{a}, x{b})", f"sub (x{a}, x{b})", f"mul (x{a}, 3)"])
        lines.append(f"  let x{i} = {rhs} in")
    return "\n".join([*lines, f"  x{n - 1}", ""])


def raised_while_checking(texts: list[str]) -> Counter:
    """(qualified name of the function, exception type) of each exception
    raised while checking `texts`, each by a bare `Checker`: the driver's
    check memo would skip the definitions checked clean before."""
    raised: Counter = Counter()

    def trace(frame, event, arg):
        if event == "call":
            frame.f_trace_lines = False
        elif event == "exception":
            raised[frame.f_code.co_qualname, arg[0].__name__] += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for text in texts:
            try:
                file, env = load_text(text, "<input>")
                Checker(env).check_file(file)
            except (LexError, ParseError, ResolveError):
                pass
    finally:
        sys.settrace(previous)
    return raised


def test_checking_raises_no_exception_on_the_hot_path():
    rng = random.Random(1)
    texts = [p.read_text(encoding="utf-8") for p in sorted(CORPUS.rglob("*.mz"))]
    texts += [tree_program(rng, 300), let_chain(rng, 300)]
    raised = raised_while_checking(texts)
    assert raised, "the trace saw no exception at all: it is not tracing"
    bad = {(fn, exc): n for (fn, exc), n in raised.items() if forbidden(fn, exc)}
    assert bad == {}


def let_list(n: int) -> str:
    """`main` returns a list of n cells, one `let` per cell: a list is
    immutable, so each cell is folded by a level of the search."""
    lines = ["val main: () -> list int", "val main () =", "  let l0 = Nil in"]
    lines += [f"  let l{i} = Cons {{ head = {i}; tail = l{i - 1} }} in" for i in range(1, n + 1)]
    return "\n".join([*lines, f"  l{n}", ""])


def levels_while_checking(text: str) -> Counter:
    """The search's levels that checking `text` opens, by the qualified
    name of their generator: the frames that start. A frame's first `call`
    event is its start on every Python version; how many more it has, as
    it is resumed or closed, is not (3.13 closes a generator suspended
    outside any `try` without resuming it)."""
    started: dict[int, object] = {}  # holds each frame, so no id is reused

    def trace(frame, event, arg):
        if event == "call" and frame.f_code.co_qualname in ("Subsumer._fold", "Subsumer._walk"):
            started.setdefault(id(frame), frame)

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        file, env = load_text(text, "<input>")
        Checker(env).check_file(file)
    finally:
        sys.settrace(previous)
    return Counter(frame.f_code.co_qualname for frame in started.values())


def test_a_tree_literal_is_folded_in_one_level():
    # A mutable tree literal is met by one walk's level: the nodes below
    # its first are folded inside the walk and open no `_fold` level of
    # their own. A list's cells still take a `_fold` level each, which
    # shows that the count sees such levels.
    library = levels_while_checking(corpus_text("pos/tree_size.mz"))
    literal = levels_while_checking(tree_program(random.Random(2), 300))
    assert literal["Subsumer._fold"] == library["Subsumer._fold"] == 0
    assert literal["Subsumer._walk"] - library["Subsumer._walk"] == 1
    levels = [levels_while_checking(let_list(n))["Subsumer._fold"] for n in (3, 6)]
    assert levels == [4, 7]


def test_the_guard_knows_a_function_by_its_qualified_name():
    assert forbidden("Subsumer.head_atom", "GeneratorExit")
    assert forbidden("duplicability.<locals>.<genexpr>", "GeneratorExit")
    assert forbidden("Subsumer.unify", "TypeError")
    assert not forbidden("Checker.head_atom", "GeneratorExit")
    assert not forbidden("duplicability_of", "GeneratorExit")
    assert not forbidden("Subsumer.unify", "GeneratorExit")
