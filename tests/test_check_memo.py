"""The driver's memo of clean definitions (`driver.clean`): a definition
whose key passed before in the process is neither lexed, parsed, resolved
nor checked again. The key is flat, read from the cut of the text into
declarations: the definition's text, the texts of the program's type
declarations and signatures, the names it defines, the numbers of
signatures and of aliases before the definition, and whether the load is
checked. So a definition whose key differs in any one part is checked on
its own, a warm process gives what a cold one gives, byte for byte, and no
lookup recurses as deep as the definition nests. Every test goes through
the driver, as `minimz check`, `run` and `test` do.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import CORPUS
from test_checker import let_built_list
from test_compile_memo import nested_ifs

from minimz import codegen, driver, parser
from minimz.check import Checker
from minimz.cli import FRONT_END_ERRORS
from minimz.cli import main as cli_main
from minimz.kinds import Resolver
from minimz.lexer import line_col
from minimz.runtime import RuntimeTrap

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The routines that lex and parse, resolve and check one definition.
PER_DEFINITION = {
    "parse": (parser, "_parse_at"),
    "resolve": (Resolver, "resolve_def"),
    "check": (Checker, "check_function_def"),
}


@contextlib.contextmanager
def work_done():
    """A `Counter` of the calls made in the block of each routine of
    `PER_DEFINITION`, by its name."""
    done: Counter = Counter()
    saved = {name: getattr(owner, attr) for name, (owner, attr) in PER_DEFINITION.items()}

    def counted(name, routine):
        def call(*args):
            done[name] += 1
            return routine(*args)

        return call

    for name, (owner, attr) in PER_DEFINITION.items():
        setattr(owner, attr, counted(name, saved[name]))
    try:
        yield done
    finally:
        for name, (owner, attr) in PER_DEFINITION.items():
            setattr(owner, attr, saved[name])


def cold() -> None:
    driver.clean.cache_clear()


def outcome(text: str, path: str = "t.mz") -> tuple:
    """The diagnostics of `text` through the driver, byte for byte, or its
    front-end error; and the checks that took."""
    with work_done() as done:
        try:
            _, _, diags = driver.check_text(text, path)
        except FRONT_END_ERRORS as exc:
            return ("front-end error", type(exc).__name__, str(exc)), done["check"]
    shown = [
        (d.code, d.span.start, d.span.length, d.message, d.perm_snapshot, d.render(path, text))
        for d in diags
    ]
    return shown, done["check"]


def cold_outcome(text: str, path: str = "t.mz") -> tuple:
    cold()
    return outcome(text, path)


# -- a warm process gives what a cold one gives --------------------------------------

CORPUS_FILES = sorted(
    str(p.relative_to(CORPUS)) for p in CORPUS.rglob("*.mz") if p.name != "prelude.mz"
)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_corpus_in_shuffled_order_gives_each_files_cold_diagnostics(seed):
    texts = {rel: (CORPUS / rel).read_text(encoding="utf-8") for rel in CORPUS_FILES}
    expected = {rel: cold_outcome(text, rel)[0] for rel, text in texts.items()}
    # Each file twice, so each is checked after its own definitions too.
    order = CORPUS_FILES * 2
    random.Random(seed).shuffle(order)
    cold()
    for rel in order:
        assert outcome(texts[rel], rel)[0] == expected[rel], rel
    assert driver.clean.cache_info().hits > 0


def manifest_output() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["test"]) == 0
    return out.getvalue()


def test_minimz_test_prints_the_same_cold_and_warm():
    cold()
    first = manifest_output()
    hits = driver.clean.cache_info().hits
    assert manifest_output() == first
    assert driver.clean.cache_info().hits > hits


# -- a definition under another key is checked on its own ----------------------------

# Pairs of programs in which `f`'s text is the same and one part of its key
# differs. The first program checks clean; in a pair marked `flips`, the
# second does not, so a stale verdict would lose its diagnostic.
READ_A = "val f: r -> int\nval f (x) = x.a\n"
ADD_ONE = "val f (x) = add (x, 1)\n"
TWICE = "val f: t -> (t, t)\nval f (x) = (x, x)\n"
CALLS_G = "val f () = g ()\n"
PAIRS = {
    "data": ("data r = R { a: int }\n" + READ_A, "data r = R { b: int }\n" + READ_A, True),
    "alias": (
        "alias n = int\nval f: n -> int\n" + ADD_ONE,
        "alias n = bool\nval f: n -> int\n" + ADD_ONE,
        True,
    ),
    # An abstract type is not duplicable.
    "abstract": ("alias t = int\n" + TWICE, "abstract t\n" + TWICE, True),
    "signature": ("val f: int -> int\n" + ADD_ONE, "val f: bool -> int\n" + ADD_ONE, True),
    "undefined": (
        "val g: () -> int\nval f: () -> int\nval g () = 1\n" + CALLS_G,
        "val g: () -> int\nval f: () -> int\n" + CALLS_G,
        True,
    ),
    # The same signatures, in another order.
    "signature order": (
        "val g: () -> int\nval f: () -> int\nval g () = 1\nval f () = 2\n",
        "val f: () -> int\nval g: () -> int\nval g () = 3\nval f () = 2\n",
        False,
    ),
    # The same signatures in the same order; `g`'s is in scope at `f` only
    # in the second.
    "signatures in scope": (
        "val f: () -> int\nval f () = 2\nval g: () -> int\nval g () = 1\n",
        "val f: () -> int\nval g: () -> int\nval f () = 2\nval g () = 3\n",
        False,
    ),
}


@pytest.mark.parametrize("second_first", [False, True], ids=["clean first", "other first"])
@pytest.mark.parametrize("part", PAIRS)
def test_a_definition_under_another_key_gets_its_own_verdict(part, second_first):
    first, second, flips = PAIRS[part]
    cold_first, cold_second = cold_outcome(first), cold_outcome(second)
    assert cold_first[0] == []
    assert (cold_second[0] != []) == flips
    programs = [second, first] if second_first else [first, second]
    expected = [cold_second, cold_first] if second_first else [cold_first, cold_second]
    cold()
    # No definition of the one program shares its key with one of the
    # other, so each makes as many checks warm as cold.
    assert [outcome(text) for text in programs] == expected


FAILS = "val f: int -> int\nval f (x) = add (x, true)\n"


def test_a_failing_definition_at_another_offset_reports_its_own_span():
    # A comment before the first declaration moves every offset and is in no
    # declaration's text, so both programs give `f` the same key.
    moved = "-- moved\n" + FAILS
    expected = [cold_outcome(text) for text in (FAILS, moved)]
    cold()
    assert [outcome(text) for text in (FAILS, moved)] == expected
    (here,), (there,) = expected[0][0], expected[1][0]
    assert here[0] == "E-SUBSUME" and there[1] == here[1] + len("-- moved\n")


# -- a deep definition is looked up by its text --------------------------------------


def run_outcome(text: str) -> tuple:
    _, _, diags = driver.check_text(text, "t.mz")
    value, interp = driver.run_text(text, "main", "t.mz")
    return diags, interp.render(value), interp.stats.steps


@pytest.mark.parametrize(
    "text", [let_built_list(10_000), nested_ifs(400)], ids=["lets-10000", "if-400"]
)
def test_a_deep_definition_checks_and_runs_twice_under_the_default_recursion_limit(text):
    assert sys.getrecursionlimit() <= 1000
    cold()
    codegen._compiled.cache_clear()
    first = run_outcome(text)
    assert first[0] == []
    hits = driver.clean.cache_info().hits, codegen._compiled.cache_info().hits
    assert run_outcome(text) == first
    # The second check and the second run are answered by the memos.
    assert driver.clean.cache_info().hits == hits[0] + 2
    assert codegen._compiled.cache_info().hits == hits[1] + 1


# -- the bound -----------------------------------------------------------------------


@pytest.fixture
def perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import ops
        import workloads

        yield workloads, ops
    finally:
        sys.path.remove(str(PERFBENCH))


def test_the_memo_holds_every_key_of_the_three_workloads_rounds(perfbench_modules):
    workloads, ops = perfbench_modules
    rounds = {name: workloads.make_round(name, 1, CORPUS) for name in workloads.WORKLOADS}
    cold()
    held, work = [], []
    for _ in range(2):
        work.append({})
        for name, ops_of_round in rounds.items():
            with work_done() as done:
                for op in ops_of_round:
                    assert ops.mismatch(op, ops.run_plain(op)) is None, op.path
            work[-1][name] = dict(done)
        held.append(driver.clean.cache_info().currsize)
    # The second pass made no new key, and the keys of all three rounds leave
    # room for a second seed's, so none was dropped for room.
    assert held[0] == held[1]
    assert 0 < 2 * held[0] <= driver.clean.cache_info().maxsize
    # The second pass lexes, parses, resolves and checks the definitions
    # that fail their check alone, and each once.
    failing = {"iterate": 0, "check_wide": 0, "corpus_mix": 16}
    assert work[1] == {
        name: {"parse": n, "resolve": n, "check": n} if n else {}
        for name, n in failing.items()
    }


# -- an unchecked run leaves no check undone -----------------------------------------


def test_an_unchecked_run_does_not_let_a_checked_load_skip_its_check():
    # An unchecked run learns each definition that resolves, under a key
    # that says it was not checked; the check of the same text finds none.
    rel = "dyn/double_wand.mz"
    text = (CORPUS / rel).read_text(encoding="utf-8")
    with pytest.raises(RuntimeTrap) as trap:
        driver.run_text(text, "main", rel, checked=False)
    assert trap.value.kind == "ONE_SHOT_REUSE"
    assert driver.clean.cache_info().currsize > 0
    (diag,) = driver.check_text(text, rel)[2]
    assert diag.code == "E-SUBSUME"
    assert line_col(text, diag.span.start) == (88, 7)
    cold()
    assert driver.check_text(text, rel)[2] == [diag]
