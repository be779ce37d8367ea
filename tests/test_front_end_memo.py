"""The front end under the driver's memo of clean definitions
(`driver.clean`): a definition whose key passed before is neither lexed,
parsed nor resolved again; its body is lexed from its own text, parsed
with the file's offsets and resolved only when something reads it. So a
warm process gives what a cold one gives, byte for byte, spans and errors
included, and neither the memo nor a warm file keeps what it need not: no
node, no token. Every test goes through the driver, as `minimz check`,
`run` and `test` do.
"""

from __future__ import annotations

import gc
import random
import sys
import types

import pytest

from conftest import CORPUS
from test_check_memo import CORPUS_FILES, PAIRS, cold, perfbench_modules, work_done  # noqa: F401
from test_checker import let_built_list
from test_compile_memo import nested_ifs
from test_front_end_errors import GOLDEN as ERRORS_GOLDEN
from test_front_end_errors import dump as front_end_errors
from test_span_pins import GOLDEN as SPANS_GOLDEN
from test_span_pins import walk

from minimz import codegen, driver, lexer, parser
from minimz.ast import DValDef, Span
from minimz.cli import FRONT_END_ERRORS
from minimz.lexer import Tokens, tokenize
from minimz.parser import Declarations, Parser, parse_file
from minimz.runtime import RuntimeTrap


def outcome(text: str, path: str = "t.mz") -> tuple:
    """The diagnostics of `text` through the driver, byte for byte, and the
    spans of every node of its resolved definitions; or its front-end
    error."""
    try:
        file, _, diags = driver.check_text(text, path)
    except FRONT_END_ERRORS as exc:
        return ("front-end error", type(exc).__name__, str(exc))
    shown = [
        (d.code, d.span.start, d.span.length, d.message, d.perm_snapshot, d.render(path, text))
        for d in diags
    ]
    spans: list[str] = []
    walk(file.decls, spans)
    return shown, spans


def cold_outcome(text: str, path: str = "t.mz") -> tuple:
    cold()
    return outcome(text, path)


def texts() -> dict[str, str]:
    return {rel: (CORPUS / rel).read_text(encoding="utf-8") for rel in CORPUS_FILES}


# -- a warm process gives what a cold one gives --------------------------------------


@pytest.mark.parametrize("seed", [1, 2])
def test_the_corpus_twice_in_shuffled_order_gives_each_files_cold_outcome(seed):
    corpus = {**texts(), **ALIAS_ORDER}
    expected = {rel: cold_outcome(text, rel) for rel, text in corpus.items()}
    order = list(corpus) * 2
    random.Random(seed).shuffle(order)
    cold()
    for rel in order:
        assert outcome(corpus[rel], rel) == expected[rel], rel
    assert driver.clean.cache_info().hits > 0


CLEAN = "val g: int -> int\nval g (x) = add (x, 1)\n"
READ_R = "val f: r -> int\nval f (x) = match x with R { a = y } -> 1\n"
CALLS_G = "val f () = g ()\n"
USES_A = "val f: int -> int\nval f (y) = (fun (x: a) : a = x) (y)\n"
ALIAS = "alias a = int\n"
FAILS = "val f: int -> int\nval f (x) = add (x, true)\n"


def test_a_warm_definition_moved_by_a_comment_keeps_absolute_spans():
    # A comment before the first declaration is in no declaration's text,
    # so every key of the moved program is one of the first: `g` is neither
    # parsed, resolved nor checked again, and `f`, which fails, is all
    # three, at its new offset. The walk of the spans reads `g`'s body.
    program = CLEAN + FAILS
    moved = "-- moved\n" + program
    expected = cold_outcome(moved)
    cold()
    outcome(program)
    with work_done() as done:
        driver.check_text(moved, "t.mz")
    assert done == {"parse": 1, "resolve": 1, "check": 1}
    assert outcome(moved) == expected
    (diag,) = expected[0]
    assert diag[0] == "E-SUBSUME" and diag[1] > len("-- moved\n" + CLEAN)


@pytest.mark.parametrize("part", ["undefined", "signatures in scope", "signature"])
def test_a_warm_text_whose_check_misses_gives_cold_diagnostics(part):
    # `f`'s text is the same in both programs, but its key is not, so the
    # memo knows no definition of the second.
    first, second, _ = PAIRS[part]
    expected = cold_outcome(second)
    cold()
    outcome(first)
    hits = driver.clean.cache_info().hits
    assert outcome(second) == expected
    assert driver.clean.cache_info().hits == hits


# Pairs of programs in which `f`'s text is the same, the first resolves
# clean, and the second does not: one part of the resolution's key differs.
RESOLVE_PAIRS = {
    "types": ("data r = R { a: int }\n" + READ_R, "data r = R { b: int }\n" + READ_R),
    "signatures": (
        "val g: () -> int\nval f: () -> int\nval g () = 1\n" + CALLS_G,
        "val h: () -> int\nval f: () -> int\nval h () = 1\n" + CALLS_G,
    ),
    "signatures in scope": (
        "val f: () -> int\nval g: () -> int\n" + CALLS_G + "val g () = 1\n",
        "val f: () -> int\n" + CALLS_G + "val g: () -> int\nval g () = 1\n",
    ),
    # The same texts, in another order: an alias has its kind only after
    # its declaration.
    "alias order": (ALIAS + USES_A, USES_A + ALIAS),
}
ALIAS_ORDER = dict(zip(["alias-first.mz", "alias-last.mz"], RESOLVE_PAIRS["alias order"]))


def load_outcome(text: str, checked: bool) -> str:
    """The error that loading `text` raises, or "ok". A checked load is
    checked too, so that each definition of it that checks clean is
    learned, as an unchecked one learns each that resolves."""
    try:
        if checked:
            driver.check_text(text, "t.mz")
        else:
            driver.load_text(text, "t.mz", checked=False)
    except FRONT_END_ERRORS as exc:
        return f"{type(exc).__name__} {exc}"
    return "ok"


@pytest.mark.parametrize("checked", [False, True], ids=["unchecked", "checked"])
@pytest.mark.parametrize("part", RESOLVE_PAIRS)
def test_a_definition_under_another_resolution_key_is_resolved_again(part, checked):
    first, second = RESOLVE_PAIRS[part]
    cold()
    expected = load_outcome(second, checked)
    assert load_outcome(first, checked) == "ok" != expected
    cold()
    assert load_outcome(first, checked) == "ok"
    assert driver.clean.cache_info().currsize > 0  # the first's `f` is known
    assert load_outcome(second, checked) == expected


def test_a_warm_text_under_a_later_signature_gives_cold_diagnostics():
    # A signature after `f` changes the key of `f`'s resolution and check,
    # not its text.
    later = FAILS + CLEAN
    expected = cold_outcome(later)
    assert [d[0] for d in expected[0]] == ["E-SUBSUME"]
    cold()
    outcome(FAILS)
    assert outcome(later) == expected


def test_a_front_end_error_after_warm_definitions_is_the_cold_error():
    # Every corpus file is checked first, so each broken variant's clean
    # definitions are warm when its error is met.
    for text in texts().values():
        driver.check_text(text, "warm.mz")
    assert front_end_errors() == ERRORS_GOLDEN.read_text(encoding="utf-8")


def load_error(text: str) -> tuple:
    """The error that loading `text` raises: its class, message and span."""
    with pytest.raises(FRONT_END_ERRORS) as exc:
        driver.load_text(text, "t.mz")
    return type(exc.value).__name__, exc.value.message, exc.value.span


# Programs whose error the cut into declarations must not move. Each is
# loaded cold, and warm after the clean declarations in it, and in every
# other, have loaded.
ERRORS = {
    # The first declaration does not parse and the last does not lex, in a
    # signature, which the file's lexer reads, or in a definition, which is
    # lexed only where it is parsed: the `LexError` comes first.
    "lex error in a later signature": (
        "val f: ) int\n" + CLEAN + "val h: int -> ?\n",
        ("LexError", "illegal character '?'", "?"),
    ),
    "lex error in a later definition": (
        "val f: ) int\n" + CLEAN + "val h: int -> int\nval h (x) = x ?\n",
        ("LexError", "illegal character '?'", "?"),
    ),
    # A declaration that runs past its end meets the next one's keyword,
    # also where the next is a definition, which its run's tokens end in.
    "a definition runs into the next": (
        "val g: int -> int\nval g (x) = add (x,\n" + FAILS,
        ("ParseError", "expected an expression, found KW 'val'", "val f:"),
    ),
    "a signature runs into the next": (
        "val h: int ->\n" + CLEAN,
        ("ParseError", "expected a type, found KW 'val'", "val g:"),
    ),
    "a signature runs into a definition": (
        "val h: int ->\n" + CLEAN.splitlines(keepends=True)[1],
        ("ParseError", "expected a type, found KW 'val'", "val g ("),
    ),
    # Tokens before the first declaration.
    "tokens before the first declaration": (
        "-- a comment\nx y\n" + CLEAN,
        ("ParseError", "expected a declaration, found LIDENT 'x'", "x y"),
    ),
}


@pytest.mark.parametrize("case", ERRORS)
def test_a_front_end_error_is_met_where_a_whole_file_lex_met_it_cold_and_warm(case):
    text, (kind, message, at) = ERRORS[case]
    start = text.index(at)
    expected = (kind, message, Span(start, len(at.split()[0]) if kind == "ParseError" else 1))
    cold()
    assert load_error(text) == expected
    for warm in (CLEAN, FAILS, *texts().values()):
        driver.check_text(warm, "warm.mz")
    assert driver.clean.cache_info().currsize > 0
    assert load_error(text) == expected


RUNS = sorted(
    str(p.relative_to(CORPUS)) for folder in ("run", "dyn") for p in (CORPUS / folder).glob("*.mz")
)


def unchecked_run(text: str, path: str) -> tuple:
    try:
        value, interp = driver.run_text(text, "main", path, checked=False)
    except RuntimeTrap as trap:
        return ("trap", trap.kind, trap.message)
    return interp.render(value), interp.stats.steps, interp.stats.call_steps


@pytest.mark.parametrize("rel", RUNS)
def test_an_unchecked_run_gives_the_same_value_and_steps_warm_and_cold(rel):
    text = (CORPUS / rel).read_text(encoding="utf-8")
    cold()
    codegen._compiled.cache_clear()
    first = unchecked_run(text, rel)
    # Warm: the memo of clean definitions answers, and `_compiled` too.
    assert unchecked_run("-- moved\n" + text, rel) == first
    codegen._compiled.cache_clear()
    # Warm front end, cold code: each body is read lazily to be compiled.
    assert unchecked_run(text, rel) == first


@pytest.mark.parametrize(
    "text", [let_built_list(10_000), nested_ifs(400)], ids=["lets-10000", "if-400"]
)
def test_a_deep_body_read_lazily_checks_under_the_default_recursion_limit(text):
    # The second load knows the definition clean, and the run compiles it
    # afresh: its body is parsed and resolved from the lazy definition,
    # deeper in the stack than a parse of the file.
    assert sys.getrecursionlimit() <= 1000
    assert driver.check_text(text, "t.mz")[2] == []
    codegen._compiled.cache_clear()
    hits = driver.clean.cache_info().hits
    with work_done() as done:
        driver.run_text(text, "main", "t.mz")
    assert driver.clean.cache_info().hits > hits
    assert done == {"parse": 1, "resolve": 1}


def test_a_body_read_lazily_is_lexed_outside_the_files_lexer(monkeypatch):
    # A warm program lexes no whole file, and each declaration at most
    # once. The file's lexer layer (`parser.tokenize`, which perfbench's
    # traced runs wrap as the lexer of a file) lexes the declarations
    # before the definition in one call, here the signature, which is
    # parsed every time. `f` fails its check, so the memo does not know it,
    # and the parser lexes its text on its own, outside the file's lexer,
    # and only there.
    driver.check_text(FAILS, "t.mz")
    lexed, inside = [], []
    files_lexer = parser.tokenize

    def traced_files_lexer(text):
        inside.append(text)
        try:
            return files_lexer(text)
        finally:
            inside.pop()

    def traced_lexer(text, *at):
        lexed.append((text, bool(inside)))
        return tokenize(text, *at)

    monkeypatch.setattr(parser, "tokenize", traced_files_lexer)
    monkeypatch.setattr(lexer, "tokenize", traced_lexer)
    (diag,) = driver.check_text(FAILS, "t.mz")[2]
    signature, definition = FAILS.splitlines(keepends=True)
    assert diag.code == "E-SUBSUME"
    assert lexed == [(signature, True), (definition, False)]


# -- a body read lazily is the body parsed eagerly -----------------------------------


def test_a_lazy_body_equals_the_eager_body_and_keeps_its_pinned_spans():
    lines: list[str] = []
    for path in sorted(CORPUS.rglob("*.mz")):
        rel = path.relative_to(CORPUS).as_posix()
        text = path.read_text(encoding="utf-8")
        eager = parse_file(text, rel)
        headers = [(d.name, d.params, d.span.length) for d in eager.decls if type(d) is DValDef]
        with work_done() as done:
            lazy = Parser.parse_file(parser.tokenize(text), rel, headers)
        assert not done  # no definition was parsed
        defined = [d for d in lazy.decls if type(d) is DValDef]
        assert all(d.known for d in defined)
        assert [d.body for d in defined] == [d.body for d in eager.decls if type(d) is DValDef]
        lines.append(f"== {rel}")
        walk(lazy, lines)
    assert "\n".join(lines) + "\n" == SPANS_GOLDEN.read_text(encoding="utf-8")


# -- what the memos keep -------------------------------------------------------------


def leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from leaves(item)
    else:
        yield value


def stored_keys(memo) -> list:
    """The `Keyed` arguments that `memo`, an `lru_cache`, keeps."""
    caches = [
        r for r in gc.get_referents(memo) if type(r) is dict and all(type(k) is tuple for k in r)
    ]
    return [arg for cache in caches for key in cache for arg in key]


def test_the_front_end_memos_keep_only_strings_and_ints():
    for text in texts().values():
        outcome(text)
        driver.load_text(text, "t.mz", checked=False)
    memo = driver.clean
    keys = stored_keys(memo)
    assert len(keys) == memo.cache_info().currsize > 0
    assert {keyed.key[0] for keyed in keys} == {False, True}  # both modes
    for keyed in keys:
        assert keyed.take() is None  # the memo keeps no parsed value
        answer = memo(type(keyed)(keyed.key, None))  # a miss would raise
        for leaf in leaves((keyed.key, answer)):
            assert type(leaf) in (str, int, bool), type(leaf)


def reachable_classes(root) -> set[type]:
    """The classes of the objects that `root` holds, directly or not; a
    function is followed into its closure only, not its globals."""
    seen: set[int] = set()
    stack, classes = [root], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        classes.add(type(obj))
        if isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif not isinstance(obj, (type, types.ModuleType, types.BuiltinFunctionType)):
            stack.extend(gc.get_referents(obj))
    return classes


def test_a_warm_file_keeps_no_token_of_its_text():
    # A definition read lazily lexes its own text when its body is read,
    # so the file keeps no token list of its own until then.
    text = texts()["pos/tree_size.mz"]
    driver.check_text(text, "t.mz")
    file, _ = driver.load_text("-- moved\n" + text, "t.mz")
    lazy = [d for d in file.decls if type(d) is DValDef and d._fill is not None]
    assert lazy
    assert not reachable_classes(file) & {Declarations, Parser, Tokens}


def test_the_memos_hold_every_key_of_the_three_workloads_rounds(
    perfbench_modules, monkeypatch  # noqa: F811
):
    # `test_check_memo.py`'s test of the same name pins the memo's size and
    # the definitions a warm round parses; here, that a warm round lexes
    # the text of no definition but those that fail their check, so reads
    # no lazy body: the run finds each definition's code in `_compiled`.
    workloads, ops = perfbench_modules
    rounds = {name: workloads.make_round(name, 1, CORPUS) for name in workloads.WORKLOADS}
    for ops_of_round in rounds.values():
        for op in ops_of_round:
            assert ops.mismatch(op, ops.run_plain(op)) is None, op.path
    files_lexer = parser.tokenize
    inside: list[str] = []
    lexed = dict.fromkeys(rounds, 0)
    workload = [""]

    def traced_files_lexer(text):
        inside.append(text)
        try:
            return files_lexer(text)
        finally:
            inside.pop()

    def traced_lexer(text, *at):
        lexed[workload[0]] += not inside
        return tokenize(text, *at)

    monkeypatch.setattr(parser, "tokenize", traced_files_lexer)
    monkeypatch.setattr(lexer, "tokenize", traced_lexer)
    for name, ops_of_round in rounds.items():
        workload[0] = name
        for op in ops_of_round:
            assert ops.mismatch(op, ops.run_plain(op)) is None, op.path
    assert lexed == {"iterate": 0, "check_wide": 0, "corpus_mix": 16}


def test_each_test_starts_with_cold_memos():
    # `conftest.py`'s autouse fixture clears the memo, as a fresh process has.
    assert driver.clean.cache_info().currsize == 0
