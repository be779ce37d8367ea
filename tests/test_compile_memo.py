"""The runs of one process share the code of a definition
(`codegen._compiled`), keyed by the definition's text, the mode of the
run and the program's interface (`Interp.interface`). Each part of the key
changes the code of some definition, so a run whose key differs in that
part alone must give what it gives against a cold memo. And the code
carries nothing of one run to the next: not the step limit, not the
lists of call steps, not a raised check's frames.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from test_interp_pins import iterate_text

from minimz import codegen
from minimz.ast import DValDef, Keyed
from minimz.cli import main as cli_main
from minimz.driver import load_text, prelude
from minimz.interp import Interp, RuntimeTrap
from minimz.runtime import _Check


def cold() -> None:
    codegen._compiled.cache_clear()
    codegen._code.cache_clear()


def outcome(text: str, entry: str = "main", *, checked: bool = False, trace: bool = False,
            max_steps: int = 10_000_000) -> tuple:
    """The rendered value or trap of a run of `entry`, its steps, records,
    one-shot firings, call steps and trace."""
    file, env = load_text(text, "t.mz")
    interp = Interp(env, [prelude()[0], file], checked=checked, max_steps=max_steps,
                    trace=trace)
    try:
        shown = interp.render(interp.run(entry))
    except RuntimeTrap as trap:
        shown = f"trap {trap.kind}: {trap.message}"
    stats = interp.stats
    calls = {name: tuple(steps) for name, steps in stats.call_steps.items()}
    return (shown, stats.steps, stats.allocations, stats.oneshot_fires, calls, interp.trace)


def cold_outcome(text: str, **mode) -> tuple:
    cold()
    return outcome(text, **mode)


def assert_warm_runs_match_cold(programs: list[tuple[str, dict]]) -> list[tuple]:
    """Run `programs` in order on one memo, each as it runs cold; returns
    their outcomes."""
    expected = [cold_outcome(text, **mode) for text, mode in programs]
    cold()
    got = [outcome(text, **mode) for text, mode in programs]
    assert got == expected
    return got


# -- every part of the key matters ------------------------------------------------

CALLER = """val f: () -> int
val f () = g (1, 2)
"""
PAIR = """val g: (int, int) -> int
val g (a, b) = add (a, b)
"""
ONE_TUPLE = """alias pair = (int, int)
val g: pair -> int
val g (p) = let (a, b) = p in add (a, b)
"""


@pytest.mark.parametrize("order", [(PAIR, ONE_TUPLE), (ONE_TUPLE, PAIR)])
def test_the_arity_of_a_called_global_is_part_of_the_key(order):
    # `f`'s text is the same in both programs; `g (1, 2)` charges the pair
    # only when `g` takes one parameter.
    got = assert_warm_runs_match_cold([(g + CALLER, {"entry": "f"}) for g in order])
    assert got[0][0] == got[1][0] == "3"
    assert got[0][1] != got[1][1]


MAKE = """val mk: () -> r
val mk () = R { a = 1 }
val main: () -> int
val main () = let x = mk () in (x.a <- 2; x.a)
"""


@pytest.mark.parametrize("first", ["data mutable", "data"])
def test_the_mutable_tags_are_part_of_the_key(first):
    second = "data" if first == "data mutable" else "data mutable"
    got = assert_warm_runs_match_cold(
        [(f"{data} r = R {{ a: int }}\n" + MAKE, {}) for data in (first, second)]
    )
    shown = {data: got[i][0] for i, data in enumerate((first, second))}
    assert shown == {"data mutable": "2", "data": "trap BAD_FIELD: R is immutable"}


ADD_ONE = """val h: int -> int
val h (x) = add (x, 1)
val main: () -> int
val main () = h 5
"""
# The prelude's signature of `add` serves the program's own definition.
OWN_ADD = """val add (a, b) = sub (a, b)
"""


@pytest.mark.parametrize("own_first", [True, False])
def test_whether_a_global_is_the_builtin_is_part_of_the_key(own_first):
    # `inline` writes `add (x, 1)` out as a sum only when `add` is the builtin.
    programs = [OWN_ADD + ADD_ONE, ADD_ONE]
    if not own_first:
        programs.reverse()
    got = assert_warm_runs_match_cold([(text, {}) for text in programs])
    assert sorted(g[0] for g in got) == ["4", "6"]


MODES = [{"checked": True}, {"checked": False}, {"checked": False, "trace": True}]


@pytest.mark.parametrize("modes", [MODES, MODES[::-1]], ids=["checked first", "traced first"])
def test_the_mode_of_the_run_is_part_of_the_key(modes):
    text = iterate_text("adt", 20)
    got = assert_warm_runs_match_cold([(text, mode) for mode in modes])
    by_mode = {(m["checked"], m.get("trace", False)): g for m, g in zip(modes, got)}
    assert by_mode[True, False][3] == 0 < by_mode[False, False][3]
    assert by_mode[False, False][5] == [] != by_mode[False, True][5]


# -- a cached definition carries nothing from one run to the next ----------------


def test_the_step_limit_is_the_runs_own():
    text = iterate_text("adt", 20)
    trapped = cold_outcome(text, max_steps=3)
    assert trapped[0] == "trap STEP_LIMIT: exceeded 3 steps"
    whole = outcome(text)
    assert not whole[0].startswith("trap") and whole[1] > 3
    assert outcome(text, max_steps=3) == trapped


def test_the_call_steps_are_the_runs_own():
    text = iterate_text("iter", 20)
    first = cold_outcome(text, checked=True)
    assert first[4] and first == outcome(text, checked=True)


NOT_A_RECORD = """val main: () -> int
val main () = let x = 1 in x.a
"""


def checks_in(values) -> list[_Check]:
    """The `_Check`s among `values`, also those of plans (tuples)."""
    found, work = [], list(values)
    while work:
        v = work.pop()
        if type(v) is _Check:
            found.append(v)
        elif type(v) is tuple:
            work += v
    return found


def test_a_raised_check_keeps_nothing_of_its_run():
    # The check is raised inside an `except AttributeError`, so Python gives
    # it a context, and a traceback through the run's frames.
    first = cold_outcome(NOT_A_RECORD)
    assert first[0] == "trap BAD_FIELD: value is not a record"
    assert outcome(NOT_A_RECORD) == first
    file, env = load_text(NOT_A_RECORD, "t.mz")
    interp = Interp(env, [prelude()[0], file], checked=False)
    ((decl, text),) = [(d, t) for d, t in zip(file.decls, file.texts)
                       if type(d) is DValDef]
    hits = codegen._compiled.cache_info().hits
    _, consts = codegen._compiled(Keyed(text, decl), False, False, interp.interface)
    assert codegen._compiled.cache_info().hits == hits + 1
    checks = checks_in(v for _, v in consts)
    assert any(c.message == "value is not a record" for c in checks)
    assert all(c.__traceback__ is None and c.__context__ is None for c in checks)


def manifest_output() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["test"]) == 0
    return out.getvalue()


def test_the_corpus_gives_the_same_output_cold_and_warm():
    cold()
    first = manifest_output()
    assert codegen._compiled.cache_info().currsize > 0
    assert manifest_output() == first


def cons_list(n: int) -> str:
    literal = "Nil"
    for i in range(n):
        literal = f"Cons {{ head = {i}; tail = {literal} }}"
    return f"val main: () -> list int\nval main () = {literal}\n"


def nested_ifs(n: int) -> str:
    body = "1"
    for _ in range(n):
        body = f"if true then {body} else 0"
    return f"val main: () -> int\nval main () = {body}\n"


@pytest.mark.parametrize("text", [cons_list(400), nested_ifs(400)], ids=["list", "if"])
def test_deep_definitions_run_cold_and_warm(text):
    # A warm lookup compares the definition by its text, so no recursion
    # through C goes as deep as the definition nests.
    first = cold_outcome(text)
    assert not first[0].startswith("trap")
    assert outcome(text) == first


# -- a run of many definitions ---------------------------------------------------------


def chain(n: int) -> str:
    """n definitions, each calling the one before, and `main`, which calls
    the last."""
    lines = ["val f0: () -> int", "val f0 () = 0"]
    for i in range(1, n):
        lines += [f"val f{i}: () -> int", f"val f{i} () = add (f{i - 1} (), 1)"]
    return "\n".join([*lines, "val main: () -> int", f"val main () = f{n - 1} ()", ""])


def run_bytecodes(n: int) -> int:
    """The bytecode instructions that a cold run of `chain(n)` executes:
    `sys.monitoring` INSTRUCTION events (Python 3.12 and later)."""
    import sys

    file, env = load_text(chain(n), "t.mz")
    interp = Interp(env, [prelude()[0], file], checked=True)
    mon = sys.monitoring
    tool = mon.PROFILER_ID
    executed = [0]

    def on_instruction(code, offset):
        executed[0] += 1

    cold()
    mon.use_tool_id(tool, "test_compile_memo")
    mon.register_callback(tool, mon.events.INSTRUCTION, on_instruction)
    mon.set_events(tool, mon.events.INSTRUCTION)
    try:
        assert interp.run("main") == n - 1
    finally:
        mon.set_events(tool, 0)
        mon.register_callback(tool, mon.events.INSTRUCTION, None)
        mon.free_tool_id(tool)
    return executed[0]


def test_a_run_is_linear_in_the_number_of_definitions():
    # Each definition is written on its first call, cold: nothing the writer
    # does for one definition may grow with the program. The interface is
    # read once per run (`codegen.interface`), not once per definition.
    import sys

    if not hasattr(sys, "monitoring"):
        pytest.skip("counting bytecodes needs sys.monitoring, Python 3.12 or later")
    small, large = run_bytecodes(150), run_bytecodes(300)
    assert large / small <= 2.05, (small, large)


def test_two_runs_of_a_program_share_one_interface_hashed_by_identity():
    # `_compiled` hashes the interface on each first call, so a program of
    # n definitions would look them up in time quadratic in n if each run
    # built its own interface, or hashed it by its content.
    text = chain(3)
    interfaces = []
    for _ in range(2):
        file, env = load_text(text, "t.mz")
        interfaces.append(Interp(env, [prelude()[0], file], checked=True).interface)
    assert interfaces[0] is interfaces[1]
    assert type(interfaces[0]).__hash__ is object.__hash__
    assert type(interfaces[0]).__eq__ is object.__eq__
