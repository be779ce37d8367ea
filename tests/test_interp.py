import gc
import weakref

import pytest

from conftest import corpus_text, value_to_pylist

from minimz.codegen import _MAX_DEPTH
from minimz.driver import check_text, load_text, prelude, run_text
from minimz.interp import Interp, RuntimeTrap, eval_program
from minimz.runtime import Cell, _wrap64


def test_size_of_three_node_tree():
    value, interp = run_text(corpus_text("run/run_size.mz"), "main", "run_size.mz")
    assert type(value) is int and value == 3


def test_size_of_leaf():
    src = corpus_text("pos/tree_size.mz") + """
val main: () -> int
val main () = size Leaf
"""
    value, _ = run_text(src, "main", "t")
    assert type(value) is int and value == 0


def test_plain_closure_can_fire_twice():
    src = """
val main: () -> int
val main () =
  let f = fun (x: int) : int = add (x, 1) in
  add (f 1, f 2)
"""
    value, _ = run_text(src, "main", "t")
    assert type(value) is int and value == 5


def test_one_shot_reuse_traps():
    text = corpus_text("dyn/double_wand.mz")
    with pytest.raises(RuntimeTrap) as exc:
        run_text(text, "main", "t", checked=False)
    assert exc.value.kind == "ONE_SHOT_REUSE"


def test_double_barrel_shares_one_cell():
    text = corpus_text("dyn/double_barrel.mz")
    with pytest.raises(RuntimeTrap) as exc:
        run_text(text, "main", "t", checked=False)
    assert exc.value.kind == "ONE_SHOT_REUSE"


def test_checked_corpus_runs_trap_free():
    for rel, entry in [
        ("run/run_adt_loop.mz", "main"),
        ("run/run_oo_loop.mz", "main"),
        ("run/run_cps_loop.mz", "main"),
        ("run/run_iter.mz", "main"),
        ("run/run_filter.mz", "main"),
        ("run/run_same_fringe.mz", "main"),
    ]:
        value, interp = run_text(corpus_text(rel), entry, rel)
        assert value is not None


def test_adt_loop_sequence():
    value, interp = run_text(corpus_text("run/run_adt_loop.mz"), "main", "t")
    assert value_to_pylist(value) == [1, 2, 3]


def test_same_fringe_run():
    value, _ = run_text(corpus_text("run/run_same_fringe.mz"), "main", "t")
    assert value is True


def test_determinism_value_and_trace():
    text = corpus_text("run/run_adt_loop.mz")
    v1, i1 = run_text(text, "main", "t", trace=True)
    v2, i2 = run_text(text, "main", "t", trace=True)
    assert i1.render(v1) == i2.render(v2)
    assert i1.trace == i2.trace
    assert i1.stats.steps == i2.stats.steps


def test_trace_reports_allocations_and_oneshots():
    # A checked run wraps no closure, so only an unchecked one fires.
    text = corpus_text("run/run_adt_loop.mz")
    kinds = {}
    for checked in (True, False):
        _, interp = run_text(text, "main", "t", checked=checked, trace=True)
        kinds[checked] = {line.split()[0] for line in interp.trace}
    assert kinds == {True: {"alloc"}, False: {"alloc", "oneshot"}}


def test_step_limit_traps():
    src = """
val spin: (n: int) -> int
val spin (n) = spin n

val main: () -> int
val main () = spin 0
"""
    with pytest.raises(RuntimeTrap) as exc:
        run_text(src, "main", "t", checked=False, max_steps=1000)
    assert exc.value.kind == "STEP_LIMIT"


def test_division_by_zero_traps():
    src = """
val main: () -> int
val main () = div (1, 0)
"""
    with pytest.raises(RuntimeTrap) as exc:
        run_text(src, "main", "t")
    assert exc.value.kind == "DIV_ZERO"


def test_64_bit_wraparound():
    assert _wrap64(2**63) == -(2**63)
    assert _wrap64(-(2**63) - 1) == 2**63 - 1
    assert _wrap64(42) == 42


def test_stop_is_constant_time_mid_iteration():
    text = corpus_text("run/run_stop_cost.mz")
    counts = []
    for entry in ["stop_cost_1", "stop_cost_100", "stop_cost_1000"]:
        _, interp = run_text(text, entry, "t")
        (steps,) = interp.stats.call_steps["stop"]
        counts.append(steps)
    assert counts[0] == counts[1] == counts[2]


def test_only_returned_calls_record_their_steps_across_runs():
    src = """
val f: (n: int) -> int
val f (n) = if eq (n, 0) then div (1, n) else n
val bad: () -> int
val bad () = f 0
val good: () -> int
val good () = f 5
"""
    file, env = load_text(src, "t")
    interp = Interp(env, [prelude()[0], file], checked=True)
    with pytest.raises(RuntimeTrap):
        interp.run("bad")
    assert interp.stats.call_steps == {}  # f was compiled, and trapped
    interp.run("good")
    steps = interp.stats.call_steps
    assert sorted(steps) == ["f", "good"] and len(steps["f"]) == len(steps["good"]) == 1
    assert steps["good"][0] == steps["f"][0] + 3  # the call, its callee and its argument


def test_runaway_recursion_traps_instead_of_crashing():
    src = """
val spin: (n: int) -> int
val spin (n) = add (1, spin n)

val main: () -> int
val main () = spin 0
"""
    with pytest.raises(RuntimeTrap) as exc:
        run_text(src, "main", "t", checked=False, max_steps=100_000_000)
    assert exc.value.kind == "STEP_LIMIT"


# A recursion without end whose definition has a 3,000-item tuple in a
# branch it never takes; checked=False, as the branch is not an int. Run in a
# child process capped at 1 GB of address space, which prints the trap and
# its peak resident memory in MB.
LARGE_BODY_SPIN = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from minimz.driver import run_text
from minimz.interp import RuntimeTrap
items = ", ".join(f"add (n, {i})" for i in range(3000))
src = ("val spin: (n: int) -> int\\n"
       f"val spin (n) = if lt (n, 0) then ({items}) else add (1, spin n)\\n"
       "val main: () -> int\\nval main () = spin 0\\n")
try:
    run_text(src, "main", "t", checked=False, max_steps=100_000_000)
except RuntimeTrap as trap:
    print(trap.message)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)
"""


def test_runaway_recursion_through_a_large_body_traps_in_bounded_memory():
    import os
    import subprocess
    import sys

    import minimz

    src = os.path.dirname(os.path.dirname(minimz.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", LARGE_BODY_SPIN], capture_output=True,
                         text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    message, peak_mb = out.stdout.splitlines()
    assert message == "evaluation recursion too deep"
    assert int(peak_mb) < 400


UPTO = """
val upto: (int, int) -> list int
val upto (lo, hi) =
  if lt (hi, lo) then Nil else Cons { head = lo; tail = upto (add (lo, 1), hi) }
"""


def _rendered_list(items) -> str:
    out = "Nil"
    for x in reversed(items):
        out = f"Cons {{ head = {x}; tail = {out} }}"
    return out


def test_render_a_list_of_thousands_of_cells():
    src = UPTO + "\nval main: () -> list int\nval main () = upto (1, 3000)\n"
    value, interp = run_text(src, "main", "t")
    assert interp.render(value) == _rendered_list(range(1, 3001))


def test_render_marks_cycles_and_repeats_shared_cells():
    _, interp = run_text(corpus_text("run/run_size.mz"), "main", "t")
    # a: A { self = a; pair = (b, b) }, b: B { n = 7 }, shared but acyclic
    b = Cell("B", {"n": 7}, True)
    a = Cell("A", {}, True)
    a.fields.update(self=a, pair=(b, b))
    assert interp.render(a) == "A { self = <cycle>; pair = (B { n = 7 }, B { n = 7 }) }"
    assert interp.render((a, True, ())) == (
        "(A { self = <cycle>; pair = (B { n = 7 }, B { n = 7 }) }, true, ())"
    )


# ---------------------------------------------------------------------------
# Scoping and the call rule
# ---------------------------------------------------------------------------


def _run_unchecked(src: str, entry: str = "main"):
    value, interp = run_text(src, entry, "t", checked=False)
    return interp.render(value)


def test_a_local_shadows_a_builtin_and_a_global():
    src = """
val g: () -> int
val g () = 5
val f: (add: int, g: int) -> int
val f (add, g) = let not = sub (add, g) in not
val main: () -> int
val main () = f (7, 2)
"""
    assert _run_unchecked(src) == "5"


def test_a_lambda_keeps_its_captures_after_its_maker_returns():
    src = """
data box = Box { v: int }
val maker: (p: int) -> (x: int) -> int
val maker (p) =
  let q = add (p, 10) in
  match Box { v = 100 } with
  | Box { v = w } -> fun (x: int) : int = add (add (x, p), add (q, w))
val main: () -> int
val main () = let f = maker 1 in let g = maker 2 in add (f 1000, g 0)
"""
    assert _run_unchecked(src) == str((1000 + 1 + 11 + 100) + (0 + 2 + 12 + 100))


def test_nested_lambdas_capture_across_two_levels():
    src = """
val main: () -> int
val main () =
  let a = 1 in
  let f = fun (b: int) : (c: int) -> int = fun (c: int) : int = add (a, add (b, c)) in
  let g = f 10 in
  let h = f 20 in
  add (g 100, h 200)
"""
    assert _run_unchecked(src) == str(111 + 221)


def test_a_lambda_parameter_shadows_a_captured_name():
    src = """
val main: () -> int
val main () =
  let x = 1 in
  let y = 2 in
  let f = fun (x: int) : int = add (mul (x, 10), y) in
  add (f 5, x)
"""
    assert _run_unchecked(src) == str(5 * 10 + 2 + 1)


def test_a_tuple_valued_variable_fills_the_parameters():
    src = """
val diff: (a: int, b: int) -> int
val diff (a, b) = sub (a, b)
val main: () -> int
val main () = let p = (7, 2) in add (diff p, sub p)
"""
    assert _run_unchecked(src) == "10"


# A callee whose arity is not known before the call, given a pair literal,
# takes the pair as its one value when its arity is 1 (`runtime._spread`).
def test_a_function_of_one_parameter_takes_a_pair_literal_whole():
    src = """
val main: () -> int
val main () =
  let f = fun (p: (int, int)) : int = let (a, b) = p in add (a, b) in
  f (3, 4)
"""
    value, interp = run_text(src, "main", "t")
    assert interp.render(value) == "7"


# A builtin that is not called on a pair literal runs its own function, as
# `not` always does: the code writes only the binary builtins out in place.
def test_a_builtin_called_through_a_variable_traps_on_a_zero_divisor():
    with pytest.raises(RuntimeTrap) as exc:
        run_text("val main: () -> int\nval main () = let d = div in d (1, 0)\n", "main", "t")
    assert (exc.value.kind, exc.value.message) == ("DIV_ZERO", "division by zero")


@pytest.mark.parametrize("body, expected", [
    ("not true", "false"),
    ("not (lt (2, 1))", "true"),
    ("if not (lt (1, 2)) then false else true", "true"),
])
def test_not_is_called_through_its_builtin(body, expected):
    value, interp = run_text(f"val main: () -> bool\nval main () = {body}\n", "main", "t")
    assert (type(value), interp.render(value)) == (bool, expected)


@pytest.mark.parametrize("ty, body", [
    ("int -> int", "fun (x: int) -> add (x, 1)"),
    ("(int, int) -> int", "add"),
])
def test_an_entry_whose_value_is_a_function_prints_fun(ty, body):
    value, interp = run_text(f"val main: () -> {ty}\nval main () = {body}\n", "main", "t")
    assert interp.render(value) == "<fun>"


TWICE = """
val twice: (pr: ((x: int) -> int, int)) -> int
val twice (pr) = let (f, n) = pr in add (f n, f n)
val twice2: (f: (x: int) -> int, n: int) -> int
val twice2 (f, n) = add (f n, f n)
val main: () -> int
val main () = twice ((fun (x: int) : int = x), 1)
val main2: () -> int
val main2 () = twice2 ((fun (x: int) : int = x), 1)
"""


def test_a_tuple_literal_passed_whole_packages_its_lambda_as_one_shot():
    with pytest.raises(RuntimeTrap) as exc:
        _run_unchecked(TWICE)
    assert exc.value.kind == "ONE_SHOT_REUSE"
    # Spread over the parameters, the same literal packages nothing.
    assert _run_unchecked(TWICE, "main2") == "2"


# The checker is the authority on affinity: a run of a program it accepts
# wraps no closure in `OneShot`, so a closure whose checked type is a plain
# arrow may be called any number of times, even when it was put in a tuple
# literal and taken out again. Each program puts a top-level function, a
# lambda bound by `let`, or a lambda written in the literal in a tuple and
# calls it twice. Only an unchecked run makes the closures of a tuple
# literal one-shot, and there each program traps ONE_SHOT_REUSE.
CLOSURE_FROM_A_TUPLE_TWICE = {
    "top-level": "let (f, y) = (one, 2) in add (f (), f ())",
    "let-bound lambda": "let h = fun () : int = 1 in let (g, y) = (h, 2) in add (g (), g ())",
    "lambda literal": "let (g, y) = (fun () : int = 1, 2) in add (g (), g ())",
}


@pytest.mark.parametrize("body", CLOSURE_FROM_A_TUPLE_TWICE.values(),
                         ids=CLOSURE_FROM_A_TUPLE_TWICE.keys())
def test_an_accepted_closure_taken_from_a_tuple_fires_twice(body):
    src = f"""
val one: () -> int
val one () = 1
val main: () -> int
val main () = {body}
"""
    assert check_text(src, "t")[2] == []
    value, interp = run_text(src, "main", "t")
    assert (type(value), value, interp.stats.oneshot_fires) == (int, 2, 0)
    with pytest.raises(RuntimeTrap) as exc:
        run_text(src, "main", "t", checked=False)
    assert exc.value.kind == "ONE_SHOT_REUSE"


@pytest.mark.parametrize("call", ["diff (1, 2, 3)", "diff 5", "sub 5", "sub (1, 2, 3)"])
def test_an_arity_mismatch_traps(call):
    src = f"""
val diff: (a: int, b: int) -> int
val diff (a, b) = sub (a, b)
val main: () -> int
val main () = {call}
"""
    with pytest.raises(RuntimeTrap) as exc:
        _run_unchecked(src)
    assert exc.value.kind == "BAD_FIELD"


# An unchecked run that gives a builtin, a condition, a field access or an
# update a value of the wrong kind traps, whether the call is written out in
# place (a builtin applied to a tuple literal) or made through a variable.
# `true` is no integer and `0` no boolean, though Python's `bool` is an `int`.
@pytest.mark.parametrize(
    "body, message",
    [
        ("add (true, 1)", "add expects integers"),
        ("let b = true in add (1, b)", "add expects integers"),
        ("let f = add in f (true, 1)", "add expects integers"),
        ("eq (1, false)", "eq expects integers"),
        ("let f = eq in f (1, false)", "eq expects integers"),
        ("lt (true, false)", "lt expects integers"),
        ("div (7, false)", "div expects integers"),
        ("if 3 then 1 else 2", "condition is not a boolean"),
        ("let c = 1 in if c then 1 else 2", "condition is not a boolean"),
        ("if add (1, 2) then 1 else 2", "condition is not a boolean"),
        ("not 0", "not expects a boolean"),
        ("let f = not in f 0", "not expects a boolean"),
        ("not (add (0, 1))", "not expects a boolean"),
        ("let n = 3 in n.v", "value is not a record"),
        ("let n = true in n.v", "value is not a record"),
        ("let n = 3 in n.v <- 1", "value is not a record"),
        ("let n = 3 in tag of n <- Box { v = 2 }", "value is not a record"),
        ("let n = 3 in match n with | Box { v = x } -> x", "value is not a record"),
        ("let b = Box { v = 1 } in b.v <- 2", "Box is immutable"),
        ("let b = Box { v = 1 } in tag of b <- Box { v = 2 }", "Box is immutable"),
    ],
)
def test_a_value_of_the_wrong_kind_traps(body, message):
    src = f"data box = Box {{ v: int }}\nval main: () -> int\nval main () = {body}\n"
    with pytest.raises(RuntimeTrap) as exc:
        _run_unchecked(src)
    assert (exc.value.kind, exc.value.message) == ("BAD_FIELD", message)


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def test_div_and_mod_truncate_toward_zero_exactly():
    big = "mul (1000000007, 1000000007)"
    a = f"sub (0, add (mul ({big}, 4), 3))"
    exact = -(4 * 1000000007**2 + 3)
    neg7 = "sub (0, 7)"
    cases = [(a, exact, 2), ("7", 7, 2), (neg7, -7, 2), ("7", 7, -2), (neg7, -7, -2)]
    for lhs, x, y in cases:
        q = abs(x) // abs(y) * (1 if (x < 0) == (y < 0) else -1)
        for op, want in [("div", q), ("mod", x - q * y)]:
            rhs = str(y) if y >= 0 else f"sub (0, {-y})"
            src = f"val main: () -> int\nval main () = {op} ({lhs}, {rhs})\n"
            assert _run_unchecked(src) == str(want), (op, x, y)


# ---------------------------------------------------------------------------
# Memory: a finished run is freed by reference counting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "rel", ["run/run_iter.mz", "run/run_adt_loop.mz", "run/run_oo_loop.mz", "run/run_cps_loop.mz"]
)
def test_a_finished_run_is_freed_without_the_cycle_collector(rel):
    prelude_file, _ = prelude()
    file, env = load_text(corpus_text(rel), rel)
    gc.collect()
    gc.disable()
    try:
        for checked in (True, False):
            value, interp = eval_program(env, [prelude_file, file], "main", checked=checked)
            ref = weakref.ref(interp)
            del value, interp
            assert ref() is None
            assert gc.collect() == 0  # the run left no cyclic garbage either
    finally:
        gc.enable()


RACE = """
val fib: (n: int) -> int
val fib (n) = if lt (n, 2) then n else add (fib (sub (n, 1)), fib (sub (n, 2)))

val shallow: () -> int
val shallow () = fib 20

val depth: (n: int) -> int
val depth (n) = if eq (n, 0) then mul (0, fib 22) else add (1, depth (sub (n, 1)))

val deep: () -> int
val deep () = depth 3000
"""


def test_concurrent_runs_keep_each_others_recursion_limit():
    """A deep run that starts while a shallow run is going on, and is still
    at depth 3,000 when the shallow run ends, still returns; and once both
    are over, the process has its own recursion limit back."""
    import sys
    import threading
    import time

    limit = sys.getrecursionlimit()
    results: dict[str, object] = {}

    def run(entry: str) -> None:
        try:
            results[entry] = run_text(RACE, entry, "t", checked=False)[0]
        except RuntimeTrap as trap:
            results[entry] = trap

    threads = [threading.Thread(target=run, args=(entry,)) for entry in ("shallow", "deep")]
    threads[0].start()
    time.sleep(0.02)
    threads[1].start()
    for thread in threads:
        thread.join()
    assert {entry: (type(v), v) for entry, v in results.items()} == {
        "shallow": (int, 6765),
        "deep": (int, 3000),
    }
    assert sys.getrecursionlimit() == limit


# ---------------------------------------------------------------------------
# Names and depth
# ---------------------------------------------------------------------------


NAMES = """
data mutable thing = None | True { def: int; class: int; print: int } | False { heap: int }

val st: (def: int, lambda: int) -> int

val st (def, lambda) =
  let class = add (def, lambda) in
  let print = fun (rt: int) : int = add (mul (rt, 10), class) in
  let fr = True { def = def; class = class; print = print lambda } in
  let (v0, k0) = (def, fr) in
  let class' = match k0 with
    | None -> 0
    | False { heap = heap } -> heap
    | True { def = heap; class = st; print = rt } -> add (heap, add (st, rt)) in
  tag of fr <- False { heap = class' };
  match fr with
  | None -> 1
  | True { def = x; class = y; print = z } -> x
  | False { heap = lambda } -> sub (lambda, v0)

val main: () -> int

val main () = st (3, 4)
"""


def test_names_that_are_python_keywords_builtins_or_internal_names_run():
    value, interp = run_text(NAMES, "main", "t")
    # class = 7, print 4 = 47, class' = 3 + 7 + 47, then 57 - 3
    assert (type(value), value) == (int, 54)
    assert interp.stats.steps == 49


def test_a_300_deep_else_if_chain_runs():
    arms = "".join(f"  if eq (n, {k}) then {k} else\n" for k in range(1, 301))
    src = f"val f: (n: int) -> int\nval f (n) =\n{arms}  0\n"
    src += "val main: () -> int\nval main () = f 305\n"
    value, interp = run_text(src, "main", "t")
    assert (type(value), value) == (int, 0)
    assert interp.stats.steps == 1504


def _let_chain(n: int) -> tuple[str, int, int]:
    """`n` lets of random arithmetic on earlier ones: the text, its value,
    and its steps (2 for `let x0 = k`, 5 for each other let, 1 for the last
    name)."""
    import random

    rng = random.Random(f"lets/{n}")
    xs = [rng.randrange(1, 100)]
    lines = ["val main: () -> int", "val main () =", f"  let x0 = {xs[0]} in"]
    for i in range(1, n):
        a, b, c = rng.randrange(i), rng.randrange(i), rng.randrange(3, 100, 2)
        op = rng.choice(("add", "sub", "mul"))
        rhs = f"{op} (x{a}, {c})" if op == "mul" else f"{op} (x{a}, x{b})"
        xs.append(_wrap64({"add": xs[a] + xs[b], "sub": xs[a] - xs[b], "mul": xs[a] * c}[op]))
        lines.append(f"  let x{i} = {rhs} in")
    lines.append(f"  x{n - 1}")
    return "\n".join(lines) + "\n", xs[-1], 2 + 5 * (n - 1) + 1


def _statement_chain(n: int) -> tuple[str, int, int]:
    """`n` updates of one reference sequenced with `;`: the text, its value,
    and its steps."""
    lines = ["val main: () -> int", "val main () =", "  let r = newref 0 in"]
    lines += [f"  r.contents <- {i};" for i in range(n)]
    lines.append("  r.contents")
    return "\n".join(lines) + "\n", n - 1, 4 * n + 8


@pytest.mark.parametrize(
    "chain, n",
    [(_let_chain, 900), (_let_chain, 10_000), (_statement_chain, 10_000)],
    ids=["lets-900", "lets-10000", "statements-10000"],
)
def test_a_long_chain_runs_under_the_default_recursion_limit(chain, n):
    import sys

    assert sys.getrecursionlimit() <= 1000
    text, expected, steps = chain(n)
    value, interp = run_text(text, "main", "t")
    assert (type(value), value) == (int, expected)
    assert interp.stats.steps == steps


# An `if`, `match` or `let` in value position is written in its function,
# not as a helper function: a helper would take a second Python frame per
# call, and these recursions 60,000 deep would trap `evaluation recursion
# too deep`.
VALUE_POSITION_RECURSIONS = {
    "if": "add (if eq (n, 0) then 0 else f (sub (n, 1)), 1)",
    "match": "add (match mk n with | Z -> 0 | S { n = m } -> f (sub (m, 1)), 1)",
    "let": "add (let m = sub (n, 1) in if lt (m, 0) then 0 else f m, 1)",
}


@pytest.mark.parametrize("body", VALUE_POSITION_RECURSIONS.values(),
                         ids=VALUE_POSITION_RECURSIONS.keys())
def test_a_recursion_60000_deep_through_a_value_position_node_runs(body):
    src = f"""
data nat = Z | S {{ n: int }}
val mk: (n: int) -> nat
val mk (n) = if eq (n, 0) then Z else S {{ n = n }}
val f: (n: int) -> int
val f (n) = {body}
val main: () -> int
val main () = f 60000
"""
    value, _ = run_text(src, "main", "t")
    assert (type(value), value) == (int, 60_001)


def test_a_binder_that_shadows_a_parameter_gives_it_back_after_its_body():
    # Were `x` left at a shadowing int, the checker would reject `if x` and
    # an unchecked run would trap; were it left out of scope, the resolver
    # would report it unbound.
    src = """
data box = Box { v: int }
val f: (x: bool) -> int
val f (x) =
  let y = (let x = 10 in add (x, 1)) in
  let z = match Box { v = 100 } with | Box { v = x } -> add (x, 1) in
  if x then add (y, z) else sub (y, z)
val main: () -> int
val main () = f true
"""
    assert check_text(src, "t")[2] == []
    for checked in (True, False):
        value = run_text(src, "main", "t", checked=checked)[0]
        assert (type(value), value) == (int, 112)


def _deep(shape: str, depth: int) -> str:
    """A program whose `f` nests `depth` ifs or matches: in tail position
    with a lambda at the bottom, in operand position, or in arms."""
    if shape == "then":
        body = "let z = add (n, 7) in (fun (y: int) : int = add (y, z)) 5"
        for k in range(depth):
            body = f"if le (n, {k}) then {body} else {k}"
    elif shape == "operand":
        body = "n"
        for k in range(depth):
            body = f"add (1, if lt (n, {k}) then {body} else 0)"
    else:
        body = "n"
        for k in range(depth):
            body = f"match b with | Box {{ v = w{k} }} -> add (w{k}, {body})"
        body = "let b = Box { v = 1 } in " + body
    return (
        "data box = Box { v: int }\n"
        f"val f: (n: int) -> int\nval f (n) = {body}\n"
        "val main: () -> int\nval main () = f 0\n"
    )


@pytest.mark.parametrize(
    "shape, depth, value, steps", [("then", 300, 12, 1515), ("operand", 90, 90, 724),
                                   ("arms", 90, 90, 457)]
)
def test_deeply_nested_branches_run(shape, depth, value, steps):
    result, interp = run_text(_deep(shape, depth), "main", "t")
    assert (type(result), result) == (int, value)
    assert interp.stats.steps == steps


BUILD = """
data tree a = Leaf | Node { left: tree a; elem: a; right: tree a }

val build: (lo: int, hi: int) -> tree int

val build (lo, hi) =
  if lt (hi, lo)
  then Leaf
  else
    let mid = div (add (lo, hi), 2) in
    let l = build (lo, sub (mid, 1)) in
    let r = build (add (mid, 1), hi) in
    Node { left = l; elem = mid; right = r }

val main: () -> tree int
val main () = build (1, 7)
"""


def test_an_atom_tested_once_is_not_tested_again_on_its_path(monkeypatch):
    # `lt (hi, lo)` tests both parameters; `add (lo, hi)` on the path that
    # falls through needs no test of its own.
    from minimz import codegen

    texts = {}
    code = codegen._code

    def capture(text, filename):
        texts[filename] = text
        return code(text, filename)

    monkeypatch.setattr(codegen, "_code", capture)
    codegen._compiled.cache_clear()  # so that `build` is written here
    value, _ = run_text(BUILD, "main", "t")
    assert value.tag == "Node"
    build = texts["<minimz build>"]
    assert "v2, v3, = x" in build
    assert build.count("type(v2) is not int") == 1
    assert build.count("type(v3) is not int") == 1


def _in_lambdas(depth: int, body: str) -> str:
    for _ in range(depth):
        body = f"(fun (u: int) : int = {body}) 1"
    return body


# Each program tests `x` on a path that `f (true, true)` or `f (false, true)`
# does not take, and then adds `x` where every path meets: that add still
# tests `x`, and traps on the bool.
TESTED_ON_ANOTHER_PATH = {
    "if arm": ("let y = if c then add (x, 1) else 0 in add (x, y)", "false"),
    "tail if arm": ("if c then add (x, 1) else add (x, 2)", "false"),
    "match arm": (
        "let y = match (if c then A else B) with | A -> add (x, 1) | B -> 0 in add (x, y)",
        "false",
    ),
    "lambda body": ("let g = fun (u: int) : int = add (x, u) in add (x, 1)", "true"),
    # Nested lambdas take the `if` past the depth at which it moves to a
    # helper function; its `add` tests `x` there, on the `else` path.
    "helper": (
        _in_lambdas(
            _MAX_DEPTH - 1, "let y = (if c then 0 else add (x, 1)) in add (x, y)"
        ),
        "true",
    ),
}


@pytest.mark.parametrize("case", TESTED_ON_ANOTHER_PATH)
def test_a_type_test_holds_only_on_its_own_path(case):
    body, c = TESTED_ON_ANOTHER_PATH[case]
    src = (
        "data ab = A | B\n"
        f"val f: (c: bool, x: int) -> int\nval f (c, x) = {body}\n"
        f"val main: () -> int\nval main () = f ({c}, true)\n"
    )
    with pytest.raises(RuntimeTrap) as exc:
        run_text(src, "main", "t", checked=False)
    assert (exc.value.kind, exc.value.message) == ("BAD_FIELD", "add expects integers")
