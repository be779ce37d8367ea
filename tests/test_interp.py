import gc
import weakref

import pytest

from conftest import corpus_text, value_to_pylist

from minimz.driver import load_text, prelude, run_text
from minimz.interp import Cell, RuntimeTrap, VAddr, VBool, VInt, VTuple, _wrap64, eval_program


def test_size_of_three_node_tree():
    value, interp = run_text(corpus_text("run/run_size.mz"), "main", "run_size.mz")
    assert isinstance(value, VInt) and value.value == 3


def test_size_of_leaf():
    src = corpus_text("pos/tree_size.mz") + """
val main: () -> int
val main () = size Leaf
"""
    value, _ = run_text(src, "main", "t")
    assert isinstance(value, VInt) and value.value == 0


def test_plain_closure_can_fire_twice():
    src = """
val main: () -> int
val main () =
  let f = fun (x: int) : int = add (x, 1) in
  add (f 1, f 2)
"""
    value, _ = run_text(src, "main", "t")
    assert value.value == 5


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
    assert value_to_pylist(interp, value) == [1, 2, 3]


def test_same_fringe_run():
    value, _ = run_text(corpus_text("run/run_same_fringe.mz"), "main", "t")
    assert isinstance(value, VBool) and value.value is True


def test_determinism_value_and_trace():
    text = corpus_text("run/run_adt_loop.mz")
    v1, i1 = run_text(text, "main", "t", trace=True)
    v2, i2 = run_text(text, "main", "t", trace=True)
    assert i1.render(v1) == i2.render(v2)
    assert i1.trace == i2.trace
    assert i1.stats.steps == i2.stats.steps


def test_trace_reports_allocations_and_oneshots():
    text = corpus_text("run/run_adt_loop.mz")
    _, interp = run_text(text, "main", "t", trace=True)
    assert any(line.startswith("alloc") for line in interp.trace)
    assert any(line.startswith("oneshot") for line in interp.trace)


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
    base = len(interp.heap)
    # a: A { self = a; pair = (b, b) }, b: B { n = 7 }, shared but acyclic
    a, b = VAddr(base), VAddr(base + 1)
    interp.heap.append(Cell("A", {"self": a, "pair": VTuple([b, b])}, True))
    interp.heap.append(Cell("B", {"n": VInt(7)}, True))
    assert interp.render(a) == "A { self = <cycle>; pair = (B { n = 7 }, B { n = 7 }) }"
    assert interp.render(VTuple([a, VBool(True), VTuple([])])) == (
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
        value, interp = eval_program(env, [prelude_file, file], "main")
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
    assert results == {"shallow": VInt(6765), "deep": VInt(3000)}
    assert sys.getrecursionlimit() == limit
