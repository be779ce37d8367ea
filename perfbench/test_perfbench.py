"""Tests of the benchmark's own inputs and checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

from minimz import driver  # noqa: E402
from minimz.cli import parse_manifest  # noqa: E402

import ops  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Clean, Planted, Prints, checksum, make_round  # noqa: E402

CORPUS = SRC / "minimz" / "corpus"
SEEDS = (1, 2)


def build(lo: int, hi: int):
    """The Python twin of the benchmark's `build (lo, hi)`: (left, elem, right)
    nodes, None for a leaf."""
    if hi < lo:
        return None
    mid = (lo + hi) // 2
    return (build(lo, mid - 1), mid, build(mid + 1, hi))


def in_order(tree) -> list[int]:
    out: list[int] = []
    stack, node = [], tree
    while stack or node is not None:
        while node is not None:
            stack.append(node)
            node = node[0]
        node = stack.pop()
        out.append(node[1])
        node = node[2]
    return out


@pytest.mark.parametrize("base", [3, 31, 1_000_003, (1 << 31) - 1])
def test_checksum_matches_in_order_walk(base):
    for n in range(0, 41):
        walk = in_order(build(1, n))
        h = 0
        for x in walk:
            h = (h * base + x) % (1 << 64)
        if h >= 1 << 63:
            h -= 1 << 64
        assert walk == list(range(1, n + 1))
        assert checksum(range(1, n + 1), base) == h


def test_checksum_wraps_to_signed_64_bits():
    assert checksum([1 << 63], 3) == -(1 << 63)
    assert checksum([1 << 62, 0], 4) == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
def test_clean_programs_check_without_diagnostics(workload, seed):
    for op in make_round(workload, seed, CORPUS):
        if isinstance(op.expect, (Clean, Prints)):
            _, _, diags = driver.check_text(op.text, op.path)
            assert diags == [], op.path


@pytest.mark.parametrize("seed", SEEDS + (3,))
def test_planted_fault_gives_one_diagnostic_in_its_function(seed):
    planted = [
        op for op in make_round("corpus_mix", seed, CORPUS) if isinstance(op.expect, Planted)
    ]
    assert len(planted) == workloads.CLIENT_PROGRAMS // 3
    for op in planted:
        function = op.text[op.expect.start : op.expect.end]
        assert function.startswith("val client"), op.path
        _, _, diags = driver.check_text(op.text, op.path)
        assert len(diags) == 1, op.path
        assert diags[0].code == workloads.FAULT_CODE, op.path
        assert op.expect.start <= diags[0].span.start < op.expect.end, op.path


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_operation_meets_its_expectation(workload):
    for op in make_round(workload, 1, CORPUS):
        assert ops.mismatch(op, ops.run_plain(op)) is None, op.path


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_path_gives_the_plain_outcome(workload):
    # Diagnostics are compared by code and span: their messages carry fresh
    # anchor names from a process-wide counter, so they differ between two
    # checks of one text.
    for op in make_round(workload, 1, CORPUS):
        plain, traced = ops.run_plain(op), ops.Tracer().run(0, op)
        assert [(d.code, d.span) for d in plain.diags] == [
            (d.code, d.span) for d in traced.diags
        ], op.path
        assert len(plain.lines) == len(traced.lines), op.path
        assert (plain.value, plain.passed) == (traced.value, traced.passed), op.path


def test_traced_run_spans_every_layer_it_passes():
    planted = next(
        op for op in make_round("corpus_mix", 1, CORPUS) if isinstance(op.expect, Planted)
    )
    runs = next(op for op in make_round("iterate", 1, CORPUS))
    driver.prelude()  # warm, as after a warm-up: no spans nested in `driver`
    tracer = ops.Tracer()
    tracer.run(0, planted)
    tracer.run(1, runs)
    layers = {op_id: [s[0] for s in tracer.spans if s[4] == op_id] for op_id in (0, 1)}
    front = ["op", "driver", "lexer", "parser", "kinds"]
    assert layers[0] == front + ["check", "cli"]
    assert layers[1] == front + ["check", "driver", "interp", "cli"]
    root = layers[0].index("op") + len(layers[0])
    assert all(s[3] == root for s in tracer.spans[root + 1 :])  # no nesting but in "op"
    assert tracer.counts("interp", "steps") > 0
    assert tracer.counts("check", "tokens") == sum(
        s[5]["tokens"] for s in tracer.spans if s[0] == "lexer"
    )


def test_tracing_leaves_the_program_as_it_was():
    layers = [(owner, attr) for owner, attr, _, _ in ops.Tracer()._layers()]
    before = [owner.__dict__[attr] for owner, attr in layers]
    op = next(op for op in make_round("iterate", 1, CORPUS))
    ops.Tracer().run(0, op)
    assert [owner.__dict__[attr] for owner, attr in layers] == before


def test_manifest_rows_are_judged_by_minimz_test():
    rows = [op for op in make_round("corpus_mix", 1, CORPUS) if isinstance(op.expect, workloads.Row)]
    assert len(rows) == len(parse_manifest(CORPUS / "manifest.tsv"))
    wrong = workloads.Op(rows[0].path, rows[0].text, workloads.Row(CORPUS, "REJECT", "E-NOPE"))
    assert ops.mismatch(wrong, ops.run_plain(wrong)) is not None


def test_self_times_subtract_children():
    tracer = ops.Tracer()
    tracer.spans = [
        ["op", 0, 100, -1, 0, None],
        ["lexer", 10, 30, 0, 0, None],
        ["check", 30, 90, 0, 0, None],
    ]
    assert tracer.self_times() == {"op": 20, "lexer": 20, "check": 60}


def test_speed_scales_by_the_local_median_of_the_reference_loop():
    speed = run.Speed()
    speed.wall = [2.0, 2.0, 2.0, 9.0, 4.0, 4.0, 4.0, 4.0]
    speed.cpu = [1.0] * len(speed.wall)
    # An operation timed between timings i and i + 1 is scaled by the median
    # of the timings around it, so one outlier (9.0) moves no factor.
    assert speed.factor(0) == run.REF_NOMINAL_S / 2.0
    assert speed.factor(1) == run.REF_NOMINAL_S / 2.0
    assert speed.factor(5) == run.REF_NOMINAL_S / 4.0
    assert speed.factor(5, cpu=True) == run.REF_NOMINAL_S / 1.0
    speed.take()
    assert len(speed.wall) == len(speed.cpu) == 9 and speed.wall[-1] > 0


DIGEST = """
import hashlib, sys
sys.path[:0] = [{here!r}, {src!r}]
from pathlib import Path
from workloads import WORKLOADS, make_round
h = hashlib.sha256()
for w in WORKLOADS:
    for seed in (1, 7):
        for op in make_round(w, seed, Path({corpus!r})):
            h.update(repr(op).encode())
print(h.hexdigest())
"""


def test_inputs_do_not_depend_on_hash_seed():
    code = DIGEST.format(here=str(HERE), src=str(SRC), corpus=str(CORPUS))
    digests = set()
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        )
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


def test_seeds_give_different_inputs():
    one = [op.text for op in make_round("iterate", 1, CORPUS)]
    two = [op.text for op in make_round("iterate", 2, CORPUS)]
    assert one != two


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iterate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
