import json
import subprocess
import sys

import pytest

from conftest import CORPUS


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "minimz", *args], capture_output=True, text=True
    )


def test_check_clean_file_exits_zero():
    out = run_cli("check", str(CORPUS / "pos" / "iter.mz"))
    assert out.returncode == 0
    assert out.stderr == ""


def test_check_rejected_file_exits_one():
    out = run_cli("check", str(CORPUS / "neg" / "neg_double_stop.mz"))
    assert out.returncode == 1
    line = out.stderr.strip().splitlines()[0]
    # path:line:col CODE message
    assert "E-SUBSUME" in line
    prefix = line.split(" ")[0]
    parts = prefix.rsplit(":", 2)
    assert len(parts) == 3 and parts[1].isdigit() and parts[2].isdigit()


def test_check_missing_file_exits_two():
    out = run_cli("check", "missing.mz")
    assert out.returncode == 2


def test_check_parse_error_exits_two(tmp_path):
    bad = tmp_path / "bad.mz"
    bad.write_text("val x:")
    out = run_cli("check", str(bad))
    assert out.returncode == 2


def test_check_an_integer_literal_past_64_bits_exits_two(tmp_path):
    big = tmp_path / "big.mz"
    big.write_text("val main: () -> int\nval main () = 9223372036854775808\n")
    out = run_cli("check", str(big))
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith(f"{big}:2:15 PARSE integer literal 9223372036854775808")


def test_check_json_records(tmp_path):
    out = run_cli("check", str(CORPUS / "neg" / "neg_dup_tree.mz"), "--json")
    assert out.returncode == 1
    for line in out.stderr.strip().splitlines():
        record = json.loads(line)
        assert set(record) == {"path", "line", "col", "code", "message", "perm_snapshot"}
        assert record["code"] == "E-SUBSUME"


# A failure that `Checker._fail` raises keeps the permissions held where it
# was raised, as a search's failure does.
FAIL_SNAPSHOTS = {
    "match.mz": (
        "data t = A | B\nval f: (x: t) -> int\nval f (x) = match x with | A -> 1\n",
        (3, 13, "E-MATCH", "non-exhaustive match, missing ['B']", "x @ t"),
    ),
    "arity.mz": (
        "val g: (int, int) -> int\nval g (a, b) = a\n"
        "val h: () -> int\nval h () = let z = 3 in g (z, 1, 2)\n",
        (4, 25, "E-ARITY", "call expects 2 argument(s)", "n$0 @ int"),
    ),
}


@pytest.mark.parametrize("name", FAIL_SNAPSHOTS)
def test_check_json_keeps_the_snapshot_of_a_checker_failure(tmp_path, name):
    text, expected = FAIL_SNAPSHOTS[name]
    path = tmp_path / name
    path.write_text(text)
    out = run_cli("check", str(path), "--json")
    assert out.returncode == 1
    [line] = out.stderr.splitlines()
    record = json.loads(line)
    fields = ("line", "col", "code", "message", "perm_snapshot")
    assert tuple(record[f] for f in fields) == expected


def test_check_json_records_front_end_errors(tmp_path):
    deep = "(" * 3000 + "0" + ")" * 3000
    cases = {
        "lex.mz": ("val x: int\nval x () = #\n", "LEX"),
        "parse.mz": ("val x:", "PARSE"),
        "resolve.mz": ("val x: nope\n", "E-UNBOUND"),
        "deep.mz": (f"val f: () -> int\nval f () = {deep}\n", "NESTING"),
        "missing.mz": (None, "IO"),
    }
    for name, (text, code) in cases.items():
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        out = run_cli("check", str(path), "--json")
        assert out.returncode == 2, name
        lines = out.stderr.splitlines()
        assert len(lines) == 1, name
        record = json.loads(lines[0])
        assert set(record) == {"path", "line", "col", "code", "message", "perm_snapshot"}
        assert record["code"] == code and record["path"] == str(path)


def test_a_manifest_row_nested_too_deeply_fails_its_row(tmp_path):
    # `f` returns a tuple 150 deep: `check` reports NESTING for it
    ty, value = "int", "1"
    for _ in range(150):
        ty, value = f"(int, {ty})", f"(1, {value})"
    (tmp_path / "deep.mz").write_text(f"val f: () -> {ty}\nval f () = {value}\n")
    (tmp_path / "manifest.tsv").write_text("ACCEPT\tdeep.mz\n")
    assert run_cli("check", str(tmp_path / "deep.mz")).returncode == 2
    out = run_cli("test", str(tmp_path))
    assert (out.returncode, out.stderr) == (1, "")
    assert out.stdout.splitlines() == [
        "FAIL  ACCEPT  deep.mz  front-end error: input too deeply nested",
        "0/1 corpus cases passed",
    ]


NOT_UTF8 = b"\xff\xfe val"


def test_check_input_that_is_not_utf8_exits_two_as_io(tmp_path):
    bad = tmp_path / "bad.mz"
    bad.write_bytes(NOT_UTF8)
    out = run_cli("check", str(bad))
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith(f"{bad}: ") and "utf-8" in out.stderr
    assert "Traceback" not in out.stderr
    out = run_cli("check", str(bad), "--json")
    assert out.returncode == 2
    lines = out.stderr.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert (record["code"], record["path"], record["line"]) == ("IO", str(bad), None)


def test_run_input_that_is_not_utf8_exits_two(tmp_path):
    bad = tmp_path / "bad.mz"
    bad.write_bytes(NOT_UTF8)
    out = run_cli("run", str(bad), "main")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith(f"{bad}: ") and "Traceback" not in out.stderr


def test_a_manifest_row_not_utf8_fails_its_row(tmp_path):
    (tmp_path / "bad.mz").write_bytes(NOT_UTF8)
    (tmp_path / "manifest.tsv").write_text("ACCEPT\tbad.mz\nACCEPT\tgood.mz\n")
    (tmp_path / "good.mz").write_text("")
    out = run_cli("test", str(tmp_path))
    assert (out.returncode, out.stderr) == (1, "")
    rows = out.stdout.splitlines()
    assert rows[0].startswith("FAIL  ACCEPT  bad.mz   cannot read: ") and "utf-8" in rows[0]
    assert rows[1:] == ["pass  ACCEPT  good.mz  clean", "1/2 corpus cases passed"]


@pytest.mark.parametrize("location", ["E-SUBSUME@82", "E-SUBSUME@x:3", "E-SUBSUME@82:", "@82:3"])
def test_a_malformed_reject_location_fails_its_row(tmp_path, location):
    text = (CORPUS / "neg" / "neg_double_stop.mz").read_text(encoding="utf-8")
    (tmp_path / "neg.mz").write_text(text, encoding="utf-8")
    (tmp_path / "manifest.tsv").write_text(
        f"REJECT\tneg.mz\t{location}\nREJECT\tneg.mz\tE-SUBSUME@82:3\n"
    )
    out = run_cli("test", str(tmp_path))
    assert (out.returncode, out.stderr) == (1, "")
    assert out.stdout.splitlines() == [
        f"FAIL  REJECT  neg.mz  manifest error: {location!r} is not CODE@line:col",
        "pass  REJECT  neg.mz  rejected with ['E-SUBSUME']",
        "1/2 corpus cases passed",
    ]


# One manifest row for each failure that `minimz test` reports, and one row
# that passes.
FAILING_ROWS = [
    ("ACCEPT\tneg.mz", "FAIL  ACCEPT  neg.mz   unexpected diagnostics: ['E-SUBSUME']"),
    ("REJECT\tneg.mz\t",
     "FAIL  REJECT  neg.mz   manifest error: REJECT requires at least one code"),
    ("REJECT\tneg.mz\tE-SUBSUME, E-SUBSUME",
     "FAIL  REJECT  neg.mz   expected ['E-SUBSUME', 'E-SUBSUME'], got [('E-SUBSUME', 82, 3)]"),
    ("REJECT\tneg.mz\tE-ARITY", "FAIL  REJECT  neg.mz   expected E-ARITY, got E-SUBSUME"),
    ("REJECT\tneg.mz\tE-SUBSUME@1:1",
     "FAIL  REJECT  neg.mz   expected E-SUBSUME@1:1, got E-SUBSUME@82:3"),
    ("RUN\tgood.mz\tmain",
     "FAIL  RUN     good.mz  manifest error: RUN requires entry=expected"),
    ("RUN\tneg.mz\tmain=0", "FAIL  RUN     neg.mz   does not check: ['E-SUBSUME']"),
    ("RUN\tdiv.mz\tmain=1", "FAIL  RUN     div.mz   unexpected trap DIV_ZERO"),
    ("RUN\tgood.mz\tmain=TRAP:DIV_ZERO", "FAIL  RUN     good.mz  expected a trap, got 3"),
    ("RUN\tgood.mz\tmain=4", "FAIL  RUN     good.mz  expected '4', got '3'"),
    ("RUN\tgood.mz\tmain=3", "pass  RUN     good.mz  => 3"),
]


def test_each_failing_manifest_row_is_reported(tmp_path):
    (tmp_path / "neg.mz").write_text((CORPUS / "neg" / "neg_double_stop.mz").read_text())
    (tmp_path / "good.mz").write_text("val main: () -> int\nval main () = add (1, 2)\n")
    (tmp_path / "div.mz").write_text("val main: () -> int\nval main () = div (1, 0)\n")
    (tmp_path / "manifest.tsv").write_text("".join(row + "\n" for row, _ in FAILING_ROWS))
    out = run_cli("test", str(tmp_path))
    assert (out.returncode, out.stderr) == (1, "")
    assert out.stdout.splitlines() == [
        *(line for _, line in FAILING_ROWS), f"1/{len(FAILING_ROWS)} corpus cases passed"
    ]


def test_a_manifest_line_of_four_columns_is_a_manifest_error(tmp_path):
    (tmp_path / "manifest.tsv").write_text("ACCEPT\tgood.mz\tx\ty\n")
    out = run_cli("test", str(tmp_path))
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == "manifest error: malformed manifest line: 'ACCEPT\\tgood.mz\\tx\\ty'\n"


def test_run_parse_error_exits_two(tmp_path):
    bad = tmp_path / "bad.mz"
    bad.write_text("val x:")
    out = run_cli("run", str(bad), "main")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == f"{bad}:1:7 PARSE expected a type, found end of input\n"


def test_run_prints_value():
    out = run_cli("run", str(CORPUS / "run" / "run_size.mz"), "main")
    assert out.returncode == 0
    assert out.stdout.strip() == "3"


def test_run_rejects_a_negative_step_limit_as_a_usage_error():
    path = str(CORPUS / "run" / "run_size.mz")
    out = run_cli("run", path, "main", "--max-steps", "-5")
    assert out.returncode == 2 and out.stdout == ""
    assert "usage:" in out.stderr
    assert "--max-steps: must be a whole number 0 or more, not '-5'" in out.stderr
    out = run_cli("run", path, "main", "--max-steps", "x")
    assert out.returncode == 2 and "not 'x'" in out.stderr
    # 0 is a limit like any other: the first step passes it.
    out = run_cli("run", path, "main", "--max-steps", "0")
    assert out.returncode == 3 and out.stderr == "trap STEP_LIMIT: exceeded 0 steps\n"


def test_run_same_fringe_prints_true():
    out = run_cli("run", str(CORPUS / "run" / "run_same_fringe.mz"), "main")
    assert out.returncode == 0
    assert out.stdout.strip() == "true"


def test_run_prints_a_long_list_in_full(tmp_path):
    src = tmp_path / "upto.mz"
    src.write_text(
        """
val upto: (int, int) -> list int
val upto (lo, hi) =
  if lt (hi, lo) then Nil else Cons { head = lo; tail = upto (add (lo, 1), hi) }

val main: () -> list int
val main () = upto (1, 100)
"""
    )
    out = run_cli("run", str(src), "main")
    assert out.returncode == 0
    expected = "Nil"
    for x in range(100, 0, -1):
        expected = f"Cons {{ head = {x}; tail = {expected} }}"
    assert out.stdout.strip() == expected


def test_run_prints_a_cyclic_value(tmp_path):
    src = tmp_path / "ring.mz"
    src.write_text(
        """
data mutable ring = R { elem: int; next: ring }

val main: () -> ring
val main () =
  let r = R { elem = 1; next = 0 } in
  r.next <- r;
  r
"""
    )
    out = run_cli("run", "--unchecked", str(src), "main")
    assert out.returncode == 0
    assert out.stdout.strip() == "R { elem = 1; next = <cycle> }"


def test_run_rejected_program_exits_one():
    out = run_cli("run", str(CORPUS / "dyn" / "double_wand.mz"), "main")
    assert out.returncode == 1


def test_run_unchecked_trap_exits_three():
    out = run_cli("run", "--unchecked", str(CORPUS / "dyn" / "double_wand.mz"), "main")
    assert out.returncode == 3
    assert "ONE_SHOT_REUSE" in out.stderr


@pytest.mark.parametrize("entry, line", [
    ("nosuch", "trap UNBOUND: no entry point 'nosuch'"),
    ("size", "trap BAD_FIELD: wrong argument count"),  # a definition of one parameter
    ("add", "trap BAD_FIELD: add expects 2"),  # a builtin
])
def test_run_of_an_entry_point_that_cannot_be_called_exits_three(entry, line):
    out = run_cli("run", str(CORPUS / "run" / "run_size.mz"), entry)
    assert (out.returncode, out.stdout, out.stderr.splitlines()) == (3, "", [line])


def test_run_trace_logs_allocations():
    out = run_cli("run", "--trace", str(CORPUS / "run" / "run_size.mz"), "main")
    assert out.returncode == 0
    assert "alloc" in out.stderr


def test_run_trace_is_kept_when_the_run_traps():
    out = run_cli(
        "run", "--unchecked", "--trace", str(CORPUS / "dyn" / "double_wand.mz"), "main"
    )
    assert out.returncode == 3
    lines = out.stderr.strip().splitlines()
    assert lines[-1].startswith("trap ONE_SHOT_REUSE")
    assert any(line.startswith("alloc") for line in lines[:-1])
    assert any(line.startswith("oneshot") for line in lines[:-1])


def test_corpus_manifest_passes():
    out = run_cli("test")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "corpus cases passed" in out.stdout


def test_empty_manifest_passes(tmp_path):
    (tmp_path / "manifest.tsv").write_text("")
    out = run_cli("test", str(tmp_path))
    assert out.returncode == 0
    assert "0/0" in out.stdout


def test_corrupted_manifest_reported(tmp_path):
    (tmp_path / "manifest.tsv").write_text("NONSENSE\tfoo.mz\t\n")
    out = run_cli("test", str(tmp_path))
    assert out.returncode == 1
    assert "manifest error" in out.stdout or "manifest error" in out.stderr


def test_missing_manifest_reported(tmp_path):
    out = run_cli("test", str(tmp_path))
    assert out.returncode == 1


# `check` loads the command line, the front end and the prelude before it
# reads its file; `run` alone loads the interpreter, and JSON output its
# module. Modules the interpreter loads at start-up, before `minimz`, are
# left out.
START_UP = "import minimz.cli, minimz.driver; minimz.driver.prelude()"
LOADED = "import sys; print(*sorted(sys.modules))"


def _loaded(code: str) -> set[str]:
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_start_up_loads_the_front_end_and_no_more():
    loaded = _loaded(f"{START_UP}; {LOADED}") - _loaded(LOADED)
    assert loaded & {"dataclasses", "inspect", "json", "copy"} == set()
    front_end = "ast check cli driver kinds lexer parser perms subsume".split()
    assert sorted(name for name in loaded if name.startswith("minimz.")) == [
        f"minimz.{name}" for name in front_end
    ]
