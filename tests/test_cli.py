import json
import subprocess
import sys

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


def test_check_json_records(tmp_path):
    out = run_cli("check", str(CORPUS / "neg" / "neg_dup_tree.mz"), "--json")
    assert out.returncode == 1
    for line in out.stderr.strip().splitlines():
        record = json.loads(line)
        assert set(record) == {"path", "line", "col", "code", "message", "perm_snapshot"}
        assert record["code"] == "E-SUBSUME"


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


def test_run_prints_value():
    out = run_cli("run", str(CORPUS / "run" / "run_size.mz"), "main")
    assert out.returncode == 0
    assert out.stdout.strip() == "3"


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
