"""Command-line driver: check, run, and corpus testing.

Exit codes: 0 success, 1 check or test failure, 2 I/O or parse failure,
3 runtime trap.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .check import Diagnostic
from .driver import CORPUS_DIR, CheckedProgramError, check_text, run_text
from .kinds import ResolveError
from .lexer import LexError, line_col
from .parser import ParseError


def _report(
    path: str,
    as_json: bool,
    code: str,
    message: str,
    line: int | None = None,
    col: int | None = None,
    snapshot: str = "",
) -> None:
    """Write one error to stderr: a JSON record under `--json`, else
    `path:line:col CODE message`, or `path: message` when it has no position."""
    if as_json:
        record = {
            "path": path,
            "line": line,
            "col": col,
            "code": code,
            "message": message,
            "perm_snapshot": snapshot,
        }
        print(json.dumps(record), file=sys.stderr)
    elif line is None:
        print(f"{path}: {message}", file=sys.stderr)
    else:
        print(f"{path}:{line}:{col} {code} {message}", file=sys.stderr)


def _emit_diags(path: str, text: str, diags: list[Diagnostic], as_json: bool) -> None:
    for d in diags:
        if as_json:
            line, col = line_col(text, d.span.start)
            _report(path, True, d.code, d.message, line, col, d.perm_snapshot)
        else:
            print(d.render(path, text), file=sys.stderr)


def _front_end_error(
    path: str, text: str, exc: LexError | ParseError | ResolveError, as_json: bool
) -> None:
    line, col = line_col(text, exc.span.start)
    code = {LexError: "LEX", ParseError: "PARSE"}.get(type(exc)) or exc.code
    _report(path, as_json, code, exc.message, line, col)


def cmd_check(args: argparse.Namespace) -> int:
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        _report(args.file, args.json, "IO", str(exc))
        return 2
    try:
        _, _, diags = check_text(text, args.file)
    except (LexError, ParseError, ResolveError) as exc:
        # Resolution errors are reported in the same line format but exit 2,
        # distinguishing malformed programs from permission failures.
        _front_end_error(args.file, text, exc, args.json)
        return 2
    except RecursionError:
        _report(args.file, args.json, "NESTING", "input too deeply nested")
        return 2
    _emit_diags(args.file, text, diags, args.json)
    return 0 if not diags else 1


def cmd_run(args: argparse.Namespace) -> int:
    # Only the commands that run code load the interpreter, as `run_text` does.
    from .interp import RuntimeTrap

    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        _report(args.file, False, "IO", str(exc))
        return 2
    try:
        value, interp = run_text(
            text,
            args.entry,
            args.file,
            checked=not args.unchecked,
            max_steps=args.max_steps,
            trace=args.trace,
        )
    except (LexError, ParseError, ResolveError) as exc:
        _front_end_error(args.file, text, exc, False)
        return 2
    except RecursionError:
        _report(args.file, False, "NESTING", "input too deeply nested")
        return 2
    except CheckedProgramError as exc:
        _emit_diags(args.file, text, exc.diags, False)
        return 1
    except RuntimeTrap as trap:
        for line in trap.trace:
            print(line, file=sys.stderr)
        print(f"trap {trap.kind}: {trap.message}", file=sys.stderr)
        return 3
    for line in interp.trace:
        print(line, file=sys.stderr)
    print(interp.render(value))
    return 0


# ---------------------------------------------------------------------------
# Corpus manifest
# ---------------------------------------------------------------------------


def parse_manifest(path: Path) -> list[tuple[str, str, str]]:
    cases = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) == 2:
            parts.append("")
        if len(parts) != 3:
            raise ValueError(f"malformed manifest line: {raw!r}")
        cases.append((parts[0], parts[1], parts[2]))
    return cases


def run_case(root: Path, expectation: str, rel: str, args: str) -> tuple[bool, str]:
    """Returns (passed, detail)."""
    if expectation not in ("ACCEPT", "REJECT", "RUN"):
        return False, f"manifest error: unknown expectation {expectation!r}"
    path = root / rel
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return False, f"cannot read: {exc}"
    if expectation == "ACCEPT":
        try:
            _, _, diags = check_text(text, rel)
        except (LexError, ParseError, ResolveError) as exc:
            return False, f"front-end error: {exc}"
        if diags:
            return False, f"unexpected diagnostics: {[d.code for d in diags]}"
        return True, "clean"
    if expectation == "REJECT":
        expected = [item.strip() for item in args.split(",") if item.strip()]
        if not expected:
            return False, "manifest error: REJECT requires at least one code"
        try:
            _, _, diags = check_text(text, rel)
        except (LexError, ParseError, ResolveError) as exc:
            return False, f"front-end error: {exc}"
        got = []
        for d in diags:
            line, col = line_col(text, d.span.start)
            got.append((d.code, line, col))
        if len(got) != len(expected):
            return False, f"expected {expected}, got {got}"
        for want, have in zip(expected, got):
            if "@" in want:
                code, loc = want.split("@", 1)
                line_s, col_s = loc.split(":", 1)
                if have != (code, int(line_s), int(col_s)):
                    return False, f"expected {want}, got {have[0]}@{have[1]}:{have[2]}"
            elif want != have[0]:
                return False, f"expected {want}, got {have[0]}"
        return True, f"rejected with {[g[0] for g in got]}"
    if "=" not in args:
        return False, "manifest error: RUN requires entry=expected"
    entry, _, expected = args.partition("=")
    trap_expected = expected.startswith("TRAP:")
    from .interp import RuntimeTrap

    try:
        value, interp = run_text(
            text, entry, rel, checked=not trap_expected
        )
    except CheckedProgramError as exc:
        return False, f"does not check: {[d.code for d in exc.diags]}"
    except RuntimeTrap as trap:
        if trap_expected and trap.kind == expected[len("TRAP:") :]:
            return True, f"trapped {trap.kind}"
        return False, f"unexpected trap {trap.kind}"
    except (LexError, ParseError, ResolveError) as exc:
        return False, f"front-end error: {exc}"
    if trap_expected:
        return False, f"expected a trap, got {interp.render(value)}"
    rendered = interp.render(value)
    if rendered != expected:
        return False, f"expected {expected!r}, got {rendered!r}"
    return True, f"=> {rendered}"


def cmd_test(args: argparse.Namespace) -> int:
    root = Path(args.corpus) if args.corpus else CORPUS_DIR
    manifest = root / "manifest.tsv"
    try:
        cases = parse_manifest(manifest)
    except (OSError, ValueError) as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 1
    failures = 0
    width = max((len(rel) for _, rel, _ in cases), default=0)
    for expectation, rel, args_text in cases:
        passed, detail = run_case(root, expectation, rel, args_text)
        status = "pass" if passed else "FAIL"
        if not passed:
            failures += 1
        print(f"{status}  {expectation:<7} {rel:<{width}}  {detail}")
    print(f"{len(cases) - failures}/{len(cases)} corpus cases passed")
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="minimz", description="permission-typed miniature ML"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="type- and permission-check a file")
    p_check.add_argument("file")
    p_check.add_argument("--json", action="store_true", help="structured diagnostics")
    p_check.set_defaults(fn=cmd_check)

    p_run = sub.add_parser("run", help="check and evaluate an entry point")
    p_run.add_argument("file")
    p_run.add_argument("entry")
    p_run.add_argument("--unchecked", action="store_true", help="skip the checker")
    p_run.add_argument("--trace", action="store_true", help="log allocations and one-shot fires")
    p_run.add_argument("--max-steps", type=int, default=10_000_000)
    p_run.set_defaults(fn=cmd_run)

    p_test = sub.add_parser("test", help="run the corpus manifest")
    p_test.add_argument("corpus", nargs="?", help="corpus directory (default: builtin)")
    p_test.set_defaults(fn=cmd_test)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
