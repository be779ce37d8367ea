"""No module of `src/minimz` keeps state that one check or run could leave
to the next: the program has no `global` statement, and binds no counter
or mutable container at module level."""

import ast
from pathlib import Path

import minimz

SRC = Path(minimz.__file__).parent

# Calls whose result is a counter or a mutable container.
MUTABLE_CALLS = {"count", "dict", "list", "set", "defaultdict", "Counter", "OrderedDict", "deque"}
MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _is_mutable(value: ast.expr | None) -> bool:
    if isinstance(value, MUTABLE_DISPLAYS):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in MUTABLE_CALLS
    return False


def _module_statements(body: list[ast.stmt]):
    """The statements of the module itself, also under `if`, `try` and
    `with`, but not in functions or classes."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for name in ("body", "orelse", "finalbody", "handlers"):
            yield from _module_statements(getattr(stmt, name, []))


def offenders(tree: ast.Module, filename: str) -> list[str]:
    found = [
        f"{filename}:{node.lineno} global {', '.join(node.names)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Global)
    ]
    for stmt in _module_statements(tree.body):
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and _is_mutable(
            stmt.value
        ):
            found.append(f"{filename}:{stmt.lineno} {ast.unparse(stmt)}")
    return found


def test_no_global_statement_and_no_module_level_mutable_state():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += offenders(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert found == []


def test_the_guard_sees_each_kind_of_offender():
    for source in [
        "x = itertools.count()",
        "x = {}",
        "x = []",
        "x = set()",
        "x = dict()",
        "x = list()",
        "if True:\n    x: list = []",
        "def f():\n    global x",
    ]:
        assert offenders(ast.parse(source), "t.py"), source
    harmless = "X = frozenset({1})\nY = (1, 2)\ndef f():\n    z = {}\nclass C:\n    T = {}\n"
    assert offenders(ast.parse(harmless), "t.py") == []
