"""No production code exists only for tests: every function, class and
method defined in `src/minimz` is referenced from `src/minimz` itself,
except for the public entry points named here, and every attribute that
`src/minimz` stores on `self` is read by `src/minimz`."""

import ast
from pathlib import Path

import minimz

SRC = Path(minimz.__file__).parent

# Public API that the program itself never calls.
ENTRY_POINTS = {
    "printer.pretty_print",  # the printer's documented API
}


def _definitions_and_references():
    """(module.qualified.name, name) of every definition, and every name
    the source mentions as a variable or an attribute."""
    defs: list[tuple[str, str]] = []
    refs: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defs.append((prefix + child.name, child.name))
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, path.stem + ".")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return defs, refs


def test_every_definition_is_used_by_the_program():
    defs, refs = _definitions_and_references()
    assert len(defs) > 100
    unused = [
        qualified
        for qualified, name in defs
        if name not in refs
        and not (name.startswith("__") and name.endswith("__"))
        and qualified not in ENTRY_POINTS
    ]
    assert unused == []
    for qualified in ENTRY_POINTS:
        assert any(q == qualified for q, _ in defs), f"{qualified} is not defined"


def _stored_and_read_attributes():
    """(module.Class, attribute) of every attribute a method stores on
    `self`, and every attribute name the source reads: an attribute load,
    or a constant name given to `getattr`."""
    stored: set[tuple[str, str]] = set()
    reads: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    if isinstance(node.value, ast.Name) and node.value.id == "self":
                        stored.add((f"{path.stem}.{cls.name}", node.attr))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                reads.add(node.args[1].value)
    return stored, reads


def test_every_attribute_stored_on_self_is_read_by_the_program():
    stored, reads = _stored_and_read_attributes()
    assert len(stored) > 20
    unread = sorted(f"{owner}.{name}" for owner, name in stored if name not in reads)
    assert unread == []
