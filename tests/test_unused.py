"""No production code exists only for tests: every function, class and
method defined in `src/minimz` is used by `src/minimz` itself, except for
the definitions named here; every attribute that `src/minimz` stores on
`self` is read by `src/minimz`, except for the public attributes named
here; and every parameter with a default is passed by some call in
`src/minimz`. A function or class defined outside a class is used when it
is loaded as a plain name or imported; a method (or a class defined in a
class) when it is read as an attribute or named in its class's body, as
codegen's `NODES` table names its methods. The rules go by names, not by
what a name is bound to."""

import ast
from pathlib import Path

import minimz

SRC = Path(minimz.__file__).parent

# Public API that the program itself never calls.
ENTRY_POINTS = {
    "printer.pretty_print",  # the printer's documented API
}

# Methods that only generated code calls: `codegen` writes the call into
# the source text of the function it compiles, so no source line of the
# program names them.
CALLED_BY_GENERATED_CODE = {
    "runtime._Check.fill",
}

# Attributes that the program stores and only its users read: the
# interpreter's counters, read by the step pins and the benchmark.
PUBLIC_ATTRIBUTES = {
    "runtime.Stats.oneshot_fires",
    "runtime.Stats.call_steps",
}

# Parameters with a default that no call in the program passes: the
# arguments of the command line's entry point, which read `sys.argv`
# unless a caller that embeds `minimz` passes its own.
DEFAULTS_NOT_PASSED = {
    "cli.main(argv)",
}


def _definitions_and_references():
    """(module.qualified.name, name, whether it is defined in a class) of
    every definition; the names loaded as plain names or imported; and the
    names read as attributes or named in a class body."""
    defs: list[tuple[str, str, bool]] = []
    names: set[str] = set()
    members: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, prefix, in_class):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defs.append((prefix + child.name, child.name, in_class))
                    visit(child, prefix + child.name + ".", isinstance(child, ast.ClassDef))
                else:
                    named = isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
                    if in_class and named:
                        members.add(child.id)
                    visit(child, prefix, in_class)

        visit(tree, path.stem + ".", False)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                members.add(node.attr)
    return defs, names, members


def test_every_definition_is_used_by_the_program():
    defs, names, members = _definitions_and_references()
    assert len(defs) > 100
    exempt = ENTRY_POINTS | CALLED_BY_GENERATED_CODE
    unused = [
        qualified
        for qualified, name, in_class in defs
        if name not in (members if in_class else names)
        and not (name.startswith("__") and name.endswith("__"))
        and qualified not in exempt
    ]
    assert unused == []
    for qualified in exempt:
        assert any(q == qualified for q, _, _ in defs), f"{qualified} is not defined"


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
    # Each public attribute is stored, and every other stored one is read.
    assert unread == sorted(PUBLIC_ATTRIBUTES)


def _defaulted_parameters_and_calls():
    """(module.qualified.name(parameter), callee name, position, keyword)
    of every parameter with a default, where the callee name of an
    `__init__` is its class's name and `position` counts the arguments
    after `self` (None for a keyword-only parameter); and (callee name,
    number of positional arguments, whether one is starred, keywords) of
    every call, a bare decorator being a call with one argument."""
    params: list[tuple[str, str, int | None, str]] = []
    calls: list[tuple[str, int, bool, set[str]]] = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, prefix, cls):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".", child.name)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = child.args
                    positional = args.posonlyargs + args.args
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in child.decorator_list
                    )
                    skipped = 1 if cls is not None and not static else 0
                    callee = cls if child.name == "__init__" else child.name
                    first = len(positional) - len(args.defaults)
                    defaulted = [(a, i - skipped) for i, a in enumerate(positional) if i >= first]
                    defaulted += [
                        (a, None)
                        for a, d in zip(args.kwonlyargs, args.kw_defaults)
                        if d is not None
                    ]
                    for a, position in defaulted:
                        qualified = f"{prefix}{child.name}({a.arg})"
                        params.append((qualified, callee, position, a.arg))
                    visit(child, prefix + child.name + ".", None)
                else:
                    visit(child, prefix, cls)

        visit(tree, path.stem + ".", None)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.append((name, len(node.args), starred, keywords))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for d in node.decorator_list:
                    if isinstance(d, ast.Name):
                        calls.append((d.id, 1, False, set()))
    return params, calls


def test_every_parameter_with_a_default_is_passed_by_the_program():
    params, calls = _defaulted_parameters_and_calls()
    assert len(params) > 20
    never_passed = [
        qualified
        for qualified, callee, position, keyword in params
        if not any(
            name == callee
            and (
                (position is not None and (count > position or starred))
                or keyword in keywords
            )
            for name, count, starred, keywords in calls
        )
    ]
    assert sorted(never_passed) == sorted(DEFAULTS_NOT_PASSED)
