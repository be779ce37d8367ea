"""Every node class of `ast`, `perms` and `check` is made by `ast.node`:
a plain class with slots, built alike by position, by keyword, from its
defaults and by `replace`, whose `repr`, `==` and hash are pinned below
class by class.

No node is assigned after construction. Python does not stop a store to a
slot, so a static test does, at the end of this file: it reads every
module of `src/minimz` and fails on any `setattr` or `delattr`, and on any
store or delete of an attribute named as a node field, but one on `self`
in a class that `node` does not make and the few allowed with a reason.
That is what keeps sound the three slots in which a type node keeps what
it found out about itself (`_has_meta`, `_plain` and `_hash`)."""

import ast as pyast
from pathlib import Path

import pytest

import minimz
from conftest import is_node
from minimz import ast, check, perms
from minimz.ast import MISSING, fields
from minimz.kinds import replace

NODE_CLASSES = [
    cls
    for module in (ast, perms, check)
    for cls in vars(module).values()
    if isinstance(cls, type) and is_node(cls) and cls.__module__ == module.__name__
]


def _values(cls, tag: str) -> list[object]:
    """A value for each field of `cls`, none equal to its default."""
    return [f"{tag}{i}" for i, _ in enumerate(fields(cls))]


def test_the_node_classes_are_found():
    assert " ".join(cls.__name__ for cls in NODE_CLASSES) == (
        "Span Kind KType KPerm Type TVar TMeta TApp TupleComp TTuple TArrow TBar TConcrete"
        " TSingleton TForall TExists TAt TStar TEmpty Pattern PVar PTuple PTag Expr EVar"
        " EInt EBool ELet ECall EMatch EIf EField EAssign ETagUpdate EConstruct ETuple"
        " ELambda Branch Decl DData DAlias DAbstract DValSig DValDef SourceFile"
        " Atom Anchored PermVar MetaPerm Diagnostic Tail"
    )


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_a_node_is_frozen_and_has_no_instance_dict(cls):
    """What Python itself enforces: a node has no instance dict, so a name
    outside its slots can be neither set nor deleted. Its fields are kept
    from change by the static test below."""
    node = cls(*_values(cls, "a"))
    assert not hasattr(node, "__dict__")
    with pytest.raises(AttributeError):
        node.other = "b"
    with pytest.raises(AttributeError):
        del node.other
    assert [getattr(node, f.name) for f in fields(cls)] == _values(cls, "a")


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_assigning_or_deleting_any_attribute_of_a_node_raises_frozen(cls):
    """The static test rejects every way the program could assign or
    delete a field of `cls`, or a type node's cache slots, on any node."""
    names = [f.name for f in fields(cls)]
    if issubclass(cls, ast.Type):
        names += sorted(CACHE_SLOTS)
    for name in names:
        planted = [
            f"n.{name} = v",
            f"n.{name} += v",
            f"del n.{name}",
            f"a.b.{name}, c = v",
            f"setattr(n, {name!r}, v)",
            f"delattr(n, {name!r})",
            f"object.__setattr__(n, {name!r}, v)",
            f"type(n).{name}.__set__(n, v)",
        ]
        for line in planted:
            tree = pyast.parse(f"def f(n, v):\n    {line}\n")
            assert _changes(tree, "planted") != [], line


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_every_way_to_build_a_node_gives_the_same_node(cls):
    node_fields = fields(cls)
    values = _values(cls, "a")
    by_position = cls(*values)
    by_keyword = cls(**{f.name: v for f, v in zip(node_fields, values)})
    assert by_position == by_keyword
    assert [getattr(by_keyword, f.name) for f in node_fields] == values
    required = [f for f in node_fields if f.default is MISSING]
    from_defaults = cls(*values[: len(required)])
    spelled_out = cls(*values[: len(required)], *[f.default for f in node_fields[len(required) :]])
    assert from_defaults == spelled_out
    assert [getattr(from_defaults, f.name) for f in node_fields] == [
        getattr(spelled_out, f.name) for f in node_fields
    ]
    for i, f in enumerate(node_fields):
        changed = values[:i] + ["b"] + values[i + 1 :]
        replaced = replace(by_position, **{f.name: "b"})
        assert [getattr(replaced, g.name) for g in node_fields] == changed
        assert replaced == cls(*changed)


# ---------------------------------------------------------------------------
# pinned semantics of each node class
# ---------------------------------------------------------------------------

_SPAN, _OTHER_SPAN = ast.Span(1, 2), ast.Span(3, 4)

# Each node class; its fields in order; the `repr` of a sample whose every
# field holds its own name, `span` a span; and the fields `==` leaves out.
PINS = [
    (ast.Span, "start length", "Span(start='start', length='length')", ""),
    (ast.Kind, "", "Kind()", ""),
    (ast.KType, "", "KType()", ""),
    (ast.KPerm, "", "KPerm()", ""),
    (ast.Type, "", "Type()", ""),
    (ast.TVar, "name span", "TVar(name='name')", "span"),
    (ast.TMeta, "name kind span", "TMeta(name='name', kind='kind')", "span"),
    (ast.TApp, "head args span", "TApp(head='head', args='args')", "span"),
    (ast.TupleComp, "name ty consumed", "TupleComp(name='name', ty='ty', consumed='consumed')", ""),
    (ast.TTuple, "comps span", "TTuple(comps='comps')", "span"),
    (ast.TArrow, "domain codomain span", "TArrow(domain='domain', codomain='codomain')", "span"),
    (
        ast.TBar,
        "carrier perm consumed span",
        "TBar(carrier='carrier', perm='perm', consumed='consumed')",
        "span",
    ),
    (
        ast.TConcrete,
        "tag fields bar span",
        "TConcrete(tag='tag', fields='fields', bar='bar')",
        "span",
    ),
    (ast.TSingleton, "name span", "TSingleton(name='name')", "span"),
    (ast.TForall, "binders body span", "TForall(binders='binders', body='body')", "span"),
    (ast.TExists, "binders body span", "TExists(binders='binders', body='body')", "span"),
    (ast.TAt, "anchor ty span", "TAt(anchor='anchor', ty='ty')", "span"),
    (ast.TStar, "items span", "TStar(items='items')", "span"),
    (ast.TEmpty, "span", "TEmpty()", "span"),
    (ast.Pattern, "", "Pattern()", ""),
    (ast.PVar, "name span", "PVar(name='name')", "span"),
    (ast.PTuple, "items span", "PTuple(items='items')", "span"),
    (ast.PTag, "tag fields span", "PTag(tag='tag', fields='fields')", "span"),
    (ast.Expr, "", "Expr()", ""),
    (ast.EVar, "name span", "EVar(name='name')", "span"),
    (ast.EInt, "value span", "EInt(value='value')", "span"),
    (ast.EBool, "value span", "EBool(value='value')", "span"),
    (
        ast.ELet,
        "pattern bound body span",
        "ELet(pattern='pattern', bound='bound', body='body')",
        "span",
    ),
    (
        ast.ECall,
        "callee arg type_args span",
        "ECall(callee='callee', arg='arg', type_args='type_args')",
        "span",
    ),
    (
        ast.EMatch,
        "scrutinee branches span",
        "EMatch(scrutinee='scrutinee', branches='branches')",
        "span",
    ),
    (
        ast.EIf,
        "cond then otherwise span",
        "EIf(cond='cond', then='then', otherwise='otherwise')",
        "span",
    ),
    (ast.EField, "obj name span", "EField(obj='obj', name='name')", "span"),
    (ast.EAssign, "obj name value span", "EAssign(obj='obj', name='name', value='value')", "span"),
    (
        ast.ETagUpdate,
        "obj tag fields span",
        "ETagUpdate(obj='obj', tag='tag', fields='fields')",
        "span",
    ),
    (ast.EConstruct, "tag fields span", "EConstruct(tag='tag', fields='fields')", "span"),
    (ast.ETuple, "items span", "ETuple(items='items')", "span"),
    (
        ast.ELambda,
        "domain codomain body span",
        "ELambda(domain='domain', codomain='codomain', body='body')",
        "span",
    ),
    (ast.Branch, "tag fields bar span", "Branch(tag='tag', fields='fields', bar='bar')", "span"),
    (ast.Decl, "", "Decl()", ""),
    (
        ast.DData,
        "name mutable params branches span",
        "DData(name='name', mutable='mutable', params='params', branches='branches')",
        "span",
    ),
    (
        ast.DAlias,
        "name params body span",
        "DAlias(name='name', params='params', body='body')",
        "span",
    ),
    (ast.DAbstract, "name params span", "DAbstract(name='name', params='params')", "span"),
    (ast.DValSig, "name ty span", "DValSig(name='name', ty='ty')", "span"),
    (
        ast.DValDef,
        "name params body span",
        "DValDef(name='name', params='params', body='body')",
        "span",
    ),
    # `SourceFile`'s path and declaration texts are not structural, and its
    # texts are not printed.
    (ast.SourceFile, "path decls texts", "SourceFile(path='path', decls='decls')", "path texts"),
    (perms.Atom, "", "Atom()", ""),
    (perms.Anchored, "anchor ty", "Anchored(anchor='anchor', ty='ty')", ""),
    (perms.PermVar, "name", "PermVar(name='name')", ""),
    (perms.MetaPerm, "name", "MetaPerm(name='name')", ""),
    # A diagnostic's span is compared and printed; its goal is printed only.
    (
        check.Diagnostic,
        "code message span perm_snapshot goal",
        "Diagnostic(code='code', message='message', span=Span(start=1, length=2),"
        " perm_snapshot='perm_snapshot', goal='goal')",
        "goal",
    ),
    (
        check.Tail,
        "codomain exit_goals span",
        "Tail(codomain='codomain', exit_goals='exit_goals', span=Span(start=1, length=2))",
        "",
    ),
]


def _sample(names: str, **changes) -> dict[str, object]:
    """The pinned sample's fields by name, with `changes` made."""
    fields = {name: _SPAN if name == "span" else name for name in names.split()}
    return {**fields, **changes}


def test_every_node_class_is_pinned():
    assert [cls for cls, *_ in PINS] == NODE_CLASSES


@pytest.mark.parametrize(
    "cls, names, text, uncompared", PINS, ids=[cls.__name__ for cls, *_ in PINS]
)
def test_a_node_keeps_its_pinned_repr_equality_hash_and_replace(cls, names, text, uncompared):
    fields = _sample(names)
    node = cls(**fields)
    assert repr(node) == text
    # Built by position, the fields come in the pinned order.
    by_position = cls(*fields.values())
    assert [getattr(by_position, name) for name in fields] == list(fields.values())
    assert by_position == node and hash(by_position) == hash(node)

    # `==` leaves out exactly the uncompared fields; equal nodes hash equal.
    for name in fields:
        other = cls(**_sample(names, **{name: _OTHER_SPAN if name == "span" else "other"}))
        if name in uncompared.split():
            assert other == node and hash(other) == hash(node), name
        else:
            assert other != node, name

    # A node equals no node of another class, even one with equal fields,
    # and no value that is not a node.
    equal = [other for other, other_names, *_ in PINS if other(**_sample(other_names)) == node]
    assert equal == [cls]
    assert node != tuple(fields.values()) and node != None and node != "node"  # noqa: E711

    # `replace`, as the resolver uses it, keeps every field it is not given.
    assert replace(node) == node
    for name in fields:
        replaced = replace(node, **{name: "new"})
        assert type(replaced) is cls and getattr(replaced, name) == "new"
        kept = [other for other in fields if other != name]
        assert all(getattr(replaced, other) is getattr(node, other) for other in kept)


# ---------------------------------------------------------------------------
# no node is assigned after construction
# ---------------------------------------------------------------------------

SRC = Path(minimz.__file__).parent

# The slots in which a type node keeps what it found out about itself
# (`ast.Type`); each holds only while no field of the node changes.
CACHE_SLOTS = {"_has_meta", "_plain", "_hash"}

# The attribute names no store may assign, outside the classes that
# `ast.node` does not make: every field of a node class, and the cache
# slots.
GUARDED = {f.name for cls in NODE_CLASSES for f in fields(cls)} | CACHE_SLOTS

# The stores of a guarded name that are no change to a node, by module,
# function and target, each with its reason.
ALLOWED = {
    ("ast", "node", "f.name"): "a `Field`, not a node: `node` names each field it makes",
    ("ast", "has_meta", "t._has_meta"): "fills the cache slot once, on the first question",
    ("ast", "plain", "t._plain"): "fills the cache slot once, on the first question",
    ("ast", "DValDef.later", "d.name"): "a definition being made, before anything can read it",
    ("ast", "DValDef.later", "d.params"): "a definition being made, before anything can read it",
    ("ast", "DValDef.later", "d.span"): "a definition being made, before anything can read it",
    ("ast", "DValDef.__getattr__", "self.body"): (
        "fills the body of a definition made by `later` once, on its first read"
    ),
    ("kinds", "Resolver.resolve_file", "info.body"): (
        "an `AliasInfo`, not a node: the alias's body, set once it is resolved"
    ),
    ("kinds", "Resolver.resolve_file", "info.kind"): (
        "an `AliasInfo`, not a node: the kind of the alias's body"
    ),
}

# Names that write an attribute whatever its name.
_SETTERS = {"setattr", "delattr"}
_SETTER_ATTRIBUTES = {"__setattr__", "__delattr__", "__set__", "__delete__"}


def _made_by_node(cls: pyast.ClassDef) -> bool:
    """Is `cls` decorated by `node`, bare or called?"""
    for d in cls.decorator_list:
        if isinstance(d, pyast.Call):
            d = d.func
        if isinstance(d, pyast.Name) and d.id == "node":
            return True
    return False


def _changes(tree: pyast.AST, module: str) -> list[tuple[str, str, str]]:
    """(module, function, code) of each place in `tree` that may change a
    node: a store or delete of a guarded attribute name, unless it is on
    `self` in a class that `node` does not make, and any use of a setter
    that takes the attribute's name as a value."""
    found = []

    def visit(node, where, cls):
        for child in pyast.iter_child_nodes(node):
            if isinstance(child, (pyast.FunctionDef, pyast.AsyncFunctionDef)):
                visit(child, where + [child.name], cls)
                continue
            if isinstance(child, pyast.ClassDef):
                visit(child, where + [child.name], child)
                continue
            if isinstance(child, pyast.Name) and child.id in _SETTERS:
                found.append((module, ".".join(where), child.id))
            elif isinstance(child, pyast.Attribute):
                if child.attr in _SETTER_ATTRIBUTES:
                    found.append((module, ".".join(where), pyast.unparse(child)))
                elif isinstance(child.ctx, (pyast.Store, pyast.Del)) and child.attr in GUARDED:
                    on_self = isinstance(child.value, pyast.Name) and child.value.id == "self"
                    if not (on_self and cls is not None and not _made_by_node(cls)):
                        found.append((module, ".".join(where), pyast.unparse(child)))
            visit(child, where, cls)

    visit(tree, [], None)
    return found


def test_no_node_is_assigned_after_construction():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = pyast.parse(path.read_text(encoding="utf-8"))
        found += _changes(tree, path.stem)
    assert [place for place in found if place not in ALLOWED] == []
    # Each allowed store is still in the program, once.
    assert sorted(place for place in found if place in ALLOWED) == sorted(ALLOWED)
    assert all(reason for reason in ALLOWED.values())
