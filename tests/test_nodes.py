"""Every node class of `ast`, `perms` and `check` is made by `ast.node`: a
frozen dataclass with slots, built alike by position, by keyword, from its
defaults and by `dataclasses.replace`."""

import dataclasses

import pytest

from minimz import ast, check, perms

NODE_CLASSES = [
    cls
    for module in (ast, perms, check)
    for cls in vars(module).values()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
]


def _values(cls, tag: str) -> list[object]:
    """A value for each field of `cls`, none equal to its default."""
    return [f"{tag}{i}" for i, _ in enumerate(dataclasses.fields(cls))]


def test_the_node_classes_are_found():
    names = {cls.__name__ for cls in NODE_CLASSES}
    assert {"TApp", "TupleComp", "EVar", "PTag", "Branch", "SourceFile"} <= names
    assert {"Anchored", "PermVar", "MetaPerm", "Diagnostic", "Tail"} <= names


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_a_node_is_frozen_and_has_no_instance_dict(cls):
    assert cls.__dataclass_params__.frozen
    fields = dataclasses.fields(cls)
    node = cls(*_values(cls, "a"))
    assert not hasattr(node, "__dict__")
    for f in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, f.name, "b")


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_assigning_or_deleting_any_attribute_of_a_node_raises_frozen(cls):
    node = cls(*_values(cls, "a"))
    for name in [f.name for f in dataclasses.fields(cls)] + ["other"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, "b")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, name)
    assert node == cls(*_values(cls, "a"))


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_every_way_to_build_a_node_gives_the_same_node(cls):
    fields = dataclasses.fields(cls)
    values = _values(cls, "a")
    by_position = cls(*values)
    by_keyword = cls(**{f.name: v for f, v in zip(fields, values)})
    assert by_position == by_keyword
    assert [getattr(by_keyword, f.name) for f in fields] == values
    required = [f for f in fields if f.default is dataclasses.MISSING]
    from_defaults = cls(*values[: len(required)])
    spelled_out = cls(*values[: len(required)], *[f.default for f in fields[len(required) :]])
    assert from_defaults == spelled_out
    assert [getattr(from_defaults, f.name) for f in fields] == [
        getattr(spelled_out, f.name) for f in fields
    ]
    for i, f in enumerate(fields):
        changed = values[:i] + ["b"] + values[i + 1 :]
        replaced = dataclasses.replace(by_position, **{f.name: "b"})
        assert [getattr(replaced, g.name) for g in fields] == changed
        assert replaced == cls(*changed)
