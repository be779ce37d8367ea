"""The type traversals (`map_children`, `children`, `has_meta`, `subst_type`)
against a small reference walker kept here.

The reference finds a node's children by reflection over its dataclass
fields, so it shares no dispatch with the code under test. It runs on every
kind of type node, and on the signatures, alias bodies and data fields of
the prelude and of every corpus file, bare and instantiated.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys

import pytest

from minimz.ast import (
    KIND_PERM,
    KIND_TYPE,
    Span,
    TApp,
    TArrow,
    TAt,
    TBar,
    TConcrete,
    TEmpty,
    TExists,
    TForall,
    TMeta,
    TSingleton,
    TStar,
    TTuple,
    TVar,
    Type,
    TupleComp,
    children,
    has_meta,
    map_children,
)
from minimz.driver import CORPUS_DIR, PRELUDE_PATH, load_text, prelude
from minimz.kinds import AliasInfo, DataInfo
from minimz.perms import subst_type

# ---------------------------------------------------------------------------
# the reference walker
# ---------------------------------------------------------------------------


def _types_in(value) -> list[Type]:
    if isinstance(value, Type):
        return [value]
    if isinstance(value, TupleComp):
        return [value.ty]
    if isinstance(value, tuple):
        return [t for item in value for t in _types_in(item)]
    return []


def ref_children(t: Type) -> list[Type]:
    return [c for f in dataclasses.fields(t) for c in _types_in(getattr(t, f.name))]


def _map_in(value, f):
    if isinstance(value, Type):
        return f(value)
    if isinstance(value, TupleComp):
        return TupleComp(value.name, f(value.ty), value.consumed)
    if isinstance(value, tuple):
        return tuple(_map_in(item, f) for item in value)
    return value


def ref_map(t: Type, f) -> Type:
    """A new node like `t` with `f` applied to each child."""
    return dataclasses.replace(
        t, **{fl.name: _map_in(getattr(t, fl.name), f) for fl in dataclasses.fields(t)}
    )


def ref_has_meta(t: Type) -> bool:
    return isinstance(t, TMeta) or any(ref_has_meta(c) for c in ref_children(t))


def _binder_names(t: Type) -> set[str]:
    return {n for n, _ in t.binders}


def freshen(t: Type, fresh) -> Type:
    """`t` with every quantifier binder renamed to a name used nowhere else."""
    if isinstance(t, (TForall, TExists)):
        renaming = {n: TVar(f"{n}!{next(fresh)}") for n, _ in t.binders}
        body = ref_subst(freshen(t.body, fresh), renaming, {})
        return dataclasses.replace(
            t, binders=tuple((renaming[n].name, k) for n, k in t.binders), body=body
        )
    return ref_map(t, lambda c: freshen(c, fresh))


def ref_subst(t: Type, subst: dict[str, Type], values: dict[str, str]) -> Type:
    """Substitution without capture avoidance: right once `t` is freshened."""
    if isinstance(t, TVar):
        return subst.get(t.name, t)
    if isinstance(t, TSingleton):
        return dataclasses.replace(t, name=values.get(t.name, t.name))
    if isinstance(t, TAt):
        anchor = values.get(t.anchor, t.anchor)
        return dataclasses.replace(t, anchor=anchor, ty=ref_subst(t.ty, subst, values))
    if isinstance(t, (TForall, TExists)):
        inner = {n: w for n, w in subst.items() if n not in _binder_names(t)}
        return dataclasses.replace(t, body=ref_subst(t.body, inner, values))
    if isinstance(t, TArrow):
        domain, after = ref_domain(t.domain, subst, values)
        return dataclasses.replace(
            t, domain=domain, codomain=ref_subst(t.codomain, subst, after)
        )
    if isinstance(t, (TTuple, TBar)):
        return ref_domain(t, subst, values)[0]
    return ref_map(t, lambda c: ref_subst(c, subst, values))


def ref_domain(t: Type, subst, values) -> tuple[Type, dict[str, str]]:
    """A component's name hides an outer renaming of it from the later
    components, the bar and, in an arrow, the codomain."""
    if isinstance(t, TBar):
        carrier, after = ref_domain(t.carrier, subst, values)
        return dataclasses.replace(t, carrier=carrier, perm=ref_subst(t.perm, subst, after)), after
    if isinstance(t, TTuple):
        after = dict(values)
        comps = []
        for c in t.comps:
            comps.append(TupleComp(c.name, ref_subst(c.ty, subst, after), c.consumed))
            after.pop(c.name, None)
        return dataclasses.replace(t, comps=tuple(comps)), after
    return ref_subst(t, subst, values), values


def alpha_canon(t: Type, names: dict[str, str] | None = None, count=None) -> Type:
    """`t` with binders renamed `#1`, `#2`, ... in order of appearance."""
    names = names or {}
    count = count or itertools.count(1)
    if isinstance(t, TVar):
        return TVar(names.get(t.name, t.name))
    if isinstance(t, (TForall, TExists)):
        inner = dict(names)
        binders = []
        for n, k in t.binders:
            inner[n] = f"#{next(count)}"
            binders.append((inner[n], k))
        body = alpha_canon(t.body, inner, count)
        return dataclasses.replace(t, binders=tuple(binders), body=body)
    return ref_map(t, lambda c: alpha_canon(c, names, count))


def nodes(t: Type):
    yield t
    for c in ref_children(t):
        yield from nodes(c)


def value_names(t: Type) -> set[str]:
    """The value names `t` mentions: anchors, singletons, component names."""
    out = set()
    for n in nodes(t):
        if isinstance(n, TAt):
            out.add(n.anchor)
        elif isinstance(n, TSingleton):
            out.add(n.name)
        elif isinstance(n, TTuple):
            out.update(c.name for c in n.comps if c.name is not None)
    return out


# ---------------------------------------------------------------------------
# every kind of node
# ---------------------------------------------------------------------------


def _concrete_subclasses(cls):
    for sub in cls.__subclasses__():
        # `dataclass(slots=True)` makes a new class; the one it replaced may
        # linger among the subclasses until it is collected.
        if getattr(sys.modules[sub.__module__], sub.__name__, None) is sub:
            yield sub
        yield from _concrete_subclasses(sub)


TYPE_CLASSES = sorted(set(_concrete_subclasses(Type)), key=lambda c: c.__name__)

_A, _M, _INT = TVar("a"), TMeta("m"), TApp("int", ())
_SPAN = Span(3, 4)

# One node of each class, with a type variable and a metavariable below it
# where it has children, and a span that a rebuilt node must keep.
SAMPLES = {
    TVar: TVar("a", _SPAN),
    TMeta: TMeta("m", KIND_TYPE, _SPAN),
    TApp: TApp("pair", (_A, _M), _SPAN),
    TTuple: TTuple((TupleComp("x", _A, True), TupleComp(None, TSingleton("x"))), _SPAN),
    TArrow: TArrow(TTuple((TupleComp("x", _A),)), TBar(_M, TAt("x", _A)), _SPAN),
    TBar: TBar(_A, TAt("x", _M), True, _SPAN),
    TConcrete: TConcrete("K", (("f", _A), ("g", TSingleton("x"))), TAt("x", _M), _SPAN),
    TSingleton: TSingleton("x", _SPAN),
    TForall: TForall((("b", KIND_TYPE),), TApp("pair", (_A, TVar("b"))), _SPAN),
    TExists: TExists((("p", KIND_PERM),), TStar((TVar("p"), TAt("x", _A))), _SPAN),
    TAt: TAt("x", _M, _SPAN),
    TStar: TStar((TAt("x", _A), TVar("p"), _M), _SPAN),
    TEmpty: TEmpty(_SPAN),
}


def test_every_type_class_has_a_sample():
    assert set(SAMPLES) == set(TYPE_CLASSES)


def _rebuilt(t: Type) -> Type:
    """A new node equal to `t`, so that a map over it must rebuild."""
    return ref_map(t, lambda c: c)


@pytest.mark.parametrize("cls", TYPE_CLASSES, ids=lambda c: c.__name__)
def test_every_type_class_is_handled(cls):
    t = SAMPLES[cls]
    assert map_children(t, lambda c: c) is t
    assert list(children(t)) == ref_children(t)
    assert all(c is r for c, r in zip(children(t), ref_children(t)))
    rebuilt = map_children(t, _rebuilt)
    assert rebuilt == t and type(rebuilt) is cls and rebuilt.span is t.span
    if ref_children(t):
        assert rebuilt is not t
    assert has_meta(_rebuilt(t)) == ref_has_meta(t)
    assert subst_type(t, {}) is t
    assert subst_type(t, {"z": _INT}, {"y": "w"}) is t  # nothing to replace
    subst, values = {"a": TApp("list", (_INT,)), "p": TAt("y", _INT)}, {"x": "y"}
    got = subst_type(t, subst, values)
    assert alpha_canon(got) == alpha_canon(ref_subst(freshen(t, itertools.count()), subst, values))
    assert type(got) is cls or cls is TVar


# ---------------------------------------------------------------------------
# the prelude's and the corpus's types
# ---------------------------------------------------------------------------


def _corpus_types() -> list[tuple[str, Type]]:
    out: list[tuple[str, Type]] = []
    seen: set[int] = set()
    paths = sorted(CORPUS_DIR.rglob("*.mz"))
    for path in paths:
        rel = str(path.relative_to(CORPUS_DIR))
        if path == PRELUDE_PATH:
            env = prelude()[1]
        else:
            env = load_text(path.read_text(encoding="utf-8"), rel)[1]
        found = list(env.sigs.items())
        for name, info in env.types.items():
            if isinstance(info, AliasInfo) and info.body is not None:
                found.append((name, info.body))
            elif isinstance(info, DataInfo):
                for branch in info.branches.values():
                    found += [(f"{name}.{f}", ft) for f, ft in branch.fields]
                    if branch.bar is not None:
                        found.append((f"{name}.{branch.tag}|", branch.bar))
        for name, t in found:
            if id(t) not in seen:  # the prelude's types are shared
                seen.add(id(t))
                out.append((f"{rel}:{name}", t))
    return out


CORPUS_TYPES = _corpus_types()


def test_the_corpus_reaches_every_type_class_the_checker_does_not_make():
    reached = {type(n) for _, t in CORPUS_TYPES for n in nodes(t)}
    assert reached == set(TYPE_CLASSES) - {TMeta, TSingleton}


def _instantiate(t: Type) -> tuple[Type, dict[str, Type], dict[str, str]]:
    """The body of `t`'s outer quantifiers with a fresh metavariable for each
    binder, as a call instantiates it, and every value name renamed."""
    subst: dict[str, Type] = {}
    while isinstance(t, TForall):
        subst.update({n: TMeta(f"{n}%1", k) for n, k in t.binders})
        t = t.body
    return t, subst, {n: f"{n}'" for n in value_names(t)}


def test_traversals_agree_with_the_reference_on_the_corpus():
    assert len(CORPUS_TYPES) > 100
    for name, t in CORPUS_TYPES:
        body, subst, values = _instantiate(t)
        for n in nodes(t):
            assert map_children(n, lambda c: c) is n, name
            assert list(children(n)) == ref_children(n), name
        assert subst_type(t, {}) is t
        got = subst_type(body, subst, values)
        want = ref_subst(freshen(body, itertools.count()), subst, values)
        assert alpha_canon(got) == alpha_canon(want), name
        # a fresh metavariable has no free names: no binder is renamed
        assert got == ref_subst(body, subst, values), name
        for n in nodes(got):
            assert has_meta(n) == ref_has_meta(n), name


def test_a_substituted_variable_is_not_captured_by_a_corpus_binder():
    renamed = 0
    for name, t in CORPUS_TYPES:
        for n in nodes(t):
            if not isinstance(n, (TForall, TExists)):
                continue
            # a variable `z` free under the quantifier, replaced by a type
            # naming the quantifier's first binder
            first = n.binders[0][0]
            q = dataclasses.replace(n, body=TApp("pair", (n.body, TVar("z"))))
            subst = {"z": TApp("list", (TVar(first),))}
            got = subst_type(q, subst)
            want = ref_subst(freshen(q, itertools.count()), subst, {})
            assert alpha_canon(got) == alpha_canon(want), name
            assert got.binders[0][0] != first, name
            assert got.body.args[1] == TApp("list", (TVar(first),)), name
            renamed += 1
    assert renamed >= 10


@pytest.mark.parametrize("quant", [TForall, TExists], ids=lambda q: q.__name__)
def test_a_renamed_binder_avoids_every_name_in_sight(quant):
    # `a` must become `a$1`: `a$0` is free in the body.
    q = quant((("a", KIND_TYPE),), TApp("pair", (TVar("a"), TVar("z"), TVar("a$0"))))
    got = subst_type(q, {"z": TVar("a")})
    assert got == quant(
        (("a$1", KIND_TYPE),), TApp("pair", (TVar("a$1"), TVar("a"), TVar("a$0")))
    )
