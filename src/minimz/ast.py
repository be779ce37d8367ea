"""AST node definitions for the surface language.

Every node carries a source span (byte offset + length) that is excluded
from structural equality, so two parses of the same text compare equal
even when whitespace differs.

Every node class, here and in `perms` and `check`, is made by `node`: a
frozen dataclass with slots and no instance dict, whose `__init__` writes
each field through its slot's member descriptor. A frozen dataclass's own
`__init__` would write each field through `object.__setattr__` by name,
which costs about twice as much, and the checker makes tens of thousands
of nodes per large file. Nodes stay frozen: a type node keeps its hash,
what `has_meta` found and what `plain` found in slots of its own, which
hold only while the node never changes, and nodes are shared between
types, checks and memos.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from operator import attrgetter, is_


class Span:
    """A byte offset and a length. Spans compare, hash and print as a frozen
    dataclass of these two fields would; a plain slotted class is four times
    cheaper to make, and every AST leaf makes one."""

    __slots__ = ("start", "length")

    def __init__(self, start: int, length: int):
        self.start = start
        self.length = length

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Span:
            return NotImplemented
        return self.start == other.start and self.length == other.length

    def __hash__(self) -> int:
        return hash((self.start, self.length))

    def __repr__(self) -> str:
        return f"Span(start={self.start}, length={self.length})"

    @property
    def end(self) -> int:
        return self.start + self.length

    def merge(self, other: "Span") -> "Span":
        start = min(self.start, other.start)
        end = max(self.start + self.length, other.start + other.length)
        return Span(start, end - start)


DUMMY = Span(0, 0)


def _span_field() -> Span:
    return field(default=DUMMY, compare=False, repr=False)  # type: ignore[return-value]


def _frozen_setattr(self: object, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: object, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def node(cls: type) -> type:
    """Make `cls` a frozen dataclass with slots, and give it an `__init__`
    that writes each field through its slot's member descriptor, which
    skips the frozen class's `__setattr__`. A class that declares its own
    `__slots__` keeps them. Assigning or deleting any attribute raises
    `FrozenInstanceError`: the `__setattr__` and `__delattr__` that
    `dataclasses` makes for a class it rebuilds with slots refer to the
    class it replaced, and raise `TypeError` for a name that is no field."""
    cls = dataclass(frozen=True, init=False, slots="__slots__" not in cls.__dict__)(cls)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    ns: dict[str, object] = {}
    params: list[str] = []
    lines: list[str] = []
    for f in fields(cls):
        ns[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            ns[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        lines.append(f"    _set_{f.name}(self, {f.name})")
    if lines:
        exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(lines), ns)
        ns["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = ns["__init__"]
    return cls


# ---------------------------------------------------------------------------
# Kinds
# ---------------------------------------------------------------------------


@node
class Kind:
    pass


@node
class KType(Kind):
    def __str__(self) -> str:
        return "type"


@node
class KPerm(Kind):
    def __str__(self) -> str:
        return "perm"


KIND_TYPE = KType()
KIND_PERM = KPerm()


# ---------------------------------------------------------------------------
# Types (and permissions; permissions are types of kind PERM)
# ---------------------------------------------------------------------------


@node
class Type:
    """Type nodes are made by `node`: frozen, with no per-instance dict.
    Each concrete node stores its fields in slots, plus the three slots
    declared here, each filled in the first time it is asked for and kept,
    which is sound only because a node never changes: `_has_meta`, whether
    the node contains a `TMeta` (`has_meta`); `_plain`, whether it binds
    no name and holds no `TMeta` (`plain`); and `_hash`, the structural
    hash of a node with children (`_keep_hash`)."""

    __slots__ = ("_has_meta", "_plain", "_hash")


_set_has_meta = Type._has_meta.__set__
_set_plain = Type._plain.__set__
_set_hash = Type._hash.__set__


@node
class TVar(Type):
    name: str
    span: Span = _span_field()


@node
class TMeta(Type):
    """Unification variable introduced by the checker; never produced by parsing."""

    name: str
    kind: Kind = KIND_TYPE
    span: Span = _span_field()


@node
class TApp(Type):
    head: str
    args: tuple[Type, ...]
    span: Span = _span_field()


@node
class TupleComp:
    name: str | None
    ty: Type
    consumed: bool = False


@node
class TTuple(Type):
    comps: tuple[TupleComp, ...]
    span: Span = _span_field()


@node
class TArrow(Type):
    domain: Type
    codomain: Type
    span: Span = _span_field()


@node
class TBar(Type):
    """`(t | p)`: the carrier type together with a permission."""

    carrier: Type
    perm: Type
    consumed: bool = False
    span: Span = _span_field()


@node
class TConcrete(Type):
    """Structural tagged-record type, e.g. `Node { left = l; elem = x; right = r }`.

    Field values are types; a field bound to a name is a Singleton.
    """

    tag: str
    fields: tuple[tuple[str, Type], ...]
    bar: Type | None = None
    span: Span = _span_field()


@node
class TSingleton(Type):
    name: str
    span: Span = _span_field()


@node
class TForall(Type):
    binders: tuple[tuple[str, Kind], ...]
    body: Type
    span: Span = _span_field()


@node
class TExists(Type):
    binders: tuple[tuple[str, Kind], ...]
    body: Type
    span: Span = _span_field()


@node
class TAt(Type):
    """Anchored permission `x @ t`."""

    anchor: str
    ty: Type
    span: Span = _span_field()


@node
class TStar(Type):
    """Permission conjunction `p * q * ...`, kept flat after normalization."""

    items: tuple[Type, ...]
    span: Span = _span_field()


@node
class TEmpty(Type):
    span: Span = _span_field()


def _keep_hash(cls: type) -> None:
    """Give a type node class a `__hash__` that hashes the fields its
    equality compares once per node and keeps the hash in the `_hash`
    slot, so that a memo lookup hashes no subtree again."""
    key = attrgetter(*[f.name for f in fields(cls) if f.compare], "__class__")

    def __hash__(self: Type) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(key(self))
            _set_hash(self, h)
        return h

    cls.__hash__ = __hash__


# A leaf's hash walks no subtree: it keeps the dataclass's.
for _cls in (TApp, TTuple, TArrow, TBar, TConcrete, TForall, TExists, TAt, TStar):
    _keep_hash(_cls)
del _cls

UNIT = TTuple(())


def map_children(t: Type, g) -> Type:
    """Apply `g` to each child of `t`, left to right. Returns `t` itself when
    every child comes back as the same object, else a copy of `t` holding
    the new children.

    This function, `children` and `perms.subst_type` dispatch on the node's
    class with `is` tests, the most frequent classes first, and rebuild a
    node with its constructor."""
    cls = t.__class__
    if cls is TApp:
        args = t.args
        if not args:
            return t
        new = tuple(map(g, args))
        return t if same_items(new, args) else TApp(t.head, new, t.span)
    if cls is TAt:
        ty = g(t.ty)
        return t if ty is t.ty else TAt(t.anchor, ty, t.span)
    if cls is TBar:
        carrier, perm = g(t.carrier), g(t.perm)
        if carrier is t.carrier and perm is t.perm:
            return t
        return TBar(carrier, perm, t.consumed, t.span)
    if cls is TStar:
        items = tuple(map(g, t.items))
        return t if same_items(items, t.items) else TStar(items, t.span)
    if cls is TVar or cls is TSingleton or cls is TMeta or cls is TEmpty:
        return t
    if cls is TConcrete:
        fields = t.fields
        ftys = [g(ft) for _, ft in fields]
        bar = t.bar if t.bar is None else g(t.bar)
        if bar is t.bar and same_items(ftys, [ft for _, ft in fields]):
            return t
        fields = tuple((n, ft) for (n, _), ft in zip(fields, ftys))
        return TConcrete(t.tag, fields, bar, t.span)
    if cls is TTuple:
        comps = t.comps
        tys = [g(c.ty) for c in comps]
        if same_items(tys, [c.ty for c in comps]):
            return t
        return TTuple(
            tuple(TupleComp(c.name, ty, c.consumed) for c, ty in zip(comps, tys)), t.span
        )
    if cls is TArrow:
        dom, cod = g(t.domain), g(t.codomain)
        if dom is t.domain and cod is t.codomain:
            return t
        return TArrow(dom, cod, t.span)
    if cls is TForall or cls is TExists:
        body = g(t.body)
        return t if body is t.body else cls(t.binders, body, t.span)
    raise TypeError(f"unknown type node {t!r}")


def same_items(xs, ys) -> bool:
    """Is each item of `xs` the very object at the same place in `ys`?"""
    return all(map(is_, xs, ys))


def children(t: Type) -> tuple[Type, ...]:
    """The children of `t`, left to right, as `map_children` visits them."""
    cls = t.__class__
    if cls is TApp:
        return t.args
    if cls is TAt:
        return (t.ty,)
    if cls is TBar:
        return (t.carrier, t.perm)
    if cls is TStar:
        return t.items
    if cls is TVar or cls is TSingleton or cls is TMeta or cls is TEmpty:
        return ()
    if cls is TConcrete:
        ftys = tuple([ft for _, ft in t.fields])
        return ftys if t.bar is None else ftys + (t.bar,)
    if cls is TTuple:
        return tuple([c.ty for c in t.comps])
    if cls is TArrow:
        return (t.domain, t.codomain)
    if cls is TForall or cls is TExists:
        return (t.body,)
    raise TypeError(f"unknown type node {t!r}")


def has_meta(t: Type) -> bool:
    """Does `t` contain a `TMeta`? Nodes are immutable, so the answer is
    computed once per node and kept in its `_has_meta` slot."""
    try:
        return t._has_meta
    except AttributeError:
        pass
    found = t.__class__ is TMeta or any(map(has_meta, children(t)))
    _set_has_meta(t, found)
    return found


def plain(t: Type) -> bool:
    """Does `t` bind no name and hold no `TMeta`? A name is bound by a
    `TForall`, a `TExists` or a named tuple component. `Subsumer.unify` of
    a plain type against an equal one binds nothing and draws no fresh
    name. Kept in the `_plain` slot."""
    try:
        return t._plain
    except AttributeError:
        pass
    cls = t.__class__
    if cls is TMeta or cls is TForall or cls is TExists:
        found = False
    elif cls is TTuple and any(c.name is not None for c in t.comps):
        found = False
    else:
        found = all(map(plain, children(t)))
    _set_plain(t, found)
    return found


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


@node
class Pattern:
    pass


@node
class PVar(Pattern):
    name: str
    span: Span = _span_field()


@node
class PTuple(Pattern):
    items: tuple[Pattern, ...]
    span: Span = _span_field()


@node
class PTag(Pattern):
    tag: str
    fields: tuple[tuple[str, Pattern], ...]
    span: Span = _span_field()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@node
class Expr:
    pass


@node
class EVar(Expr):
    name: str
    span: Span = _span_field()


@node
class EInt(Expr):
    value: int
    span: Span = _span_field()


@node
class EBool(Expr):
    value: bool
    span: Span = _span_field()


@node
class ELet(Expr):
    pattern: Pattern
    bound: Expr
    body: Expr
    span: Span = _span_field()


@node
class ECall(Expr):
    callee: Expr
    arg: Expr
    type_args: tuple[Type, ...] | None = None
    span: Span = _span_field()


@node
class EMatch(Expr):
    scrutinee: Expr
    branches: tuple[tuple[Pattern, Expr], ...]
    span: Span = _span_field()


@node
class EIf(Expr):
    cond: Expr
    then: Expr
    otherwise: Expr
    span: Span = _span_field()


@node
class EField(Expr):
    obj: Expr
    name: str
    span: Span = _span_field()


@node
class EAssign(Expr):
    obj: Expr
    name: str
    value: Expr
    span: Span = _span_field()


@node
class ETagUpdate(Expr):
    obj: Expr
    tag: str
    fields: tuple[tuple[str, Expr], ...]
    span: Span = _span_field()


@node
class EConstruct(Expr):
    tag: str
    fields: tuple[tuple[str, Expr], ...]
    span: Span = _span_field()


@node
class ETuple(Expr):
    items: tuple[Expr, ...]
    span: Span = _span_field()


@node
class ELambda(Expr):
    domain: Type
    codomain: Type | None
    body: Expr
    span: Span = _span_field()


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@node
class Branch:
    tag: str
    fields: tuple[tuple[str, Type], ...]
    bar: Type | None
    span: Span = _span_field()


@node
class Decl:
    pass


@node
class DData(Decl):
    name: str
    mutable: bool
    params: tuple[tuple[str, Kind], ...]
    branches: tuple[Branch, ...]
    span: Span = _span_field()


@node
class DAlias(Decl):
    name: str
    params: tuple[tuple[str, Kind], ...]
    body: Type
    span: Span = _span_field()


@node
class DAbstract(Decl):
    name: str
    params: tuple[tuple[str, Kind], ...]
    span: Span = _span_field()


@node
class DValSig(Decl):
    name: str
    ty: Type
    span: Span = _span_field()


@node
class DValDef(Decl):
    name: str
    params: tuple[str, ...]
    body: Expr
    span: Span = _span_field()


@node
class SourceFile:
    path: str
    decls: tuple[Decl, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceFile):
            return NotImplemented
        return self.decls == other.decls  # path is not structural

    def __hash__(self) -> int:
        return hash(self.decls)


# ---------------------------------------------------------------------------
# Scopes
# ---------------------------------------------------------------------------


_ABSENT = object()  # in a trail: the name was not bound


class Scope(dict):
    """The names in scope, each mapped to what it stands for, with an undo
    trail: `enter` hides a name's old binding, and `undo_to` a `mark` gives
    back every binding made since. A binder costs the names it binds, never
    a copy of the map; a lookup is a plain dict lookup."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trail: list[tuple[str, object]] = []

    def enter(self, name: str, value: object) -> None:
        self.trail.append((name, self.get(name, _ABSENT)))
        self[name] = value

    def mark(self) -> int:
        return len(self.trail)

    def undo_to(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            name, old = trail.pop()
            if old is _ABSENT:
                del self[name]
            else:
                self[name] = old
