"""AST node definitions for the surface language.

Every node carries a source span (byte offset + length) that is excluded
from structural equality, so two parses of the same text compare equal
even when whitespace differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_


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


# ---------------------------------------------------------------------------
# Kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    pass


@dataclass(frozen=True)
class KType(Kind):
    def __str__(self) -> str:
        return "type"


@dataclass(frozen=True)
class KPerm(Kind):
    def __str__(self) -> str:
        return "perm"


@dataclass(frozen=True)
class KArrow(Kind):
    params: tuple[Kind, ...]
    result: Kind

    def __str__(self) -> str:
        args = ", ".join(str(p) for p in self.params)
        return f"({args}) -> {self.result}"


KIND_TYPE = KType()
KIND_PERM = KPerm()


# ---------------------------------------------------------------------------
# Types (and permissions; permissions are types of kind PERM)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Type:
    """Type nodes are immutable and have no per-instance dict: each concrete
    node stores its fields in slots, plus the `_has_meta` slot declared
    here, which `has_meta` fills in the first time it is asked
    whether the node contains a `TMeta`."""

    __slots__ = ("_has_meta",)


@dataclass(frozen=True, slots=True)
class TVar(Type):
    name: str
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class TMeta(Type):
    """Unification variable introduced by the checker; never produced by parsing."""

    name: str
    kind: Kind = KIND_TYPE
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class TApp(Type):
    head: str
    args: tuple[Type, ...]
    span: Span = _span_field()


@dataclass(frozen=True)
class TupleComp:
    name: str | None
    ty: Type
    consumed: bool = False


@dataclass(frozen=True, slots=True)
class TTuple(Type):
    comps: tuple[TupleComp, ...]
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class TArrow(Type):
    domain: Type
    codomain: Type
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class TBar(Type):
    """`(t | p)`: the carrier type together with a permission."""

    carrier: Type
    perm: Type
    consumed: bool = False
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class TConcrete(Type):
    """Structural tagged-record type, e.g. `Node { left = l; elem = x; right = r }`.

    Field values are types; a field bound to a name is a Singleton.
    """

    tag: str
    fields: tuple[tuple[str, Type], ...]
    bar: Type | None = None
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class TSingleton(Type):
    name: str
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class TForall(Type):
    binders: tuple[tuple[str, Kind], ...]
    body: Type
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class TExists(Type):
    binders: tuple[tuple[str, Kind], ...]
    body: Type
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class TAt(Type):
    """Anchored permission `x @ t`."""

    anchor: str
    ty: Type
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class TStar(Type):
    """Permission conjunction `p * q * ...`, kept flat after normalization."""

    items: tuple[Type, ...]
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class TEmpty(Type):
    span: Span = _span_field()


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
    object.__setattr__(t, "_has_meta", found)
    return found


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pattern:
    pass


@dataclass(frozen=True)
class PVar(Pattern):
    name: str
    span: Span = _span_field()


@dataclass(frozen=True)
class PTuple(Pattern):
    items: tuple[Pattern, ...]
    span: Span = _span_field()


@dataclass(frozen=True)
class PTag(Pattern):
    tag: str
    fields: tuple[tuple[str, Pattern], ...]
    span: Span = _span_field()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class EVar(Expr):
    name: str
    span: Span = _span_field()


@dataclass(frozen=True)
class EInt(Expr):
    value: int
    span: Span = _span_field()


@dataclass(frozen=True)
class EBool(Expr):
    value: bool
    span: Span = _span_field()


@dataclass(frozen=True)
class ELet(Expr):
    pattern: Pattern
    bound: Expr
    body: Expr
    span: Span = _span_field()


@dataclass(frozen=True)
class ECall(Expr):
    callee: Expr
    arg: Expr
    type_args: tuple[Type, ...] | None = None
    span: Span = _span_field()


@dataclass(frozen=True)
class EMatch(Expr):
    scrutinee: Expr
    branches: tuple[tuple[Pattern, Expr], ...]
    span: Span = _span_field()


@dataclass(frozen=True)
class EIf(Expr):
    cond: Expr
    then: Expr
    otherwise: Expr
    span: Span = _span_field()


@dataclass(frozen=True)
class EField(Expr):
    obj: Expr
    name: str
    span: Span = _span_field()


@dataclass(frozen=True)
class EAssign(Expr):
    obj: Expr
    name: str
    value: Expr
    span: Span = _span_field()


@dataclass(frozen=True)
class ETagUpdate(Expr):
    obj: Expr
    tag: str
    fields: tuple[tuple[str, Expr], ...]
    span: Span = _span_field()


@dataclass(frozen=True)
class EConstruct(Expr):
    tag: str
    fields: tuple[tuple[str, Expr], ...]
    span: Span = _span_field()


@dataclass(frozen=True)
class ETuple(Expr):
    items: tuple[Expr, ...]
    span: Span = _span_field()


@dataclass(frozen=True)
class ELambda(Expr):
    domain: Type
    codomain: Type | None
    body: Expr
    span: Span = _span_field()


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Branch:
    tag: str
    fields: tuple[tuple[str, Type], ...]
    bar: Type | None
    span: Span = _span_field()


@dataclass(frozen=True)
class Decl:
    pass


@dataclass(frozen=True)
class DData(Decl):
    name: str
    mutable: bool
    params: tuple[tuple[str, Kind], ...]
    branches: tuple[Branch, ...]
    span: Span = _span_field()


@dataclass(frozen=True)
class DAlias(Decl):
    name: str
    params: tuple[tuple[str, Kind], ...]
    body: Type
    span: Span = _span_field()


@dataclass(frozen=True)
class DAbstract(Decl):
    name: str
    params: tuple[tuple[str, Kind], ...]
    span: Span = _span_field()


@dataclass(frozen=True)
class DValSig(Decl):
    name: str
    ty: Type
    span: Span = _span_field()


@dataclass(frozen=True)
class DValDef(Decl):
    name: str
    params: tuple[str, ...]
    body: Expr
    span: Span = _span_field()


@dataclass(frozen=True)
class SourceFile:
    path: str
    decls: tuple[Decl, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceFile):
            return NotImplemented
        return self.decls == other.decls  # path is not structural

    def __hash__(self) -> int:
        return hash(self.decls)
