"""AST node definitions for the surface language.

Every node carries a source span (byte offset + length) that is excluded
from structural equality, so two parses of the same text compare equal
even when whitespace differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    the new children."""
    if isinstance(t, (TVar, TMeta, TEmpty, TSingleton)):
        return t
    if isinstance(t, TApp):
        args = tuple(map(g, t.args))
        return t if _same(args, t.args) else replace(t, args=args)
    if isinstance(t, TArrow):
        dom, cod = g(t.domain), g(t.codomain)
        if dom is t.domain and cod is t.codomain:
            return t
        return replace(t, domain=dom, codomain=cod)
    if isinstance(t, TTuple):
        tys = [g(c.ty) for c in t.comps]
        if _same(tys, [c.ty for c in t.comps]):
            return t
        comps = tuple(TupleComp(c.name, ty, c.consumed) for c, ty in zip(t.comps, tys))
        return replace(t, comps=comps)
    if isinstance(t, TBar):
        carrier, perm = g(t.carrier), g(t.perm)
        if carrier is t.carrier and perm is t.perm:
            return t
        return replace(t, carrier=carrier, perm=perm)
    if isinstance(t, TConcrete):
        ftys = [g(ft) for _, ft in t.fields]
        bar = g(t.bar) if t.bar is not None else None
        if bar is t.bar and _same(ftys, [ft for _, ft in t.fields]):
            return t
        fields = tuple((n, ft) for (n, _), ft in zip(t.fields, ftys))
        return replace(t, fields=fields, bar=bar)
    if isinstance(t, (TForall, TExists)):
        body = g(t.body)
        return t if body is t.body else replace(t, body=body)
    if isinstance(t, TAt):
        ty = g(t.ty)
        return t if ty is t.ty else replace(t, ty=ty)
    if isinstance(t, TStar):
        items = tuple(map(g, t.items))
        return t if _same(items, t.items) else replace(t, items=items)
    raise TypeError(f"unknown type node {t!r}")


def _same(xs, ys) -> bool:
    return all(map(is_, xs, ys))


def children(t: Type) -> list[Type]:
    """The children of `t`, left to right, as `map_children` visits them."""
    out: list[Type] = []
    map_children(t, lambda c: out.append(c) or c)
    return out


def has_meta(t: Type) -> bool:
    """Does `t` contain a `TMeta`? Nodes are immutable, so the answer is
    computed once per node and kept in its `_has_meta` slot."""
    try:
        return t._has_meta
    except AttributeError:
        pass
    found = isinstance(t, TMeta)
    if not found:

        def probe(c: Type) -> Type:
            nonlocal found
            found = found or has_meta(c)
            return c

        map_children(t, probe)
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
