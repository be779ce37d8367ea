"""AST node definitions for the surface language.

Every syntax node carries a source span (a `Span`: byte offset and
length) that is excluded from structural equality, so two parses of the
same text compare equal even when whitespace differs.

Every node class, here and in `perms` and `check`, is made by `node` from
the field annotations and defaults of its class body: a plain class with
slots and no instance dict, whose `__init__` stores each field, and whose
`==`, hash and `repr` go by its fields; no class body writes its own.
`fields` and `replace` read a node class's fields. No node is assigned
after construction, which `tests/test_nodes.py` checks statically over
the whole program. That keeps sound the slots in which a type node keeps
its hash, what `has_meta` found and what `plain` found: they hold only
while the node never changes, and nodes are shared between types, checks
and memos.

A type node's children are read by `children` and replaced by `rebuild`,
which keeps every other field and gives back the node itself when no
child changed. The traversals that make types anew (`map_children`,
`perms.subst_type`, `kinds.Resolver.resolve_type`) make a node through
`rebuild` unless they change a field besides its children too, as
`subst_type` renames an anchor or a binder.
"""

from __future__ import annotations

from operator import is_


MISSING = object()  # the default of a field that has none


class Field:
    """A field of a node class: its name, its default (`MISSING` if none),
    and whether `==` compares it and `repr` shows it. A class body writes
    `name: T = Field(default, compare=False)` to change these; `node`
    fills in the name."""

    __slots__ = ("name", "default", "compare", "repr")

    def __init__(self, default: object = MISSING, *, compare: bool = True, repr: bool = True):
        self.name = ""
        self.default = default
        self.compare = compare
        self.repr = repr


def node(cls: type | None = None, *, keep_hash: bool = False):
    """Make a node class from the class `cls`: its fields are those of its
    node base, then one per annotation of its body, in order, each with
    the default the body gives it. The new class has a slot per field of
    its own, beside any `__slots__` the body declares, and one `exec`
    writes its methods, over any the body writes:

    - `__init__(self, *fields)`, which stores each field;
    - `__eq__`, true for a node of the very same class whose compared
      fields are equal, and `__hash__` over the compared fields;
    - `__repr__`, as `Name(field=value, ...)`.

    With `keep_hash`, the hash also covers the class and is kept in the
    node's `_hash` slot (a `Type`'s), so that a memo lookup hashes no
    subtree twice; a leaf type's hash walks no subtree and need not."""
    if cls is None:
        return lambda cls: node(cls, keep_hash=keep_hash)
    body = cls.__dict__
    own = []
    for name in body.get("__annotations__", ()):
        given = body.get(name, MISSING)
        f = given if given.__class__ is Field else Field(given)
        f.name = name
        own.append(f)
    every = getattr(cls, "_node_fields", ()) + tuple(own)
    slots = tuple(body.get("__slots__", ())) + tuple(f.name for f in own)

    params = [f.name if f.default is MISSING else f"{f.name}=_default_{f.name}" for f in every]
    lines = [f"def __init__(self, {', '.join(params)}):"]
    lines += [f"    self.{f.name} = {f.name}" for f in every] or ["    pass"]
    compared = [f.name for f in every if f.compare]
    mine, theirs = _fields_tuple("self", compared), _fields_tuple("other", compared)
    lines += [
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return {mine} == {theirs}",
        "    return NotImplemented",
        "def __hash__(self):",
    ]
    if keep_hash:
        lines += [
            "    h = getattr(self, '_hash', None)",
            "    if h is None:",
            f"        h = self._hash = hash({_fields_tuple('self', [*compared, '__class__'])})",
            "    return h",
        ]
    else:
        lines += [f"    return hash({mine})"]
    shown = ", ".join(f"{f.name}={{self.{f.name}!r}}" for f in every if f.repr)
    lines += ["def __repr__(self):", f'    return self.__class__.__qualname__ + f"({shown})"']
    ns: dict[str, object] = {f"_default_{f.name}": f.default for f in every}
    exec("\n".join(lines), ns)

    skip = {*slots, "__dict__", "__weakref__"}
    made = {name: value for name, value in body.items() if name not in skip}
    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        made[name] = ns[name]
        ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
    made.update(__slots__=slots, __qualname__=cls.__qualname__, _node_fields=every)
    return type(cls)(cls.__name__, cls.__bases__, made)


def _fields_tuple(owner: str, names: list[str]) -> str:
    """The source text of a tuple of the attributes `names` of `owner`."""
    return "(" + "".join(f"{owner}.{name}, " for name in names) + ")"


def fields(node_or_class: object) -> tuple[Field, ...]:
    """The fields of a node class, or of a node's class, in order."""
    return node_or_class._node_fields  # type: ignore[attr-defined]


def replace(n, /, **changes):
    """A node of `n`'s class with `changes` made to its fields; every other
    field keeps `n`'s value."""
    for f in fields(n):
        if f.name not in changes:
            changes[f.name] = getattr(n, f.name)
    return n.__class__(**changes)


@node
class Span:
    """A byte offset and a length."""

    start: int
    length: int

    def merge(self, other: Span) -> Span:
        start = min(self.start, other.start)
        end = max(self.start + self.length, other.start + other.length)
        return Span(start, end - start)


DUMMY = Span(0, 0)


def _span_field() -> Span:
    return Field(DUMMY, compare=False, repr=False)  # type: ignore[return-value]


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
    """Type nodes are made by `node`, with no per-instance dict. Each
    concrete node stores its fields in slots, plus the three slots
    declared here, each filled in the first time it is asked for and kept,
    which is sound only because a node never changes, as the static test
    in `tests/test_nodes.py` checks: `_has_meta`, whether the node
    contains a `TMeta` (`has_meta`); `_plain`, whether it binds
    no name and holds no `TMeta` (`plain`); and `_hash`, the structural
    hash of a node with children (`node`'s `keep_hash`). A leaf's class
    gives the first two as constants, which no node of it ever misses."""

    __slots__ = ("_has_meta", "_plain", "_hash")


@node
class TVar(Type):
    name: str
    span: Span = _span_field()

    _has_meta = False
    _plain = True


@node
class TMeta(Type):
    """Unification variable introduced by the checker; never produced by parsing."""

    name: str
    kind: Kind = KIND_TYPE
    span: Span = _span_field()

    _has_meta = True
    _plain = False


@node(keep_hash=True)
class TApp(Type):
    head: str
    args: tuple[Type, ...]
    span: Span = _span_field()


@node
class TupleComp:
    name: str | None
    ty: Type
    consumed: bool = False


@node(keep_hash=True)
class TTuple(Type):
    comps: tuple[TupleComp, ...]
    span: Span = _span_field()


@node(keep_hash=True)
class TArrow(Type):
    domain: Type
    codomain: Type
    span: Span = _span_field()


@node(keep_hash=True)
class TBar(Type):
    """`(t | p)`: the carrier type together with a permission."""

    carrier: Type
    perm: Type
    consumed: bool = False
    span: Span = _span_field()


@node(keep_hash=True)
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

    _has_meta = False
    _plain = True


@node(keep_hash=True)
class TForall(Type):
    binders: tuple[tuple[str, Kind], ...]
    body: Type
    span: Span = _span_field()


@node(keep_hash=True)
class TExists(Type):
    binders: tuple[tuple[str, Kind], ...]
    body: Type
    span: Span = _span_field()


@node(keep_hash=True)
class TAt(Type):
    """Anchored permission `x @ t`."""

    anchor: str
    ty: Type
    span: Span = _span_field()


@node(keep_hash=True)
class TStar(Type):
    """Permission conjunction `p * q * ...`, kept flat after normalization."""

    items: tuple[Type, ...]
    span: Span = _span_field()


@node
class TEmpty(Type):
    span: Span = _span_field()

    _has_meta = False
    _plain = True


def children(t: Type) -> tuple[Type, ...]:
    """The children of `t`, left to right: the field types of a concrete
    type come before its bar."""
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


def rebuild(t: Type, old, new) -> Type:
    """`t` itself when each item of `new` is the very object at the same
    place in `old`, the children of `t`; else a copy of `t` with `new` as
    its children and every other field kept: head, tag, anchor, component
    names, `consumed` flags, binders, whether a concrete type has a bar,
    and span. It dispatches as `children` does; these two are the only
    per-class tables of a type's children."""
    if all(map(is_, new, old)):  # `same_items`, without a call of its own
        return t
    cls = t.__class__
    if cls is TApp:
        return TApp(t.head, tuple(new), t.span)
    if cls is TAt:
        return TAt(t.anchor, new[0], t.span)
    if cls is TBar:
        return TBar(new[0], new[1], t.consumed, t.span)
    if cls is TStar:
        return TStar(tuple(new), t.span)
    if cls is TConcrete:
        fields = tuple([(name, ft) for (name, _), ft in zip(t.fields, new)])
        return TConcrete(t.tag, fields, None if t.bar is None else new[-1], t.span)
    if cls is TTuple:
        comps = tuple([TupleComp(c.name, ty, c.consumed) for c, ty in zip(t.comps, new)])
        return TTuple(comps, t.span)
    if cls is TArrow:
        return TArrow(new[0], new[1], t.span)
    if cls is TForall or cls is TExists:
        return cls(t.binders, new[0], t.span)
    raise TypeError(f"unknown type node {t!r}")


def map_children(t: Type, g, *args) -> Type:
    """`t` with `g(child, *args)` for each child, left to right: `t` itself
    when every child comes back as the same object (`rebuild`)."""
    kids = children(t)
    new = []
    for k in kids:  # on Python 3.11 a comprehension would be a call of its own
        new.append(g(k, *args))
    return rebuild(t, kids, new)


def same_items(xs, ys) -> bool:
    """Is each item of `xs` the very object at the same place in `ys`?"""
    return all(map(is_, xs, ys))


def has_meta(t: Type) -> bool:
    """Does `t` contain a `TMeta`? Nodes are immutable, so the answer is
    computed once per node and kept in its `_has_meta` slot; a leaf's class
    gives it as a constant. `getattr` with a default reads an unset slot
    without raising in Python: a raised and caught `AttributeError` would
    cost more than twice as much, once per node."""
    found = getattr(t, "_has_meta", None)
    if found is None:
        found = any(map(has_meta, children(t)))
        t._has_meta = found
    return found


def plain(t: Type) -> bool:
    """Does `t` bind no name and hold no `TMeta`? A name is bound by a
    `TForall`, a `TExists` or a named tuple component. `Subsumer.unify` of
    a plain type against an equal one binds nothing and draws no fresh
    name. Kept in the `_plain` slot, and read as `has_meta` reads its
    own. A tuple's names are tested over a list: `any` over a generator
    that stops early leaves it for a `GeneratorExit` to close."""
    found = getattr(t, "_plain", None)
    if found is None:
        cls = t.__class__
        if cls is TForall or cls is TExists:
            found = False
        elif cls is TTuple and any([c.name is not None for c in t.comps]):
            found = False
        else:
            found = all(map(plain, children(t)))
        t._plain = found
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
    """A definition. One made by `later` is `known` clean
    (`driver.load_text`). It has no body until the body is first read,
    when `_fill()` makes the definition and the slot keeps its body: so the
    front end need not lex, parse or resolve it (`parser.Parser.parse_file`,
    `kinds.Resolver.resolve_file`), nor the checker check it, unless
    something reads its body."""

    __slots__ = ("_fill", "known")

    name: str
    params: tuple[str, ...]
    body: Expr
    span: Span = _span_field()

    @staticmethod
    def later(name: str, params: tuple[str, ...], span: Span, fill) -> DValDef:
        d = DValDef.__new__(DValDef)
        d.name, d.params, d.span, d._fill, d.known = name, params, span, fill, True
        return d

    def __getattr__(self, name: str):
        # Python calls this only for a slot that is not set: `known` of a
        # definition not made by `later`, or the body of one that is.
        if name == "known":
            return False
        if name != "body":
            raise AttributeError(name)
        body = self.body = self._fill().body
        self._fill = None
        return body


@node
class SourceFile:
    path: str = Field(compare=False)  # not structural
    decls: tuple[Decl, ...]
    # The text of each declaration, from its first token to the next
    # declaration's or to the end of the file (`parser.tokenize`).
    texts: tuple[str, ...] = Field(compare=False, repr=False)
    # The key of each definition in the driver's memo (`driver.load_text`);
    # none where the file is loaded outside the driver.
    keys: tuple[tuple, ...] = Field((), compare=False, repr=False)


class Keyed:
    """The argument of a memo (`functools.lru_cache`) whose answer is a
    function of the flat `key` (strings, names), by which alone it is
    compared and hashed: no lookup walks a definition's structure. The
    memoised function `take`s the value it computes the answer from, so
    the memo, which keeps its argument, keeps only the key."""

    __slots__ = ("key", "_value")

    def __init__(self, key: object, value: object):
        self.key = key
        self._value = value

    def __eq__(self, other: Keyed) -> bool:  # type: ignore[override]
        # Only with another `Keyed`: a memo's keys are of one kind.
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def take(self) -> object:
        value, self._value = self._value, None
        return value


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
