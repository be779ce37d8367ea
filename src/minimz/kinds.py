"""Name resolution and kind checking.

Runs after parsing and before permission checking. Rewrites the AST so
that nullary type-constructor references become `TApp(name, ())`, the
builtin `empty` becomes `TEmpty`, and every type is well-kinded. Value
anchors inside types (`x @ t`, `=x`, singleton fields) are checked
against the lexical value scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .ast import (
    Branch,
    DAbstract,
    DAlias,
    DData,
    DValDef,
    DValSig,
    Decl,
    EAssign,
    EBool,
    ECall,
    EConstruct,
    EField,
    EIf,
    EInt,
    ELambda,
    ELet,
    EMatch,
    ETagUpdate,
    ETuple,
    EVar,
    Expr,
    KArrow,
    KIND_PERM,
    KIND_TYPE,
    Kind,
    PTag,
    PTuple,
    PVar,
    Pattern,
    SourceFile,
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
    same_items,
)


class ResolveError(Exception):
    def __init__(self, code: str, message: str, span: Span):
        super().__init__(message)
        self.code = code
        self.message = message
        self.span = span


@dataclass
class DataInfo:
    name: str
    mutable: bool
    params: tuple[tuple[str, Kind], ...]
    branches: dict[str, Branch] = field(default_factory=dict)

    @property
    def kind(self) -> Kind:
        if not self.params:
            return KIND_TYPE
        return KArrow(tuple(k for _, k in self.params), KIND_TYPE)


@dataclass
class AliasInfo:
    name: str
    params: tuple[tuple[str, Kind], ...]
    body: Type | None = None

    @property
    def kind(self) -> Kind:
        result = KIND_TYPE if self.body is None else kind_tag(self.body)
        if not self.params:
            return result
        return KArrow(tuple(k for _, k in self.params), result)


@dataclass
class AbstractInfo:
    name: str
    params: tuple[tuple[str, Kind], ...]

    @property
    def kind(self) -> Kind:
        if not self.params:
            return KIND_TYPE
        return KArrow(tuple(k for _, k in self.params), KIND_TYPE)


@dataclass
class PrimInfo:
    """Builtin base type (int, bool)."""

    name: str

    params: tuple[tuple[str, Kind], ...] = ()

    @property
    def kind(self) -> Kind:
        return KIND_TYPE


TypeInfo = DataInfo | AliasInfo | AbstractInfo | PrimInfo


def kind_tag(t: Type) -> Kind:
    """Shallow syntactic kind of a resolved alias body (TYPE vs PERM)."""
    if isinstance(t, (TAt, TStar, TEmpty)):
        return KIND_PERM
    if isinstance(t, (TForall, TExists)):
        return kind_tag(t.body)
    return KIND_TYPE


@dataclass
class Env:
    """Resolution environment: type constructors, tags, and value signatures."""

    types: dict[str, TypeInfo] = field(default_factory=dict)
    tags: dict[str, tuple[str, Branch]] = field(default_factory=dict)
    sigs: dict[str, Type] = field(default_factory=dict)
    # `perms.duplicability` and `perms.expand_alias` answers for this
    # environment; a clone starts with neither.
    dup_memo: dict[Type, str] = field(default_factory=dict, compare=False, repr=False)
    alias_memo: dict[Type, Type] = field(default_factory=dict, compare=False, repr=False)

    def lookup_type(self, name: str, span: Span) -> TypeInfo:
        info = self.types.get(name)
        if info is None:
            raise ResolveError("E-UNBOUND", f"unbound type name {name!r}", span)
        return info

    def data_of_tag(self, tag: str, span: Span) -> tuple[str, Branch]:
        entry = self.tags.get(tag)
        if entry is None:
            raise ResolveError("E-MATCH", f"unknown data tag {tag!r}", span)
        return entry

    def clone(self) -> "Env":
        return Env(dict(self.types), dict(self.tags), dict(self.sigs))


@dataclass
class Scope:
    """Lexical scopes used while resolving one declaration.

    The local value names in scope are one set for the whole declaration.
    A binder's names `enter` it for the binder's scope and `leave` it
    after, so a step costs the names it binds, not the size of the scope.
    The top-level values in scope are the keys of `sigs`, never copied.
    """

    tyvars: dict[str, Kind] = field(default_factory=dict)
    values: set[str] = field(default_factory=set)
    sigs: dict[str, Type] = field(default_factory=dict)

    def child(self) -> "Scope":
        """A scope for a quantifier's body: its own copy of the type
        variables, the same value names."""
        return Scope(dict(self.tyvars), self.values, self.sigs)

    def has_value(self, name: str) -> bool:
        return name in self.values or name in self.sigs

    def enter(self, name: str, entered: list[str]) -> None:
        """Bring `name` into scope, and note it in `entered` unless it was
        in scope already."""
        if name not in self.values:
            self.values.add(name)
            entered.append(name)

    def leave(self, entered: list[str]) -> None:
        self.values.difference_update(entered)

    def bind_tyvar(self, name: str, kind: Kind, span: Span) -> None:
        old = self.tyvars.get(name)
        if old is not None and old != kind:
            raise ResolveError(
                "E-KIND", f"binder {name!r} shadows a binder of a different kind", span
            )
        self.tyvars[name] = kind


class Resolver:
    def __init__(self, env: Env | None = None):
        self.env = env if env is not None else Env()
        if "int" not in self.env.types:
            self.env.types["int"] = PrimInfo("int")
            self.env.types["bool"] = PrimInfo("bool")

    # -- declaration registration -------------------------------------------

    def register(self, decl: Decl) -> None:
        if isinstance(decl, (DData, DAlias, DAbstract)):
            if decl.name in self.env.types:
                raise ResolveError("E-KIND", f"duplicate type name {decl.name!r}", decl.span)
            if isinstance(decl, DData):
                info = DataInfo(decl.name, decl.mutable, decl.params)
                for branch in decl.branches:
                    if branch.tag in self.env.tags:
                        raise ResolveError(
                            "E-KIND", f"duplicate data tag {branch.tag!r}", branch.span
                        )
                    self.env.tags[branch.tag] = (decl.name, branch)
                    info.branches[branch.tag] = branch
                self.env.types[decl.name] = info
            elif isinstance(decl, DAlias):
                self.env.types[decl.name] = AliasInfo(decl.name, decl.params)
            else:
                self.env.types[decl.name] = AbstractInfo(decl.name, decl.params)

    def resolve_file(self, file: SourceFile) -> SourceFile:
        for decl in file.decls:
            self.register(decl)
        resolved: list[Decl] = []
        defs_seen: set[str] = set()
        for decl in file.decls:
            if isinstance(decl, DData):
                scope = Scope()
                for name, kind in decl.params:
                    scope.bind_tyvar(name, kind, decl.span)
                branches = []
                for branch in decl.branches:
                    fields = tuple(
                        (fname, self.check_kind(self.resolve_type(fty, scope), KIND_TYPE, scope))
                        for fname, fty in branch.fields
                    )
                    bar = None
                    if branch.bar is not None:
                        bar = self.check_kind(self.resolve_type(branch.bar, scope), KIND_PERM, scope)
                    branches.append(replace(branch, fields=fields, bar=bar))
                info = self.env.types[decl.name]
                assert isinstance(info, DataInfo)
                new_decl = replace(decl, branches=tuple(branches))
                for branch in branches:
                    info.branches[branch.tag] = branch
                    self.env.tags[branch.tag] = (decl.name, branch)
                resolved.append(new_decl)
            elif isinstance(decl, DAlias):
                scope = Scope()
                for name, kind in decl.params:
                    scope.bind_tyvar(name, kind, decl.span)
                body = self.resolve_type(decl.body, scope)
                info = self.env.types[decl.name]
                assert isinstance(info, AliasInfo)
                info.body = body
                resolved.append(replace(decl, body=body))
            elif isinstance(decl, DAbstract):
                resolved.append(decl)
            elif isinstance(decl, DValSig):
                if decl.name in self.env.sigs:
                    raise ResolveError(
                        "E-KIND", f"duplicate value signature {decl.name!r}", decl.span
                    )
                ty = self.check_kind(self.resolve_type(decl.ty, Scope()), KIND_TYPE, Scope())
                self.env.sigs[decl.name] = ty
                resolved.append(replace(decl, ty=ty))
            elif isinstance(decl, DValDef):
                sig = self.env.sigs.get(decl.name)
                if sig is None:
                    raise ResolveError(
                        "E-UNBOUND",
                        f"definition of {decl.name!r} has no preceding signature",
                        decl.span,
                    )
                if decl.name in defs_seen:
                    raise ResolveError(
                        "E-KIND", f"duplicate definition of {decl.name!r}", decl.span
                    )
                defs_seen.add(decl.name)
                resolved.append(self.resolve_def(decl, sig))
            else:
                resolved.append(decl)
        self.check_alias_cycles()
        return SourceFile(file.path, tuple(resolved))

    def check_alias_cycles(self) -> None:
        graph: dict[str, set[str]] = {}
        for name, info in self.env.types.items():
            if isinstance(info, AliasInfo) and info.body is not None:
                graph[name] = _alias_refs(info.body)
        state: dict[str, int] = {}

        def visit(name: str, path: list[str]) -> None:
            if state.get(name) == 2:
                return
            if state.get(name) == 1:
                cycle = " -> ".join(path + [name])
                raise ResolveError("E-KIND", f"cyclic alias: {cycle}", Span(0, 0))
            state[name] = 1
            for dep in graph.get(name, ()):
                if dep in graph:
                    visit(dep, path + [name])
            state[name] = 2

        for name in graph:
            visit(name, [])

    # -- types --------------------------------------------------------------

    def resolve_type(self, t: Type, scope: Scope) -> Type:
        """`t` resolved in `scope`; like `ast.map_children`, a node whose
        children all come back as the same objects comes back itself."""
        cls = t.__class__
        if cls is TVar:
            if t.name in scope.tyvars:
                return t
            if t.name == "empty":
                return TEmpty(t.span)
            info = self.env.lookup_type(t.name, t.span)
            if info.params:
                raise ResolveError(
                    "E-KIND",
                    f"type constructor {t.name!r} expects {len(info.params)} argument(s)",
                    t.span,
                )
            return TApp(t.name, (), t.span)
        if cls is TApp:
            if t.head in scope.tyvars:
                raise ResolveError(
                    "E-KIND", f"type variable {t.head!r} cannot take arguments", t.span
                )
            info = self.env.lookup_type(t.head, t.span)
            if len(info.params) != len(t.args):
                raise ResolveError(
                    "E-KIND",
                    f"type constructor {t.head!r} expects {len(info.params)} argument(s), "
                    f"got {len(t.args)}",
                    t.span,
                )
            args = tuple(
                [
                    self.check_kind(self.resolve_type(arg, scope), pkind, scope)
                    for (_, pkind), arg in zip(info.params, t.args)
                ]
            )
            return t if same_items(args, t.args) else TApp(t.head, args, t.span)
        if cls is TArrow:
            entered: list[str] = []
            dom = self.resolve_domain(t.domain, scope, entered)
            cod = self.check_kind(self.resolve_type(t.codomain, scope), KIND_TYPE, scope)
            scope.leave(entered)
            if dom is t.domain and cod is t.codomain:
                return t
            return TArrow(dom, cod, t.span)
        if cls is TTuple or cls is TBar:
            entered = []
            resolved = self.resolve_domain(t, scope, entered)
            scope.leave(entered)
            return resolved
        if cls is TConcrete:
            _, branch = self.env.data_of_tag(t.tag, t.span)
            declared = [f for f, _ in branch.fields]
            actual = [f for f, _ in t.fields]
            if declared != actual:
                raise ResolveError(
                    "E-MATCH",
                    f"fields of {t.tag!r} must be exactly {declared}, got {actual}",
                    t.span,
                )
            ftys = [self.resolve_type(fty, scope) for _, fty in t.fields]
            bar = None
            if t.bar is not None:
                bar = self.check_kind(self.resolve_type(t.bar, scope), KIND_PERM, scope)
            if bar is t.bar and all(new is old for new, (_, old) in zip(ftys, t.fields)):
                return t
            fields = tuple((fname, fty) for (fname, _), fty in zip(t.fields, ftys))
            return TConcrete(t.tag, fields, bar, t.span)
        if cls is TSingleton:
            if not scope.has_value(t.name):
                raise ResolveError("E-UNBOUND", f"unbound value name {t.name!r}", t.span)
            return t
        if cls is TForall or cls is TExists:
            scope2 = scope.child()
            for name, kind in t.binders:
                scope2.bind_tyvar(name, kind, t.span)
            body = self.resolve_type(t.body, scope2)
            return t if body is t.body else cls(t.binders, body, t.span)
        if cls is TAt:
            if not scope.has_value(t.anchor):
                raise ResolveError("E-UNBOUND", f"unbound value name {t.anchor!r}", t.span)
            ty = self.check_kind(self.resolve_type(t.ty, scope), KIND_TYPE, scope)
            return t if ty is t.ty else TAt(t.anchor, ty, t.span)
        if cls is TStar:
            items = tuple(
                [self.check_kind(self.resolve_type(i, scope), KIND_PERM, scope) for i in t.items]
            )
            return t if same_items(items, t.items) else TStar(items, t.span)
        if cls is TEmpty or cls is TMeta:
            return t
        raise TypeError(f"unknown type node {t!r}")

    def resolve_domain(self, t: Type, scope: Scope, entered: list[str]) -> Type:
        """Resolve a tuple/bar type, bringing component names into `scope`
        left to right. The names that enter are noted in `entered`; the
        caller makes them leave after what they scope over (an arrow's
        codomain, a lambda's body).
        """
        cls = t.__class__
        if cls is TBar:
            carrier = self.resolve_domain(t.carrier, scope, entered)
            perm = self.check_kind(self.resolve_type(t.perm, scope), KIND_PERM, scope)
            if carrier is t.carrier and perm is t.perm:
                return t
            return TBar(carrier, perm, t.consumed, t.span)
        if cls is TTuple:
            tys = []
            for comp in t.comps:
                tys.append(self.check_kind(self.resolve_type(comp.ty, scope), KIND_TYPE, scope))
                if comp.name is not None:
                    scope.enter(comp.name, entered)
            if all(new is comp.ty for new, comp in zip(tys, t.comps)):
                return t
            comps = tuple(TupleComp(c.name, ty, c.consumed) for c, ty in zip(t.comps, tys))
            return TTuple(comps, t.span)
        return self.check_kind(self.resolve_type(t, scope), KIND_TYPE, scope)

    def check_kind(self, t: Type, expected: Kind, scope: Scope) -> Type:
        actual = self.kind_of(t, scope)
        if actual != expected:
            raise ResolveError(
                "E-KIND",
                f"expected kind {expected}, found {actual} for {_describe(t)}",
                getattr(t, "span", Span(0, 0)),
            )
        return t

    def kind_of(self, t: Type, scope: Scope) -> Kind:
        if isinstance(t, TVar):
            return scope.tyvars.get(t.name, KIND_TYPE)
        if isinstance(t, TMeta):
            return t.kind
        if isinstance(t, (TAt, TStar, TEmpty)):
            return KIND_PERM
        if isinstance(t, TApp):
            info = self.env.types.get(t.head)
            if isinstance(info, AliasInfo):
                if info.body is None:
                    raise ResolveError(
                        "E-KIND",
                        f"alias {t.head!r} used before its definition",
                        getattr(t, "span", Span(0, 0)),
                    )
                kind = info.kind
                return kind.result if isinstance(kind, KArrow) else kind
            return KIND_TYPE
        if isinstance(t, (TForall, TExists)):
            scope2 = scope.child()
            for name, kind in t.binders:
                scope2.tyvars[name] = kind
            return self.kind_of(t.body, scope2)
        return KIND_TYPE

    # -- expressions ----------------------------------------------------------

    def resolve_def(self, decl: DValDef, sig: Type) -> DValDef:
        scope = Scope(values=set(decl.params), sigs=self.env.sigs)
        sig_body = sig
        while isinstance(sig_body, TForall):
            for name, kind in sig_body.binders:
                scope.bind_tyvar(name, kind, decl.span)
            sig_body = sig_body.body
        if not isinstance(sig_body, TArrow):
            raise ResolveError(
                "E-KIND", f"signature of {decl.name!r} is not a function type", decl.span
            )
        comps = domain_comps(sig_body.domain)
        if len(comps) != len(decl.params):
            raise ResolveError(
                "E-ARITY",
                f"{decl.name!r} signature expects {len(comps)} parameter(s), "
                f"definition has {len(decl.params)}",
                decl.span,
            )
        body = self.resolve_expr(decl.body, scope)
        return replace(decl, body=body)

    def resolve_expr(self, e: Expr, scope: Scope) -> Expr:
        """`e` resolved in `scope`. Only types change (a lambda's, a call's
        type arguments), so a node whose children all come back as the same
        objects comes back itself."""
        if isinstance(e, EVar):
            if not scope.has_value(e.name):
                raise ResolveError("E-UNBOUND", f"unbound value name {e.name!r}", e.span)
            return e
        if isinstance(e, (EInt, EBool)):
            return e
        if isinstance(e, ELet):
            bound = self.resolve_expr(e.bound, scope)
            entered: list[str] = []
            self.bind_pattern(e.pattern, scope, entered)
            body = self.resolve_expr(e.body, scope)
            scope.leave(entered)
            if bound is e.bound and body is e.body:
                return e
            return replace(e, bound=bound, body=body)
        if isinstance(e, ECall):
            callee = self.resolve_expr(e.callee, scope)
            arg = self.resolve_expr(e.arg, scope)
            targs = e.type_args
            if targs is not None:
                targs = tuple(self.resolve_type(t, scope) for t in targs)
            if callee is e.callee and arg is e.arg and targs is e.type_args:
                return e
            return replace(e, callee=callee, arg=arg, type_args=targs)
        if isinstance(e, EConstruct):
            _, branch = self.env.data_of_tag(e.tag, e.span)
            declared = [f for f, _ in branch.fields]
            actual = [f for f, _ in e.fields]
            if declared != actual:
                raise ResolveError(
                    "E-MATCH",
                    f"construction of {e.tag!r} must set exactly {declared}, got {actual}",
                    e.span,
                )
            fields = self.resolve_fields(e.fields, scope)
            return e if fields is e.fields else replace(e, fields=fields)
        if isinstance(e, ETuple):
            items = tuple([self.resolve_expr(i, scope) for i in e.items])
            return e if same_items(items, e.items) else replace(e, items=items)
        if isinstance(e, EField):
            obj = self.resolve_expr(e.obj, scope)
            return e if obj is e.obj else replace(e, obj=obj)
        if isinstance(e, EMatch):
            scrutinee = self.resolve_expr(e.scrutinee, scope)
            branches = []
            seen_tags: set[str] = set()
            for pat, body in e.branches:
                assert isinstance(pat, PTag)
                data_name, branch = self.env.data_of_tag(pat.tag, pat.span)
                if pat.tag in seen_tags:
                    raise ResolveError("E-MATCH", f"duplicate branch {pat.tag!r}", pat.span)
                seen_tags.add(pat.tag)
                declared = [f for f, _ in branch.fields]
                actual = [f for f, _ in pat.fields]
                if declared != actual:
                    raise ResolveError(
                        "E-MATCH",
                        f"pattern for {pat.tag!r} must bind exactly {declared}, got {actual}",
                        pat.span,
                    )
                entered = []
                self.bind_pattern(pat, scope, entered)
                branches.append(self.resolve_expr(body, scope))
                scope.leave(entered)
            if scrutinee is e.scrutinee and same_items(branches, [b for _, b in e.branches]):
                return e
            return replace(
                e,
                scrutinee=scrutinee,
                branches=tuple((pat, b) for (pat, _), b in zip(e.branches, branches)),
            )
        if isinstance(e, EIf):
            cond = self.resolve_expr(e.cond, scope)
            then = self.resolve_expr(e.then, scope)
            otherwise = self.resolve_expr(e.otherwise, scope)
            if cond is e.cond and then is e.then and otherwise is e.otherwise:
                return e
            return replace(e, cond=cond, then=then, otherwise=otherwise)
        if isinstance(e, EAssign):
            obj = self.resolve_expr(e.obj, scope)
            value = self.resolve_expr(e.value, scope)
            return e if obj is e.obj and value is e.value else replace(e, obj=obj, value=value)
        if isinstance(e, ETagUpdate):
            self.env.data_of_tag(e.tag, e.span)
            obj = self.resolve_expr(e.obj, scope)
            fields = self.resolve_fields(e.fields, scope)
            if obj is e.obj and fields is e.fields:
                return e
            return replace(e, obj=obj, fields=fields)
        if isinstance(e, ELambda):
            entered = []
            domain = self.resolve_domain(e.domain, scope, entered)
            codomain = e.codomain
            if codomain is not None:
                codomain = self.check_kind(self.resolve_type(codomain, scope), KIND_TYPE, scope)
            body = self.resolve_expr(e.body, scope)
            scope.leave(entered)
            return replace(e, domain=domain, codomain=codomain, body=body)
        raise TypeError(f"unknown expression {e!r}")

    def resolve_fields(
        self, fields: tuple[tuple[str, Expr], ...], scope: Scope
    ) -> tuple[tuple[str, Expr], ...]:
        """The field list with each value resolved: `fields` itself when
        every value comes back as the same object."""
        values = [self.resolve_expr(v, scope) for _, v in fields]
        if all(new is old for new, (_, old) in zip(values, fields)):
            return fields
        return tuple((n, v) for (n, _), v in zip(fields, values))

    def bind_pattern(
        self, p: Pattern, scope: Scope, entered: list[str], seen: set[str] | None = None
    ) -> None:
        """Bring the names `p` binds into `scope`, noting in `entered` those
        that enter it."""
        if seen is None:
            seen = set()
        if isinstance(p, PVar):
            if p.name in seen:
                raise ResolveError(
                    "E-MATCH", f"pattern binds {p.name!r} more than once", p.span
                )
            seen.add(p.name)
            scope.enter(p.name, entered)
        elif isinstance(p, PTuple):
            for item in p.items:
                self.bind_pattern(item, scope, entered, seen)
        elif isinstance(p, PTag):
            for _, sub in p.fields:
                self.bind_pattern(sub, scope, entered, seen)


def _alias_refs(t: Type) -> set[str]:
    """The heads of the type applications in `t`."""
    refs = {t.head} if isinstance(t, TApp) else set()
    for c in children(t):
        refs |= _alias_refs(c)
    return refs


def _describe(t: Type) -> str:
    from .printer import print_type

    return print_type(t)


def domain_comps(domain: Type) -> tuple[TupleComp, ...]:
    """The component list of an arrow domain."""
    if isinstance(domain, TBar):
        return domain_comps(domain.carrier)
    if isinstance(domain, TTuple):
        return domain.comps
    return (TupleComp(None, domain, False),)


def domain_bar(domain: Type) -> tuple[Type | None, bool]:
    """The permission side of an arrow domain and whether it is consumed."""
    if isinstance(domain, TBar):
        return domain.perm, domain.consumed
    return None, False


def resolve(file: SourceFile, base: Env | None = None) -> tuple[SourceFile, Env]:
    """Resolve and kind-check a source file on top of an optional base env."""
    resolver = Resolver(base)
    resolved = resolver.resolve_file(file)
    return resolved, resolver.env
