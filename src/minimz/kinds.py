"""Name resolution and kind checking.

Runs after parsing and before permission checking. Rewrites the AST so
that nullary type-constructor references become `TApp(name, ())`, the
builtin `empty` becomes `TEmpty`, and every type is well-kinded. Value
anchors inside types (`x @ t`, `=x`, singleton fields) are checked
against the lexical value scope. `kind_of` gives the kind of a resolved
type, to the resolver, to alias declarations and to the checker's
explicit type arguments.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import partial

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
    KIND_PERM,
    KIND_TYPE,
    Kind,
    PTag,
    PTuple,
    PVar,
    Pattern,
    Scope,
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
    rebuild,
    replace,
    same_items,
)


class ResolveError(Exception):
    def __init__(self, code: str, message: str, span: Span):
        super().__init__(message)
        self.code = code
        self.message = message
        self.span = span


class DataInfo:
    def __init__(self, name: str, mutable: bool, params: tuple[tuple[str, Kind], ...]):
        self.name = name
        self.mutable = mutable
        self.params = params
        self.branches: dict[str, Branch] = {}


class AliasInfo:
    """An alias; its body and the body's kind are set when the body is
    resolved."""

    def __init__(self, name: str, params: tuple[tuple[str, Kind], ...]):
        self.name = name
        self.params = params
        self.body: Type | None = None
        self.kind: Kind | None = None


class AbstractInfo:
    def __init__(self, name: str, params: tuple[tuple[str, Kind], ...]):
        self.name = name
        self.params = params


class PrimInfo:
    """Builtin base type (int, bool)."""

    def __init__(self, name: str):
        self.name = name
        self.params: tuple[tuple[str, Kind], ...] = ()


TypeInfo = DataInfo | AliasInfo | AbstractInfo | PrimInfo


class Env:
    """Resolution environment: type constructors, tags, and value
    signatures."""

    def __init__(
        self,
        types: dict[str, TypeInfo] | None = None,
        tags: dict[str, tuple[str, Branch]] | None = None,
        sigs: dict[str, Type] | None = None,
    ):
        self.types = {} if types is None else types
        self.tags = {} if tags is None else tags
        self.sigs = {} if sigs is None else sigs
        # `perms.duplicability`, `perms.expand_alias` and
        # `perms.branch_instance` answers for this environment; a clone
        # starts with none.
        self.dup_memo: dict[Type, str] = {}
        self.alias_memo: dict[Type, Type] = {}
        self.branch_memo: dict[tuple[Type, str], Branch] = {}

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

    def mutable_tag(self, tag: str) -> bool:
        """Is `tag` a tag of a mutable data type?"""
        entry = self.tags.get(tag)
        info = self.types.get(entry[0]) if entry is not None else None
        return isinstance(info, DataInfo) and info.mutable

    def clone(self) -> "Env":
        return Env(dict(self.types), dict(self.tags), dict(self.sigs))


def kind_of(t: Type, env: Env, tyvars: Mapping[str, Kind]) -> Kind:
    """The kind of the resolved type `t`, where `tyvars` maps the type
    variables in scope to their kinds. An alias has its body's kind; every
    other type constructor, and every quantifier, makes a type."""
    cls = t.__class__
    if cls is TVar:
        return tyvars[t.name]
    if cls is TMeta:
        return t.kind
    if cls is TAt or cls is TStar or cls is TEmpty:
        return KIND_PERM
    if cls is TApp:
        info = env.types.get(t.head)
        if isinstance(info, AliasInfo):
            if info.kind is None:
                raise ResolveError(
                    "E-KIND", f"alias {t.head!r} used before its definition", t.span
                )
            return info.kind
    return KIND_TYPE


class Resolver:
    """While a declaration is resolved, `tyvars` maps the type variables in
    scope to their kinds and `values` holds the local value names in scope
    (mapped to None); a binder's names are undone after what it scopes
    over. The top-level values in scope are the keys of `sigs`: the
    signatures in a definition's body, else none."""

    def __init__(self, env: Env | None = None):
        self.env = env if env is not None else Env()
        self.tyvars = Scope()
        self.values = Scope()
        self.sigs: dict[str, Type] = {}
        if "int" not in self.env.types:
            self.env.types["int"] = PrimInfo("int")
            self.env.types["bool"] = PrimInfo("bool")

    def has_value(self, name: str) -> bool:
        return name in self.values or name in self.sigs

    def bind_tyvars(self, binders: tuple[tuple[str, Kind], ...], span: Span) -> None:
        for name, kind in binders:
            old = self.tyvars.get(name)
            if old is not None and old != kind:
                raise ResolveError(
                    "E-KIND", f"binder {name!r} shadows a binder of a different kind", span
                )
            self.tyvars.enter(name, kind)

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
        """`file` resolved. A definition `known` clean is resolved when its
        body is first read. By then every signature of the file is in scope
        and every alias has its kind, not only those before it: a body that
        resolved clean in the smaller scope resolves to the same in the
        larger."""
        for decl in file.decls:
            self.register(decl)
        resolved: list[Decl] = []
        defs_seen: set[str] = set()
        for decl in file.decls:
            if isinstance(decl, DData):
                self.bind_tyvars(decl.params, decl.span)
                branches = []
                for branch in decl.branches:
                    fields = tuple(
                        (fname, self.check_kind(self.resolve_type(fty), KIND_TYPE))
                        for fname, fty in branch.fields
                    )
                    bar = None
                    if branch.bar is not None:
                        bar = self.check_kind(self.resolve_type(branch.bar), KIND_PERM)
                    branches.append(replace(branch, fields=fields, bar=bar))
                info = self.env.types[decl.name]
                assert isinstance(info, DataInfo)
                new_decl = replace(decl, branches=tuple(branches))
                for branch in branches:
                    info.branches[branch.tag] = branch
                    self.env.tags[branch.tag] = (decl.name, branch)
                resolved.append(new_decl)
                self.tyvars.undo_to(0)
            elif isinstance(decl, DAlias):
                self.bind_tyvars(decl.params, decl.span)
                info = self.env.types[decl.name]
                assert isinstance(info, AliasInfo)
                info.body = self.resolve_type(decl.body)
                # a cycle is closed by the definition of its last alias
                self.check_alias_cycles()
                info.kind = kind_of(info.body, self.env, self.tyvars)
                self.tyvars.undo_to(0)
                resolved.append(replace(decl, body=info.body))
            elif isinstance(decl, DValSig):
                if decl.name in self.env.sigs:
                    raise ResolveError(
                        "E-KIND", f"duplicate value signature {decl.name!r}", decl.span
                    )
                ty = self.check_kind(self.resolve_type(decl.ty), KIND_TYPE)
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
                if decl.known:
                    resolved.append(DValDef.later(decl.name, decl.params, decl.span,
                                                  partial(_resolve_alone, self.env, decl, sig)))
                else:
                    resolved.append(self.resolve_def(decl, sig))
            else:
                resolved.append(decl)
        return SourceFile(file.path, tuple(resolved), file.texts, file.keys)

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

    def resolve_type(self, t: Type) -> Type:
        """`t` resolved in the current scope. Each node is made again by
        `ast.rebuild`, so a node whose children all come back as the same
        objects comes back itself."""
        cls = t.__class__
        if cls is TVar:
            if t.name in self.tyvars:
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
            if t.head in self.tyvars:
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
                    self.check_kind(self.resolve_type(arg), pkind)
                    for (_, pkind), arg in zip(info.params, t.args)
                ]
            )
            return rebuild(t, t.args, args)
        if cls is TArrow:
            mark = self.values.mark()
            dom = self.resolve_domain(t.domain)
            cod = self.check_kind(self.resolve_type(t.codomain), KIND_TYPE)
            self.values.undo_to(mark)
            return rebuild(t, (t.domain, t.codomain), (dom, cod))
        if cls is TTuple or cls is TBar:
            mark = self.values.mark()
            resolved = self.resolve_domain(t)
            self.values.undo_to(mark)
            return resolved
        if cls is TConcrete:
            _, branch = self.env.data_of_tag(t.tag, t.span)
            _check_field_names(branch, t.fields, f"fields of {t.tag!r} must be", t.span)
            kids = [self.check_kind(self.resolve_type(fty), KIND_TYPE) for _, fty in t.fields]
            if t.bar is not None:
                kids.append(self.check_kind(self.resolve_type(t.bar), KIND_PERM))
            return rebuild(t, children(t), kids)
        if cls is TSingleton:
            if not self.has_value(t.name):
                raise ResolveError("E-UNBOUND", f"unbound value name {t.name!r}", t.span)
            return t
        if cls is TForall or cls is TExists:
            mark = self.tyvars.mark()
            self.bind_tyvars(t.binders, t.span)
            body = self.resolve_type(t.body)
            if kind_of(body, self.env, self.tyvars) != KIND_TYPE:
                raise ResolveError("E-KIND", "a permission cannot be quantified", t.span)
            self.tyvars.undo_to(mark)
            return rebuild(t, (t.body,), (body,))
        if cls is TAt:
            if not self.has_value(t.anchor):
                raise ResolveError("E-UNBOUND", f"unbound value name {t.anchor!r}", t.span)
            ty = self.check_kind(self.resolve_type(t.ty), KIND_TYPE)
            return rebuild(t, (t.ty,), (ty,))
        if cls is TStar:
            items = [self.check_kind(self.resolve_type(i), KIND_PERM) for i in t.items]
            return rebuild(t, t.items, items)
        if cls is TEmpty or cls is TMeta:
            return t
        raise TypeError(f"unknown type node {t!r}")

    def resolve_domain(self, t: Type) -> Type:
        """Resolve a tuple/bar type, bringing component names into scope
        left to right. The caller undoes them after what they scope over
        (an arrow's codomain, a lambda's body).
        """
        cls = t.__class__
        if cls is TBar:
            carrier = self.resolve_domain(t.carrier)
            perm = self.check_kind(self.resolve_type(t.perm), KIND_PERM)
            return rebuild(t, (t.carrier, t.perm), (carrier, perm))
        if cls is TTuple:
            tys = []
            for comp in t.comps:
                tys.append(self.check_kind(self.resolve_type(comp.ty), KIND_TYPE))
                if comp.name is not None:
                    self.values.enter(comp.name, None)
            return rebuild(t, children(t), tys)
        return self.check_kind(self.resolve_type(t), KIND_TYPE)

    def check_kind(self, t: Type, expected: Kind) -> Type:
        actual = kind_of(t, self.env, self.tyvars)
        if actual != expected:
            raise ResolveError(
                "E-KIND",
                f"expected kind {expected}, found {actual} for {_describe(t)}",
                t.span,
            )
        return t

    # -- expressions ----------------------------------------------------------

    def resolve_def(self, decl: DValDef, sig: Type) -> DValDef:
        for param in decl.params:
            self.values.enter(param, None)
        sig_body = sig
        while isinstance(sig_body, TForall):
            self.bind_tyvars(sig_body.binders, decl.span)
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
        self.sigs = self.env.sigs
        body = self.resolve_expr(decl.body)
        self.sigs = {}
        self.tyvars.undo_to(0)
        self.values.undo_to(0)
        return replace(decl, body=body)

    def resolve_expr(self, e: Expr) -> Expr:
        """`e` resolved in the current scope. Only types change (a lambda's,
        a call's type arguments), so a node whose children all come back as
        the same objects comes back itself. A construction or a tag update
        is resolved by `resolve_record`, its fields in one loop."""
        cls = e.__class__  # the most frequent classes first
        if cls is EVar:
            if not self.has_value(e.name):
                raise ResolveError("E-UNBOUND", f"unbound value name {e.name!r}", e.span)
            return e
        if cls is EInt or cls is EBool:
            return e
        if cls is EConstruct or cls is ETagUpdate:
            return self.resolve_record(e)
        if cls is ECall:
            callee = self.resolve_expr(e.callee)
            arg = self.resolve_expr(e.arg)
            targs = e.type_args
            if targs is not None:
                targs = tuple(self.resolve_type(t) for t in targs)
            if callee is e.callee and arg is e.arg and targs is e.type_args:
                return e
            return replace(e, callee=callee, arg=arg, type_args=targs)
        if cls is ELet:
            # A chain of lets is resolved in a loop, then rebuilt from its
            # end; a link whose parts come back unchanged is kept.
            mark = self.values.mark()
            links = []
            while e.__class__ is ELet:
                links.append((e, self.resolve_expr(e.bound)))
                self.bind_pattern(e.pattern, set())
                e = e.body
            body = self.resolve_expr(e)
            self.values.undo_to(mark)
            for link, bound in reversed(links):
                if bound is not link.bound or body is not link.body:
                    link = replace(link, bound=bound, body=body)
                body = link
            return body
        if cls is ETuple:
            items = tuple([self.resolve_expr(i) for i in e.items])
            return e if same_items(items, e.items) else replace(e, items=items)
        if cls is EField:
            obj = self.resolve_expr(e.obj)
            return e if obj is e.obj else replace(e, obj=obj)
        if cls is EMatch:
            scrutinee = self.resolve_expr(e.scrutinee)
            branches = []
            seen_tags: set[str] = set()
            for pat, body in e.branches:
                assert isinstance(pat, PTag)
                _, branch = self.env.data_of_tag(pat.tag, pat.span)
                if pat.tag in seen_tags:
                    raise ResolveError("E-MATCH", f"duplicate branch {pat.tag!r}", pat.span)
                seen_tags.add(pat.tag)
                claim = f"pattern for {pat.tag!r} must bind"
                _check_field_names(branch, pat.fields, claim, pat.span)
                mark = self.values.mark()
                self.bind_pattern(pat, set())
                branches.append(self.resolve_expr(body))
                self.values.undo_to(mark)
            if scrutinee is e.scrutinee and same_items(branches, [b for _, b in e.branches]):
                return e
            return replace(
                e,
                scrutinee=scrutinee,
                branches=tuple((pat, b) for (pat, _), b in zip(e.branches, branches)),
            )
        if cls is EIf:
            cond = self.resolve_expr(e.cond)
            then = self.resolve_expr(e.then)
            otherwise = self.resolve_expr(e.otherwise)
            if cond is e.cond and then is e.then and otherwise is e.otherwise:
                return e
            return replace(e, cond=cond, then=then, otherwise=otherwise)
        if cls is EAssign:
            obj = self.resolve_expr(e.obj)
            value = self.resolve_expr(e.value)
            return e if obj is e.obj and value is e.value else replace(e, obj=obj, value=value)
        if cls is ELambda:
            mark = self.values.mark()
            domain = self.resolve_domain(e.domain)
            codomain = e.codomain
            if codomain is not None:
                codomain = self.check_kind(self.resolve_type(codomain), KIND_TYPE)
            body = self.resolve_expr(e.body)
            self.values.undo_to(mark)
            return replace(e, domain=domain, codomain=codomain, body=body)
        raise TypeError(f"unknown expression {e!r}")

    def resolve_record(self, e: EConstruct | ETagUpdate) -> Expr:
        """A construction or a tag update resolved: its tag looked up, a
        tag update's object, then its fields in one loop. A construction
        sets exactly its branch's fields, in order: each name is compared
        as its value is reached, and an error in the names comes before any
        error in the values, as if they were all compared first. A node
        whose parts all come back as the same objects comes back itself."""
        _, branch = self.env.data_of_tag(e.tag, e.span)
        construct = e.__class__ is EConstruct
        obj = None if construct else self.resolve_expr(e.obj)
        declared = branch.fields
        fields = e.fields
        names_ok = not construct or len(fields) == len(declared)
        resolved: list[Expr] | None = None  # the values, once one has changed
        try:
            for i, (fname, value) in enumerate(fields):
                if construct and (not names_ok or fname != declared[i][0]):
                    names_ok = False
                    break
                new = self.resolve_expr(value)
                if new is not value:
                    if resolved is None:
                        resolved = [v for _, v in fields]
                    resolved[i] = new
        except ResolveError:
            if construct:
                _check_field_names(branch, fields, f"construction of {e.tag!r} must set", e.span)
            raise
        if not names_ok:
            _check_field_names(branch, fields, f"construction of {e.tag!r} must set", e.span)
        if resolved is not None:
            fields = tuple((fname, v) for (fname, _), v in zip(fields, resolved))
        if construct:
            return e if resolved is None else replace(e, fields=fields)
        if obj is e.obj and resolved is None:
            return e
        return replace(e, obj=obj, fields=fields)

    def bind_pattern(self, p: Pattern, seen: set[str]) -> None:
        """Bring the names `p` binds into scope, none of them twice."""
        if isinstance(p, PVar):
            if p.name in seen:
                raise ResolveError(
                    "E-MATCH", f"pattern binds {p.name!r} more than once", p.span
                )
            seen.add(p.name)
            self.values.enter(p.name, None)
        elif isinstance(p, PTuple):
            for item in p.items:
                self.bind_pattern(item, seen)
        elif isinstance(p, PTag):
            for _, sub in p.fields:
                self.bind_pattern(sub, seen)


def _check_field_names(branch: Branch, fields: tuple, claim: str, span: Span) -> None:
    """Raise an E-MATCH error unless `fields` name exactly the fields of
    `branch`, in order; its message is `claim`, the list `branch` declares
    and the list found."""
    declared = [f for f, _ in branch.fields]
    actual = [f for f, _ in fields]
    if declared != actual:
        raise ResolveError("E-MATCH", f"{claim} exactly {declared}, got {actual}", span)


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


def domain_bars(domain: Type) -> list[tuple[Type, bool]]:
    """The bars of an arrow domain, inner first, as `perms.admit_atoms`
    reads them: each bar's permission and whether it is consumed."""
    bars = []
    while isinstance(domain, TBar):
        bars.append((domain.perm, domain.consumed))
        domain = domain.carrier
    bars.reverse()
    return bars


def _resolve_alone(env: Env, decl: DValDef, sig: Type) -> DValDef:
    """`decl` resolved against `sig` by a resolver of its own, so a body
    read lazily finds no scope that another left."""
    return Resolver(env).resolve_def(decl, sig)


def resolve(file: SourceFile, base: Env | None = None) -> tuple[SourceFile, Env]:
    """Resolve and kind-check a source file on top of an optional base env."""
    resolver = Resolver(base)
    resolved = resolver.resolve_file(file)
    return resolved, resolver.env
