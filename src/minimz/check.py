"""Permission-aware expression and declaration checking.

Checking is flow-sensitive: every expression edits one permission
environment in place, and the branches of a `match` or `if` each undo
theirs before the next begins. Function bodies are checked against their
declared signatures; at every tail position the declared result (value
type plus codomain permissions) and all non-consumed domain permissions
must be subsumable from the current environment.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from .ast import (
    DValDef,
    DValSig,
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
    Field,
    KIND_PERM,
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
    TBar,
    TConcrete,
    TEmpty,
    TForall,
    TMeta,
    TSingleton,
    TTuple,
    Type,
    TupleComp,
    children,
    has_meta,
    node,
    plain,
)
from .kinds import DataInfo, Env, domain_bars, domain_comps, kind_of
from .perms import (
    DUPLICABLE,
    Anchored,
    Atom,
    Handle,
    PermEnv,
    SubsumptionFailure,
    admit_atoms,
    duplicability,
    normalize,
    split_branch,
    subst_type,
)
from .subsume import Subsumer, is_structural_tuple

BOOL = TApp("bool", ())
INT = TApp("int", ())

_TAIL_DONE = object()

# Local names with their anchors, in the order they are bound.
Bindings = Sequence[tuple[str, str]]


@node
class Diagnostic:
    code: str
    message: str
    span: Span
    perm_snapshot: str = ""
    goal: Atom | None = Field(None, compare=False)

    def render(self, path: str, text: str) -> str:
        from .lexer import line_col

        line, col = line_col(text, self.span.start)
        return f"{path}:{line}:{col} {self.code} {self.message}"


class CheckFailure(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(diag.message)
        self.diag = diag


@node
class Tail:
    codomain: Type
    exit_goals: list[Atom]
    span: Span


class Checker:
    """While a definition is checked, `locals` maps each local name in scope
    to its anchor; a binder's names are undone after its body. A name not
    bound locally is a top-level value: its own anchor, with its type in
    `available`. A top-level name that the file declares and never defines
    (`undefined`) cannot be used.

    A definition's body is checked in one `PermEnv`, which each expression
    edits in place, and a lambda's body in one of its own. Each store that
    a check edits and undoes keeps its own trail: `locals` is undone after a
    binder's body and keeps the environment's edits; the environment is
    undone after each branch; the subsumer undoes its bindings and guard."""

    def __init__(self, env: Env):
        self.env = env

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------

    def check_file(self, file: SourceFile) -> list[Diagnostic]:
        """The diagnostics of `file`'s definitions, but for those `known`
        clean, which are not checked. The names of the definitions that
        fail are kept in `failed`."""
        diags: list[Diagnostic] = []
        self.failed: set[str] = set()
        own = {d.name for d in file.decls if isinstance(d, DValSig)}
        # names this file declares and never defines: nothing runs for them
        undefined = own - {d.name for d in file.decls if isinstance(d, DValDef)}
        available = {name: ty for name, ty in self.env.sigs.items() if name not in own}
        for decl in file.decls:
            if isinstance(decl, DValSig):
                available[decl.name] = self.env.sigs[decl.name]
            elif isinstance(decl, DValDef) and not decl.known:
                try:
                    self.check_function_def(decl, self.env.sigs[decl.name], available, undefined)
                except CheckFailure as exc:
                    diags.append(exc.diag)
                    self.failed.add(decl.name)
        return diags

    def check_function_def(
        self, decl: DValDef, sig: Type, available: dict[str, Type], undefined: set[str]
    ) -> None:
        """Check `decl` against `sig`, with the top-level values `available`
        (name to type) in scope, of which those in `undefined` have no
        definition. The check has its own `Subsumer`, whose unifier draws
        every fresh name, so a definition is checked alike alone or after
        others."""
        self.sub = Subsumer(self.env)
        self.available = available
        self.undefined = undefined
        self.locals = Scope()
        self.tyvars: dict[str, Kind] = {}
        body_ty = sig
        while isinstance(body_ty, TForall):
            self.tyvars.update(body_ty.binders)
            body_ty = body_ty.body
        assert isinstance(body_ty, TArrow)

        penv = PermEnv(self.env, (), available)
        values, exit_goals = self._enter_domain(penv, body_ty.domain, decl.params)
        codomain = subst_type(body_ty.codomain, {}, values)
        self.check_expr(penv, decl.body, Tail(codomain, exit_goals, decl.span))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _mk_anchor(self, penv: PermEnv, name: str) -> str:
        """An anchor for a new local `name`: `name` itself unless it already
        names a top-level value, a held permission or a local's anchor."""
        taken = penv.global_type(name) is not None or penv.holds_anchor(name)
        if taken or name in self.locals.values():
            return self.sub.uni.fresh_name(name)
        return name

    def _enter_domain(
        self, penv: PermEnv, domain: Type, params: Sequence[str | None]
    ) -> tuple[dict[str, str], list[Atom]]:
        """Admit the components and bar of an arrow's domain into `penv`.

        Component `i` enters at an anchor based on `params[i]`, the name the
        body gives it, or on `arg{i}` when the body gives it none; the
        parameter names enter `locals`. A component's own name scopes over
        the later components, the bar and the codomain. Returns the renaming
        of component names to anchors, and the exit goals: the permissions
        of the components and the bar that the arrow does not consume.
        """
        values: dict[str, str] = {}
        exit_goals: list[Atom] = []
        for i, (comp, param) in enumerate(zip(domain_comps(domain), params)):
            comp_ty = subst_type(comp.ty, {}, values)
            anchor = self._mk_anchor(penv, param or f"arg{i}")
            if param is not None:
                self.locals.enter(param, anchor)
            if comp.name is not None:
                values[comp.name] = anchor
            penv.add(*admit_atoms(self.env, anchor, self.sub.uni.resolve(comp_ty)))
            if not comp.consumed:
                exit_goals.append(Anchored(anchor, comp_ty))
        for bar, bar_consumed in domain_bars(domain):
            bar_atoms = normalize(self.env, subst_type(bar, {}, values))
            penv.add(*bar_atoms)
            if not bar_consumed:
                exit_goals.extend(bar_atoms)
        return values, exit_goals

    def _new_value(self, penv: PermEnv, ty: Type, base: str) -> str:
        """A value of type `ty` at a fresh anchor named after `base`."""
        anchor = self.sub.uni.fresh_name(base)
        penv.add(Anchored(anchor, ty))
        return anchor

    def _admit_result(self, penv: PermEnv, ty: Type, base: str) -> str:
        ty = self.sub.uni.resolve(ty)
        if isinstance(ty, TSingleton):
            return ty.name
        if isinstance(ty, TBar):
            anchor = self._admit_result(penv, ty.carrier, base)
            penv.add(*normalize(self.env, ty.perm))
            return anchor
        return self._new_value(penv, ty, base)

    def _subsume_or_fail(
        self,
        penv: PermEnv,
        goals: list[Atom],
        span: Span,
        code: str = "E-SUBSUME",
        defer: list[Atom] | None = None,
    ) -> None:
        try:
            self.sub.subsume(penv, goals, defer=defer)
            return
        except SubsumptionFailure as exc:
            goal, snapshot = exc.goal, exc.snapshot
        # Raised outside the handler, the check's failure keeps no frame of
        # the search as its cause or context.
        if isinstance(goal, Anchored):
            goal = Anchored(goal.anchor, self.sub.uni.resolve(goal.ty))
        raise CheckFailure(
            Diagnostic(code, f"permission not available: {goal}", span, snapshot, goal=goal)
        )

    def _fail(self, code: str, message: str, span: Span, penv: PermEnv | None = None):
        snapshot = str(penv) if penv is not None else ""
        raise CheckFailure(Diagnostic(code, message, span, snapshot))

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def check_expr(
        self, penv: PermEnv, e: Expr, tail: Tail | None = None, pairs: Bindings = ()
    ):
        """Returns the result's anchor in non-tail positions, _TAIL_DONE
        in tail positions (where the declared result has been subsumed).
        The names of `pairs` are bound over `e` alone; a chain of `let`s is
        checked in a loop, each binding over the rest of the chain. Any other
        expression, outside a tail and with no names, binds none that its
        own check does not undo, so it goes straight to `_synth`: every
        workload takes this path, `check_wide`'s let chains most."""
        cls = e.__class__
        if tail is None and not pairs and cls is not ELet and cls is not EIf and cls is not EMatch:
            return self._synth(penv, e)
        scope = self.locals
        mark = scope.mark()
        while True:
            for name, anchor in pairs:
                scope.enter(name, anchor)
            if cls is not ELet:
                break
            anchor = self.check_expr(penv, e.bound, None)
            pairs = []
            self._bind_pattern(penv, e.pattern, anchor, pairs)
            e = e.body
            cls = e.__class__
        if cls is EIf:
            cond_anchor = self.check_expr(penv, e.cond, None)
            self._subsume_or_fail(penv, [Anchored(cond_anchor, BOOL)], e.span)
            work = [((), (), e.then), ((), (), e.otherwise)]
            out = self._run_branches(penv, None, work, e.span, tail)
        elif cls is EMatch:
            out = self._check_match(penv, e, tail)
        elif tail is not None:
            out = self._finish_tail(penv, self._synth(penv, e), tail, e.span)
        else:
            out = self._synth(penv, e)
        scope.undo_to(mark)
        return out

    def _finish_tail(self, penv: PermEnv, anchor: str, tail: Tail, span: Span):
        self._subsume_or_fail(penv, [Anchored(anchor, tail.codomain)], span)
        if tail.exit_goals:
            self._subsume_or_fail(penv, list(tail.exit_goals), span, code="E-CONSUMED")
        return _TAIL_DONE

    # -- synthesis ----------------------------------------------------------

    def _synth(self, penv: PermEnv, e: Expr) -> str:
        cls = e.__class__
        if cls is ECall:
            return self._check_call(penv, e)
        if cls is EVar:
            anchor = self.locals.get(e.name)
            if anchor is not None:
                return anchor
            if e.name in self.undefined:
                self._fail(
                    "E-UNDEFINED",
                    f"{e.name!r} has a signature but no definition",
                    e.span,
                    penv,
                )
            return e.name
        if cls is EInt:
            return self._new_value(penv, INT, "n")
        if cls is EBool:
            return self._new_value(penv, BOOL, "b")
        if cls is ETuple:
            anchors = []
            for item in e.items:
                anchors.append(self.check_expr(penv, item, None))
            ty = TTuple(tuple(_singleton_comp(a) for a in anchors))
            return self._new_value(penv, ty, "tup")
        if cls is EConstruct:
            fields = []
            for fname, value in e.fields:
                fields.append((fname, TSingleton(self.check_expr(penv, value, None))))
            ty = TConcrete(e.tag, tuple(fields), None)
            return self._new_value(penv, ty, e.tag.lower())
        if cls is EField:
            obj = self.check_expr(penv, e.obj, None)
            handle = self.sub.open_fields(penv, self._structural(penv, obj, e.span))
            ty = penv.atom(handle).ty
            assert isinstance(ty, TConcrete)
            for fname, fty in ty.fields:
                if fname == e.name:
                    assert isinstance(fty, TSingleton)
                    return fty.name
            self._fail("E-SUBSUME", f"no field {e.name!r} on {ty.tag}", e.span, penv)
        if cls is EAssign:
            value = self.check_expr(penv, e.value, None)
            obj = self.check_expr(penv, e.obj, None)
            handle = self._structural(penv, obj, e.span, mutate=True)
            atom = penv.atom(handle)
            ty = atom.ty
            assert isinstance(atom, Anchored) and isinstance(ty, TConcrete)
            if e.name not in [f for f, _ in ty.fields]:
                self._fail("E-SUBSUME", f"no field {e.name!r} on {ty.tag}", e.span, penv)
            fields = tuple(
                (f, TSingleton(value) if f == e.name else fv) for f, fv in ty.fields
            )
            new_atom = Anchored(atom.anchor, TConcrete(ty.tag, fields, ty.bar, ty.span))
            penv.replace(handle, new_atom)
            return self._unit(penv)
        if cls is ETagUpdate:
            return self._check_tag_update(penv, e)
        if cls is ELambda:
            return self._check_lambda(penv, e)
        raise TypeError(f"unknown expression {e!r}")

    def _unit(self, penv: PermEnv) -> str:
        return self._new_value(penv, TTuple(()), "u")

    # -- calls ---------------------------------------------------------------

    def _check_call(self, penv: PermEnv, e: ECall) -> str:
        """Check the call `e`: its callee's function permission, instantiated
        at explicit or fresh witnesses; its arguments, each met at its
        component's type with the names of the components before it
        renamed to their anchors; the domain's bars; and its result,
        admitted at the codomain. What the domain does not consume is put
        back. A plain call (`_plain_call`), of a monomorphic function on
        duplicable arguments of its plain component types, meets its
        arguments without taking any, so its result is admitted at once."""
        callee = self.check_expr(penv, e.callee, None)
        handle = self.sub.head_atom(penv, callee, _is_function)
        if handle is not None:
            fn_ty = self.sub.uni.resolve(penv.atom(handle).ty)
        else:
            gty = penv.global_type(callee)
            if gty is None or not isinstance(gty, (TArrow, TForall)):
                self._fail("E-SUBSUME", "callee has no function permission", e.span, penv)
            fn_ty = gty

        if isinstance(fn_ty, TForall):
            if e.type_args is not None:
                # Explicit instantiation; a shorter list instantiates a
                # prefix of the binders and infers the rest.
                if len(e.type_args) > len(fn_ty.binders):
                    self._fail(
                        "E-ARITY",
                        f"expected at most {len(fn_ty.binders)} type argument(s), "
                        f"got {len(e.type_args)}",
                        e.span,
                        penv,
                    )
                witnesses = [subst_type(t, {}, self.locals) for t in e.type_args]
                for (bname, bkind), witness in zip(fn_ty.binders, witnesses):
                    wkind = kind_of(witness, self.env, self.tyvars)
                    if wkind != bkind:
                        self._fail(
                            "E-KIND",
                            f"type argument for {bname!r} has kind {wkind}, "
                            f"expected {bkind}",
                            e.span,
                            penv,
                        )
                witnesses += [
                    self.sub.uni.fresh(n, k)
                    for n, k in fn_ty.binders[len(witnesses) :]
                ]
            else:
                witnesses = [self.sub.uni.fresh(n, k) for n, k in fn_ty.binders]
            # The witnesses go in below, each part of the arrow in one pass
            # with the renaming of component names.
            subst = {n: w for (n, _), w in zip(fn_ty.binders, witnesses)}
            fn_ty = fn_ty.body
        elif e.type_args is not None:
            self._fail("E-ARITY", "callee is not polymorphic", e.span, penv)
        else:
            subst = {}
        if not isinstance(fn_ty, TArrow):
            self._fail("E-SUBSUME", "callee has no function permission", e.span, penv)

        comps = domain_comps(fn_ty.domain)

        if len(comps) == 1:
            arg_exprs = [e.arg]
        elif isinstance(e.arg, ETuple) and len(e.arg.items) == len(comps):
            arg_exprs = list(e.arg.items)
        else:
            self._fail(
                "E-ARITY",
                f"call expects {len(comps)} argument(s)",
                e.span,
                penv,
            )
        anchors = [self.check_expr(penv, arg, None) for arg in arg_exprs]
        if not subst and self._plain_call(penv, fn_ty, comps, anchors):
            return self._new_value(penv, fn_ty.codomain, "r")

        values: dict[str, str] = {}
        restores: list[tuple[str, Type]] = []
        deferred: list[Atom] = []
        for comp, anchor in zip(comps, anchors):
            comp_ty = subst_type(comp.ty, subst, values)
            self._subsume_or_fail(penv, [Anchored(anchor, comp_ty)], e.span, defer=deferred)
            if comp.name is not None:
                values[comp.name] = anchor
            if not comp.consumed:
                restores.append((anchor, comp_ty))
        borrowed: list[Type] = []
        for bar, bar_consumed in domain_bars(fn_ty.domain):
            bar_ty = subst_type(bar, subst, values)
            self._subsume_or_fail(
                penv, normalize(self.env, self.sub.uni.resolve(bar_ty)), e.span, defer=deferred
            )
            if not bar_consumed:
                borrowed.append(bar_ty)
        if deferred:
            # Every unification constraint has now been seen; unsolved
            # permission metavariables default to empty.
            self._subsume_or_fail(penv, deferred, e.span)
        for bar_ty in borrowed:
            _put_back(penv, normalize(self.env, self.sub.uni.resolve(bar_ty)))
        for anchor, ty in restores:
            _put_back(penv, admit_atoms(self.env, anchor, self.sub.uni.resolve(ty)))

        codomain = self.sub.uni.resolve(subst_type(fn_ty.codomain, subst, values))
        self._default_unsolved(codomain, e.span, penv)
        codomain = self.sub.uni.resolve(codomain)
        return self._admit_result(penv, codomain, "r")

    def _plain_call(
        self, penv: PermEnv, fn_ty: TArrow, comps: Sequence[TupleComp], anchors: list[str]
    ) -> bool:
        """Is the call of the monomorphic `fn_ty` on `anchors` a plain one,
        whose result the general path admits at the codomain with nothing
        else done? It is when the domain has no bar, each component is
        unnamed and has a plain `TApp` type, the codomain is a plain `TApp`,
        and each argument's first atom has its component's type and is
        duplicable. Each argument is then met as `Subsumer._find_exact`
        meets it: that atom is no tag, so the goal is not a fold's alone,
        and it unifies with the component's type at once, binding nothing
        and drawing no name; duplicable, it is not taken out, so nothing is
        put back. No metavariable is solved or left unsolved, and the
        codomain, with nothing to substitute, is its own result. It serves
        `check_wide`, whose let chains are mostly such calls."""
        if fn_ty.domain.__class__ is TBar:
            return False
        cod = fn_ty.codomain
        if cod.__class__ is not TApp or not plain(cod):
            return False
        env = self.env
        for comp, anchor in zip(comps, anchors):
            ty = comp.ty
            if comp.name is not None or ty.__class__ is not TApp or not plain(ty):
                return False
            hits = penv.atoms_of(anchor)
            if not hits:
                return False
            held = hits[0][1].ty
            if not (held is ty or held == ty) or duplicability(ty, env) != DUPLICABLE:
                return False
        return True

    def _default_unsolved(self, ty: Type, span: Span, penv: PermEnv) -> None:
        """Unsolved PERM metavariables default to empty; unsolved TYPE
        metavariables in a result are an inference failure."""
        unsolved_type: list[str] = []
        work = [ty]
        while work:
            u = work.pop()
            if isinstance(u, TMeta) and u.name not in self.sub.uni.bindings:
                if u.kind == KIND_PERM:
                    self.sub.uni.bind(u.name, TEmpty())
                else:
                    # named by its binder, as `printer` shows a metavariable
                    unsolved_type.append(u.name.split("%")[0])
            elif has_meta(u):
                work += reversed(children(u))
        if unsolved_type:
            self._fail(
                "E-KIND",
                f"cannot infer type argument(s) {sorted(set(unsolved_type))}",
                span,
                penv,
            )

    # -- structural access -----------------------------------------------------

    def _structural(self, penv: PermEnv, anchor: str, span: Span, mutate: bool = False) -> Handle:
        handle = self.sub.head_atom(penv, anchor, _is_concrete)
        if handle is None and self._auto_refine(penv, anchor):
            handle = self.sub.head_atom(penv, anchor, _is_concrete)
        if handle is None:
            self._fail("E-SUBSUME", "no structural permission for field access", span, penv)
        ty = penv.atom(handle).ty
        assert isinstance(ty, TConcrete)
        if mutate and not self.env.mutable_tag(ty.tag):
            self._fail("E-SUBSUME", f"type of {anchor!r} is not mutable", span, penv)
        return handle

    def _auto_refine(self, penv: PermEnv, anchor: str) -> bool:
        """Refine `x @ D args` to its structural form when D has one branch,
        if `x` holds such a permission."""
        handle = self.sub.head_atom(
            penv,
            anchor,
            lambda t: isinstance(t, TApp)
            and isinstance(self.env.types.get(t.head), DataInfo)
            and len(self.env.types[t.head].branches) == 1,
        )
        if handle is None:
            return False
        atom = penv.atom(handle)
        ty = self.sub.uni.resolve(atom.ty)
        assert isinstance(ty, TApp)
        info = self.env.types[ty.head]
        assert isinstance(info, DataInfo)
        (branch,) = info.branches.values()
        names = [self.sub.uni.fresh_name(fname) for fname, _ in branch.fields]
        penv.replace(handle, *split_branch(self.env, atom.anchor, ty, branch.tag, names))
        return True

    # -- match -------------------------------------------------------------------

    def _check_match(self, penv: PermEnv, e: EMatch, tail: Tail | None):
        scrutinee = self.check_expr(penv, e.scrutinee, None)
        handle = self.sub.head_atom(
            penv,
            scrutinee,
            lambda t: isinstance(t, TConcrete)
            or (isinstance(t, TApp) and isinstance(self.env.types.get(t.head), DataInfo)),
        )
        if handle is None:
            self._fail("E-MATCH", "no data permission for match scrutinee", e.span, penv)
        ty = self.sub.uni.resolve(penv.atom(handle).ty)

        if isinstance(ty, TConcrete):
            for pat, body in e.branches:
                assert isinstance(pat, PTag)
                if pat.tag == ty.tag:
                    # also split a nominal permission held next to this one
                    self.sub.split_along(penv, handle, ty)
                    opened = self.sub.open_fields(penv, handle)
                    pairs = []
                    for (_, fpat), (_, actual) in zip(pat.fields, penv.atom(opened).ty.fields):
                        assert isinstance(actual, TSingleton)
                        self._bind_pattern(penv, fpat, actual.name, pairs)
                    return self.check_expr(penv, body, tail, pairs)
            self._fail("E-MATCH", f"no branch for known tag {ty.tag!r}", e.span, penv)

        assert isinstance(ty, TApp)
        info = self.env.types[ty.head]
        assert isinstance(info, DataInfo)
        covered = {pat.tag for pat, _ in e.branches if isinstance(pat, PTag)}
        missing = [t for t in info.branches if t not in covered]
        if missing:
            self._fail("E-MATCH", f"non-exhaustive match, missing {missing}", e.span, penv)
        for pat, _ in e.branches:
            assert isinstance(pat, PTag)
            if pat.tag not in info.branches:
                self._fail(
                    "E-MATCH", f"branch {pat.tag!r} is not part of {ty.head!r}", pat.span, penv
                )

        # Every branch draws its anchors before any body is checked: the
        # fresh names a body draws come after all of them.
        work: list[tuple[list[Atom], list[tuple[Pattern, str]], Expr]] = []
        for pat, body in e.branches:
            assert isinstance(pat, PTag)
            branch = info.branches[pat.tag]
            names: list[str] = []
            for (fname, _), (_, fpat) in zip(branch.fields, pat.fields):
                if isinstance(fpat, PVar):
                    names.append(self._mk_anchor(penv, fpat.name))
                else:
                    names.append(self.sub.uni.fresh_name(fname))
            split = split_branch(self.env, scrutinee, ty, pat.tag, names)
            patterns = [(fpat, a) for (_, fpat), a in zip(pat.fields, names)]
            work.append((split, patterns, body))
        return self._run_branches(penv, handle, work, e.span, tail)

    def _run_branches(
        self,
        penv: PermEnv,
        handle: Handle | None,
        work: Sequence[tuple[Sequence[Atom], Sequence[tuple[Pattern, str]], Expr]],
        span: Span,
        tail: Tail | None,
    ):
        """Check the branches of `work` in turn, each from `penv` as it is
        now: the atom `handle` replaced by the branch's atoms `split` (when
        `handle` is not None), each of its patterns bound to its anchor for
        the body alone, then the body. Outside a tail, each branch's result
        must subsume the first branch's result type, and `penv` becomes the
        atom-multiset intersection of what the branches leave, with the
        result."""
        mark = penv.mark()
        result_ty = None
        left: list[tuple[Atom, ...]] = []
        for split, patterns, body in work:
            if handle is not None:
                penv.replace(handle, *split)
            pairs: list[tuple[str, str]] = []
            for pat, anchor in patterns:
                self._bind_pattern(penv, pat, anchor, pairs)
            anchor = self.check_expr(penv, body, tail, pairs)
            if tail is None:
                if result_ty is None:
                    result_ty = _held_type(penv, anchor)
                self._subsume_or_fail(penv, [Anchored(anchor, result_ty)], span)
                left.append(penv.atoms)
            penv.undo_to(mark)
        if tail is not None:
            return _TAIL_DONE
        anchor = self.sub.uni.fresh_name("j")
        penv.reset([*_intersect(left), Anchored(anchor, self.sub.uni.resolve(result_ty))])
        return anchor

    # -- patterns, tag update, lambdas ------------------------------------------

    def _bind_pattern(
        self, penv: PermEnv, pat: Pattern, anchor: str, pairs: list[tuple[str, str]]
    ) -> None:
        """Destructure the value at `anchor` by `pat`, appending to `pairs`
        each name the pattern binds with its anchor."""
        if isinstance(pat, PVar):
            pairs.append((pat.name, anchor))
            return
        if isinstance(pat, PTuple):
            handle = self.sub.head_atom(penv, anchor, is_structural_tuple)
            if handle is None:
                self._fail(
                    "E-SUBSUME",
                    "no tuple permission to destructure",
                    pat.span,
                    penv,
                )
            ty = penv.atom(handle).ty
            assert isinstance(ty, TTuple)
            if len(ty.comps) != len(pat.items):
                self._fail(
                    "E-ARITY",
                    f"tuple pattern expects {len(ty.comps)} component(s)",
                    pat.span,
                    penv,
                )
            for comp, sub_pat in zip(ty.comps, pat.items):
                assert isinstance(comp.ty, TSingleton)
                self._bind_pattern(penv, sub_pat, comp.ty.name, pairs)
            return
        raise TypeError(f"unsupported pattern {pat!r}")

    def _check_tag_update(self, penv: PermEnv, e: ETagUpdate) -> str:
        anchors = [self.check_expr(penv, value, None) for _, value in e.fields]
        obj = self.check_expr(penv, e.obj, None)
        handle = self._structural(penv, obj, e.span, mutate=True)
        atom = penv.atom(handle)
        ty = atom.ty
        assert isinstance(atom, Anchored) and isinstance(ty, TConcrete)
        old_entry = self.env.tags[ty.tag]
        new_entry = self.env.tags[e.tag]
        if old_entry[0] != new_entry[0]:
            self._fail(
                "E-MATCH",
                f"tag update must stay within {old_entry[0]!r}",
                e.span,
                penv,
            )
        provided = {f: TSingleton(a) for (f, _), a in zip(e.fields, anchors)}
        retained = dict(ty.fields)
        new_fields = []
        for fname, _ in new_entry[1].fields:
            if fname in provided:
                new_fields.append((fname, provided[fname]))
            elif fname in retained:
                new_fields.append((fname, retained[fname]))
            else:
                self._fail(
                    "E-MATCH",
                    f"tag update to {e.tag!r} is missing field {fname!r}",
                    e.span,
                    penv,
                )
        penv.replace(handle, Anchored(atom.anchor, TConcrete(e.tag, tuple(new_fields), None)))
        return self._unit(penv)

    def _check_lambda(self, penv: PermEnv, e: ELambda) -> str:
        cod = e.codomain if e.codomain is not None else TTuple(())
        arrow = subst_type(TArrow(e.domain, cod), {}, self.locals)
        assert isinstance(arrow, TArrow)
        domain = arrow.domain
        codomain = arrow.codomain if e.codomain is not None else None

        mark = self.locals.mark()
        inner = PermEnv(self.env, penv.duplicable_atoms(), self.available)
        values, exit_goals = self._enter_domain(
            inner, domain, [c.name for c in domain_comps(domain)]
        )
        try:
            if codomain is not None:
                tail = Tail(subst_type(codomain, {}, values), exit_goals, e.span)
                self.check_expr(inner, e.body, tail)
                result_cod = codomain
            else:
                anchor2 = self.check_expr(inner, e.body, None)
                assert anchor2 is not _TAIL_DONE
                result_cod = _held_type(inner, anchor2)
                self._finish_tail(inner, anchor2, Tail(result_cod, exit_goals, e.span), e.span)
        except CheckFailure as exc:
            goal = exc.diag.goal
            if (
                exc.diag.code == "E-SUBSUME"
                and goal is not None
                and penv.has_affine(goal)
            ):
                raise CheckFailure(
                    Diagnostic(
                        "E-CONSUMED",
                        f"lambda captures affine permission ({goal}); "
                        "affine permissions must enter through the domain",
                        e.span,
                        exc.diag.perm_snapshot,
                        goal=goal,
                    )
                ) from exc
            raise
        self.locals.undo_to(mark)
        return self._new_value(penv, TArrow(domain, result_cod), "fn")


def _put_back(penv: PermEnv, atoms: list[Atom]) -> None:
    """Give the borrowed `atoms` back to `penv`, all but the anchored atoms
    it still holds: extraction leaves a duplicable atom in place. An
    atom is still held when an atom of its anchor has its type, compared by
    identity, then by `==`."""
    back = []
    for a in atoms:
        if a.__class__ is Anchored:
            ty = a.ty
            for _, held in penv.atoms_of(a.anchor):
                if held.ty is ty or held.ty == ty:
                    break
            else:
                back.append(a)
        else:
            back.append(a)
    penv.add(*back)


def _is_function(t: Type) -> bool:
    return isinstance(t, (TArrow, TForall))


def _is_concrete(t: Type) -> bool:
    return isinstance(t, TConcrete)


def _held_type(penv: PermEnv, anchor: str) -> Type:
    """The type that `anchor`'s first atom in `penv` holds, else unit: the
    type a result is taken to have when none is declared."""
    hits = penv.atoms_of(anchor)
    return hits[0][1].ty if hits else TTuple(())


def _singleton_comp(anchor: str) -> TupleComp:
    return TupleComp(None, TSingleton(anchor), False)


def _intersect(lists: Sequence[Sequence[Atom]]) -> list[Atom]:
    """The multiset intersection of the atom lists `lists`, in the order of
    the first: each atom is kept as often as the list that holds it least
    often holds it, and its earliest occurrences are the ones kept."""
    first, *others = lists
    budget = Counter(first)
    for other in others:
        budget &= Counter(other)
    kept = []
    for atom in first:
        if budget[atom] > 0:
            budget[atom] -= 1
            kept.append(atom)
    return kept
