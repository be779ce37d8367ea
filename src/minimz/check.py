"""Permission-aware expression and declaration checking.

Checking is flow-sensitive: every expression threads a permission
environment. Function bodies are checked against their declared
signatures; at every tail position the declared result (value type plus
codomain permissions) and all non-consumed domain permissions must be
subsumable from the current environment.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

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
    KIND_PERM,
    PTag,
    PTuple,
    PVar,
    Pattern,
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
    children,
    has_meta,
)
from .ast import TupleComp
from .kinds import DataInfo, Env, domain_bar, domain_comps
from .perms import (
    Anchored,
    Atom,
    Handle,
    NameSupply,
    PermEnv,
    SubsumptionFailure,
    admit_atoms,
    normalize,
    split_branch,
    subst_type,
)
from .subsume import Subsumer

BOOL = TApp("bool", ())
INT = TApp("int", ())

_TAIL_DONE = object()


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    span: Span
    perm_snapshot: str = ""
    goal: Atom | None = field(default=None, compare=False)

    def render(self, path: str, text: str) -> str:
        from .lexer import line_col

        line, col = line_col(text, self.span.start)
        return f"{path}:{line}:{col} {self.code} {self.message}"


class CheckFailure(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(diag.message)
        self.diag = diag


@dataclass
class CheckState:
    penv: PermEnv
    bindings: dict[str, str]

    def with_penv(self, penv: PermEnv) -> "CheckState":
        return CheckState(penv, self.bindings)

    def bind(self, name: str, anchor: str) -> "CheckState":
        bindings = dict(self.bindings)
        bindings[name] = anchor
        return CheckState(self.penv, bindings)


@dataclass
class Tail:
    codomain: Type
    exit_goals: list[Atom]
    span: Span


class Checker:
    def __init__(self, env: Env):
        self.env = env

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------

    def check_file(self, file: SourceFile) -> list[Diagnostic]:
        names = NameSupply()
        diags: list[Diagnostic] = []
        own = _file_sig_names(file)
        available: list[str] = [name for name in self.env.sig_order if name not in own]
        for decl in file.decls:
            if isinstance(decl, DValSig):
                available.append(decl.name)
            elif isinstance(decl, DValDef):
                try:
                    self.check_function_def(
                        decl, self.env.sigs[decl.name], available, names
                    )
                except CheckFailure as exc:
                    diags.append(exc.diag)
        return diags

    def check_function_def(
        self, decl: DValDef, sig: Type, available: list[str], names: NameSupply
    ) -> None:
        """Check `decl` against `sig`, with the top-level values `available`
        in scope, drawing fresh names from `names`."""
        self.sub = Subsumer(self.env, names)
        body_ty = sig
        while isinstance(body_ty, TForall):
            body_ty = body_ty.body
        assert isinstance(body_ty, TArrow)

        bindings: dict[str, str] = {name: name for name in available}
        penv = PermEnv(
            self.env, (), {name: self.env.sigs[name] for name in available}
        )
        state, values, exit_goals = self._enter_domain(
            CheckState(penv, bindings), body_ty.domain, decl.params
        )
        codomain = subst_type(body_ty.codomain, {}, values)
        self.check_expr(state, decl.body, Tail(codomain, exit_goals, decl.span))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _mk_anchor(self, penv: PermEnv, bindings: dict[str, str], name: str) -> str:
        if name in bindings.values() or penv.holds_anchor(name):
            return self.sub.names.fresh(name)
        return name

    def _enter_domain(
        self, st: CheckState, domain: Type, params: Sequence[str | None]
    ) -> tuple[CheckState, dict[str, str], list[Atom]]:
        """Admit the components and bar of an arrow's domain into `st`.

        Component `i` enters at an anchor based on `params[i]`, the name the
        body gives it, or on `arg{i}` when the body gives it none. A
        component's own name scopes over the later components, the bar and
        the codomain. Returns the new state, the renaming of component names
        to anchors, and the exit goals: the permissions of the components and
        the bar that the arrow does not consume.
        """
        penv, bindings = st.penv, dict(st.bindings)
        values: dict[str, str] = {}
        exit_goals: list[Atom] = []
        for i, (comp, param) in enumerate(zip(domain_comps(domain), params)):
            comp_ty = subst_type(comp.ty, {}, values)
            anchor = self._mk_anchor(penv, bindings, param or f"arg{i}")
            if param is not None:
                bindings[param] = anchor
            if comp.name is not None:
                values[comp.name] = anchor
            penv = penv.add(*admit_atoms(anchor, self.sub.uni.resolve(comp_ty)))
            if not comp.consumed:
                exit_goals.append(Anchored(anchor, comp_ty))
        bar, bar_consumed = domain_bar(domain)
        if bar is not None:
            bar_atoms = normalize(subst_type(bar, {}, values))
            penv = penv.add(*bar_atoms)
            if not bar_consumed:
                exit_goals.extend(bar_atoms)
        return CheckState(penv, bindings), values, exit_goals

    def _new_value(self, st: CheckState, ty: Type, base: str) -> tuple[str, CheckState]:
        """A value of type `ty` at a fresh anchor named after `base`."""
        anchor = self.sub.names.fresh(base)
        return anchor, st.with_penv(st.penv.add(Anchored(anchor, ty)))

    def _admit_result(self, st: CheckState, ty: Type, base: str) -> tuple[str, CheckState]:
        ty = self.sub.uni.resolve(ty)
        if isinstance(ty, TSingleton):
            return ty.name, st
        if isinstance(ty, TBar):
            anchor, st = self._admit_result(st, ty.carrier, base)
            return anchor, st.with_penv(st.penv.add(*normalize(ty.perm)))
        return self._new_value(st, ty, base)

    def _subsume_or_fail(
        self,
        st: CheckState,
        goals: list[Atom],
        span: Span,
        code: str = "E-SUBSUME",
        defer: list[Atom] | None = None,
    ) -> CheckState:
        try:
            return st.with_penv(self.sub.subsume(st.penv, goals, defer=defer))
        except SubsumptionFailure as exc:
            goal = exc.goal
            if isinstance(goal, Anchored):
                goal = Anchored(goal.anchor, self.sub.uni.resolve(goal.ty))
            raise CheckFailure(
                Diagnostic(
                    code,
                    f"permission not available: {goal}",
                    span,
                    str(exc.env),
                    goal=goal,
                )
            ) from exc

    def _fail(self, code: str, message: str, span: Span, st: CheckState | None = None):
        snapshot = str(st.penv) if st is not None else ""
        raise CheckFailure(Diagnostic(code, message, span, snapshot))

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def check_expr(self, st: CheckState, e: Expr, tail: Tail | None = None):
        """Returns (anchor, state) in non-tail positions, _TAIL_DONE in tail
        positions (where the declared result has been subsumed)."""
        if isinstance(e, ELet):
            out = self.check_expr(st, e.bound, None)
            anchor, st2 = out
            st3 = self._bind_pattern(st2, e.pattern, anchor)
            return _scoped(self.check_expr(st3, e.body, tail), st)
        if isinstance(e, EIf):
            cond_anchor, st2 = self.check_expr(st, e.cond, None)
            st2 = self._subsume_or_fail(st2, [Anchored(cond_anchor, BOOL)], e.span)
            work = [(st2, e.then), (st2, e.otherwise)]
            return self._run_branches(work, e.span, tail, st2.bindings)
        if isinstance(e, EMatch):
            return self._check_match(st, e, tail)
        if tail is not None:
            anchor, st2 = self._synth(st, e)
            return self._finish_tail(st2, anchor, tail, getattr(e, "span", tail.span))
        return self._synth(st, e)

    def _finish_tail(self, st: CheckState, anchor: str, tail: Tail, span: Span):
        st = self._subsume_or_fail(st, [Anchored(anchor, tail.codomain)], span)
        if tail.exit_goals:
            st = self._subsume_or_fail(st, list(tail.exit_goals), span, code="E-CONSUMED")
        return _TAIL_DONE

    # -- synthesis ----------------------------------------------------------

    def _synth(self, st: CheckState, e: Expr) -> tuple[str, CheckState]:
        if isinstance(e, EVar):
            return st.bindings[e.name], st
        if isinstance(e, EInt):
            return self._new_value(st, INT, "n")
        if isinstance(e, EBool):
            return self._new_value(st, BOOL, "b")
        if isinstance(e, ETuple):
            anchors = []
            for item in e.items:
                a, st = self.check_expr(st, item, None)
                anchors.append(a)
            ty = TTuple(tuple(_singleton_comp(a) for a in anchors))
            return self._new_value(st, ty, "tup")
        if isinstance(e, EConstruct):
            anchors = []
            for _, value in e.fields:
                a, st = self.check_expr(st, value, None)
                anchors.append(a)
            fields = tuple(
                (fname, TSingleton(a)) for (fname, _), a in zip(e.fields, anchors)
            )
            ty = TConcrete(e.tag, fields, None)
            return self._new_value(st, ty, e.tag.lower())
        if isinstance(e, ECall):
            return self._check_call(st, e)
        if isinstance(e, EField):
            obj, st = self.check_expr(st, e.obj, None)
            st, handle = self._structural(st, obj, e.span)
            ty = st.penv.atom(handle).ty
            assert isinstance(ty, TConcrete)
            for fname, fty in ty.fields:
                if fname == e.name:
                    assert isinstance(fty, TSingleton)
                    return fty.name, st
            self._fail("E-SUBSUME", f"no field {e.name!r} on {ty.tag}", e.span, st)
        if isinstance(e, EAssign):
            value, st = self.check_expr(st, e.value, None)
            obj, st = self.check_expr(st, e.obj, None)
            st, handle = self._structural(st, obj, e.span, mutate=True)
            atom = st.penv.atom(handle)
            ty = atom.ty
            assert isinstance(atom, Anchored) and isinstance(ty, TConcrete)
            if e.name not in [f for f, _ in ty.fields]:
                self._fail("E-SUBSUME", f"no field {e.name!r} on {ty.tag}", e.span, st)
            fields = tuple(
                (f, TSingleton(value) if f == e.name else fv) for f, fv in ty.fields
            )
            new_atom = Anchored(atom.anchor, replace(ty, fields=fields))
            st = st.with_penv(st.penv.replace(handle, new_atom))
            return self._unit(st)
        if isinstance(e, ETagUpdate):
            return self._check_tag_update(st, e)
        if isinstance(e, ELambda):
            return self._check_lambda(st, e)
        raise TypeError(f"unknown expression {e!r}")

    def _unit(self, st: CheckState) -> tuple[str, CheckState]:
        return self._new_value(st, TTuple(()), "u")

    # -- calls ---------------------------------------------------------------

    def _check_call(self, st: CheckState, e: ECall) -> tuple[str, CheckState]:
        callee, st = self.check_expr(st, e.callee, None)
        found = self.sub.head_atom(
            st.penv, callee, lambda t: isinstance(t, (TArrow, TForall))
        )
        if found is not None:
            penv, handle = found
            st = st.with_penv(penv)
            fn_ty = self.sub.uni.resolve(penv.atom(handle).ty)
        else:
            gty = st.penv.global_type(callee)
            if gty is None or not isinstance(gty, (TArrow, TForall)):
                self._fail("E-SUBSUME", "callee has no function permission", e.span, st)
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
                        st,
                    )
                witnesses = [subst_type(t, {}, st.bindings) for t in e.type_args]
                for (bname, bkind), witness in zip(fn_ty.binders, witnesses):
                    wkind = _obvious_kind(witness)
                    if wkind is not None and wkind != bkind:
                        self._fail(
                            "E-KIND",
                            f"type argument for {bname!r} has kind {wkind}, "
                            f"expected {bkind}",
                            e.span,
                            st,
                        )
                witnesses += [
                    self.sub.uni.fresh(n, k)
                    for n, k in fn_ty.binders[len(witnesses) :]
                ]
            else:
                witnesses = [self.sub.uni.fresh(n, k) for n, k in fn_ty.binders]
            subst = {n: w for (n, _), w in zip(fn_ty.binders, witnesses)}
            fn_ty = subst_type(fn_ty.body, subst)
        elif e.type_args is not None:
            self._fail("E-ARITY", "callee is not polymorphic", e.span, st)
        if not isinstance(fn_ty, TArrow):
            self._fail("E-SUBSUME", "callee has no function permission", e.span, st)

        comps = domain_comps(fn_ty.domain)
        bar, bar_consumed = domain_bar(fn_ty.domain)

        if len(comps) == 1:
            arg_exprs = [e.arg]
        elif isinstance(e.arg, ETuple) and len(e.arg.items) == len(comps):
            arg_exprs = list(e.arg.items)
        elif len(comps) == 0 and isinstance(e.arg, ETuple) and not e.arg.items:
            arg_exprs = []
        else:
            self._fail(
                "E-ARITY",
                f"call expects {len(comps)} argument(s)",
                e.span,
                st,
            )
        anchors: list[str] = []
        for arg in arg_exprs:
            a, st = self.check_expr(st, arg, None)
            anchors.append(a)

        values: dict[str, str] = {}
        restores: list[tuple[str, Type]] = []
        deferred: list[Atom] = []
        for comp, anchor in zip(comps, anchors):
            comp_ty = subst_type(comp.ty, {}, values)
            st = self._subsume_or_fail(st, [Anchored(anchor, comp_ty)], e.span, defer=deferred)
            if comp.name is not None:
                values[comp.name] = anchor
            if not comp.consumed:
                restores.append((anchor, comp_ty))
        bar_ty = None
        if bar is not None:
            bar_ty = subst_type(bar, {}, values)
            st = self._subsume_or_fail(
                st, normalize(self.sub.uni.resolve(bar_ty)), e.span, defer=deferred
            )
        if deferred:
            # Every unification constraint has now been seen; unsolved
            # permission metavariables default to empty.
            st = self._subsume_or_fail(st, deferred, e.span)
        if bar_ty is not None and not bar_consumed:
            st = st.with_penv(st.penv.add(*normalize(self.sub.uni.resolve(bar_ty))))
        for anchor, ty in restores:
            st = st.with_penv(st.penv.add(*admit_atoms(anchor, self.sub.uni.resolve(ty))))

        codomain = self.sub.uni.resolve(subst_type(fn_ty.codomain, {}, values))
        self._default_unsolved(codomain, e.span, st)
        codomain = self.sub.uni.resolve(codomain)
        anchor, st = self._admit_result(st, codomain, "r")
        return anchor, st

    def _default_unsolved(self, ty: Type, span: Span, st: CheckState) -> None:
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
                    unsolved_type.append(u.name)
            elif has_meta(u):
                work += reversed(children(u))
        if unsolved_type:
            self._fail(
                "E-KIND",
                f"cannot infer type argument(s) {sorted(set(unsolved_type))}",
                span,
                st,
            )

    # -- structural access -----------------------------------------------------

    def _structural(
        self, st: CheckState, anchor: str, span: Span, mutate: bool = False
    ) -> tuple[CheckState, Handle]:
        found = self.sub.head_atom(st.penv, anchor, lambda t: isinstance(t, TConcrete))
        if found is None:
            refined = self._auto_refine(st, anchor)
            if refined is not None:
                st = refined
                found = self.sub.head_atom(st.penv, anchor, lambda t: isinstance(t, TConcrete))
        if found is None:
            self._fail("E-SUBSUME", "no structural permission for field access", span, st)
        penv, handle = found
        st = st.with_penv(penv)
        ty = penv.atom(handle).ty
        assert isinstance(ty, TConcrete)
        if mutate:
            entry = self.env.tags.get(ty.tag)
            data = self.env.types.get(entry[0]) if entry else None
            if not (isinstance(data, DataInfo) and data.mutable):
                self._fail("E-SUBSUME", f"type of {anchor!r} is not mutable", span, st)
        return st, handle

    def _auto_refine(self, st: CheckState, anchor: str) -> CheckState | None:
        """Refine `x @ D args` to its structural form when D has one branch."""
        found = self.sub.head_atom(
            st.penv,
            anchor,
            lambda t: isinstance(t, TApp)
            and isinstance(self.env.types.get(t.head), DataInfo)
            and len(self.env.types[t.head].branches) == 1,
        )
        if found is None:
            return None
        penv, handle = found
        atom = penv.atom(handle)
        ty = self.sub.uni.resolve(atom.ty)
        assert isinstance(ty, TApp)
        info = self.env.types[ty.head]
        assert isinstance(info, DataInfo)
        (branch,) = info.branches.values()
        names = (self.sub.names.fresh(fname) for fname, _ in branch.fields)
        split = split_branch(atom.anchor, info, ty.args, branch, names)
        return st.with_penv(penv.replace(handle, *split))

    # -- match -------------------------------------------------------------------

    def _check_match(self, st: CheckState, e: EMatch, tail: Tail | None):
        scrutinee, st = self.check_expr(st, e.scrutinee, None)
        found = self.sub.head_atom(
            st.penv,
            scrutinee,
            lambda t: isinstance(t, TConcrete)
            or (isinstance(t, TApp) and isinstance(self.env.types.get(t.head), DataInfo)),
        )
        if found is None:
            self._fail("E-MATCH", "no data permission for match scrutinee", e.span, st)
        penv, handle = found
        st = st.with_penv(penv)
        ty = self.sub.uni.resolve(penv.atom(handle).ty)

        if isinstance(ty, TConcrete):
            for pat, body in e.branches:
                assert isinstance(pat, PTag)
                if pat.tag == ty.tag:
                    # also split a nominal permission held next to this one
                    split = self.sub.split_along(st.penv, handle, ty)
                    st2 = st if split is None else st.with_penv(split)
                    st2 = self._bind_tag_pattern(st2, pat, ty)
                    return _scoped(self.check_expr(st2, body, tail), st)
            self._fail("E-MATCH", f"no branch for known tag {ty.tag!r}", e.span, st)

        assert isinstance(ty, TApp)
        info = self.env.types[ty.head]
        assert isinstance(info, DataInfo)
        covered = {pat.tag for pat, _ in e.branches if isinstance(pat, PTag)}
        missing = [t for t in info.branches if t not in covered]
        if missing:
            self._fail("E-MATCH", f"non-exhaustive match, missing {missing}", e.span, st)
        for pat, _ in e.branches:
            assert isinstance(pat, PTag)
            if pat.tag not in info.branches:
                self._fail(
                    "E-MATCH", f"branch {pat.tag!r} is not part of {ty.head!r}", pat.span, st
                )

        branch_work: list[tuple[CheckState, Expr]] = []
        for pat, body in e.branches:
            assert isinstance(pat, PTag)
            branch = info.branches[pat.tag]
            names: list[str] = []
            for (fname, _), (_, fpat) in zip(branch.fields, pat.fields):
                if isinstance(fpat, PVar):
                    names.append(self._mk_anchor(st.penv, st.bindings, fpat.name))
                else:
                    names.append(self.sub.names.fresh(fname))
            split = split_branch(scrutinee, info, ty.args, branch, names)
            st2 = st.with_penv(st.penv.replace(handle, *split))
            for (_, fpat), a in zip(pat.fields, names):
                st2 = self._bind_pattern(st2, fpat, a)
            branch_work.append((st2, body))
        return self._run_branches(branch_work, e.span, tail, st.bindings)

    def _bind_tag_pattern(self, st: CheckState, pat: PTag, sty: TConcrete) -> CheckState:
        for (fname, fpat), (_, actual) in zip(pat.fields, sty.fields):
            assert isinstance(actual, TSingleton)
            st = self._bind_pattern(st, fpat, actual.name)
        return st

    def _run_branches(
        self,
        work: list[tuple[CheckState, Expr]],
        span: Span,
        tail: Tail | None,
        outer_bindings: dict[str, str] | None = None,
    ):
        if tail is not None:
            for st2, body in work:
                self.check_expr(st2, body, tail)
            return _TAIL_DONE
        results = []
        for st2, body in work:
            out = self.check_expr(st2, body, None)
            assert out is not _TAIL_DONE
            results.append(out)
        # Join: each branch must subsume the first branch's result type;
        # the joined environment is the atom-multiset intersection.
        first_anchor, first_st = results[0]
        hits = first_st.penv.atoms_of(first_anchor)
        result_ty: Type = hits[0][1].ty if hits else TTuple(())
        left: list[tuple[Atom, ...]] = []
        for anchor, st2 in results:
            st2 = self._subsume_or_fail(st2, [Anchored(anchor, result_ty)], span)
            left.append(st2.penv.atoms)
        common = _intersect(left)
        anchor = self.sub.names.fresh("j")
        penv = PermEnv(self.env, common, first_st.penv.globals).add(
            Anchored(anchor, self.sub.uni.resolve(result_ty))
        )
        bindings = outer_bindings if outer_bindings is not None else results[0][1].bindings
        return anchor, CheckState(penv, bindings)

    # -- patterns, tag update, lambdas ------------------------------------------

    def _bind_pattern(self, st: CheckState, pat: Pattern, anchor: str) -> CheckState:
        if isinstance(pat, PVar):
            return st.bind(pat.name, anchor)
        if isinstance(pat, PTuple):
            found = self.sub.head_atom(
                st.penv,
                anchor,
                lambda t: isinstance(t, TTuple)
                and all(isinstance(c.ty, TSingleton) for c in t.comps),
            )
            if found is None:
                self._fail(
                    "E-SUBSUME",
                    "no tuple permission to destructure",
                    getattr(pat, "span", Span(0, 0)),
                    st,
                )
            penv, handle = found
            st = st.with_penv(penv)
            ty = penv.atom(handle).ty
            assert isinstance(ty, TTuple)
            if len(ty.comps) != len(pat.items):
                self._fail(
                    "E-ARITY",
                    f"tuple pattern expects {len(ty.comps)} component(s)",
                    getattr(pat, "span", Span(0, 0)),
                    st,
                )
            for comp, sub_pat in zip(ty.comps, pat.items):
                assert isinstance(comp.ty, TSingleton)
                st = self._bind_pattern(st, sub_pat, comp.ty.name)
            return st
        raise TypeError(f"unsupported pattern {pat!r}")

    def _check_tag_update(self, st: CheckState, e: ETagUpdate) -> tuple[str, CheckState]:
        anchors = []
        for _, value in e.fields:
            a, st = self.check_expr(st, value, None)
            anchors.append(a)
        obj, st = self.check_expr(st, e.obj, None)
        st, handle = self._structural(st, obj, e.span, mutate=True)
        atom = st.penv.atom(handle)
        ty = atom.ty
        assert isinstance(atom, Anchored) and isinstance(ty, TConcrete)
        old_entry = self.env.tags[ty.tag]
        new_entry = self.env.tags[e.tag]
        if old_entry[0] != new_entry[0]:
            self._fail(
                "E-MATCH",
                f"tag update must stay within {old_entry[0]!r}",
                e.span,
                st,
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
                    st,
                )
        new_atom = Anchored(atom.anchor, TConcrete(e.tag, tuple(new_fields), None))
        st = st.with_penv(st.penv.replace(handle, new_atom))
        return self._unit(st)

    def _check_lambda(self, st: CheckState, e: ELambda) -> tuple[str, CheckState]:
        cod = e.codomain if e.codomain is not None else TTuple(())
        arrow = subst_type(TArrow(e.domain, cod), {}, st.bindings)
        assert isinstance(arrow, TArrow)
        domain = arrow.domain
        codomain = arrow.codomain if e.codomain is not None else None

        inner = PermEnv(self.env, st.penv.duplicable_atoms(), st.penv.globals)
        inner_state, values, exit_goals = self._enter_domain(
            CheckState(inner, st.bindings), domain, [c.name for c in domain_comps(domain)]
        )
        try:
            if codomain is not None:
                tail = Tail(subst_type(codomain, {}, values), exit_goals, e.span)
                self.check_expr(inner_state, e.body, tail)
                result_cod = codomain
            else:
                out = self.check_expr(inner_state, e.body, None)
                assert out is not _TAIL_DONE
                anchor2, st2 = out
                hits = st2.penv.atoms_of(anchor2)
                result_cod = hits[0][1].ty if hits else TTuple(())
                st2 = self._subsume_or_fail(
                    st2, [Anchored(anchor2, result_cod)], e.span
                )
                if exit_goals:
                    self._subsume_or_fail(st2, list(exit_goals), e.span, code="E-CONSUMED")
        except CheckFailure as exc:
            goal = exc.diag.goal
            if (
                exc.diag.code == "E-SUBSUME"
                and goal is not None
                and st.penv.has_affine(goal)
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

        return self._new_value(st, TArrow(domain, result_cod), "fn")


def _scoped(out, outer: CheckState):
    """The outcome `out` of checking the body of a `let` or a `match`
    branch, as the outcome of the whole expression checked in `outer`: the
    body's binders scope over the body alone, so a result in a non-tail
    position carries `outer`'s bindings, and a later sibling of the
    expression does not see them."""
    if out is _TAIL_DONE:
        return out
    anchor, st = out
    return anchor, CheckState(st.penv, outer.bindings)


def _singleton_comp(anchor: str) -> TupleComp:
    return TupleComp(None, TSingleton(anchor), False)


def _obvious_kind(t: Type):
    """The kind of a type-argument witness when it is syntactically clear;
    bare variables stay ambiguous (they may name rigid perm binders)."""
    from .ast import KIND_TYPE, TAt, TEmpty, TStar

    if isinstance(t, (TAt, TStar, TEmpty)):
        return KIND_PERM
    if isinstance(t, (TApp, TArrow, TTuple, TConcrete, TSingleton, TBar)):
        return KIND_TYPE
    return None


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


def _file_sig_names(file: SourceFile) -> set[str]:
    return {d.name for d in file.decls if isinstance(d, DValSig)}
