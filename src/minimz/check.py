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
from dataclasses import dataclass, field

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

# Local names with their anchors, in the order they are bound.
Bindings = Sequence[tuple[str, str]]


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
class Tail:
    codomain: Type
    exit_goals: list[Atom]
    span: Span


class Checker:
    """While a definition is checked, `locals` maps each local name in scope
    to its anchor and `trail` holds what each binding hid, so that a binder's
    names leave after its body. A name not bound locally is a top-level
    value: its own anchor, with its type in `available`. A top-level name
    that the file declares and never defines (`undefined`) cannot be used."""

    def __init__(self, env: Env):
        self.env = env
        self.undefined: set[str] = set()

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------

    def check_file(self, file: SourceFile) -> list[Diagnostic]:
        names = NameSupply()
        diags: list[Diagnostic] = []
        own = {d.name for d in file.decls if isinstance(d, DValSig)}
        # names this file declares and never defines: nothing runs for them
        self.undefined = own - {d.name for d in file.decls if isinstance(d, DValDef)}
        available = {name: ty for name, ty in self.env.sigs.items() if name not in own}
        for decl in file.decls:
            if isinstance(decl, DValSig):
                available[decl.name] = self.env.sigs[decl.name]
            elif isinstance(decl, DValDef):
                try:
                    self.check_function_def(
                        decl, self.env.sigs[decl.name], available, names
                    )
                except CheckFailure as exc:
                    diags.append(exc.diag)
        return diags

    def check_function_def(
        self, decl: DValDef, sig: Type, available: dict[str, Type], names: NameSupply
    ) -> None:
        """Check `decl` against `sig`, with the top-level values `available`
        (name to type) in scope, drawing fresh names from `names`."""
        self.sub = Subsumer(self.env, names)
        self.available = available
        self.locals: dict[str, str] = {}
        self.trail: list[tuple[str, str | None]] = []
        body_ty = sig
        while isinstance(body_ty, TForall):
            body_ty = body_ty.body
        assert isinstance(body_ty, TArrow)

        penv, values, exit_goals = self._enter_domain(
            PermEnv(self.env, (), available), body_ty.domain, decl.params
        )
        codomain = subst_type(body_ty.codomain, {}, values)
        self.check_expr(penv, decl.body, Tail(codomain, exit_goals, decl.span))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _enter(self, pairs: Bindings) -> int:
        """Bind the names of `pairs`; returns the mark `_leave` undoes to."""
        mark = len(self.trail)
        for name, anchor in pairs:
            self.trail.append((name, self.locals.get(name)))
            self.locals[name] = anchor
        return mark

    def _leave(self, mark: int) -> None:
        while len(self.trail) > mark:
            name, old = self.trail.pop()
            if old is None:
                del self.locals[name]
            else:
                self.locals[name] = old

    def _mk_anchor(self, penv: PermEnv, name: str) -> str:
        """An anchor for a new local `name`: `name` itself unless it already
        names a top-level value, a held permission or a local's anchor."""
        taken = penv.global_type(name) is not None or penv.holds_anchor(name)
        if taken or name in self.locals.values():
            return self.sub.names.fresh(name)
        return name

    def _enter_domain(
        self, penv: PermEnv, domain: Type, params: Sequence[str | None]
    ) -> tuple[PermEnv, dict[str, str], list[Atom]]:
        """Admit the components and bar of an arrow's domain into `penv`.

        Component `i` enters at an anchor based on `params[i]`, the name the
        body gives it, or on `arg{i}` when the body gives it none; the
        parameter names enter `locals`. A component's own name scopes over
        the later components, the bar and the codomain. Returns the new
        environment, the renaming of component names to anchors, and the
        exit goals: the permissions of the components and the bar that the
        arrow does not consume.
        """
        values: dict[str, str] = {}
        exit_goals: list[Atom] = []
        for i, (comp, param) in enumerate(zip(domain_comps(domain), params)):
            comp_ty = subst_type(comp.ty, {}, values)
            anchor = self._mk_anchor(penv, param or f"arg{i}")
            if param is not None:
                self._enter([(param, anchor)])
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
        return penv, values, exit_goals

    def _new_value(self, penv: PermEnv, ty: Type, base: str) -> tuple[str, PermEnv]:
        """A value of type `ty` at a fresh anchor named after `base`."""
        anchor = self.sub.names.fresh(base)
        return anchor, penv.add(Anchored(anchor, ty))

    def _admit_result(self, penv: PermEnv, ty: Type, base: str) -> tuple[str, PermEnv]:
        ty = self.sub.uni.resolve(ty)
        if isinstance(ty, TSingleton):
            return ty.name, penv
        if isinstance(ty, TBar):
            anchor, penv = self._admit_result(penv, ty.carrier, base)
            return anchor, penv.add(*normalize(ty.perm))
        return self._new_value(penv, ty, base)

    def _subsume_or_fail(
        self,
        penv: PermEnv,
        goals: list[Atom],
        span: Span,
        code: str = "E-SUBSUME",
        defer: list[Atom] | None = None,
    ) -> PermEnv:
        try:
            return self.sub.subsume(penv, goals, defer=defer)
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

    def _fail(self, code: str, message: str, span: Span, penv: PermEnv | None = None):
        snapshot = str(penv) if penv is not None else ""
        raise CheckFailure(Diagnostic(code, message, span, snapshot))

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def check_expr(
        self, penv: PermEnv, e: Expr, tail: Tail | None = None, pairs: Bindings = ()
    ):
        """Returns (anchor, environment) in non-tail positions, _TAIL_DONE
        in tail positions (where the declared result has been subsumed).
        The names of `pairs` are bound over `e` alone; a chain of `let`s is
        checked in a loop, each binding over the rest of the chain."""
        mark = self._enter(pairs)
        while isinstance(e, ELet):
            anchor, penv = self.check_expr(penv, e.bound, None)
            names: list[tuple[str, str]] = []
            penv = self._bind_pattern(penv, e.pattern, anchor, names)
            self._enter(names)
            e = e.body
        if isinstance(e, EIf):
            cond_anchor, penv = self.check_expr(penv, e.cond, None)
            penv = self._subsume_or_fail(penv, [Anchored(cond_anchor, BOOL)], e.span)
            work = [(penv, (), e.then), (penv, (), e.otherwise)]
            out = self._run_branches(work, e.span, tail)
        elif isinstance(e, EMatch):
            out = self._check_match(penv, e, tail)
        elif tail is not None:
            anchor, penv = self._synth(penv, e)
            out = self._finish_tail(penv, anchor, tail, getattr(e, "span", tail.span))
        else:
            out = self._synth(penv, e)
        self._leave(mark)
        return out

    def _finish_tail(self, penv: PermEnv, anchor: str, tail: Tail, span: Span):
        penv = self._subsume_or_fail(penv, [Anchored(anchor, tail.codomain)], span)
        if tail.exit_goals:
            self._subsume_or_fail(penv, list(tail.exit_goals), span, code="E-CONSUMED")
        return _TAIL_DONE

    # -- synthesis ----------------------------------------------------------

    def _synth(self, penv: PermEnv, e: Expr) -> tuple[str, PermEnv]:
        if isinstance(e, EVar):
            anchor = self.locals.get(e.name)
            if anchor is not None:
                return anchor, penv
            if e.name in self.undefined:
                self._fail(
                    "E-UNDEFINED",
                    f"{e.name!r} has a signature but no definition",
                    e.span,
                    penv,
                )
            return e.name, penv
        if isinstance(e, EInt):
            return self._new_value(penv, INT, "n")
        if isinstance(e, EBool):
            return self._new_value(penv, BOOL, "b")
        if isinstance(e, ETuple):
            anchors = []
            for item in e.items:
                a, penv = self.check_expr(penv, item, None)
                anchors.append(a)
            ty = TTuple(tuple(_singleton_comp(a) for a in anchors))
            return self._new_value(penv, ty, "tup")
        if isinstance(e, EConstruct):
            anchors = []
            for _, value in e.fields:
                a, penv = self.check_expr(penv, value, None)
                anchors.append(a)
            fields = tuple(
                (fname, TSingleton(a)) for (fname, _), a in zip(e.fields, anchors)
            )
            ty = TConcrete(e.tag, fields, None)
            return self._new_value(penv, ty, e.tag.lower())
        if isinstance(e, ECall):
            return self._check_call(penv, e)
        if isinstance(e, EField):
            obj, penv = self.check_expr(penv, e.obj, None)
            penv, handle = self._structural(penv, obj, e.span)
            ty = penv.atom(handle).ty
            assert isinstance(ty, TConcrete)
            for fname, fty in ty.fields:
                if fname == e.name:
                    assert isinstance(fty, TSingleton)
                    return fty.name, penv
            self._fail("E-SUBSUME", f"no field {e.name!r} on {ty.tag}", e.span, penv)
        if isinstance(e, EAssign):
            value, penv = self.check_expr(penv, e.value, None)
            obj, penv = self.check_expr(penv, e.obj, None)
            penv, handle = self._structural(penv, obj, e.span, mutate=True)
            atom = penv.atom(handle)
            ty = atom.ty
            assert isinstance(atom, Anchored) and isinstance(ty, TConcrete)
            if e.name not in [f for f, _ in ty.fields]:
                self._fail("E-SUBSUME", f"no field {e.name!r} on {ty.tag}", e.span, penv)
            fields = tuple(
                (f, TSingleton(value) if f == e.name else fv) for f, fv in ty.fields
            )
            new_atom = Anchored(atom.anchor, TConcrete(ty.tag, fields, ty.bar, ty.span))
            return self._unit(penv.replace(handle, new_atom))
        if isinstance(e, ETagUpdate):
            return self._check_tag_update(penv, e)
        if isinstance(e, ELambda):
            return self._check_lambda(penv, e)
        raise TypeError(f"unknown expression {e!r}")

    def _unit(self, penv: PermEnv) -> tuple[str, PermEnv]:
        return self._new_value(penv, TTuple(()), "u")

    # -- calls ---------------------------------------------------------------

    def _check_call(self, penv: PermEnv, e: ECall) -> tuple[str, PermEnv]:
        callee, penv = self.check_expr(penv, e.callee, None)
        found = self.sub.head_atom(
            penv, callee, lambda t: isinstance(t, (TArrow, TForall))
        )
        if found is not None:
            penv, handle = found
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
                    wkind = _obvious_kind(witness)
                    if wkind is not None and wkind != bkind:
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
                penv,
            )
        anchors: list[str] = []
        for arg in arg_exprs:
            a, penv = self.check_expr(penv, arg, None)
            anchors.append(a)

        values: dict[str, str] = {}
        restores: list[tuple[str, Type]] = []
        deferred: list[Atom] = []
        for comp, anchor in zip(comps, anchors):
            comp_ty = subst_type(comp.ty, subst, values)
            penv = self._subsume_or_fail(
                penv, [Anchored(anchor, comp_ty)], e.span, defer=deferred
            )
            if comp.name is not None:
                values[comp.name] = anchor
            if not comp.consumed:
                restores.append((anchor, comp_ty))
        bar_ty = None
        if bar is not None:
            bar_ty = subst_type(bar, subst, values)
            penv = self._subsume_or_fail(
                penv, normalize(self.sub.uni.resolve(bar_ty)), e.span, defer=deferred
            )
        if deferred:
            # Every unification constraint has now been seen; unsolved
            # permission metavariables default to empty.
            penv = self._subsume_or_fail(penv, deferred, e.span)
        if bar_ty is not None and not bar_consumed:
            penv = _put_back(penv, normalize(self.sub.uni.resolve(bar_ty)))
        for anchor, ty in restores:
            penv = _put_back(penv, admit_atoms(anchor, self.sub.uni.resolve(ty)))

        codomain = self.sub.uni.resolve(subst_type(fn_ty.codomain, subst, values))
        self._default_unsolved(codomain, e.span, penv)
        codomain = self.sub.uni.resolve(codomain)
        return self._admit_result(penv, codomain, "r")

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
                    unsolved_type.append(u.name)
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

    def _structural(
        self, penv: PermEnv, anchor: str, span: Span, mutate: bool = False
    ) -> tuple[PermEnv, Handle]:
        found = self.sub.head_atom(penv, anchor, lambda t: isinstance(t, TConcrete))
        if found is None:
            refined = self._auto_refine(penv, anchor)
            if refined is not None:
                penv = refined
                found = self.sub.head_atom(penv, anchor, lambda t: isinstance(t, TConcrete))
        if found is None:
            self._fail("E-SUBSUME", "no structural permission for field access", span, penv)
        penv, handle = found
        ty = penv.atom(handle).ty
        assert isinstance(ty, TConcrete)
        if mutate:
            entry = self.env.tags.get(ty.tag)
            data = self.env.types.get(entry[0]) if entry else None
            if not (isinstance(data, DataInfo) and data.mutable):
                self._fail("E-SUBSUME", f"type of {anchor!r} is not mutable", span, penv)
        return penv, handle

    def _auto_refine(self, penv: PermEnv, anchor: str) -> PermEnv | None:
        """Refine `x @ D args` to its structural form when D has one branch."""
        found = self.sub.head_atom(
            penv,
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
        return penv.replace(handle, *split)

    # -- match -------------------------------------------------------------------

    def _check_match(self, penv: PermEnv, e: EMatch, tail: Tail | None):
        scrutinee, penv = self.check_expr(penv, e.scrutinee, None)
        found = self.sub.head_atom(
            penv,
            scrutinee,
            lambda t: isinstance(t, TConcrete)
            or (isinstance(t, TApp) and isinstance(self.env.types.get(t.head), DataInfo)),
        )
        if found is None:
            self._fail("E-MATCH", "no data permission for match scrutinee", e.span, penv)
        penv, handle = found
        ty = self.sub.uni.resolve(penv.atom(handle).ty)

        if isinstance(ty, TConcrete):
            for pat, body in e.branches:
                assert isinstance(pat, PTag)
                if pat.tag == ty.tag:
                    # also split a nominal permission held next to this one
                    split = self.sub.split_along(penv, handle, ty)
                    penv2 = penv if split is None else split
                    pairs = []
                    for (_, fpat), (_, actual) in zip(pat.fields, ty.fields):
                        assert isinstance(actual, TSingleton)
                        penv2 = self._bind_pattern(penv2, fpat, actual.name, pairs)
                    return self.check_expr(penv2, body, tail, pairs)
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

        # Every branch draws its anchors and splits before any body is
        # checked: the fresh names a body draws come after all of them.
        branch_work: list[tuple[PermEnv, Bindings, Expr]] = []
        for pat, body in e.branches:
            assert isinstance(pat, PTag)
            branch = info.branches[pat.tag]
            names: list[str] = []
            for (fname, _), (_, fpat) in zip(branch.fields, pat.fields):
                if isinstance(fpat, PVar):
                    names.append(self._mk_anchor(penv, fpat.name))
                else:
                    names.append(self.sub.names.fresh(fname))
            split = split_branch(scrutinee, info, ty.args, branch, names)
            penv2 = penv.replace(handle, *split)
            pairs = []
            for (_, fpat), a in zip(pat.fields, names):
                penv2 = self._bind_pattern(penv2, fpat, a, pairs)
            branch_work.append((penv2, pairs, body))
        return self._run_branches(branch_work, e.span, tail)

    def _run_branches(
        self,
        work: list[tuple[PermEnv, Bindings, Expr]],
        span: Span,
        tail: Tail | None,
    ):
        """Check each body of `work` in its environment, with its names
        bound for it alone, and join the outcomes."""
        results = [self.check_expr(penv, body, tail, pairs) for penv, pairs, body in work]
        if tail is not None:
            return _TAIL_DONE
        # Join: each branch must subsume the first branch's result type;
        # the joined environment is the atom-multiset intersection.
        first_anchor, first_penv = results[0]
        hits = first_penv.atoms_of(first_anchor)
        result_ty: Type = hits[0][1].ty if hits else TTuple(())
        left: list[tuple[Atom, ...]] = []
        for anchor, penv in results:
            penv = self._subsume_or_fail(penv, [Anchored(anchor, result_ty)], span)
            left.append(penv.atoms)
        common = _intersect(left)
        anchor = self.sub.names.fresh("j")
        penv = PermEnv(self.env, common, self.available).add(
            Anchored(anchor, self.sub.uni.resolve(result_ty))
        )
        return anchor, penv

    # -- patterns, tag update, lambdas ------------------------------------------

    def _bind_pattern(
        self, penv: PermEnv, pat: Pattern, anchor: str, pairs: list[tuple[str, str]]
    ) -> PermEnv:
        """Destructure the value at `anchor` by `pat`, appending to `pairs`
        each name the pattern binds with its anchor."""
        if isinstance(pat, PVar):
            pairs.append((pat.name, anchor))
            return penv
        if isinstance(pat, PTuple):
            found = self.sub.head_atom(
                penv,
                anchor,
                lambda t: isinstance(t, TTuple)
                and all(isinstance(c.ty, TSingleton) for c in t.comps),
            )
            if found is None:
                self._fail(
                    "E-SUBSUME",
                    "no tuple permission to destructure",
                    getattr(pat, "span", Span(0, 0)),
                    penv,
                )
            penv, handle = found
            ty = penv.atom(handle).ty
            assert isinstance(ty, TTuple)
            if len(ty.comps) != len(pat.items):
                self._fail(
                    "E-ARITY",
                    f"tuple pattern expects {len(ty.comps)} component(s)",
                    getattr(pat, "span", Span(0, 0)),
                    penv,
                )
            for comp, sub_pat in zip(ty.comps, pat.items):
                assert isinstance(comp.ty, TSingleton)
                penv = self._bind_pattern(penv, sub_pat, comp.ty.name, pairs)
            return penv
        raise TypeError(f"unsupported pattern {pat!r}")

    def _check_tag_update(self, penv: PermEnv, e: ETagUpdate) -> tuple[str, PermEnv]:
        anchors = []
        for _, value in e.fields:
            a, penv = self.check_expr(penv, value, None)
            anchors.append(a)
        obj, penv = self.check_expr(penv, e.obj, None)
        penv, handle = self._structural(penv, obj, e.span, mutate=True)
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
        new_atom = Anchored(atom.anchor, TConcrete(e.tag, tuple(new_fields), None))
        return self._unit(penv.replace(handle, new_atom))

    def _check_lambda(self, penv: PermEnv, e: ELambda) -> tuple[str, PermEnv]:
        cod = e.codomain if e.codomain is not None else TTuple(())
        arrow = subst_type(TArrow(e.domain, cod), {}, self.locals)
        assert isinstance(arrow, TArrow)
        domain = arrow.domain
        codomain = arrow.codomain if e.codomain is not None else None

        mark = len(self.trail)
        inner, values, exit_goals = self._enter_domain(
            PermEnv(self.env, penv.duplicable_atoms(), self.available),
            domain,
            [c.name for c in domain_comps(domain)],
        )
        try:
            if codomain is not None:
                tail = Tail(subst_type(codomain, {}, values), exit_goals, e.span)
                self.check_expr(inner, e.body, tail)
                result_cod = codomain
            else:
                out = self.check_expr(inner, e.body, None)
                assert out is not _TAIL_DONE
                anchor2, inner = out
                hits = inner.atoms_of(anchor2)
                result_cod = hits[0][1].ty if hits else TTuple(())
                inner = self._subsume_or_fail(
                    inner, [Anchored(anchor2, result_cod)], e.span
                )
                if exit_goals:
                    self._subsume_or_fail(inner, list(exit_goals), e.span, code="E-CONSUMED")
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
        self._leave(mark)
        return self._new_value(penv, TArrow(domain, result_cod), "fn")


def _put_back(penv: PermEnv, atoms: list[Atom]) -> PermEnv:
    """`penv` with the borrowed `atoms` given back, all but the anchored
    atoms it still holds: extraction leaves a duplicable atom in place."""
    return penv.add(
        *[
            a
            for a in atoms
            if not (isinstance(a, Anchored) and a in [b for _, b in penv.atoms_of(a.anchor)])
        ]
    )


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
