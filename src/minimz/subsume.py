"""Subsumption-based extraction of permissions from an environment.

The entry point is `Subsumer.subsume`, which extracts a list of goal
atoms from a `PermEnv`, solving unification metavariables along the way.
The leftover environment is the frame. Search is deterministic; there is
no backtracking across conjuncts beyond one retry pass.

Subsumption search order (`subsume_atom`). A goal is first taken apart by
its shape: a bar, an existential, a singleton, a tuple, a concrete type;
`x @ ?m` takes the first atom of `x`. Then the first of these that applies
meets it:

1. exact match: a held atom of the anchor, then its global permission;
2. alias expansion of the goal;
3. opening a held atom of the anchor (alias, existential, bar, tuple);
4. fold of a structural permission to the nominal goal;
5. split of a nominal permission along a structural one;
6. for a goal that is an unsolved metavariable: deferral, when the caller
   keeps a list of deferred goals, or else the empty permission.

A goal `x @ D args` for a data type `D`, where `x` holds only structural
atoms and no global permission, goes straight to steps 4 and 5, which run
in one loop over an explicit goal stack (`Subsumer._fold`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import (
    KIND_TYPE,
    Scope,
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
from .kinds import DataInfo, Env
from .perms import (
    Anchored,
    Atom,
    DUPLICABLE,
    Handle,
    MetaPerm,
    NameSupply,
    PermEnv,
    PermVar,
    SubsumptionFailure,
    admit_atoms,
    atoms_to_type,
    branch_instance,
    duplicability,
    expand_alias,
    is_alias,
    normalize,
    split_branch,
    subst_type,
)

_MAX_DEPTH = 80
_EMPTY = TEmpty()
_CUT = object()  # on a fold's goal stack: the fold's goals are all met
_NO_FOLD = object()  # on a fold's goal stack: a field that cannot be folded


class Unifier:
    """The solutions of one definition's metavariables. `bindings` keeps an
    undo trail: an attempt that backs off takes its `mark()` first and gives
    back what it bound with `undo_to`."""

    def __init__(self) -> None:
        self.bindings = Scope()
        self._counter = 0

    def fresh(self, base: str, kind=KIND_TYPE) -> TMeta:
        self._counter += 1
        return TMeta(f"{base}%{self._counter}", kind)

    def shallow(self, t: Type) -> Type:
        while isinstance(t, TMeta) and t.name in self.bindings:
            t = self.bindings[t.name]
        return t

    def resolve(self, t: Type) -> Type:
        """Deep substitution of solved metavariables. A subtree without
        metavariables is returned as it is, and so is `t` itself when
        nothing in it is solved."""
        if not self.bindings or not has_meta(t):
            return t
        if isinstance(t, TMeta):
            r = self.shallow(t)
            return r if isinstance(r, TMeta) else self.resolve(r)
        return map_children(t, self.resolve)

    def bind(self, name: str, ty: Type) -> bool:
        ty = self.resolve(ty)
        if isinstance(ty, TMeta) and ty.name == name:
            return True
        if _occurs(name, ty):
            return False
        self.bindings.enter(name, ty)
        return True


def _occurs(name: str, t: Type) -> bool:
    """Does the metavariable `name` occur in `t`?"""
    if isinstance(t, TMeta):
        return t.name == name
    return has_meta(t) and any(_occurs(name, c) for c in children(t))


@dataclass
class Subsumer:
    """Extraction for one definition: `uni` holds its metavariables, and
    `names` is the supply of the check it belongs to."""

    env: Env
    names: NameSupply
    uni: Unifier = field(default_factory=Unifier)

    # ------------------------------------------------------------------
    # unification
    # ------------------------------------------------------------------

    def unify(self, a: Type, b: Type, depth: int = 0) -> bool:
        """Structural unification; metavariables may occur on either side.
        Names bound on both sides, by a pair of quantifiers or a pair of
        components, are renamed at their binder to one fresh name, so that
        types compare up to the names of their binders."""
        if depth > _MAX_DEPTH:
            return False
        a = _strip_empty_bar(self.uni.shallow(a))
        b = _strip_empty_bar(self.uni.shallow(b))
        # the name of a data type never unifies with one of its tags
        if a.__class__ is TApp and b.__class__ is TConcrete and not is_alias(self.env, a):
            return False
        if a.__class__ is TConcrete and b.__class__ is TApp and not is_alias(self.env, b):
            return False
        if isinstance(a, TMeta):
            return self.uni.bind(a.name, b)
        if isinstance(b, TMeta):
            return self.uni.bind(b.name, a)
        if isinstance(a, TVar) and isinstance(b, TVar):
            return a.name == b.name
        if isinstance(a, TEmpty) and isinstance(b, TEmpty):
            return True
        if isinstance(a, TSingleton) and isinstance(b, TSingleton):
            return a.name == b.name
        if isinstance(a, TApp) and isinstance(b, TApp) and a.head == b.head:
            return all(self.unify(x, y, depth + 1) for x, y in zip(a.args, b.args))
        if is_alias(self.env, a):
            return self.unify(expand_alias(self.env, a), b, depth + 1)
        if is_alias(self.env, b):
            return self.unify(a, expand_alias(self.env, b), depth + 1)
        if isinstance(a, TApp) and isinstance(b, TApp):
            return False
        if isinstance(a, TArrow) and isinstance(b, TArrow):
            ren = self._unify_domain(_as_domain(a.domain), _as_domain(b.domain), depth)
            return ren is not None and self.unify(
                subst_type(a.codomain, {}, ren[0]), subst_type(b.codomain, {}, ren[1]), depth + 1
            )
        if isinstance(a, (TTuple, TBar)) and type(a) is type(b):
            return self._unify_domain(a, b, depth) is not None
        if isinstance(a, TConcrete) and isinstance(b, TConcrete):
            if a.tag != b.tag or len(a.fields) != len(b.fields):
                return False
            for (na, fa), (nb, fb) in zip(a.fields, b.fields):
                if na != nb or not self.unify(fa, fb, depth + 1):
                    return False
            return self.unify_perms(a.bar or _EMPTY, b.bar or _EMPTY, depth)
        if isinstance(a, (TForall, TExists)) and type(a) is type(b):
            if len(a.binders) != len(b.binders):
                return False
            subst_a: dict[str, Type] = {}
            subst_b: dict[str, Type] = {}
            for (na, ka), (nb, kb) in zip(a.binders, b.binders):
                if ka != kb:
                    return False
                subst_a[na] = subst_b[nb] = TVar(self.names.fresh("alpha"))
            return self.unify(
                subst_type(a.body, subst_a), subst_type(b.body, subst_b), depth + 1
            )
        if isinstance(b, TForall):
            # A polymorphic permission meets a monomorphic requirement by
            # instantiating its binders.
            subst = {n: self.uni.fresh(n, k) for n, k in b.binders}
            return self.unify(a, subst_type(b.body, subst), depth + 1)
        if isinstance(a, TAt) and isinstance(b, TAt):
            return a.anchor == b.anchor and self.unify(a.ty, b.ty, depth + 1)
        if isinstance(a, (TAt, TStar, TEmpty, TVar)) or isinstance(b, (TAt, TStar, TEmpty, TVar)):
            # permission-kinded comparison falls back to multiset matching
            try:
                return self.unify_perms(a, b, depth)
            except TypeError:
                return False
        return False

    def _unify_domain(
        self, a: Type, b: Type, depth: int
    ) -> tuple[dict[str, str], dict[str, str]] | None:
        """Unify two arrow domains, tuples or bars, walking them as
        `perms._subst_domain` walks one. A component's name scopes over the
        later components, the bar and, in an arrow, the codomain, so the
        names of a pair of components are renamed to one fresh value name.
        Returns the renamings of either side that hold after the domains, or
        None when they do not unify. A side without a bar has an empty one."""
        if a.__class__ is TBar or b.__class__ is TBar:
            a = a if a.__class__ is TBar else TBar(a, _EMPTY)
            b = b if b.__class__ is TBar else TBar(b, _EMPTY)
            if a.consumed != b.consumed:
                return None
            ren = self._unify_domain(a.carrier, b.carrier, depth)
            if ren is None or not self.unify_perms(
                subst_type(a.perm, {}, ren[0]), subst_type(b.perm, {}, ren[1]), depth
            ):
                return None
            return ren
        if a.__class__ is not TTuple or b.__class__ is not TTuple:
            return ({}, {}) if self.unify(a, b, depth + 1) else None
        if len(a.comps) != len(b.comps):
            return None
        values_a: dict[str, str] = {}
        values_b: dict[str, str] = {}
        for ca, cb in zip(a.comps, b.comps):
            if ca.consumed != cb.consumed or not self.unify(
                subst_type(ca.ty, {}, values_a), subst_type(cb.ty, {}, values_b), depth + 1
            ):
                return None
            if ca.name is not None or cb.name is not None:
                tok = self.names.fresh("comp")
                if ca.name is not None:
                    values_a[ca.name] = tok
                if cb.name is not None:
                    values_b[cb.name] = tok
        return values_a, values_b

    def unify_perms(self, a: Type, b: Type, depth: int = 0) -> bool:
        """Multiset unification of two permissions. Matches rigid atoms
        pairwise; a single unmatched metavariable on one side absorbs the
        other side's remainder (remaining metavariables default to empty)."""
        atoms_a = normalize(self.uni.resolve(a))
        atoms_b = normalize(self.uni.resolve(b))
        rigid_a = [x for x in atoms_a if not isinstance(x, MetaPerm)]
        metas_a = [x for x in atoms_a if isinstance(x, MetaPerm)]
        rigid_b = [x for x in atoms_b if not isinstance(x, MetaPerm)]
        metas_b = [x for x in atoms_b if isinstance(x, MetaPerm)]
        remaining = list(rigid_b)
        unmatched_a: list[Atom] = []
        for atom in rigid_a:
            for i, other in enumerate(remaining):
                if self._atoms_unifiable(atom, other, depth):
                    del remaining[i]
                    break
            else:
                unmatched_a.append(atom)
        if metas_a:
            if not self._absorb(metas_a, remaining):
                return False
            remaining = []
        if unmatched_a and not (metas_b and self._absorb(metas_b, unmatched_a)):
            return False
        for m in metas_b:
            if m.name not in self.uni.bindings:
                if not self.uni.bind(m.name, TEmpty()):
                    return False
        return not remaining

    def _absorb(self, metas: list[MetaPerm], leftover: list[Atom]) -> bool:
        """Bind the first of `metas` to `leftover` and the others to empty."""
        first, *rest = metas
        if not self.uni.bind(first.name, atoms_to_type(leftover)):
            return False
        return all(self.uni.bind(m.name, TEmpty()) for m in rest)

    def _atoms_unifiable(self, a: Atom, b: Atom, depth: int) -> bool:
        mark = self.uni.bindings.mark()
        ok = False
        if isinstance(a, Anchored) and isinstance(b, Anchored):
            ok = a.anchor == b.anchor and self.unify(a.ty, b.ty, depth + 1)
        elif isinstance(a, PermVar) and isinstance(b, PermVar):
            ok = a.name == b.name
        if not ok:
            self.uni.bindings.undo_to(mark)
        return ok

    # ------------------------------------------------------------------
    # opening packed atoms
    # ------------------------------------------------------------------

    def open_atom(self, penv: PermEnv, handle: Handle) -> PermEnv | None:
        """Expose one more layer of the atom `handle`: expand an alias, open
        an existential (skolemizing its binders), split off a bar permission,
        or decompose a tuple type into a structural tuple plus components.
        Returns None when the atom is already in head form."""
        atom = penv.atom(handle)
        if not isinstance(atom, Anchored) or atom.ty.__class__ is TConcrete:
            return None
        ty = self.uni.resolve(atom.ty)
        if is_alias(self.env, ty):
            return penv.replace(handle, Anchored(atom.anchor, expand_alias(self.env, ty)))
        if isinstance(ty, TExists):
            subst: dict[str, Type] = {}
            for name, kind in ty.binders:
                subst[name] = TVar(self.names.fresh(name))
            return penv.replace(handle, Anchored(atom.anchor, subst_type(ty.body, subst)))
        if isinstance(ty, TBar):
            return penv.replace(handle, *admit_atoms(atom.anchor, ty))
        if isinstance(ty, TTuple) and not _is_structural_tuple(ty):
            # If a structural view of the same tuple is already around, pin the
            # released component permissions to its component names.
            view = self._tuple_view(penv, atom.anchor, len(ty.comps), structural=True)
            pinned = None
            if view is not None:
                pinned = [c.ty.name for c in view[1].comps]  # type: ignore[union-attr]
            comps: list[TupleComp] = []
            extra: list[Atom] = []
            values: dict[str, str] = {}
            for i, comp in enumerate(ty.comps):
                cty = subst_type(comp.ty, {}, values)
                if isinstance(cty, TSingleton):
                    anchor = cty.name
                elif pinned is not None:
                    anchor = pinned[i]
                    extra.extend(admit_atoms(anchor, cty))
                else:
                    anchor = self.names.fresh(comp.name or "c")
                    extra.extend(admit_atoms(anchor, cty))
                if comp.name is not None:
                    values[comp.name] = anchor
                comps.append(TupleComp(None, TSingleton(anchor), False))
            structural = Anchored(atom.anchor, TTuple(tuple(comps)))
            return penv.replace(handle, structural, *extra)
        return None

    def _tuple_view(
        self, penv: PermEnv, anchor: str, length: int, structural: bool
    ) -> tuple[Handle, TTuple] | None:
        """The first atom of `anchor` whose type is a tuple of `length`
        components, structural or raw as `structural` says, with its handle."""
        for handle, atom in penv.atoms_of(anchor):
            ty = self.uni.resolve(atom.ty)
            if (
                isinstance(ty, TTuple)
                and _is_structural_tuple(ty) == structural
                and len(ty.comps) == length
            ):
                return handle, ty
        return None

    def head_atom(self, penv: PermEnv, anchor: str, want) -> tuple[PermEnv, Handle] | None:
        """Find (opening as needed) an atom for `anchor` whose type satisfies
        the predicate `want`."""
        for _ in range(_MAX_DEPTH):
            hits = penv.atoms_of(anchor)
            for handle, atom in hits:
                if want(self.uni.resolve(atom.ty)):
                    return penv, handle
            progressed = False
            for handle, atom in hits:
                opened = self.open_atom(penv, handle)
                if opened is not None:
                    penv = opened
                    progressed = True
                    break
            if not progressed:
                return None
        return None

    # ------------------------------------------------------------------
    # subsumption
    # ------------------------------------------------------------------

    def subsume(
        self, penv: PermEnv, goals: list[Atom], defer: list[Atom] | None = None
    ) -> PermEnv:
        pending: list[Atom] = list(goals)
        failed: list[tuple[Atom, SubsumptionFailure]] = []
        bindings = self.uni.bindings
        for goal in pending:
            mark = bindings.mark()
            try:
                penv = self.subsume_atom(penv, goal, defer=defer)
            except SubsumptionFailure as exc:
                bindings.undo_to(mark)
                failed.append((goal, exc))
        still: list[tuple[Atom, SubsumptionFailure]] = []
        for goal, first_exc in failed:
            mark = bindings.mark()
            try:
                penv = self.subsume_atom(penv, goal, defer=defer)
            except SubsumptionFailure:
                bindings.undo_to(mark)
                still.append((goal, first_exc))
        if still:
            raise still[0][1]
        return penv

    def subsume_perm(self, penv: PermEnv, perm: Type) -> PermEnv:
        return self.subsume(penv, normalize(self.uni.resolve(perm)))

    def subsume_atom(
        self, penv: PermEnv, goal: Atom, depth: int = 0, defer: list[Atom] | None = None
    ) -> PermEnv:
        if depth > _MAX_DEPTH:
            raise SubsumptionFailure(goal, penv, "search depth exceeded")
        if isinstance(goal, MetaPerm):
            bound = self.uni.bindings.get(goal.name)
            if bound is None:
                if defer is not None:
                    # A later component's unification may still solve this
                    # metavariable; postpone it.
                    defer.append(goal)
                    return penv
                # Unconstrained permission metavariable defaults to empty.
                self.uni.bind(goal.name, TEmpty())
                return penv
            return self.subsume(penv, normalize(self.uni.resolve(bound)))
        if isinstance(goal, PermVar):
            handle = penv.perm_var(goal.name)
            if handle is None:
                raise SubsumptionFailure(goal, penv)
            return penv.remove(handle)
        assert isinstance(goal, Anchored)
        ty = _strip_empty_bar(self.uni.resolve(goal.ty))
        if ty.__class__ is TApp:
            folds = self._foldable(penv, goal.anchor, ty)
            if folds is not None:
                return self._fold(penv, goal, ty, folds, depth)
        if isinstance(ty, TMeta):
            hits = penv.atoms_of(goal.anchor)
            if not hits:
                raise SubsumptionFailure(goal, penv)
            handle, atom = hits[0]
            if not self.uni.bind(ty.name, atom.ty):
                raise SubsumptionFailure(goal, penv)
            return self._extract(penv, handle)
        if isinstance(ty, TBar):
            penv = self.subsume_atom(
                penv, Anchored(goal.anchor, ty.carrier), depth + 1, defer=defer
            )
            return self.subsume(penv, normalize(self.uni.resolve(ty.perm)), defer=defer)
        if isinstance(ty, TExists):
            subst: dict[str, Type] = {}
            for name, kind in ty.binders:
                subst[name] = self.uni.fresh(name, kind)
            return self.subsume_atom(
                penv, Anchored(goal.anchor, subst_type(ty.body, subst)), depth + 1, defer=defer
            )
        if isinstance(ty, TEmpty):
            return penv
        if isinstance(ty, TSingleton):
            if ty.name == goal.anchor:
                return penv
            hits = penv.atoms_of(goal.anchor)
            found = self._find_exact(penv, hits, goal.anchor, ty, depth)
            if found is not None:
                return found
            raise SubsumptionFailure(goal, penv)
        if isinstance(ty, TTuple):
            return self._subsume_tuple(penv, goal.anchor, ty, depth)
        if isinstance(ty, TConcrete):
            return self._subsume_concrete(penv, goal.anchor, ty, depth)

        hits = penv.atoms_of(goal.anchor)
        found = self._find_exact(penv, hits, goal.anchor, ty, depth)
        if found is not None:
            return found
        # alias expansion of the goal
        if is_alias(self.env, ty):
            return self.subsume_atom(
                penv, Anchored(goal.anchor, expand_alias(self.env, ty)), depth + 1
            )
        # opening packed environment atoms (aliases, existentials, bars)
        for handle, _ in hits:
            opened = self.open_atom(penv, handle)
            if opened is not None:
                return self.subsume_atom(opened, goal, depth + 1)
        # fold a structural permission to the nominal goal, else split
        info = self.env.types.get(ty.head) if ty.__class__ is TApp else None
        folds = _folds(hits, info) if info.__class__ is DataInfo else []
        return self._fold(penv, goal, ty, folds, depth)

    def _find_exact(
        self, penv: PermEnv, hits: list[tuple[Handle, Anchored]], anchor: str, ty: Type, depth: int
    ) -> PermEnv | None:
        """Extract an atom among `hits`, the atoms of `anchor` in `penv`, or
        the global permission of `anchor`, whose type unifies with `ty`."""
        bindings = self.uni.bindings
        mark = bindings.mark()
        for handle, atom in hits:
            if self.unify(ty, atom.ty, depth + 1):
                return self._extract(penv, handle)
            bindings.undo_to(mark)
        gty = penv.global_type(anchor)
        if gty is not None:
            if self.unify(ty, gty, depth + 1):
                return penv  # global permissions are duplicable
            bindings.undo_to(mark)
        return None

    def _extract(self, penv: PermEnv, handle: Handle) -> PermEnv:
        atom = penv.atom(handle)
        if isinstance(atom, Anchored) and duplicability(
            self.uni.resolve(atom.ty), self.env
        ) == DUPLICABLE:
            return penv
        return penv.remove(handle)

    def _subsume_tuple(self, penv: PermEnv, anchor: str, ty: TTuple, depth: int) -> PermEnv:
        found = self.head_atom(
            penv, anchor, lambda t: isinstance(t, TTuple) and _is_structural_tuple(t)
        )
        if found is None:
            raise SubsumptionFailure(Anchored(anchor, ty), penv)
        penv, handle = found
        actual = penv.atom(handle).ty
        assert isinstance(actual, TTuple)
        if len(actual.comps) != len(ty.comps):
            raise SubsumptionFailure(Anchored(anchor, ty), penv)
        values: dict[str, str] = {}
        working = self._extract(penv, handle)
        for comp, actual_comp in zip(ty.comps, actual.comps):
            target = actual_comp.ty
            assert isinstance(target, TSingleton)
            comp_ty = subst_type(self.uni.resolve(comp.ty), {}, values)
            working = self.subsume_atom(working, Anchored(target.name, comp_ty), depth + 1)
            if comp.name is not None:
                values[comp.name] = target.name
        return working

    def _subsume_concrete(self, penv: PermEnv, anchor: str, ty: TConcrete, depth: int) -> PermEnv:
        found = self.head_atom(
            penv, anchor, lambda t: isinstance(t, TConcrete) and t.tag == ty.tag
        )
        if found is None:
            raise SubsumptionFailure(Anchored(anchor, ty), penv)
        penv, handle = found
        actual = penv.atom(handle).ty
        assert isinstance(actual, TConcrete)
        working = self._extract(penv, handle)
        for (fname, fty), (aname, aty) in zip(ty.fields, actual.fields):
            if fname != aname:
                raise SubsumptionFailure(Anchored(anchor, ty), penv)
            goal_field = self.uni.resolve(fty)
            if not isinstance(aty, TSingleton):
                # The structural permission owns this field's content
                # directly; the types must agree.
                if not self.unify(goal_field, aty):
                    raise SubsumptionFailure(Anchored(anchor, ty), penv)
                continue
            if isinstance(goal_field, TSingleton):
                if goal_field.name != aty.name and not self.unify(goal_field, aty):
                    raise SubsumptionFailure(Anchored(anchor, ty), penv)
            else:
                working = self.subsume_atom(
                    working, Anchored(aty.name, goal_field), depth + 1
                )
        if ty.bar is not None:
            working = self.subsume(working, normalize(self.uni.resolve(ty.bar)))
        return working

    def _foldable(
        self, penv: PermEnv, anchor: str, ty: TApp
    ) -> list[tuple[Handle, TConcrete]] | None:
        """For a goal `anchor @ ty` that only a fold or a split can meet, the
        structural atoms of `anchor` whose tag is a branch of `ty`; else
        None. That is so when `ty` names a data type, `anchor` has no global
        permission and every atom it holds is structural: a data type does
        not unify with a tag, and a tag opens no further."""
        info = self.env.types.get(ty.head)
        if info.__class__ is not DataInfo or penv.global_type(anchor) is not None:
            return None
        hits = penv.atoms_of(anchor)
        for _, atom in hits:
            if atom.ty.__class__ is not TConcrete:
                return None
        return _folds(hits, info)

    def _fold(
        self,
        penv: PermEnv,
        goal: Anchored,
        ty: Type,
        folds: list[tuple[Handle, TConcrete]],
        depth: int,
    ) -> PermEnv:
        """Meet `goal`, whose type is `ty`, by the last steps of the search:
        fold one of `folds`, structural atoms of its anchor whose tag is a
        branch of `ty`, in order; else split, and search for the goal again
        in the split environment; else fail.

        A fold takes its atom (unless it is duplicable), then meets each
        field at the branch's field type, then the branch's bar. These goals
        go on an explicit stack, a linked tuple. A popped goal that only a
        fold or a split can meet (`_foldable`) opens its fold level in this
        loop, so nested folds take neither Python stack nor search depth;
        any other goal goes through `subsume_atom`. Each fold attempt keeps
        a choice point: the bindings' mark, and its level's environment,
        goal, type, atoms left to try and the goals after it. A failure
        backs off to the newest choice point, which tries its next atom,
        then its split. When a fold's goals are all met its choice point is
        dropped, so a goal that was met is never tried again.

        The search ends: a fold of an affine atom takes it out, and a
        duplicable atom is not folded again inside its own fold, which
        could only go round a cycle of immutable atoms."""
        bindings = self.uni.bindings
        stack: tuple | None = None  # the goals after the current level's
        choices: tuple | None = None  # the open fold attempts, newest first
        folding: set[Handle] = set()  # the duplicable atoms among them
        todo = iter(folds)
        while True:
            try:
                # the level of `goal` at `penv`: its next fold, else a split
                for handle, sty in todo:
                    working = self._extract(penv, handle)
                    kept = None
                    if working is penv:
                        if handle in folding:
                            continue
                        folding.add(handle)
                        kept = handle
                    choices = (bindings.mark(), penv, goal, ty, todo, stack, kept, choices)
                    stack = self._fold_goals(sty, ty, stack)
                    break
                else:
                    split = self._try_split(penv, goal.anchor)
                    if split is None:
                        raise SubsumptionFailure(goal, penv)
                    working = self.subsume_atom(split, goal, depth + 1)
                # the goals on the stack, until one opens a fold level
                while stack is not None:
                    item, stack = stack
                    if item is _CUT:
                        kept, choices = choices[6:]  # type: ignore[index]
                        if kept is not None:
                            folding.discard(kept)
                    elif item is _NO_FOLD:
                        raise SubsumptionFailure(goal, working)
                    elif item.__class__ is not Anchored:
                        working = self.subsume_perm(working, item)  # a branch's bar
                    else:
                        gty = _strip_empty_bar(self.uni.resolve(item.ty))
                        found = None
                        if gty.__class__ is TApp:
                            found = self._foldable(working, item.anchor, gty)
                        if found is None:
                            working = self.subsume_atom(working, item, depth + 1)
                        else:
                            penv, goal, ty, todo = working, item, gty, iter(found)
                            break
                else:
                    return working
            except SubsumptionFailure:
                if choices is None:
                    raise
                mark, penv, goal, ty, todo, stack, kept, choices = choices
                bindings.undo_to(mark)
                if kept is not None:
                    folding.discard(kept)

    def _fold_goals(self, sty: TConcrete, ty: TApp, stack: tuple | None) -> tuple:
        """`stack` with the goals of a fold of `sty` into `ty` on top, in
        order: each field at its branch type, the branch's bar, the cut. A
        field that `sty` does not name by a singleton cannot be folded."""
        branch = branch_instance(self.env, ty, sty.tag)
        stack = (_CUT, stack)
        if branch.bar is not None:
            stack = (branch.bar, stack)
        goals: list[object] = []
        for (_, declared), (_, actual) in zip(branch.fields, sty.fields):
            if actual.__class__ is not TSingleton:
                goals.append(_NO_FOLD)
                break
            goals.append(Anchored(actual.name, declared))  # type: ignore[union-attr]
        for g in reversed(goals):
            stack = (g, stack)
        return stack

    def _try_split(self, penv: PermEnv, wanted_anchor: str) -> PermEnv | None:
        """Split `y @ D args` along a structural `y @ Tag{.. f = wanted ..}`
        (see `split_along`). Also splits a raw tuple permission along a
        structural tuple naming the wanted anchor."""
        for shandle, satom in penv.items():
            if not isinstance(satom, Anchored):
                continue
            sty = self.uni.resolve(satom.ty)
            if isinstance(sty, TTuple) and _is_structural_tuple(sty):
                if any(c.ty.name == wanted_anchor for c in sty.comps):  # type: ignore[union-attr]
                    raw = self._tuple_view(penv, satom.anchor, len(sty.comps), structural=False)
                    if raw is not None:
                        return self.open_atom(penv, raw[0])
                continue
            if isinstance(sty, TConcrete) and any(
                isinstance(f, TSingleton) and f.name == wanted_anchor for _, f in sty.fields
            ):
                split = self.split_along(penv, shandle, sty)
                if split is not None:
                    return split
        return None

    def split_along(self, penv: PermEnv, shandle: Handle, sty: TConcrete) -> PermEnv | None:
        """Split a nominal `y @ D args` along the structural atom `y @ sty`,
        whose handle is `shandle`: the nominal atom is dropped, and the permissions of the fields
        that `sty` names by a singleton, and of the branch's bar, are added.
        None when `y` holds no permission of the data type of `sty`'s tag."""
        entry = self.env.tags.get(sty.tag)
        if entry is None:
            return None
        data_name = entry[0]
        anchor = penv.atom(shandle).anchor
        for nhandle, natom in penv.atoms_of(anchor):
            if nhandle == shandle:
                continue
            nty = self.uni.resolve(natom.ty)
            while is_alias(self.env, nty):
                nty = expand_alias(self.env, nty)
            if isinstance(nty, TApp) and nty.head == data_name:
                names = (f.name if isinstance(f, TSingleton) else None for _, f in sty.fields)
                # the structural atom is already there
                _, *fields = split_branch(self.env, anchor, nty, sty.tag, names)
                return penv.remove(nhandle).add(*fields)
        return None


def _folds(hits: list[tuple[Handle, Anchored]], info: DataInfo) -> list[tuple[Handle, TConcrete]]:
    """The atoms among `hits` that may fold into the data type `info`: the
    structural ones whose tag is one of its branches."""
    return [(h, a.ty) for h, a in hits if a.ty.__class__ is TConcrete and a.ty.tag in info.branches]  # type: ignore[misc]


def _is_structural_tuple(t: TTuple) -> bool:
    return all(isinstance(c.ty, TSingleton) for c in t.comps)


def _as_domain(domain: Type) -> Type:
    """An arrow domain with a tuple for its carrier: a carrier that is not a
    tuple is the one unnamed component, as `kinds.domain_comps` reads it."""
    if domain.__class__ is TBar:
        return TBar(_as_domain(domain.carrier), domain.perm, domain.consumed, domain.span)
    return domain if domain.__class__ is TTuple else TTuple((TupleComp(None, domain, False),))


def _strip_empty_bar(t: Type) -> Type:
    if isinstance(t, TBar) and isinstance(t.perm, TEmpty):
        return _strip_empty_bar(t.carrier)
    return t

