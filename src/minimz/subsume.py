"""Subsumption-based extraction of permissions from an environment.

The entry point is `Subsumer.subsume`, which extracts a list of goal
atoms from a `PermEnv`, solving unification metavariables along the way.
The leftover environment is the frame. Search is deterministic; there is
no backtracking across conjuncts beyond one retry pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import (
    KIND_TYPE,
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
from .kinds import DataInfo, Env, domain_bar, domain_comps
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
    duplicability,
    expand_alias,
    is_alias,
    normalize,
    split_branch,
    subst_type,
)

_MAX_DEPTH = 80


class Unifier:
    def __init__(self) -> None:
        self.bindings: dict[str, Type] = {}
        self._counter = 0

    def fresh(self, base: str, kind=KIND_TYPE) -> TMeta:
        self._counter += 1
        return TMeta(f"{base}%{self._counter}", kind)

    def snapshot(self) -> dict[str, Type]:
        return dict(self.bindings)

    def restore(self, snap: dict[str, Type]) -> None:
        self.bindings = snap

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
        self.bindings[name] = ty
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

    def unify(self, a: Type, b: Type, ren_a: dict[str, str] | None = None,
              ren_b: dict[str, str] | None = None, depth: int = 0) -> bool:
        """Structural unification; metavariables may occur on either side.
        `ren_a`/`ren_b` carry alpha-renamings of bound names."""
        if depth > _MAX_DEPTH:
            return False
        ren_a = ren_a if ren_a is not None else {}
        ren_b = ren_b if ren_b is not None else {}
        a = self.uni.shallow(a)
        b = self.uni.shallow(b)
        a = _strip_empty_bar(a)
        b = _strip_empty_bar(b)
        if isinstance(a, TMeta):
            return self.uni.bind(a.name, _apply_ren(b, ren_b))
        if isinstance(b, TMeta):
            return self.uni.bind(b.name, _apply_ren(a, ren_a))
        if isinstance(a, TVar) and isinstance(b, TVar):
            return ren_a.get(a.name, a.name) == ren_b.get(b.name, b.name)
        if isinstance(a, TEmpty) and isinstance(b, TEmpty):
            return True
        if isinstance(a, TSingleton) and isinstance(b, TSingleton):
            return ren_a.get(a.name, a.name) == ren_b.get(b.name, b.name)
        if isinstance(a, TApp) and isinstance(b, TApp) and a.head == b.head:
            return all(
                self.unify(x, y, ren_a, ren_b, depth + 1) for x, y in zip(a.args, b.args)
            )
        if is_alias(self.env, a):
            return self.unify(expand_alias(self.env, a), b, ren_a, ren_b, depth + 1)
        if is_alias(self.env, b):
            return self.unify(a, expand_alias(self.env, b), ren_a, ren_b, depth + 1)
        if isinstance(a, TApp) and isinstance(b, TApp):
            return False
        if isinstance(a, TArrow) and isinstance(b, TArrow):
            return self._unify_arrow(a, b, ren_a, ren_b, depth)
        if isinstance(a, TTuple) and isinstance(b, TTuple):
            return self._unify_comps(a.comps, b.comps, dict(ren_a), dict(ren_b), depth)
        if isinstance(a, TBar) and isinstance(b, TBar):
            if a.consumed != b.consumed:
                return False
            if not self.unify(a.carrier, b.carrier, ren_a, ren_b, depth + 1):
                return False
            return self.unify_perms(a.perm, b.perm, ren_a, ren_b, depth)
        if isinstance(a, TConcrete) and isinstance(b, TConcrete):
            if a.tag != b.tag or len(a.fields) != len(b.fields):
                return False
            for (na, fa), (nb, fb) in zip(a.fields, b.fields):
                if na != nb or not self.unify(fa, fb, ren_a, ren_b, depth + 1):
                    return False
            pa = a.bar if a.bar is not None else TEmpty()
            pb = b.bar if b.bar is not None else TEmpty()
            return self.unify_perms(pa, pb, ren_a, ren_b, depth)
        if isinstance(a, (TForall, TExists)) and type(a) is type(b):
            if len(a.binders) != len(b.binders):
                return False
            ren_a2, ren_b2 = dict(ren_a), dict(ren_b)
            for (na, ka), (nb, kb) in zip(a.binders, b.binders):
                if ka != kb:
                    return False
                tok = self.names.fresh("alpha")
                ren_a2[na] = tok
                ren_b2[nb] = tok
            return self.unify(a.body, b.body, ren_a2, ren_b2, depth + 1)
        if isinstance(b, TForall):
            # A polymorphic permission meets a monomorphic requirement by
            # instantiating its binders.
            subst = {n: self.uni.fresh(n, k) for n, k in b.binders}
            return self.unify(a, subst_type(b.body, subst), ren_a, ren_b, depth + 1)
        if isinstance(a, TAt) and isinstance(b, TAt):
            if ren_a.get(a.anchor, a.anchor) != ren_b.get(b.anchor, b.anchor):
                return False
            return self.unify(a.ty, b.ty, ren_a, ren_b, depth + 1)
        if isinstance(a, (TAt, TStar, TEmpty, TVar)) or isinstance(b, (TAt, TStar, TEmpty, TVar)):
            # permission-kinded comparison falls back to multiset matching
            try:
                return self.unify_perms(a, b, ren_a, ren_b, depth)
            except TypeError:
                return False
        return False

    def _unify_comps(
        self, comps_a: tuple[TupleComp, ...], comps_b: tuple[TupleComp, ...],
        ren_a: dict[str, str], ren_b: dict[str, str], depth: int,
    ) -> bool:
        """Unify two component lists pairwise. A component's name scopes over
        the later components (and, in a domain, over the bar and the
        codomain), so the names of a matched pair are renamed, in `ren_a` and
        `ren_b`, to one fresh token."""
        if len(comps_a) != len(comps_b):
            return False
        for ca, cb in zip(comps_a, comps_b):
            if ca.consumed != cb.consumed:
                return False
            if not self.unify(ca.ty, cb.ty, ren_a, ren_b, depth + 1):
                return False
            if ca.name is not None or cb.name is not None:
                tok = self.names.fresh("comp")
                if ca.name is not None:
                    ren_a[ca.name] = tok
                if cb.name is not None:
                    ren_b[cb.name] = tok
        return True

    def _unify_arrow(
        self, a: TArrow, b: TArrow, ren_a: dict[str, str], ren_b: dict[str, str], depth: int
    ) -> bool:
        comps_a, comps_b = domain_comps(a.domain), domain_comps(b.domain)
        bar_a, cons_a = domain_bar(a.domain)
        bar_b, cons_b = domain_bar(b.domain)
        ren_a2, ren_b2 = dict(ren_a), dict(ren_b)
        if cons_a != cons_b or not self._unify_comps(comps_a, comps_b, ren_a2, ren_b2, depth):
            return False
        pa = bar_a if bar_a is not None else TEmpty()
        pb = bar_b if bar_b is not None else TEmpty()
        if not self.unify_perms(pa, pb, ren_a2, ren_b2, depth):
            return False
        return self.unify(a.codomain, b.codomain, ren_a2, ren_b2, depth + 1)

    def unify_perms(
        self, a: Type, b: Type, ren_a: dict[str, str], ren_b: dict[str, str], depth: int = 0
    ) -> bool:
        """Multiset unification of two permissions. Matches rigid atoms
        pairwise; a single unmatched metavariable on one side absorbs the
        other side's remainder (remaining metavariables default to empty)."""
        atoms_a = normalize(self.uni.resolve(_apply_ren(a, ren_a)))
        atoms_b = normalize(self.uni.resolve(_apply_ren(b, ren_b)))
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
        snap = self.uni.snapshot()
        ok = False
        if isinstance(a, Anchored) and isinstance(b, Anchored):
            ok = a.anchor == b.anchor and self.unify(a.ty, b.ty, None, None, depth + 1)
        elif isinstance(a, PermVar) and isinstance(b, PermVar):
            ok = a.name == b.name
        if not ok:
            self.uni.restore(snap)
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
        if not isinstance(atom, Anchored):
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
        for goal in pending:
            snap = self.uni.snapshot()
            try:
                penv = self.subsume_atom(penv, goal, defer=defer)
            except SubsumptionFailure as exc:
                self.uni.restore(snap)
                failed.append((goal, exc))
        still: list[tuple[Atom, SubsumptionFailure]] = []
        for goal, first_exc in failed:
            snap = self.uni.snapshot()
            try:
                penv = self.subsume_atom(penv, goal, defer=defer)
            except SubsumptionFailure:
                self.uni.restore(snap)
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
        ty = self.uni.resolve(goal.ty)
        ty = _strip_empty_bar(ty)
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
        # fold a structural permission to the nominal goal
        if isinstance(ty, TApp) and isinstance(self.env.types.get(ty.head), DataInfo):
            info = self.env.types[ty.head]
            for handle, atom in hits:
                sty = atom.ty
                if isinstance(sty, TConcrete) and sty.tag in info.branches:
                    folded = self._fold_at(penv, handle, sty, ty, depth)
                    if folded is not None:
                        return folded
        # split a nominal permission along a structural one
        split = self._try_split(penv, goal.anchor)
        if split is not None:
            return self.subsume_atom(split, goal, depth + 1)
        raise SubsumptionFailure(goal, penv)

    def _find_exact(
        self, penv: PermEnv, hits: list[tuple[Handle, Anchored]], anchor: str, ty: Type, depth: int
    ) -> PermEnv | None:
        """Extract an atom among `hits`, the atoms of `anchor` in `penv`, or
        the global permission of `anchor`, whose type unifies with `ty`."""
        for handle, atom in hits:
            snap = self.uni.snapshot()
            if self.unify(ty, atom.ty, None, None, depth + 1):
                return self._extract(penv, handle)
            self.uni.restore(snap)
        gty = penv.global_type(anchor)
        if gty is not None:
            snap = self.uni.snapshot()
            if self.unify(ty, gty, None, None, depth + 1):
                return penv  # global permissions are duplicable
            self.uni.restore(snap)
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

    def _fold_at(
        self, penv: PermEnv, handle: Handle, structural: TConcrete, ty: TApp, depth: int
    ) -> PermEnv | None:
        """Fold the structural atom `handle` into the nominal goal `ty`."""
        info = self.env.types[ty.head]
        assert isinstance(info, DataInfo)
        branch = info.branches[structural.tag]
        subst = dict(zip((n for n, _ in info.params), ty.args))
        snap = self.uni.snapshot()
        try:
            working = self._extract(penv, handle)
            for (fname, declared), (aname, actual) in zip(branch.fields, structural.fields):
                if not isinstance(actual, TSingleton):
                    raise SubsumptionFailure(Anchored(structural.tag, ty), penv)
                goal_field = subst_type(declared, subst)
                working = self.subsume_atom(
                    working, Anchored(actual.name, goal_field), depth + 1
                )
            if branch.bar is not None:
                working = self.subsume_perm(working, subst_type(branch.bar, subst))
            return working
        except SubsumptionFailure:
            self.uni.restore(snap)
            return None

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
        data_name, branch = entry
        info = self.env.types[data_name]
        assert isinstance(info, DataInfo)
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
                _, *fields = split_branch(anchor, info, nty.args, branch, names)
                return penv.remove(nhandle).add(*fields)
        return None


def _is_structural_tuple(t: TTuple) -> bool:
    return all(isinstance(c.ty, TSingleton) for c in t.comps)


def _strip_empty_bar(t: Type) -> Type:
    if isinstance(t, TBar) and isinstance(t.perm, TEmpty):
        return _strip_empty_bar(t.carrier)
    return t


def _apply_ren(t: Type, ren: dict[str, str]) -> Type:
    if not ren:
        return t
    subst = {name: TVar(tok) for name, tok in ren.items()}
    values = dict(ren)
    return subst_type(t, subst, values)
