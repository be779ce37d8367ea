"""Subsumption: extracting goal permissions from a permission environment.

`Subsumer.subsume` meets a list of goal atoms in a `PermEnv`, in order,
taking them out of it in place and solving unification metavariables on
the way; what is left is the frame.
Each goal is met by one search, `Subsumer.subsume_atom`: a loop over an
explicit stack of goals. A popped goal is taken apart by its shape, and
its parts go on the stack: a bar's carrier, then its permission; an
existential's body, at fresh metavariables; the components of a tuple, or
the fields and bar of a concrete type, as one atom of the anchor gives
them (a *pick*). `x @ ?m` takes the first atom of `x`. An unsolved
permission metavariable is deferred if the caller keeps a list and no
level (below) is open, else it is empty. Any other goal is met by the
first of these that applies:

1. exact match: a held atom of the anchor, then its global permission;
2. alias expansion of the goal;
3. opening a held atom of the anchor (alias, existential, bar, tuple);
4. a *fold* of a structural atom of the anchor: its fields at the branch's
   field types, then the branch's bar;
5. a split of a nominal atom along a structural one naming the anchor,
   then the goal again.

`x @ D args` for a data type `D`, where `x` holds only structural atoms
and no global permission, goes straight to 4 and 5.

A pick or a fold opens a *level*, a choice point over every atom it may
take in `atoms_of` order: the walk of `Subsumer._next_head` finds a pick's,
opening atoms as needed, and a fold's are its structural atoms, then the
split. The atom's goals go on the stack, then a cut. A level keeps three
marks, one for each store that the search edits and undoes: the bindings
and the guard when it opened, and the environment before its atom was
taken. A failure backs off to the newest open level, which undoes each
store to its mark and takes its next atom. The cut closes a level whose
goals are all met, keeping what they did, so an atom is taken again only
when a later goal of its level fails.
A level with no atom left fails in turn: a pick with its first atom's
failure, a fold with its own goal, or after its split with the split
search's failure.

A fold of a mutable data type whose first atom a fold can take opens a
*walk's level* (`Subsumer._walk`): that fold, then the goal searched again
without walking. While it is the newest level, such a fold of another goal
takes its atom and pushes its goals with no level of its own, so a literal
is met in one level; a fold under a newer level opens its own, for a
back-off to that level to find its other atoms. A failure that backs off
to a walk's level gives back the fresh names drawn since it opened. The
search is deterministic, so either way the goal ends as a search without
walks ends it, but for the handles a retried walk spent.

The search ends without a bound on its nesting. Aliases are acyclic
(`kinds.check_alias_cycles`); an open removes one packed layer; a bar, an
existential, a pick's components and fields shrink the goal's type; a fold
of an affine atom takes it out, and a duplicable atom is not folded again
inside its own fold; a split replaces a nominal atom with atoms at its
field types, and an anchor is not split again inside the search its own
split began. `Subsumer.guard` holds, for the current path, the atoms being
folded and the anchors being split.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import NamedTuple

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
    plain,
    rebuild,
)
from .kinds import DataInfo, Env
from .perms import (
    Anchored,
    Atom,
    DUPLICABLE,
    Handle,
    MetaPerm,
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

_EMPTY = TEmpty()
_CUT = object()  # on the goal stack: the newest level's goals are all met
_FAIL = object()  # on the goal stack: the newest level's atom does not meet it


class _Level:
    """An open level of the search: its goal, the goals after its own, the
    level open before it, its atoms left, the marks of the bindings and of
    the guard when it opened, and the mark of the environment before the
    atom it took was taken. `walk` is True at a walk's level while it takes
    its first fold; None where walking is off, at a walk's level that
    searches its goal again and at every level opened inside one; else
    False."""

    __slots__ = ("goal", "after", "older", "rest", "mark", "guard_mark", "env_mark", "walk")

    def __init__(
        self,
        goal: Anchored,
        after: tuple | None,
        older: _Level | None,
        rest: Generator[tuple, SubsumptionFailure, None],
        mark: int,
        guard_mark: int,
    ):
        self.goal = goal
        self.after = after
        self.older = older
        self.rest = rest
        self.mark = mark
        self.guard_mark = guard_mark
        self.env_mark: int | None = None
        self.walk = None if older is not None and older.walk is None else False


class _Field(NamedTuple):
    """On the goal stack: a concrete goal's field type `ty`, against the
    field `actual` of the atom picked for it."""

    ty: Type
    actual: Type


class Unifier:
    """The solutions of one definition's metavariables, and its one supply
    of fresh names. `bindings` keeps an undo trail: an attempt that backs
    off takes its `mark()` first and gives back what it bound with
    `undo_to`. One counter numbers the fresh names `base$k` and the
    metavariables `base%k`, so the names a definition's check draws depend
    on that definition alone; `$` and `%` are not lexable, so they never
    collide with user-written identifiers. The counter goes back only when
    a walk's level searches its goal again (`Subsumer._walk`)."""

    def __init__(self) -> None:
        self.bindings = Scope()
        self._counter = 0

    def fresh_name(self, base: str) -> str:
        n = self._counter
        self._counter = n + 1
        return f"{base}${n}"

    def fresh(self, base: str, kind=KIND_TYPE) -> TMeta:
        n = self._counter
        self._counter = n + 1
        return TMeta(f"{base}%{n}", kind)

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


class Subsumer:
    """Extraction for one definition: `uni` holds its metavariables and
    draws its fresh names. `guard` holds, on the path of the current
    search, the duplicable atoms being folded and the anchors being split;
    it is empty between searches."""

    def __init__(self, env: Env):
        self.env = env
        self.uni = Unifier()
        self.guard = Scope()

    # ------------------------------------------------------------------
    # unification
    # ------------------------------------------------------------------

    def unify(self, a: Type, b: Type) -> bool:
        """Structural unification; metavariables may occur on either side.
        Names bound on both sides, by a pair of quantifiers or a pair of
        components, are renamed at their binder to one fresh name, so that
        types compare up to the names of their binders. The recursion follows
        the size of the types, which the parser bounds.

        Two equal types that bind no name and hold no metavariable (`plain`)
        unify at once, as the walk would bind nothing and draw no name; most
        calls are such pairs, and the search's exact matches on `iterate`
        and `corpus_mix` lean on it. Other equal pairs still take the walk:
        it draws a fresh name for each pair of binders, which numbers every
        later name of the definition, and it may solve a metavariable."""
        if (a is b or a == b) and plain(a):
            return True
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
            return all(self.unify(x, y) for x, y in zip(a.args, b.args))
        if is_alias(self.env, a):
            return self.unify(expand_alias(self.env, a), b)
        if is_alias(self.env, b):
            return self.unify(a, expand_alias(self.env, b))
        if isinstance(a, TApp) and isinstance(b, TApp):
            return False
        if isinstance(a, TArrow) and isinstance(b, TArrow):
            ren = self._unify_domain(_as_domain(a.domain), _as_domain(b.domain))
            return ren is not None and self.unify(
                subst_type(a.codomain, {}, ren[0]), subst_type(b.codomain, {}, ren[1])
            )
        if isinstance(a, (TTuple, TBar)) and type(a) is type(b):
            return self._unify_domain(a, b) is not None
        if isinstance(a, TConcrete) and isinstance(b, TConcrete):
            if a.tag != b.tag or len(a.fields) != len(b.fields):
                return False
            for (na, fa), (nb, fb) in zip(a.fields, b.fields):
                if na != nb or not self.unify(fa, fb):
                    return False
            return self.unify_perms(a.bar or _EMPTY, b.bar or _EMPTY)
        if isinstance(a, (TForall, TExists)) and type(a) is type(b):
            if len(a.binders) != len(b.binders):
                return False
            subst_a: dict[str, Type] = {}
            subst_b: dict[str, Type] = {}
            for (na, ka), (nb, kb) in zip(a.binders, b.binders):
                if ka != kb:
                    return False
                subst_a[na] = subst_b[nb] = TVar(self.uni.fresh_name("alpha"))
            return self.unify(
                subst_type(a.body, subst_a), subst_type(b.body, subst_b)
            )
        if isinstance(b, TForall):
            # A polymorphic permission meets a monomorphic requirement by
            # instantiating its binders.
            subst = {n: self.uni.fresh(n, k) for n, k in b.binders}
            return self.unify(a, subst_type(b.body, subst))
        if isinstance(a, TAt) and isinstance(b, TAt):
            return a.anchor == b.anchor and self.unify(a.ty, b.ty)
        if isinstance(a, (TAt, TStar, TEmpty, TVar)) or isinstance(b, (TAt, TStar, TEmpty, TVar)):
            # permission-kinded comparison falls back to multiset matching
            return self.unify_perms(a, b)
        return False

    def _unify_domain(
        self, a: Type, b: Type
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
            ren = self._unify_domain(a.carrier, b.carrier)
            if ren is None or not self.unify_perms(
                subst_type(a.perm, {}, ren[0]), subst_type(b.perm, {}, ren[1])
            ):
                return None
            return ren
        if a.__class__ is not TTuple or b.__class__ is not TTuple:
            return ({}, {}) if self.unify(a, b) else None
        if len(a.comps) != len(b.comps):
            return None
        values_a: dict[str, str] = {}
        values_b: dict[str, str] = {}
        for ca, cb in zip(a.comps, b.comps):
            if ca.consumed != cb.consumed or not self.unify(
                subst_type(ca.ty, {}, values_a), subst_type(cb.ty, {}, values_b)
            ):
                return None
            if ca.name is not None or cb.name is not None:
                tok = self.uni.fresh_name("comp")
                if ca.name is not None:
                    values_a[ca.name] = tok
                if cb.name is not None:
                    values_b[cb.name] = tok
        return values_a, values_b

    def unify_perms(self, a: Type, b: Type) -> bool:
        """Multiset unification of two permissions. Matches rigid atoms
        pairwise; a single unmatched metavariable on one side absorbs the
        other side's remainder (remaining metavariables default to empty).
        A side that is no permission unifies with none, before anything is
        bound."""
        a, b = self.uni.resolve(a), self.uni.resolve(b)
        try:
            atoms_a = normalize(self.env, a)
            atoms_b = normalize(self.env, b)
        except TypeError:
            return False
        rigid_a = [x for x in atoms_a if not isinstance(x, MetaPerm)]
        metas_a = [x for x in atoms_a if isinstance(x, MetaPerm)]
        rigid_b = [x for x in atoms_b if not isinstance(x, MetaPerm)]
        metas_b = [x for x in atoms_b if isinstance(x, MetaPerm)]
        remaining = list(rigid_b)
        unmatched_a: list[Atom] = []
        for atom in rigid_a:
            for i, other in enumerate(remaining):
                if self._atoms_unifiable(atom, other):
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

    def _atoms_unifiable(self, a: Atom, b: Atom) -> bool:
        mark = self.uni.bindings.mark()
        ok = False
        if isinstance(a, Anchored) and isinstance(b, Anchored):
            ok = a.anchor == b.anchor and self.unify(a.ty, b.ty)
        elif isinstance(a, PermVar) and isinstance(b, PermVar):
            ok = a.name == b.name
        if not ok:
            self.uni.bindings.undo_to(mark)
        return ok

    # ------------------------------------------------------------------
    # opening packed atoms
    # ------------------------------------------------------------------

    def open_atom(self, penv: PermEnv, handle: Handle) -> bool:
        """Expose one more layer of the anchored atom `handle`, one of
        `atoms_of`: expand an alias, open an existential (skolemizing its
        binders), split off a bar permission, or decompose a tuple type into
        a structural tuple plus components. False when the atom is already
        in head form."""
        atom = penv.atom(handle)
        if atom.ty.__class__ is TConcrete:
            return False
        ty = self.uni.resolve(atom.ty)
        if is_alias(self.env, ty):
            penv.replace(handle, Anchored(atom.anchor, expand_alias(self.env, ty)))
        elif isinstance(ty, TExists):
            subst: dict[str, Type] = {}
            for name, kind in ty.binders:
                subst[name] = TVar(self.uni.fresh_name(name))
            penv.replace(handle, Anchored(atom.anchor, subst_type(ty.body, subst)))
        elif isinstance(ty, TBar):
            penv.replace(handle, *admit_atoms(self.env, atom.anchor, ty))
        elif isinstance(ty, TTuple) and not is_structural_tuple(ty):
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
                    extra.extend(admit_atoms(self.env, anchor, cty))
                else:
                    anchor = self.uni.fresh_name(comp.name or "c")
                    extra.extend(admit_atoms(self.env, anchor, cty))
                if comp.name is not None:
                    values[comp.name] = anchor
                comps.append(TupleComp(None, TSingleton(anchor), False))
            structural = Anchored(atom.anchor, TTuple(tuple(comps)))
            penv.replace(handle, structural, *extra)
        else:
            return False
        return True

    def open_fields(self, penv: PermEnv, handle: Handle) -> Handle:
        """Name the typed fields of the structural atom `handle`, as
        `open_atom` names a tuple's typed components: `x @ T { f: t }`
        becomes `x @ T { f = a }` and `a @ t`, for a fresh anchor `a` after
        `f`. Returns the handle of the structural atom: `handle` itself when
        every field is named."""
        atom = penv.atom(handle)
        ty = atom.ty
        old = children(ty)
        kids = list(old)
        extra: list[Atom] = []
        for i, (fname, fty) in enumerate(ty.fields):
            if fty.__class__ is not TSingleton:
                anchor = self.uni.fresh_name(fname)
                extra.extend(admit_atoms(self.env, anchor, fty))
                kids[i] = TSingleton(anchor)
        if not extra:
            return handle
        return penv.replace(handle, Anchored(atom.anchor, rebuild(ty, old, kids)), *extra)

    def _tuple_view(
        self, penv: PermEnv, anchor: str, length: int, structural: bool
    ) -> tuple[Handle, TTuple] | None:
        """The first atom of `anchor` whose type is a tuple of `length`
        components, structural or raw as `structural` says, with its handle."""
        for handle, atom in penv.atoms_of(anchor):
            ty = self.uni.resolve(atom.ty)
            if (
                isinstance(ty, TTuple)
                and is_structural_tuple(ty) == structural
                and len(ty.comps) == length
            ):
                return handle, ty
        return None

    def head_atom(self, penv: PermEnv, anchor: str, want) -> Handle | None:
        """The first atom of `anchor` whose type satisfies the predicate
        `want`, with the atoms opened on the way to it, or None, with
        nothing opened: one step of the walk that `_pick` takes to its end
        (`_next_head`). No generator is left suspended, for a
        `GeneratorExit` to close. An anchor that holds no atom, as a global
        callee holds none, has none to open."""
        hits = penv.atoms_of(anchor)
        if not hits:
            return None
        mark = penv.mark()
        at = self._next_head(anchor, want, penv, hits, 0, -1)
        if at is None:
            penv.undo_to(mark)
            return None
        return at[0]

    def _next_head(self, anchor: str, want, penv: PermEnv, hits, i: int, seen: Handle):
        """One step of the walk over the atoms of `anchor` whose type
        satisfies `want`: those of `penv`, in order, then those that each
        opening of an atom of `anchor` brings. An opening gives its atoms
        handles above every older one, and `seen` is the highest handle
        before it. The step goes on from the `i`th of `hits`, the atoms of
        `anchor` in `penv`, opening atoms in `penv` as it needs. It gives
        the handle of the next atom, then the walk's state past it (`hits`,
        `i` and `seen` again), or None at the walk's end."""
        resolve = self.uni.resolve
        while True:
            for handle, atom in hits[i:]:
                i += 1
                if handle > seen and want(resolve(atom.ty)):
                    return handle, hits, i, seen
            seen = max((h for h, _ in hits), default=seen)
            if not self._open_first(penv, hits):
                return None
            hits, i = penv.atoms_of(anchor), 0

    def _open_first(self, penv: PermEnv, hits: list[tuple[Handle, Anchored]]) -> bool:
        """Open the first atom among `hits` that opens, if one does."""
        for handle, _ in hits:
            if self.open_atom(penv, handle):
                return True
        return False

    # ------------------------------------------------------------------
    # subsumption
    # ------------------------------------------------------------------

    def subsume(self, penv: PermEnv, goals: list[Atom], defer: list[Atom] | None = None) -> None:
        """Meet `goals` in `penv`, in order. The first goal that fails gives
        back what it bound and raises its failure; what the goals took out
        of `penv` stays taken."""
        bindings = self.uni.bindings
        for goal in goals:
            mark = bindings.mark()
            try:
                self.subsume_atom(penv, goal, defer)
            except SubsumptionFailure as failure:
                bindings.undo_to(mark)
                # Its traceback holds the frame of `_back_off`, which holds it.
                raise failure.with_traceback(None)

    def subsume_atom(self, penv: PermEnv, goal: Atom, defer: list[Atom] | None = None) -> None:
        """Meet `goal` in `penv`, appending deferred goals to `defer`. `stack`
        holds the goals left, as a linked tuple, and `choices` the open
        levels, newest first. An anchored goal that the search makes itself
        is a pair `(anchor, type)`, made an `Anchored` atom only for a level
        or a failure to keep. A goal of a level that fails raises its
        failure without a snapshot: `_back_off` takes it once it has undone
        the environment to the level's."""
        bindings = self.uni.bindings
        resolve = self.uni.resolve
        guard = self.guard
        choices: _Level | None = None
        stack: tuple | None = (goal, None)
        while True:
            try:
                while stack is not None:
                    item, stack = stack
                    if item is _CUT:
                        guard.undo_to(choices.guard_mark)
                        choices = choices.older
                        continue
                    if item is _FAIL:
                        raise SubsumptionFailure(choices.goal, None)
                    cls = item.__class__
                    if cls is _Field:
                        fty = resolve(item.ty)
                        aty = item.actual
                        if aty.__class__ is TSingleton and fty.__class__ is not TSingleton:
                            item, cls = (aty.name, fty), tuple
                        elif self.unify(fty, aty):
                            continue  # the atom holds the content, or the goal names it
                        else:
                            raise SubsumptionFailure(choices.goal, None)
                    if cls is tuple:
                        anchor, goal_ty = item
                    elif cls is Anchored:
                        anchor, goal_ty = item.anchor, item.ty
                    elif cls is MetaPerm:
                        bound = bindings.get(item.name)
                        if bound is not None:
                            stack = (bound, stack)
                        elif defer is not None and choices is None:
                            # a later goal may still solve it, and no level can
                            # back off past this point
                            defer.append(item)
                        else:
                            self.uni.bind(item.name, _EMPTY)
                        continue
                    elif cls is PermVar:
                        handle = penv.perm_var(item.name)
                        if handle is None:
                            raise SubsumptionFailure(item, str(penv))
                        penv.remove(handle)
                        continue
                    else:  # a permission: its atoms, in order
                        for atom in reversed(normalize(self.env, resolve(item))):
                            stack = (atom, stack)
                        continue
                    ty = resolve(goal_ty)
                    if ty.__class__ is TBar:
                        ty = _strip_empty_bar(ty)
                    tcls = ty.__class__
                    rest = None
                    if tcls is TTuple or tcls is TConcrete:
                        item = Anchored(anchor, ty)
                        rest = self._pick(item, penv)
                    elif tcls is TMeta:
                        hits = penv.atoms_of(anchor)
                        if not hits or not self.uni.bind(ty.name, hits[0][1].ty):
                            raise SubsumptionFailure(Anchored(anchor, goal_ty), str(penv))
                        self._extract(penv, hits[0][0], hits[0][1].ty)
                    elif tcls is TBar:
                        stack = ((anchor, ty.carrier), (ty.perm, stack))
                    elif tcls is TExists:
                        subst = {name: self.uni.fresh(name, kind) for name, kind in ty.binders}
                        stack = ((anchor, subst_type(ty.body, subst)), stack)
                    elif tcls is TSingleton:
                        if ty.name != anchor and not self._find_exact(
                            penv, penv.atoms_of(anchor), anchor, ty
                        ):
                            raise SubsumptionFailure(Anchored(anchor, goal_ty), str(penv))
                    elif tcls is not TEmpty:
                        hits = penv.atoms_of(anchor)
                        folds, only_folds = self._folds(penv, anchor, ty, hits)
                        if only_folds:
                            walk = choices.walk if choices is not None else False
                            goals = None if walk is None else self._walk_goals(ty, folds)
                            if goals is not None and walk:  # inside a walk: no level
                                penv.remove(folds[0][0])
                                for g in reversed(goals):
                                    stack = (g, stack)
                                continue
                            item = Anchored(anchor, goal_ty)
                            if goals is None:
                                rest = self._fold(item, ty, penv, folds)
                            else:
                                rest = self._walk(item, ty, penv, folds, goals)
                                choices = _Level(
                                    item, stack, choices, rest, bindings.mark(), guard.mark()
                                )
                                choices.walk = True
                                stack = _take(choices, next(rest))
                                continue
                        elif self._find_exact(penv, hits, anchor, ty):
                            pass
                        elif is_alias(self.env, ty):
                            stack = ((anchor, expand_alias(self.env, ty)), stack)
                        elif self._open_first(penv, hits):
                            stack = (item, stack)
                        else:
                            item = Anchored(anchor, goal_ty)
                            rest = self._fold(item, ty, penv, folds)
                    if rest is not None:
                        level = _Level(item, stack, choices, rest, bindings.mark(), guard.mark())
                        stack = _take(level, next(rest))
                        choices = level
                return
            except SubsumptionFailure as failure:
                stack, choices = self._back_off(penv, failure, choices)

    def _back_off(
        self, penv: PermEnv, failure: SubsumptionFailure, choices: _Level | None
    ) -> tuple[tuple, _Level]:
        """Back off from `failure` to the newest open level with an atom left:
        each store undone to that level's marks, and its next atom taken;
        the goal stack and open levels that follow. A failure without a
        snapshot is a goal of the newest level, and takes the environment
        undone to that level's. A failure is sent to a level, which may keep
        it, without its traceback: the frames of the search it holds would
        hold it in turn."""
        failure.__traceback__ = None
        while choices is not None:
            level = choices
            choices = level.older
            self.uni.bindings.undo_to(level.mark)
            self.guard.undo_to(level.guard_mark)
            penv.undo_to(level.env_mark)
            if level.walk:  # the walk failed: its goal is searched again, without walking
                level.walk = None
            if failure.snapshot is None:
                failure.snapshot = str(penv)
            try:
                return _take(level, level.rest.send(failure)), level
            except SubsumptionFailure as exc:  # the level has none left
                failure = exc.with_traceback(None)
        raise failure

    def _pick(self, goal: Anchored, penv: PermEnv) -> Generator[tuple, SubsumptionFailure, None]:
        """The atoms a tuple or concrete goal may take: each structural tuple,
        or atom of its tag, that the walk of `_next_head` finds, with the
        goals of its components or fields. Fails with the failure of the
        first, or with `goal` when there is none."""
        ty = goal.ty
        want = is_structural_tuple if ty.__class__ is TTuple else (
            lambda t: t.__class__ is TConcrete and t.tag == ty.tag
        )
        first = None
        anchor = goal.anchor
        start = penv.mark()
        at = self._next_head(anchor, want, penv, penv.atoms_of(anchor), 0, -1)
        while at is not None:
            handle, hits, i, seen = at
            actual = penv.atom(handle).ty
            if ty.__class__ is TTuple:
                goals = _tuple_goals(actual, ty)
            else:  # the resolver gives a concrete type its branch's fields, in order
                goals = [_Field(f, a) for (_, f), (_, a) in zip(ty.fields, actual.fields)]
                if ty.bar is not None:
                    goals.append(ty.bar)
            mark = penv.mark()
            self._extract(penv, handle, actual)
            failure = yield mark, goals
            if first is None:
                first = failure
            at = self._next_head(anchor, want, penv, hits, i, seen)
        if first is None:
            penv.undo_to(start)
            first = SubsumptionFailure(goal, str(penv))
        raise first

    def _fold(
        self, goal: Anchored, ty: Type, penv: PermEnv, folds: list[tuple[Handle, TConcrete]]
    ) -> Generator[tuple, SubsumptionFailure, None]:
        """The atoms a goal of type `ty` that only a fold or a split can meet
        may take: each of `folds` that a fold can take (`_fold_goals`), but
        a duplicable one already being folded, with its fold's goals; then a
        split, with the goal again. Fails with `goal`, or after the split
        with the failure of the goal's search."""
        guard = self.guard
        start = penv.mark()
        for handle, sty in folds:
            goals = self._fold_goals(ty, sty)
            if goals is None:
                continue
            if not self._extract(penv, handle, sty):
                if handle in guard:
                    continue
                guard.enter(handle, True)
            yield start, goals
        split = self._try_split(penv, goal.anchor)
        if split is None:
            raise SubsumptionFailure(goal, str(penv))
        guard.enter(split, True)
        failure = yield start, [goal]
        raise failure

    def _walk(
        self, goal: Anchored, ty: TApp, penv: PermEnv, folds: list[tuple[Handle, TConcrete]],
        goals: list,
    ) -> Generator[tuple, SubsumptionFailure, None]:
        """A walk's level for `goal`, of the mutable data type `ty`: the
        first of `folds`, taken out as `_fold` takes it, with its fold's
        `goals`; then the goal searched again by `_fold`, with the fresh
        names drawn since the walk began given back, so that the search
        draws them as it would have without the walk. It serves
        `check_wide`, whose tree literals it meets in one level each, where
        the search opens a level a node."""
        uni = self.uni
        counter = uni._counter
        start = penv.mark()
        penv.remove(folds[0][0])
        yield start, goals
        uni._counter = counter
        yield from self._fold(goal, ty, penv, folds)

    def _fold_goals(self, ty: TApp, sty: TConcrete) -> list | None:
        """The goals of folding the structural atom of type `sty` into `ty`:
        each field's anchor at its branch's field type, then the branch's
        bar. None when a field is no singleton, which a fold cannot name."""
        branch = branch_instance(self.env, ty, sty.tag)
        goals: list[object] = []
        # the resolver gives a concrete type its branch's fields, in order
        for (_, declared), (_, actual) in zip(branch.fields, sty.fields):
            if actual.__class__ is not TSingleton:
                return None
            goals.append((actual.name, declared))
        if branch.bar is not None:
            goals.append(branch.bar)
        return goals

    def _walk_goals(self, ty: TApp, folds: list[tuple[Handle, TConcrete]]) -> list | None:
        """The goals of the first of `folds` if a walk may take it: `ty` is
        a mutable data type, whose atoms a fold takes out, and a fold can
        take that atom. None otherwise."""
        if not folds or not self.env.types[ty.head].mutable:
            return None
        return self._fold_goals(ty, folds[0][1])

    def _folds(
        self, penv: PermEnv, anchor: str, ty: Type, hits: list[tuple[Handle, Anchored]]
    ) -> tuple[list[tuple[Handle, TConcrete]], bool]:
        """The structural atoms among `hits`, the atoms of `anchor`, that
        may fold into `ty`, with their handles, in order; and whether only a
        fold or a split can meet `anchor @ ty`. They can when `ty` is a data
        type and `anchor` holds no other atom and no global permission, as
        a data type does not unify with a tag, and a tag opens no further."""
        folds: list[tuple[Handle, TConcrete]] = []
        info = self.env.types.get(ty.head) if ty.__class__ is TApp else None
        if info.__class__ is not DataInfo:
            return folds, False
        only_folds = penv.global_type(anchor) is None
        branches = info.branches
        for handle, atom in hits:
            aty = atom.ty
            if aty.__class__ is not TConcrete:
                only_folds = False
            elif aty.tag in branches:
                folds.append((handle, aty))
        return folds, only_folds

    def _find_exact(
        self, penv: PermEnv, hits: list[tuple[Handle, Anchored]], anchor: str, ty: Type
    ) -> bool:
        """Extract an atom among `hits`, the atoms of `anchor` in `penv`, or
        the global permission of `anchor`, whose type unifies with `ty`, if
        there is one."""
        bindings = self.uni.bindings
        mark = bindings.mark()
        for handle, atom in hits:
            if self.unify(ty, atom.ty):
                self._extract(penv, handle, atom.ty)
                return True
            bindings.undo_to(mark)
        gty = penv.global_type(anchor)
        if gty is not None:
            if self.unify(ty, gty):
                return True  # global permissions are duplicable
            bindings.undo_to(mark)
        return False

    def _extract(self, penv: PermEnv, handle: Handle, ty: Type) -> bool:
        """Take the anchored atom `handle`, whose type is `ty`, out of
        `penv`, unless it is duplicable: whether it was taken out."""
        if duplicability(self.uni.resolve(ty), self.env) == DUPLICABLE:
            return False
        penv.remove(handle)
        return True

    def _try_split(self, penv: PermEnv, wanted_anchor: str) -> str | None:
        """Split `y @ D args` along a structural `y @ Tag{.. f = wanted ..}`
        (see `split_along`), for a `y` not being split already. Also splits a raw tuple
        permission along a structural tuple naming the wanted anchor. Returns
        `y`, or None with `penv` left as it was."""
        for shandle, satom in penv.items():
            if not isinstance(satom, Anchored) or satom.anchor in self.guard:
                continue
            sty = self.uni.resolve(satom.ty)
            # lists, not `any` over a generator, which a `GeneratorExit` closes
            if is_structural_tuple(sty):
                if wanted_anchor in [c.ty.name for c in sty.comps]:
                    raw = self._tuple_view(penv, satom.anchor, len(sty.comps), structural=False)
                    if raw is not None:
                        self.open_atom(penv, raw[0])
                        return satom.anchor
                continue
            if isinstance(sty, TConcrete) and wanted_anchor in [
                f.name for _, f in sty.fields if f.__class__ is TSingleton
            ]:
                if self.split_along(penv, shandle, sty):
                    return satom.anchor
        return None

    def split_along(self, penv: PermEnv, shandle: Handle, sty: TConcrete) -> bool:
        """Split a nominal `y @ D args` along the structural atom `y @ sty`,
        whose handle is `shandle`: the nominal atom is dropped, and the permissions of the fields
        that `sty` names by a singleton, and of the branch's bar, are added.
        False, with `penv` left as it was, when `y` holds no permission of
        the data type of `sty`'s tag."""
        entry = self.env.tags.get(sty.tag)
        if entry is None:
            return False
        data_name = entry[0]
        anchor = penv.atom(shandle).anchor
        for nhandle, natom in penv.atoms_of(anchor):
            if nhandle == shandle:
                continue
            nty = self.uni.resolve(natom.ty)
            while is_alias(self.env, nty):
                nty = expand_alias(self.env, nty)
            if isinstance(nty, TApp) and nty.head == data_name:
                names = [f.name if isinstance(f, TSingleton) else None for _, f in sty.fields]
                # the structural atom is already there
                _, *fields = split_branch(self.env, anchor, nty, sty.tag, names)
                penv.remove(nhandle)
                penv.add(*fields)
                return True
        return False


def _take(level: _Level, alternative: tuple) -> tuple:
    """Take at `level` the atom of `alternative`, which holds the mark of
    the environment before the atom was taken, and the atom's goals: the
    stack of the goals, a cut, then the level's after."""
    level.env_mark, goals = alternative
    stack = (_CUT, level.after)
    for g in reversed(goals):
        stack = (g, stack)
    return stack


def _tuple_goals(actual: TTuple, ty: TTuple) -> list:
    """The goals of the tuple goal `ty` met by the structural tuple `actual`:
    each component, at the anchor `actual` gives it, with the names of the
    components before it renamed to their anchors. A tuple of another
    length does not meet it."""
    if len(actual.comps) != len(ty.comps):
        return [_FAIL]
    values: dict[str, str] = {}
    goals = []
    for comp, actual_comp in zip(ty.comps, actual.comps):
        target = actual_comp.ty.name
        goals.append((target, subst_type(comp.ty, {}, values)))
        if comp.name is not None:
            values[comp.name] = target
    return goals


def is_structural_tuple(t: Type) -> bool:
    """Is `t` a tuple whose every component is a singleton? A loop, not
    `all` over a generator, which a `GeneratorExit` closes when it stops
    early."""
    if t.__class__ is not TTuple:
        return False
    for c in t.comps:
        if c.ty.__class__ is not TSingleton:
            return False
    return True


def _as_domain(domain: Type) -> Type:
    """An arrow domain with a tuple for its carrier: a carrier that is not a
    tuple is the one unnamed component, as `kinds.domain_comps` reads it."""
    if domain.__class__ is TBar:
        kids = children(domain)
        return rebuild(domain, kids, (_as_domain(kids[0]), kids[1]))
    return domain if domain.__class__ is TTuple else TTuple((TupleComp(None, domain, False),))


def _strip_empty_bar(t: Type) -> Type:
    if t.__class__ is TBar and t.perm.__class__ is TEmpty:
        return _strip_empty_bar(t.carrier)
    return t
