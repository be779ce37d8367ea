"""The permission algebra.

Permissions are types of kind PERM, normalized into flat lists of atoms:
anchored atoms `x @ t` and permission variables. The environment is an
ordered multiset of atoms; extraction deterministically removes the first
match (affine atoms are removed, duplicable ones are not).

The environment, `PermEnv`, is persistent: an edit returns a new version
and the old one stays valid. The versions of one environment share a
mutable store holding the atoms of one version, the root, with an index
from each anchor to its atoms. Every other version holds the edit that
turns its neighbour towards the root back into it, and reading or editing
a version reroots the store at it, in a loop. Atoms are named by handles
that stay valid across versions and ordered by order keys, so a
replacement keeps its place. Editing the root costs O(1) and copies
nothing. A store belongs to one check and is not shared between threads.

Subsumption search order per goal atom: exact match, singleton
unification, alias expansion, fold of a structural permission to its
nominal type, split of a nominal permission along a structural one, and
existential witness via unification metavariables.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .ast import (
    KIND_PERM,
    Branch,
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
from .kinds import AliasInfo, DataInfo, Env, PrimInfo


class NameSupply:
    """Fresh names of the form `base$k`; `$` is not lexable, so they never
    collide with user-written identifiers. Each check owns one supply, so
    the names it draws depend only on what it checks."""

    def __init__(self) -> None:
        self._next = itertools.count()

    def fresh(self, base: str) -> str:
        return f"{base}${next(self._next)}"


# ---------------------------------------------------------------------------
# Duplicability
# ---------------------------------------------------------------------------


DUPLICABLE = "DUPLICABLE"
AFFINE = "AFFINE"


def duplicability(t: Type, env: Env, _assume: frozenset[str] | None = None) -> str:
    """Least-fixed-point duplicability; recursive occurrences are optimistically
    assumed duplicable and iterated until stable (sufficient for `list`).
    Answers are memoised in `env.dup_memo`, so they live exactly as long as
    the environment whose declarations they depend on."""
    if _assume is None:
        result = env.dup_memo.get(t)
        if result is None:
            result = env.dup_memo[t] = duplicability(t, env, frozenset())
        return result
    if isinstance(t, (TEmpty, TSingleton, TArrow)):
        return DUPLICABLE
    if isinstance(t, (TMeta, TVar)):
        return AFFINE  # unsolved, or a rigid type/permission variable
    if isinstance(t, TConcrete):
        info = env.tags.get(t.tag)
        if info is not None:
            data = env.types.get(info[0])
            if isinstance(data, DataInfo) and data.mutable:
                return AFFINE
    if isinstance(t, TApp):
        info = env.types.get(t.head)
        if isinstance(info, PrimInfo):
            return DUPLICABLE
        if isinstance(info, AliasInfo):
            return duplicability(expand_alias(env, t), env, _assume)
        if isinstance(info, DataInfo):
            if info.mutable:
                return AFFINE
            key = t.head
            if key in _assume:
                return DUPLICABLE  # optimistic; iterated below
            inner = _assume | {key}
            subst = dict(zip((n for n, _ in info.params), t.args))
            for branch in info.branches.values():
                for _, fty in branch.fields:
                    if duplicability(subst_type(fty, subst), env, inner) == AFFINE:
                        return AFFINE
                if branch.bar is not None:
                    if duplicability(subst_type(branch.bar, subst), env, inner) == AFFINE:
                        return AFFINE
            return DUPLICABLE
        return AFFINE  # abstract type
    if any(duplicability(c, env, _assume) == AFFINE for c in children(t)):
        return AFFINE
    return DUPLICABLE


# ---------------------------------------------------------------------------
# Substitution (capture-avoiding) and alias expansion
# ---------------------------------------------------------------------------


def subst_type(t: Type, subst: dict[str, Type], values: dict[str, str] | None = None) -> Type:
    """Substitute type/permission variables and (optionally) value anchors.

    `subst` maps binder names to types; `values` maps value names (anchors,
    singleton references, component names) to other value names. Every
    subtree that they leave unchanged comes back as the same object, and so
    does `t` itself when both are empty. A binder that would capture a
    variable free in a substituted type is renamed.
    """
    if not subst and not values:
        return t
    cls = t.__class__
    if cls is TVar:
        return subst.get(t.name, t)
    if cls is TApp:
        args = t.args
        if not args:
            return t
        new = tuple([subst_type(a, subst, values) for a in args])
        return t if same_items(new, args) else TApp(t.head, new, t.span)
    if cls is TAt:
        anchor = values.get(t.anchor, t.anchor) if values else t.anchor
        ty = subst_type(t.ty, subst, values)
        if anchor == t.anchor and ty is t.ty:
            return t
        return TAt(anchor, ty, t.span)
    if cls is TBar or cls is TTuple:
        return _subst_domain(t, subst, values)[0]
    if cls is TStar:
        items = tuple([subst_type(i, subst, values) for i in t.items])
        return t if same_items(items, t.items) else TStar(items, t.span)
    if cls is TSingleton:
        name = values.get(t.name, t.name) if values else t.name
        return t if name == t.name else TSingleton(name, t.span)
    if cls is TMeta or cls is TEmpty:
        return t
    if cls is TArrow:
        dom, values2 = _subst_domain(t.domain, subst, values)
        cod = subst_type(t.codomain, subst, values2)
        if dom is t.domain and cod is t.codomain:
            return t
        return TArrow(dom, cod, t.span)
    if cls is TConcrete:
        fields = t.fields
        ftys = [subst_type(ft, subst, values) for _, ft in fields]
        bar = t.bar if t.bar is None else subst_type(t.bar, subst, values)
        if bar is t.bar and same_items(ftys, [ft for _, ft in fields]):
            return t
        fields = tuple((n, ft) for (n, _), ft in zip(fields, ftys))
        return TConcrete(t.tag, fields, bar, t.span)
    if cls is TForall or cls is TExists:
        binders = []
        inner = dict(subst)
        free: set[str] = set()
        for w in subst.values():
            if w.__class__ is not TMeta:  # a fresh witness has no free names
                free |= free_type_vars(w)
        for name, kind in t.binders:
            if name in free:
                # the first `name$k` that is free nowhere here and names no
                # other binder, so that the renamed binder captures nothing
                taken = free | free_type_vars(t.body) | {n for n, _ in t.binders}
                new_name = next(
                    n for k in itertools.count() if (n := f"{name}${k}") not in taken
                )
                inner[name] = TVar(new_name)
                binders.append((new_name, kind))
            else:
                inner.pop(name, None)
                binders.append((name, kind))
        new_binders = tuple(binders)
        body = subst_type(t.body, inner, values)
        if body is t.body and new_binders == t.binders:
            return t
        return cls(new_binders, body, t.span)
    raise TypeError(f"unknown type node {t!r}")


def _subst_domain(
    t: Type, subst: dict[str, Type], values: dict[str, str] | None
) -> tuple[Type, dict[str, str] | None]:
    """Substitute inside a tuple/bar, keeping track of component-name binders:
    a component name shadows any outer value renaming. Also returns the
    renaming that holds after the components."""
    cls = t.__class__
    if cls is TBar:
        carrier, values2 = _subst_domain(t.carrier, subst, values)
        perm = subst_type(t.perm, subst, values2)
        if carrier is t.carrier and perm is t.perm:
            return t, values2
        return TBar(carrier, perm, t.consumed, t.span), values2
    if cls is TTuple:
        values2 = values
        comps = t.comps
        tys = []
        for comp in comps:
            tys.append(subst_type(comp.ty, subst, values2))
            if values2 and comp.name in values2:
                values2 = {k: v for k, v in values2.items() if k != comp.name}
        if same_items(tys, [c.ty for c in comps]):
            return t, values2
        comps = tuple(TupleComp(c.name, ty, c.consumed) for c, ty in zip(comps, tys))
        return TTuple(comps, t.span), values2
    return subst_type(t, subst, values), values


def free_type_vars(t: Type) -> set[str]:
    """The type and permission variables free in `t`: names bound by `[..]`
    and `{..}` are free only outside their quantifier."""
    if t.__class__ is TVar:
        return {t.name}
    free = set().union(*map(free_type_vars, children(t)))
    if isinstance(t, (TForall, TExists)):
        free -= {name for name, _ in t.binders}
    return free


def expand_alias(env: Env, t: TApp) -> Type:
    """The body of the alias `t` names, for its arguments. Memoised in
    `env.alias_memo`, as `duplicability` is in `env.dup_memo`."""
    body = env.alias_memo.get(t)
    if body is None:
        info = env.types.get(t.head)
        assert isinstance(info, AliasInfo) and info.body is not None
        subst = dict(zip((n for n, _ in info.params), t.args))
        body = env.alias_memo[t] = subst_type(info.body, subst)
    return body


def is_alias(env: Env, t: Type) -> bool:
    return isinstance(t, TApp) and isinstance(env.types.get(t.head), AliasInfo)


# ---------------------------------------------------------------------------
# Normalization of permissions into atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    pass


@dataclass(frozen=True)
class Anchored(Atom):
    anchor: str
    ty: Type

    def __str__(self) -> str:
        from .printer import print_type

        return f"{self.anchor} @ {print_type(self.ty, 4)}"


@dataclass(frozen=True)
class PermVar(Atom):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class MetaPerm(Atom):
    """A permission metavariable awaiting an existential witness."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


def normalize(perm: Type) -> list[Atom]:
    """Flatten a permission into atoms; `x @ (t | p)` splits into `x @ t * p`."""
    atoms: list[Atom] = []

    def walk(p: Type) -> None:
        if isinstance(p, TEmpty):
            return
        if isinstance(p, TStar):
            for item in p.items:
                walk(item)
            return
        if isinstance(p, TVar):
            atoms.append(PermVar(p.name))
            return
        if isinstance(p, TMeta):
            atoms.append(MetaPerm(p.name))
            return
        if isinstance(p, TAt):
            atoms.extend(admit_atoms(p.anchor, p.ty))
            return
        raise TypeError(f"not a permission: {p!r}")

    walk(perm)
    return atoms


def admit_atoms(anchor: str, ty: Type) -> list[Atom]:
    """Atoms released when a value of type `ty` is bound to `anchor`: the
    atom `anchor @ t` for the carrier `t` under the bars of `ty`, then each
    bar's permission, split off so that extraction sees it. Inner bars come
    first: `((t | p) | q)` gives `anchor @ t`, then `p`, then `q`."""
    if isinstance(ty, TBar):
        return admit_atoms(anchor, ty.carrier) + normalize(ty.perm)
    return [Anchored(anchor, ty)]


def atoms_to_type(atoms: list[Atom]) -> Type:
    items: list[Type] = []
    for a in atoms:
        if isinstance(a, Anchored):
            items.append(TAt(a.anchor, a.ty))
        elif isinstance(a, PermVar):
            items.append(TVar(a.name))
        else:
            items.append(TMeta(a.name, KIND_PERM))
    if not items:
        return TEmpty()
    if len(items) == 1:
        return items[0]
    return TStar(tuple(items))


# ---------------------------------------------------------------------------
# The permission environment
# ---------------------------------------------------------------------------


class SubsumptionFailure(Exception):
    def __init__(self, goal: Atom, env: "PermEnv", note: str = ""):
        super().__init__(f"cannot extract {goal}")
        self.goal = goal
        self.env = env
        self.note = note


Handle = int
"""Names one atom of one environment version. An edit that keeps an atom
keeps its handle, so a handle taken from a version stays valid for it and
for every version derived from it that still holds the atom."""

# A slot is one atom with its handle and its order key. Order keys are
# tuples of ints, unique within a version, and they give the atom order:
# an added atom gets `(h,)` for its new handle `h`, larger than every key
# before it. The atoms spliced in for the atom of key `K` get `K` when
# there is one of them, and `K + (0,)`, `K + (1,)`, ... when there are
# more, which lie between `K` and the key after it.
_Slot = tuple[tuple[int, ...], Handle, Atom]


class _Family:
    """The state shared by a family of environment versions, all derived
    from one `PermEnv(...)`: the slots of the version that is currently the
    root, and an index from the anchor of each anchored atom, and from each
    permission variable, to its slots in order. Metavariables are not
    indexed."""

    __slots__ = ("env", "globals", "slots", "index", "handles")

    def __init__(self, env: Env, globals: dict[str, Type] | None):
        self.env = env
        self.globals = globals
        self.slots: dict[Handle, _Slot] = {}
        self.index: dict[str | PermVar, list[_Slot]] = {}
        self.handles = itertools.count()

    def apply(self, out: Sequence[_Slot], into: Sequence[_Slot]) -> None:
        """Take the slots `out` out and put the slots `into` in. Swapping
        the two undoes the edit."""
        slots, index = self.slots, self.index
        for slot in out:
            del slots[slot[1]]
            atom = slot[2]
            if type(atom) is Anchored:
                hits = index[atom.anchor]
            elif type(atom) is PermVar:
                hits = index[atom]
            else:
                continue
            del hits[bisect_left(hits, slot)]
        for slot in into:
            slots[slot[1]] = slot
            atom = slot[2]
            if type(atom) is Anchored:
                key: str | PermVar = atom.anchor
            elif type(atom) is PermVar:
                key = atom
            else:
                continue
            hits = index.get(key)
            if hits is None:
                index[key] = [slot]
            else:
                insort(hits, slot)


class PermEnv:
    """An ordered multiset of permission atoms, as a persistent value: every
    edit returns a new version and leaves the old one as it was.

    The versions derived from one `PermEnv(env, atoms, globals)` form a
    family that shares one `_Family`: a slot per atom of the *root* version,
    and the index that makes `atoms_of` cost only its hits. Every other
    version holds a diff to the next version towards the root: the slots
    to take out of that version and to put in to get this one (Baker's
    rerooted arrays, after Conchon and Filliâtre, *A Persistent Union-Find
    Data Structure*, 2007). Reading or editing a version first reroots the
    family at it, in a loop that applies the diffs on the path from the
    root and reverses each one, so the version read becomes the root and
    the others hold diffs towards it. Deriving from the newest version,
    which the checker does for all but a few edits, thus costs O(1) per
    atom added or taken out; going back to an older one (a `match` or `if`
    branch, a subsumption attempt that backs off, a failure's environment
    printed later) costs the edits in between.

    Atoms are named by handles (`Handle`), which do not shift when another
    atom goes. The order of the atoms is that of their slots' order keys
    (see `_Slot`), so a replacement sits where the atom it replaces sat;
    `items` and `atoms` sort the slots when asked.

    `globals` is a shared side table of duplicable permissions for top-level
    values; they are never extracted and never copied per operation.

    A family belongs to one check: reading a version changes the state its
    family shares, so the versions of a family must not be used from two
    threads.
    """

    __slots__ = ("_family", "_diff")

    def __init__(
        self, env: Env, atoms: Iterable[Atom] = (), globals: dict[str, Type] | None = None
    ):
        self._family = _Family(env, globals)
        self._diff: tuple[Sequence[_Slot], Sequence[_Slot], PermEnv] | None = None
        self._family.apply((), self._appended(atoms))

    def __str__(self) -> str:
        atoms = self.atoms
        return " * ".join(str(a) for a in atoms) if atoms else "empty"

    # -- versions -------------------------------------------------------------

    def _reroot(self) -> None:
        """Make this version the root of its family."""
        path = []
        version = self
        while version._diff is not None:
            path.append(version)
            version = version._diff[2]
        apply = self._family.apply
        for version in reversed(path):
            out, into, newer = version._diff  # type: ignore[misc]
            apply(out, into)
            newer._diff = (into, out, version)
            version._diff = None

    def _derive(self, out: Sequence[_Slot], into: Sequence[_Slot]) -> "PermEnv":
        """The version with the slots `out` taken out of this one and the
        slots `into` put in."""
        if self._diff is not None:
            self._reroot()
        self._family.apply(out, into)
        child = object.__new__(PermEnv)
        child._family = self._family
        child._diff = None
        self._diff = (into, out, child)
        return child

    def _appended(self, atoms: Iterable[Atom]) -> list[_Slot]:
        """New slots for `atoms`, after every slot there is."""
        handles = self._family.handles
        into = []
        for atom in atoms:
            h = next(handles)
            into.append(((h,), h, atom))
        return into

    # -- edits ----------------------------------------------------------------

    def add(self, *new: Atom) -> "PermEnv":
        """The atoms `new` appended, in order."""
        if len(new) == 1:  # the common case, without the loop
            h = next(self._family.handles)
            return self._derive((), (((h,), h, new[0]),))
        if not new:
            return self
        return self._derive((), self._appended(new))

    def remove(self, handle: Handle) -> "PermEnv":
        return self._derive((self._slot(handle),), ())

    def replace(self, handle: Handle, *new: Atom) -> "PermEnv":
        """The atoms `new` in place of the atom `handle`, in order."""
        slot = self._slot(handle)
        key = slot[0]
        handles = self._family.handles
        if len(new) == 1:
            return self._derive((slot,), ((key, next(handles), new[0]),))
        into = []
        for j, atom in enumerate(new):
            into.append((key + (j,), next(handles), atom))
        return self._derive((slot,), into)

    # -- reads ----------------------------------------------------------------

    def _slot(self, handle: Handle) -> _Slot:
        if self._diff is not None:
            self._reroot()
        return self._family.slots[handle]

    def atom(self, handle: Handle) -> Atom:
        return self._slot(handle)[2]

    def items(self) -> list[tuple[Handle, Atom]]:
        """The atoms with their handles, in order."""
        if self._diff is not None:
            self._reroot()
        return [(h, atom) for _, h, atom in sorted(self._family.slots.values())]

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return tuple(atom for _, atom in self.items())

    def atoms_of(self, anchor: str) -> list[tuple[Handle, Anchored]]:
        """The atoms anchored at `anchor`, with their handles, in order."""
        if self._diff is not None:
            self._reroot()
        return [(h, atom) for _, h, atom in self._family.index.get(anchor, ())]

    def holds_anchor(self, anchor: str) -> bool:
        if self._diff is not None:
            self._reroot()
        return bool(self._family.index.get(anchor))

    def perm_var(self, name: str) -> Handle | None:
        """The first atom that is the permission variable `name`."""
        if self._diff is not None:
            self._reroot()
        hits = self._family.index.get(PermVar(name))
        return hits[0][1] if hits else None

    def global_type(self, anchor: str) -> Type | None:
        if self._family.globals is None:
            return None
        return self._family.globals.get(anchor)

    def duplicable_atoms(self) -> list[Atom]:
        env = self._family.env
        return [
            a
            for a in self.atoms
            if isinstance(a, Anchored) and duplicability(a.ty, env) == DUPLICABLE
        ]

    def has_affine(self, goal: Atom) -> bool:
        """Does the env hold an affine atom anchored like `goal`? Used to
        classify a lambda-body failure as an illegal capture: duplicable
        atoms are copied into closure environments, so only an affine
        holding explains the miss."""
        if isinstance(goal, Anchored):
            env = self._family.env
            return any(
                duplicability(a.ty, env) == AFFINE for _, a in self.atoms_of(goal.anchor)
            )
        if isinstance(goal, PermVar):
            return self.perm_var(goal.name) is not None
        return False


# ---------------------------------------------------------------------------
# Splitting a data permission along one of its branches
# ---------------------------------------------------------------------------


def split_branch(
    anchor: str,
    info: DataInfo,
    args: tuple[Type, ...],
    branch: Branch,
    names: Iterable[str | None],
) -> list[Atom]:
    """Split `anchor @ D args` along `branch`, one of the branches of D.

    The result is the structural atom `anchor @ Tag { f = a; ... }`, then
    the permissions split off it: `a @ t` for each field `f: t` of the
    branch, with D's parameters replaced by `args` and a bar around `t`
    split off as `admit_atoms` does, then the branch's bar permission.
    `names` gives each field's anchor `a`, in field order; a field whose
    name is None is not split off, and the structural atom keeps it at its
    type `t`.
    """
    subst = dict(zip((n for n, _ in info.params), args))
    fields: list[tuple[str, Type]] = []
    split: list[Atom] = []
    for (fname, declared), name in zip(branch.fields, names):
        fty = subst_type(declared, subst)
        if name is None:
            fields.append((fname, fty))
            continue
        fields.append((fname, TSingleton(name)))
        split.extend(admit_atoms(name, fty))
    if branch.bar is not None:
        split.extend(normalize(subst_type(branch.bar, subst)))
    return [Anchored(anchor, TConcrete(branch.tag, tuple(fields), None)), *split]
