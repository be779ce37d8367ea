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
The search that extracts atoms from it is in `subsume.py`.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections.abc import Iterable, Sequence

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
    children,
    map_children,
    node,
    rebuild,
)
from .kinds import AliasInfo, DataInfo, Env, PrimInfo


# ---------------------------------------------------------------------------
# Duplicability
# ---------------------------------------------------------------------------


DUPLICABLE = "DUPLICABLE"
AFFINE = "AFFINE"


def duplicability(t: Type, env: Env, _assume: frozenset[str] | None = None) -> str:
    """Least-fixed-point duplicability; recursive occurrences are optimistically
    assumed duplicable and iterated until stable (sufficient for `list`).
    Answers are memoised in `env.dup_memo`, so they live exactly as long as
    the environment whose declarations they depend on. A structural atom
    (a tag whose fields are all singletons, with no bar) is answered from
    its tag, unmemoised: each value built makes a new one. Its loops are
    plain: `all` or `any` over a generator that stops early leaves it for a
    `GeneratorExit` to close."""
    if _assume is None:
        if t.__class__ is TConcrete and t.bar is None:
            for _, f in t.fields:
                if f.__class__ is not TSingleton:
                    break
            else:
                return AFFINE if env.mutable_tag(t.tag) else DUPLICABLE
        result = env.dup_memo.get(t)
        if result is None:
            result = env.dup_memo[t] = duplicability(t, env, frozenset())
        return result
    if isinstance(t, (TEmpty, TSingleton, TArrow)):
        return DUPLICABLE
    if isinstance(t, (TMeta, TVar)):
        return AFFINE  # unsolved, or a rigid type/permission variable
    if isinstance(t, TConcrete) and env.mutable_tag(t.tag):
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
            for tag in info.branches:
                branch = branch_instance(env, t, tag)
                for _, fty in branch.fields:
                    if duplicability(fty, env, inner) == AFFINE:
                        return AFFINE
                if branch.bar is not None and duplicability(branch.bar, env, inner) == AFFINE:
                    return AFFINE
            return DUPLICABLE
        return AFFINE  # abstract type
    for c in children(t):
        if duplicability(c, env, _assume) == AFFINE:
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
    variable free in a substituted type is renamed. Only the classes that
    hold a name or scope one are cased here; `map_children` walks the rest.
    """
    if not subst and not values:
        return t
    cls = t.__class__
    if cls is TVar:
        return subst.get(t.name, t)
    if cls is TAt:
        anchor = values.get(t.anchor, t.anchor) if values else t.anchor
        ty = subst_type(t.ty, subst, values)
        if anchor == t.anchor and ty is t.ty:
            return t
        return TAt(anchor, ty, t.span)
    if cls is TBar or cls is TTuple:
        return _subst_domain(t, subst, values)[0]
    if cls is TSingleton:
        name = values.get(t.name, t.name) if values else t.name
        return t if name == t.name else TSingleton(name, t.span)
    if cls is TArrow:
        dom, values2 = _subst_domain(t.domain, subst, values)
        cod = subst_type(t.codomain, subst, values2)
        return rebuild(t, (t.domain, t.codomain), (dom, cod))
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
    return map_children(t, subst_type, subst, values)


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
        return rebuild(t, (t.carrier, t.perm), (carrier, perm)), values2
    if cls is TTuple:
        values2 = values
        tys = []
        for comp in t.comps:
            tys.append(subst_type(comp.ty, subst, values2))
            if values2 and comp.name in values2:
                values2 = {k: v for k, v in values2.items() if k != comp.name}
        return rebuild(t, children(t), tys), values2
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


def branch_instance(env: Env, t: TApp, tag: str) -> Branch:
    """The branch `tag` of the data type `t`, with the type's parameters
    replaced by the arguments of `t`. Memoised in `env.branch_memo`, so the
    nodes of one instance, with the hashes they keep, serve every fold and
    split of it."""
    key = (t, tag)
    inst = env.branch_memo.get(key)
    if inst is None:
        info = env.types[t.head]
        assert isinstance(info, DataInfo)
        branch = info.branches[tag]
        subst = dict(zip((n for n, _ in info.params), t.args))
        fields = tuple([(fname, subst_type(fty, subst)) for fname, fty in branch.fields])
        bar = branch.bar if branch.bar is None else subst_type(branch.bar, subst)
        inst = env.branch_memo[key] = Branch(tag, fields, bar, branch.span)
    return inst


def is_alias(env: Env, t: Type) -> bool:
    return isinstance(t, TApp) and isinstance(env.types.get(t.head), AliasInfo)


# ---------------------------------------------------------------------------
# Normalization of permissions into atoms
# ---------------------------------------------------------------------------


@node
class Atom:
    pass


@node
class Anchored(Atom):
    anchor: str
    ty: Type

    def __str__(self) -> str:
        from .printer import print_type

        return f"{self.anchor} @ {print_type(self.ty, 4)}"


@node
class PermVar(Atom):
    name: str

    def __str__(self) -> str:
        return self.name


@node
class MetaPerm(Atom):
    """A permission metavariable awaiting an existential witness."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


def normalize(env: Env, perm: Type) -> list[Atom]:
    """Flatten a permission into atoms; `x @ (t | p)` splits into `x @ t * p`,
    and an alias of kind perm is expanded. Anything else, a type included,
    raises TypeError: `is_permission` tells which without raising."""
    atoms: list[Atom] = []
    work = [perm]
    while work:
        p = work.pop()
        if isinstance(p, TEmpty):
            continue
        if isinstance(p, TStar):
            work.extend(reversed(p.items))
        elif isinstance(p, TVar):
            atoms.append(PermVar(p.name))
        elif isinstance(p, TMeta):
            atoms.append(MetaPerm(p.name))
        elif isinstance(p, TAt):
            atoms.extend(admit_atoms(env, p.anchor, p.ty))
        elif is_alias(env, p) and env.types[p.head].kind == KIND_PERM:
            work.append(expand_alias(env, p))
        else:
            raise TypeError(f"not a permission: {p!r}")
    return atoms


def is_permission(env: Env, perm: Type) -> bool:
    """Does `normalize` accept `perm`? It walks `perm` as `normalize` does,
    and with `admit_atoms` under the bars of an anchored atom."""
    work = [perm]
    while work:
        p = work.pop()
        cls = p.__class__
        if cls is TStar:
            work.extend(p.items)
        elif cls is TAt:
            ty = p.ty
            while ty.__class__ is TBar:
                work.append(ty.perm)
                ty = ty.carrier
        elif is_alias(env, p) and env.types[p.head].kind == KIND_PERM:
            work.append(expand_alias(env, p))
        elif cls is not TEmpty and cls is not TVar and cls is not TMeta:
            return False
    return True


def admit_atoms(env: Env, anchor: str, ty: Type) -> list[Atom]:
    """Atoms released when a value of type `ty` is bound to `anchor`: the
    atom `anchor @ t` for the carrier `t` under the bars of `ty`, then each
    bar's permission, split off so that extraction sees it. Inner bars come
    first: `((t | p) | q)` gives `anchor @ t`, then `p`, then `q`."""
    if isinstance(ty, TBar):
        return admit_atoms(env, anchor, ty.carrier) + normalize(env, ty.perm)
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
    def __init__(self, goal: Atom, env: "PermEnv"):
        super().__init__(f"cannot extract {goal}")
        self.goal = goal
        self.env = env


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
    env: Env, anchor: str, t: TApp, tag: str, names: Iterable[str | None]
) -> list[Atom]:
    """Split `anchor @ t`, where `t` is a data type `D args`, along its
    branch `tag`.

    The result is the structural atom `anchor @ Tag { f = a; ... }`, then
    the permissions split off it: `a @ t` for each field `f: t` of the
    branch, with D's parameters replaced by `args` and a bar around `t`
    split off as `admit_atoms` does, then the branch's bar permission.
    `names` gives each field's anchor `a`, in field order; a field whose
    name is None is not split off, and the structural atom keeps it at its
    type `t`.
    """
    branch = branch_instance(env, t, tag)
    fields: list[tuple[str, Type]] = []
    split: list[Atom] = []
    for (fname, fty), name in zip(branch.fields, names):
        if name is None:
            fields.append((fname, fty))
            continue
        fields.append((fname, TSingleton(name)))
        split.extend(admit_atoms(env, name, fty))
    if branch.bar is not None:
        split.extend(normalize(env, branch.bar))
    return [Anchored(anchor, TConcrete(tag, tuple(fields), None)), *split]
