"""The permission algebra.

Permissions are types of kind PERM, normalized into flat lists of atoms:
anchored atoms `x @ t` and permission variables. The environment is an
ordered multiset of atoms; extraction deterministically removes the first
match (affine atoms are removed, duplicable ones are not).

Subsumption search order per goal atom: exact match, singleton
unification, alias expansion, fold of a structural permission to its
nominal type, split of a nominal permission along a structural one, and
existential witness via unification metavariables.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

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
    map_children,
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
    singleton references, component names) to other value names. With both
    empty, `t` itself is returned.
    """
    if not subst and not values:
        return t
    values = values or {}
    if isinstance(t, TVar):
        return subst.get(t.name, t)
    if isinstance(t, TSingleton):
        name = values.get(t.name, t.name)
        return t if name == t.name else replace(t, name=name)
    if isinstance(t, TArrow):
        dom, values2 = _subst_domain(t.domain, subst, values)
        cod = subst_type(t.codomain, subst, values2)
        if dom is t.domain and cod is t.codomain:
            return t
        return replace(t, domain=dom, codomain=cod)
    if isinstance(t, (TTuple, TBar)):
        return _subst_domain(t, subst, values)[0]
    if isinstance(t, (TForall, TExists)):
        binders = []
        inner = dict(subst)
        free = set().union(*map(free_type_vars, subst.values()))
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
        return replace(t, binders=new_binders, body=body)
    if isinstance(t, TAt):
        anchor = values.get(t.anchor, t.anchor)
        ty = subst_type(t.ty, subst, values)
        if anchor == t.anchor and ty is t.ty:
            return t
        return replace(t, anchor=anchor, ty=ty)
    return map_children(t, lambda c: subst_type(c, subst, values))


def _subst_domain(
    t: Type, subst: dict[str, Type], values: dict[str, str]
) -> tuple[Type, dict[str, str]]:
    """Substitute inside a tuple/bar, keeping track of component-name binders:
    a component name shadows any outer value renaming."""
    if isinstance(t, TBar):
        carrier, values2 = _subst_domain(t.carrier, subst, values)
        perm = subst_type(t.perm, subst, values2)
        if carrier is t.carrier and perm is t.perm:
            return t, values2
        return replace(t, carrier=carrier, perm=perm), values2
    if isinstance(t, TTuple):
        values2 = dict(values)
        tys = []
        for comp in t.comps:
            tys.append(subst_type(comp.ty, subst, values2))
            if comp.name is not None:
                values2.pop(comp.name, None)
        if all(ty is c.ty for c, ty in zip(t.comps, tys)):
            return t, values2
        comps = tuple(TupleComp(c.name, ty, c.consumed) for c, ty in zip(t.comps, tys))
        return replace(t, comps=comps), values2
    return subst_type(t, subst, values), values


def free_type_vars(t: Type) -> set[str]:
    """The type and permission variables free in `t`: names bound by `[..]`
    and `{..}` are free only outside their quantifier."""
    if isinstance(t, TVar):
        return {t.name}
    free = set().union(*map(free_type_vars, children(t)))
    if isinstance(t, (TForall, TExists)):
        free -= {name for name, _ in t.binders}
    return free


def expand_alias(env: Env, t: TApp) -> Type:
    info = env.types.get(t.head)
    assert isinstance(info, AliasInfo) and info.body is not None
    subst = dict(zip((n for n, _ in info.params), t.args))
    return subst_type(info.body, subst)


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


def _anchor_keys(atoms: tuple[Atom, ...]) -> tuple[str | None, ...]:
    return tuple(a.anchor if type(a) is Anchored else None for a in atoms)


@dataclass
class PermEnv:
    """Ordered multiset of permission atoms. Operations return new values.

    `globals` is a shared side table of duplicable permissions for top-level
    values; they are never extracted and never copied per operation.

    `keys` is an index kept parallel to `atoms`: `keys[i]` is the anchor of
    `atoms[i]` when that atom is `Anchored`, and None for any other atom.
    It is derived from `atoms` on construction, and `add`, `remove_index`
    and `replace_index` keep it by slicing the same way as `atoms`, so
    `atoms_of` can search it with `tuple.index`.
    """

    env: Env
    atoms: tuple[Atom, ...] = ()
    globals: dict[str, Type] | None = None
    keys: tuple[str | None, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.keys is None:
            self.keys = _anchor_keys(self.atoms)

    def __str__(self) -> str:
        return " * ".join(str(a) for a in self.atoms) if self.atoms else "empty"

    def add(self, *new: Atom) -> "PermEnv":
        return PermEnv(
            self.env, self.atoms + new, self.globals, self.keys + _anchor_keys(new)
        )

    def global_type(self, anchor: str) -> Type | None:
        if self.globals is None:
            return None
        return self.globals.get(anchor)

    def remove_index(self, idx: int) -> "PermEnv":
        atoms, keys = self.atoms, self.keys
        return PermEnv(
            self.env,
            atoms[:idx] + atoms[idx + 1 :],
            self.globals,
            keys[:idx] + keys[idx + 1 :],
        )

    def replace_index(self, idx: int, *new: Atom) -> "PermEnv":
        atoms, keys = self.atoms, self.keys
        return PermEnv(
            self.env,
            atoms[:idx] + new + atoms[idx + 1 :],
            self.globals,
            keys[:idx] + _anchor_keys(new) + keys[idx + 1 :],
        )

    def atoms_of(self, anchor: str) -> list[tuple[int, Anchored]]:
        """The atoms anchored at `anchor`, with their indices, in order."""
        keys, atoms = self.keys, self.atoms
        hits = []
        i = -1
        try:
            while True:
                i = keys.index(anchor, i + 1)
                hits.append((i, atoms[i]))
        except ValueError:
            return hits

    def duplicable_atoms(self) -> list[Atom]:
        out = []
        for a in self.atoms:
            if isinstance(a, Anchored) and duplicability(a.ty, self.env) == DUPLICABLE:
                out.append(a)
        return out

    def has_affine(self, goal: Atom) -> bool:
        """Does the env hold an affine atom anchored like `goal`? Used to
        classify a lambda-body failure as an illegal capture: duplicable
        atoms are copied into closure environments, so only an affine
        holding explains the miss."""
        for a in self.atoms:
            if isinstance(a, Anchored) and isinstance(goal, Anchored):
                if a.anchor == goal.anchor and duplicability(a.ty, self.env) == AFFINE:
                    return True
            elif isinstance(a, PermVar) and isinstance(goal, PermVar):
                if a.name == goal.name:
                    return True
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
