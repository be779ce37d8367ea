"""The permission algebra.

Permissions are types of kind PERM, normalized into flat lists of atoms:
anchored atoms `x @ t` and permission variables. The environment is an
ordered multiset of atoms; extraction deterministically removes the first
match (affine atoms are removed, duplicable ones are not).

The environment, `PermEnv`, is edited in place and keeps an undo trail,
as `ast.Scope` does for names: `mark()` names the state it is in, and
`undo_to` that mark gives it back, so a search that backs off or a branch
that ends undoes only what it did. An edit costs O(1) per atom added or
taken out, and copies nothing. Atoms are named by handles, which an edit
or an undo leaves as they are, and ordered by order keys, so a
replacement keeps its place. An environment belongs to one check and is
not shared between threads. The search that extracts atoms from it is in
`subsume.py`.
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
    the environment whose declarations they depend on. Its loops are
    plain: `all` or `any` over a generator that stops early leaves it for a
    `GeneratorExit` to close."""
    if _assume is None:
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
    raises TypeError."""
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
    """A goal the search could not meet, with the text of the environment it
    failed in; None until the search has undone its edits to that
    environment (see `Subsumer._back_off`)."""

    def __init__(self, goal: Atom, snapshot: str | None):
        super().__init__(f"cannot extract {goal}")
        self.goal = goal
        self.snapshot = snapshot


Handle = int
"""Names one atom of one environment. An edit that keeps an atom keeps its
handle, and an undo gives an atom back with the handle it had. Handles are
never reused: an atom added after an undo gets a handle above every other."""

# A slot is one atom with its order key and its handle. Order keys are
# tuples of ints, unique within an environment, and they give the atom
# order: an added atom gets `(h,)` for its new handle `h`, larger than every
# key before it. The atoms spliced in for the atom of key `K` get `K` when
# there is one of them, and `K + (0,)`, `K + (1,)`, ... when there are
# more, which lie between `K` and the key after it.
_Slot = tuple[tuple[int, ...], Handle, Atom]


class PermEnv:
    """An ordered multiset of permission atoms, edited in place, with an undo
    trail: every edit logs the slots it took out and put in, and `undo_to`
    a `mark` takes back every edit made since, newest first, as
    `ast.Scope.undo_to` does for names. A search that backs off, a branch
    of a `match` or `if`, and a walk that finds no atom undo so.

    Atoms are named by handles (`Handle`), which do not shift when another
    atom goes. The order of the atoms is that of their slots' order keys
    (see `_Slot`), so a replacement sits where the atom it replaces sat;
    `items` and `atoms` sort the slots when asked. An index from the anchor
    of each anchored atom, and from each permission variable, to its slots
    in order makes `atoms_of` cost only its hits. Metavariables are not
    indexed.

    `globals` is a shared side table of duplicable permissions for top-level
    values; they are never extracted and never copied per operation.

    An environment belongs to one check and is not shared between threads.
    """

    __slots__ = ("_env", "_globals", "_slots", "_index", "_handles", "_trail")

    def __init__(
        self, env: Env, atoms: Iterable[Atom] = (), globals: dict[str, Type] | None = None
    ):
        self._env = env
        self._globals = globals
        self._slots: dict[Handle, _Slot] = {}
        self._index: dict[str | PermVar, list[_Slot]] = {}
        self._handles = itertools.count()
        self._trail: list[tuple[Sequence[_Slot], Sequence[_Slot]]] = []
        self._apply((), self._appended(atoms))

    def __str__(self) -> str:
        atoms = self.atoms
        return " * ".join(str(a) for a in atoms) if atoms else "empty"

    # -- the trail ------------------------------------------------------------

    def _apply(self, out: Sequence[_Slot], into: Sequence[_Slot]) -> None:
        """Take the slots `out` out and put the slots `into` in. Swapping
        the two undoes the edit."""
        slots, index = self._slots, self._index
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

    def _edit(self, out: Sequence[_Slot], into: Sequence[_Slot]) -> None:
        self._apply(out, into)
        self._trail.append((out, into))

    def mark(self) -> int:
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        trail = self._trail
        apply = self._apply
        while len(trail) > mark:
            out, into = trail.pop()
            apply(into, out)

    def _appended(self, atoms: Iterable[Atom]) -> list[_Slot]:
        """New slots for `atoms`, after every slot there is."""
        handles = self._handles
        into = []
        for atom in atoms:
            h = next(handles)
            into.append(((h,), h, atom))
        return into

    # -- edits ----------------------------------------------------------------

    def add(self, *new: Atom) -> None:
        """Append the atoms `new`, in order. One atom, the common case,
        skips the loop, as in `replace`: it serves `check_wide`, whose let
        chains add an atom a link."""
        if len(new) == 1:
            h = next(self._handles)
            self._edit((), (((h,), h, new[0]),))
        elif new:
            self._edit((), self._appended(new))

    def remove(self, handle: Handle) -> None:
        self._edit((self._slots[handle],), ())

    def replace(self, handle: Handle, *new: Atom) -> Handle | None:
        """Put the atoms `new` in place of the atom `handle`, in order.
        Returns the handle of the first of them."""
        slot = self._slots[handle]
        key = slot[0]
        handles = self._handles
        if len(new) == 1:
            into: Sequence[_Slot] = ((key, next(handles), new[0]),)
        else:
            into = [(key + (j,), next(handles), atom) for j, atom in enumerate(new)]
        self._edit((slot,), into)
        return into[0][1] if into else None

    def reset(self, atoms: Sequence[Atom]) -> None:
        """Make the atoms `atoms`, in order, all there is, as one edit. The
        slots of the longest prefix that already holds them are kept, so a
        `match` or `if` join logs only the atoms after what its branches
        left alone, and the trail of a chain of joins stays linear."""
        slots = sorted(self._slots.values())
        k = 0
        for slot, atom in zip(slots, atoms):
            if slot[2] is not atom and slot[2] != atom:
                break
            k += 1
        self._edit(slots[k:], self._appended(atoms[k:]))

    # -- reads ----------------------------------------------------------------

    def atom(self, handle: Handle) -> Atom:
        return self._slots[handle][2]

    def items(self) -> list[tuple[Handle, Atom]]:
        """The atoms with their handles, in order."""
        return [(h, atom) for _, h, atom in sorted(self._slots.values())]

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return tuple(atom for _, atom in self.items())

    def atoms_of(self, anchor: str) -> list[tuple[Handle, Anchored]]:
        """The atoms anchored at `anchor`, with their handles, in order: a
        new list, which later edits leave as it is."""
        return [(h, atom) for _, h, atom in self._index.get(anchor, ())]

    def holds_anchor(self, anchor: str) -> bool:
        return bool(self._index.get(anchor))

    def perm_var(self, name: str) -> Handle | None:
        """The first atom that is the permission variable `name`."""
        hits = self._index.get(PermVar(name))
        return hits[0][1] if hits else None

    def global_type(self, anchor: str) -> Type | None:
        if self._globals is None:
            return None
        return self._globals.get(anchor)

    def duplicable_atoms(self) -> list[Atom]:
        env = self._env
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
            env = self._env
            return AFFINE in [duplicability(a.ty, env) for _, a in self.atoms_of(goal.anchor)]
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
