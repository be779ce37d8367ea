"""Acceptance criteria, one test per criterion.

Each test prints a single pass line (run with `pytest -s` to see them all);
a pytest failure on any test is the corresponding fail line.
"""

import random

import pytest

from conftest import (
    CORPUS,
    corpus_text,
    inorder,
    random_tree,
    tree_from_fringe,
    tree_literal,
    value_to_pylist,
)

from minimz.ast import DValDef, TApp, TBar, TForall, TTuple, TupleComp, TVar, replace
from minimz.check import Checker
from minimz.cli import parse_manifest, run_case
from minimz.driver import check_text, load_text, prelude, run_text
from minimz.interp import Interp, RuntimeTrap
from minimz.kinds import DataInfo, domain_comps
from minimz.parser import parse_file
from minimz.perms import Anchored, PermEnv, split_branch
from minimz.printer import pretty_print
from minimz.subsume import Subsumer


def report(n: int, message: str) -> None:
    print(f"criterion {n}: PASS - {message}")


# ---------------------------------------------------------------------------
# 1. Corpus acceptance
# ---------------------------------------------------------------------------


def test_criterion_1_corpus():
    cases = parse_manifest(CORPUS / "manifest.tsv")
    accept = [c for c in cases if c[0] == "ACCEPT"]
    reject = [c for c in cases if c[0] == "REJECT"]
    assert len(accept) >= 12, "positive corpus must have at least 12 files"
    assert len(reject) >= 7, "negative corpus must have at least 7 files"
    assert all("@" in args for _, _, args in reject), "expected spans must be pinned"
    failures = []
    for expectation, rel, args_text in cases:
        passed, detail = run_case(CORPUS, expectation, rel, args_text)
        if not passed:
            failures.append((rel, detail))
    assert not failures, failures
    report(1, f"{len(accept)} accepted, {len(reject)} rejected with exact codes/spans")


# ---------------------------------------------------------------------------
# 2. Splitting oracle on random record types
# ---------------------------------------------------------------------------


def _random_record_decls(rng: random.Random, count: int) -> tuple[str, list[str]]:
    lines = []
    names = []

    def field_type(depth: int) -> str:
        choices = ["int", "bool"]
        if depth > 0:
            inner = field_type(depth - 1)
            choices += [f"list ({inner})", f"ref ({inner})"]
            choices += [f"either ({field_type(depth - 1)}) ({inner})"]
            if names:
                choices.append(rng.choice(names))
        return rng.choice(choices)

    for i in range(count):
        name = f"g{i}"
        tag = f"G{i}"
        mutable = "mutable " if rng.random() < 0.5 else ""
        n_fields = rng.randint(0, 5)
        fields = "; ".join(
            f"f{j}: {field_type(rng.randint(0, 3))}" for j in range(n_fields)
        )
        body = f"{tag} {{ {fields} }}" if fields else tag
        lines.append(f"data {mutable}{name} = {body}")
        names.append(name)
    return "\n".join(lines), names


def test_criterion_2_splitting_oracle():
    rng = random.Random(1342)
    source, names = _random_record_decls(rng, 200)
    _, env = load_text(source, "records.mz")
    # one environment seeded with colliding-looking names, undone after
    # each record type
    decoys = tuple(Anchored(f"f{j}", TApp("int", ())) for j in range(5))
    existing = {a.anchor for a in decoys} | {"x"}
    penv = PermEnv(env, decoys)
    mark = penv.mark()
    checked = 0
    for name in names:
        info = env.types[name]
        assert isinstance(info, DataInfo)
        (branch,) = info.branches.values()
        # split `x @ name` as the checker refines a one-branch data type,
        # with the fresh names of one definition's check
        sub = Subsumer(env)
        names = (sub.uni.fresh_name(f) for f, _ in branch.fields)
        atoms = split_branch(env, "x", TApp(name, ()), branch.tag, names)
        introduced = {a.anchor for a in atoms[1:] if isinstance(a, Anchored)}
        assert introduced.isdisjoint(existing), "freshness violated"
        penv.add(*atoms)
        sub.subsume(penv, [Anchored("x", TApp(name, ()))])
        # every decoy is untouched (frame)
        for decoy in decoys:
            assert decoy in penv.atoms
        penv.undo_to(mark)
        assert penv.atoms == decoys
        checked += 1
    assert checked == 200
    report(2, "200 random record types split, refold, and stay fresh")


# ---------------------------------------------------------------------------
# 3. Frame property over the positive corpus
# ---------------------------------------------------------------------------


# The frame: a parameter that no body can name, of a type variable that no
# signature binds. Its permission is affine, and since the parameter is not
# consumed, the exit goals require it at every tail of the body.
FRAME = TupleComp(None, TVar("frame$ty"), False)


def _with_frame(sig):
    if isinstance(sig, TForall):
        return replace(sig, body=_with_frame(sig.body))
    return replace(sig, domain=_framed_domain(sig.domain))


def _framed_domain(domain):
    """`domain` with the frame after its components, inside all its bars."""
    if isinstance(domain, TBar):
        return replace(domain, carrier=_framed_domain(domain.carrier))
    return TTuple(domain_comps(domain) + (FRAME,))


class FramedChecker(Checker):
    """Checks every top-level body with the frame as one more parameter,
    and lists the bodies it framed."""

    def __init__(self, env):
        super().__init__(env)
        self.framed = []

    def check_function_def(self, decl, sig, available, undefined):
        self.framed.append(decl.name)
        framed = replace(decl, params=decl.params + (None,))
        super().check_function_def(framed, _with_frame(sig), available, undefined)


def test_criterion_3_frame_property():
    cases = parse_manifest(CORPUS / "manifest.tsv")
    bodies = 0
    for expectation, rel, _ in cases:
        if expectation != "ACCEPT":
            continue
        text = (CORPUS / rel).read_text(encoding="utf-8")
        file, env = load_text(text, rel)
        checker = FramedChecker(env)
        diags = checker.check_file(file)
        assert diags == [], f"{rel} fails under an injected frame permission: {diags}"
        assert checker.framed == [d.name for d in file.decls if isinstance(d, DValDef)]
        bodies += len(checker.framed)
    assert bodies > 0
    report(3, f"{bodies} corpus function bodies keep an injected affine permission")


# ---------------------------------------------------------------------------
# 4. Traversal equivalence across the four iteration styles
# ---------------------------------------------------------------------------

ITER_BASE = """
data mutable tree a =
  Leaf
| Node { left: tree a; elem: a; right: tree a }

val iter: [a, s: perm] (f: (a | s) -> bool, t: tree a | s) -> bool

val iter (f, t) =
  match t with
  | Leaf -> true
  | Node { left = l; elem = x; right = r } ->
      if iter (f, l)
      then (if f x then iter (f, r) else false)
      else false

val rev_into: (consumes acc: list int, consumes l: list int) -> list int

val rev_into (acc, l) =
  match l with
  | Nil -> acc
  | Cons { head = h; tail = rest } -> rev_into (Cons { head = h; tail = acc }, rest)
"""

ITER_ENTRY = """
val main_{i}: () -> list int
val main_{i} () =
  let t = {literal} in
  let acc = Ref {{ contents = Nil }} in
  let cb =
    fun (x: int | acc @ ref (list int)) : bool =
      (acc.contents <- Cons {{ head = x; tail = acc.contents }}; true)
  in
  let fin = iter (cb, t) in
  rev_into (Nil, acc.contents)
"""

ADT_DRAIN = """
val drain: [post: perm] (consumes it: tree_iterator int post) -> (list int | post)

val drain (it) =
  match next it with
  | Right { contents = u } -> Nil
  | Left { contents = fc } ->
      let (x, release) = fc in
      release ();
      let restl = drain it in
      Cons { head = x; tail = restl }
"""

ADT_ENTRY = """
val main_{i}: () -> list int
val main_{i} () =
  let t = {literal} in
  drain (new [int] t)
"""

OO_DRAIN = """
val drain_oo: [post: perm] (consumes it: iterator int post) -> (list int | post)

val drain_oo (it) =
  match it with
  | Iterator { next_op = n; stop_op = st } ->
      match n () with
      | Right { contents = u } -> Nil
      | Left { contents = fc } ->
          let (x, release) = fc in
          release ();
          let restl = drain_oo it in
          Cons { head = x; tail = restl }
"""

OO_ENTRY = """
val main_{i}: () -> list int
val main_{i} () =
  let t = {literal} in
  drain_oo (new_tree_iterator [int] t)
"""

CPS_ENTRY = """
val main_{i}: () -> list int
val main_{i} () =
  let t = {literal} in
  drain_cps (cps_start [int] t)
"""


def _check_and_run(source: str, path: str, entries: list[str]):
    """Parse and resolve once; check; evaluate every entry on one shared
    interpreter (the entries are self-contained, so sharing it is
    harmless)."""
    from minimz.check import Checker

    file, env = load_text(source, path)
    diags = Checker(env).check_file(file)
    assert diags == [], f"{path} does not check: {diags[:1]}"
    prelude_file, _ = prelude()
    interp = Interp(env, [prelude_file, file], checked=True, max_steps=100_000_000)
    for entry in entries:
        yield interp.run(entry), interp


def _styles():
    return [
        ("iter", ITER_BASE, ITER_ENTRY),
        ("adt", corpus_text("pos/tree_iterator.mz") + ADT_DRAIN, ADT_ENTRY),
        ("oo", corpus_text("pos/oo_iterator.mz") + OO_DRAIN, OO_ENTRY),
        ("cps", corpus_text("pos/cps.mz"), CPS_ENTRY),
    ]


def test_criterion_4_traversal_equivalence():
    rng = random.Random(64)
    # sizes up to 64 nodes, biased small so the whole suite stays desk scale
    trees = [random_tree(rng, 64 if i % 5 == 0 else 20) for i in range(100)]
    oracles = [inorder(t) for t in trees]
    assert any(len(o) > 40 for o in oracles)
    for style, base, entry_tpl in _styles():
        source = base + "".join(
            entry_tpl.format(i=i, literal=tree_literal(t)) for i, t in enumerate(trees)
        )
        entries = [f"main_{i}" for i in range(len(trees))]
        for (value, interp), oracle, i in zip(
            _check_and_run(source, f"equiv_{style}.mz", entries), oracles, range(len(trees))
        ):
            assert value_to_pylist(value) == oracle, (style, i)
    report(4, "four iteration styles agree with the in-order oracle on 100 trees")


# ---------------------------------------------------------------------------
# 5. Same fringe
# ---------------------------------------------------------------------------

EQUAL_ENTRY = """
val main_{i}: () -> bool
val main_{i} () =
  let t1 = {lit1} in
  let t2 = {lit2} in
  equal (new_tree_iterator [int] t1, new_tree_iterator [int] t2)
"""


def test_criterion_5_same_fringe():
    rng = random.Random(5)
    pairs = []
    for _ in range(25):
        pairs.append((random_tree(rng, 24), random_tree(rng, 24)))
    for _ in range(25):
        fringe = [rng.randint(-9, 9) for _ in range(rng.randint(0, 16))]
        pairs.append((tree_from_fringe(rng, fringe), tree_from_fringe(rng, fringe)))
    assert any(
        inorder(a) == inorder(b) and a != b for a, b in pairs
    ), "need at least one equal-fringe pair of different shape"
    base = corpus_text("pos/oo_iterator.mz") + _equal_defs()
    source = base + "".join(
        EQUAL_ENTRY.format(i=i, lit1=tree_literal(a), lit2=tree_literal(b))
        for i, (a, b) in enumerate(pairs)
    )
    entries = [f"main_{i}" for i in range(len(pairs))]
    for (value, _), (a, b), i in zip(
        _check_and_run(source, "fringe.mz", entries), pairs, range(len(pairs))
    ):
        assert type(value) is bool
        assert value == (inorder(a) == inorder(b)), i
    report(5, "equal over object iterators matches the fringe oracle on 50 pairs")


def _equal_defs() -> str:
    text = corpus_text("pos/equal.mz")
    # strip the duplicate declarations shared with oo_iterator.mz
    marker = "val equal:"
    return "\n" + text[text.index(marker) :]


# ---------------------------------------------------------------------------
# 6. filter semantics
# ---------------------------------------------------------------------------

FILTER_ENTRY = """
val main_{i}: () -> list int
val main_{i} () =
  let t = {literal} in
  drain_oo (filter (new_tree_iterator [int] t, evens))
"""


def test_criterion_6_filter():
    # Static half: after exhaustion the recovered permission admits size.
    text = corpus_text("pos/filter_then_size.mz")
    _, _, diags = check_text(text, "filter_then_size.mz")
    assert diags == []

    rng = random.Random(6)
    trees = [random_tree(rng, 32) for _ in range(50)]
    base = corpus_text("pos/filter_then_size.mz")
    source = base + "".join(
        FILTER_ENTRY.format(i=i, literal=tree_literal(t)) for i, t in enumerate(trees)
    )
    entries = [f"main_{i}" for i in range(len(trees))]
    for (value, interp), t, i in zip(
        _check_and_run(source, "filter_equiv.mz", entries), trees, range(len(trees))
    ):
        expected = [x for x in inorder(t) if x % 2 == 0]
        assert value_to_pylist(value) == expected, i
    report(6, "filtered sequences match the oracle on 50 trees; size re-runs statically")


# ---------------------------------------------------------------------------
# 7. One-shot enforcement
# ---------------------------------------------------------------------------


def test_criterion_7_one_shot():
    text = corpus_text("neg/neg_double_wand.mz")
    _, _, diags = check_text(text, "neg_double_wand.mz")
    assert [d.code for d in diags] == ["E-SUBSUME"]

    with pytest.raises(RuntimeTrap) as exc:
        run_text(corpus_text("dyn/double_wand.mz"), "main", "t", checked=False)
    assert exc.value.kind == "ONE_SHOT_REUSE"

    with pytest.raises(RuntimeTrap) as exc:
        run_text(corpus_text("dyn/double_barrel.mz"), "main", "t", checked=False)
    assert exc.value.kind == "ONE_SHOT_REUSE"
    report(7, "double wand rejected statically; both dynamic reuses trap")


# ---------------------------------------------------------------------------
# 8. stop cost
# ---------------------------------------------------------------------------


def test_criterion_8_stop_cost():
    text = corpus_text("run/run_stop_cost.mz")
    counts = {}
    for entry in ["stop_cost_1", "stop_cost_100", "stop_cost_1000"]:
        _, interp = run_text(text, entry, "run_stop_cost.mz")
        (steps,) = interp.stats.call_steps["stop"]
        counts[entry] = steps
    values = set(counts.values())
    assert len(values) == 1, f"stop cost varies: {counts}"
    report(8, f"stop takes exactly {values.pop()} steps on 1/100/1000-node trees")


# ---------------------------------------------------------------------------
# 9. Round trip
# ---------------------------------------------------------------------------


def test_criterion_9_roundtrip():
    files = sorted(CORPUS.glob("**/*.mz"))
    assert files
    for path in files:
        text = path.read_text(encoding="utf-8")
        first = parse_file(text, path.name)
        printed = pretty_print(first)
        second = parse_file(printed, path.name)
        assert second == first, f"round-trip failed for {path.name}"
    report(9, f"parse . pretty_print is the identity on {len(files)} corpus files")
