import subprocess
import sys
from collections import Counter

import pytest
from conftest import CORPUS, corpus_text

from minimz.check import Checker
from minimz.driver import check_text, load_text, run_text
from minimz.interp import RuntimeTrap

TREE = """
data mutable tree a =
  Leaf
| Node { left: tree a; elem: a; right: tree a }

val size: [a] tree a -> int

val size (t) =
  match t with
  | Leaf -> 0
  | Node { left = l; elem = x; right = r } -> add (add (size l, size r), 1)
"""


def codes(diags):
    return [d.code for d in diags]


def test_borrowing_call_returns_the_permission():
    src = TREE + """
val twice: [a] (t: tree a) -> int
val twice (t) = add (size t, size t)
"""
    _, _, diags = check_text(src, "t")
    assert diags == []


def test_consuming_call_removes_the_permission():
    src = TREE + """
val gone: [a] (consumes t: tree a) -> int
val gone (t) = 0

val bad: [a] (consumes t: tree a) -> int
val bad (t) = add (gone t, gone t)
"""
    _, _, diags = check_text(src, "t")
    assert codes(diags) == ["E-SUBSUME"]


def test_call_without_permission_fails():
    src = TREE + """
val gone: [a] (consumes t: tree a) -> int
val gone (t) = 0

val bad: [a] (consumes t: tree a) -> int
val bad (t) =
  let u = gone t in
  size t
"""
    _, _, diags = check_text(src, "t")
    assert codes(diags) == ["E-SUBSUME"]


def test_identity_lambda_unannotated_codomain():
    src = """
val mk: () -> (int -> int)
val mk () = fun (x: int) -> x
"""
    _, _, diags = check_text(src, "t")
    assert diags == []


def test_borrowed_domain_must_survive_to_exit():
    src = TREE + """
val gone: [a] (consumes t: tree a) -> int
val gone (t) = 0

val leak: [a] (t: tree a) -> int
val leak (t) = gone t
"""
    _, _, diags = check_text(src, "t")
    assert codes(diags) == ["E-CONSUMED"]


def test_match_refines_and_restores():
    # both branches restore t @ tree a and return int: the join succeeds
    _, _, diags = check_text(TREE, "t")
    assert diags == []


def test_non_exhaustive_match():
    src = TREE + """
val bad: [a] (t: tree a) -> int
val bad (t) =
  match t with
  | Leaf -> 0
"""
    _, _, diags = check_text(src, "t")
    assert codes(diags) == ["E-MATCH"]


def test_declarations_only_file_checks():
    _, _, diags = check_text("data d = K { v: int }\nval f: int -> int", "t")
    assert diags == []


def test_branch_result_types_must_join():
    src = TREE + """
val bad: [a] (t: tree a) -> int
val bad (t) =
  match t with
  | Leaf -> 0
  | Node { left = l; elem = x; right = r } -> true
"""
    _, _, diags = check_text(src, "t")
    assert codes(diags) == ["E-SUBSUME"]


def test_consumed_marker_respected_in_exit_goals():
    src = TREE + """
val ok: [a] (consumes t: tree a) -> int
val ok (t) = 0
"""
    _, _, diags = check_text(src, "t")
    assert diags == []  # dropping a consumed (owned) permission is fine


def test_field_write_requires_mutable():
    src = """
val bad: (consumes l: list int) -> int
val bad (l) =
  match l with
  | Nil -> 0
  | Cons { head = h; tail = rest } -> (l.head <- 5; 0)
"""
    _, _, diags = check_text(src, "t")
    assert codes(diags) == ["E-SUBSUME"]


def test_tag_update():
    src = TREE + """
val chop: [a] (consumes t: tree a) -> (| t @ tree a)
val chop (t) =
  match t with
  | Leaf -> ()
  | Node { left = l; elem = x; right = r } ->
      tag of t <- Leaf
"""
    # Changing Node -> Leaf abandons the field permissions (affine drop) and
    # leaves t a well-formed leaf.
    _, _, diags = check_text(src, "t")
    assert diags == []


def test_arity_mismatch_is_e_arity():
    src = TREE + """
val f: (int, int) -> int
val f (x, y) = x

val bad: () -> int
val bad () = f 1
"""
    _, _, diags = check_text(src, "t")
    assert codes(diags) == ["E-ARITY"]


def test_determinism_across_processes():
    """Two separate checker runs produce identical diagnostic lines."""
    target = CORPUS / "neg" / "neg_double_stop.mz"
    cmd = [sys.executable, "-m", "minimz", "check", str(target)]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 1 and second.returncode == 1
    assert first.stderr == second.stderr


def test_checking_twice_in_one_process_gives_the_same_names():
    text = corpus_text("neg/neg_double_stop.mz")
    first = check_text(text, "neg_double_stop.mz")[2]
    second = check_text(text, "neg_double_stop.mz")[2]
    assert [d.perm_snapshot for d in first] == ["r$39 @ () * post"]
    assert first == second


def _check_corpus(order: list[str], out: dict) -> None:
    from minimz.kinds import ResolveError
    from minimz.lexer import LexError
    from minimz.parser import ParseError

    for rel in order:
        try:
            out[rel] = check_text(corpus_text(rel), rel)[2]
        except (LexError, ParseError, ResolveError) as exc:
            out[rel] = str(exc)


def test_checks_on_two_threads_give_the_sequential_diagnostics():
    """Each check draws its `$k` names from a supply of its own, so a check
    that runs next to another gives every diagnostic (code, span, message
    and permission snapshot) that it gives alone."""
    import threading

    files = sorted(
        p.relative_to(CORPUS).as_posix() for p in CORPUS.rglob("*.mz") if p.name != "prelude.mz"
    )
    sequential: dict = {}
    _check_corpus(files, sequential)
    assert any(isinstance(d, list) and d for d in sequential.values())
    for _ in range(2):
        forward: dict = {}
        backward: dict = {}
        threads = [
            threading.Thread(target=_check_corpus, args=(files, forward)),
            threading.Thread(target=_check_corpus, args=(files[::-1], backward)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert forward == sequential
        assert backward == sequential


NESTED_BARS = """
data box (p: perm) (q: perm) = Box { v: ((int | p) | q) }

val domain: [p: perm, q: perm] (x: ((int | p) | q)) -> bool
val domain (x) = x

val field: [p: perm, q: perm] (consumes b: box p q) -> bool
val field (b) = match b with | Box { v = v } -> v
"""


def test_nested_bars_enter_inner_first():
    # `((int | p) | q)` enters as the carrier's atom, then `p`, then `q`,
    # whether it is a domain component or a field split off at a match.
    _, _, diags = check_text(NESTED_BARS, "t")
    assert [d.perm_snapshot for d in diags] == [
        "x @ int * p * q",
        "b @ Box { v = v } * v @ int * p * q",
    ]


def test_exactly_one_diagnostic_for_double_stop():
    text = corpus_text("neg/neg_double_stop.mz")
    _, _, diags = check_text(text, "neg_double_stop.mz")
    assert codes(diags) == ["E-SUBSUME"]


def test_explicit_instantiation_kind_mismatch():
    src = TREE + """
val gone: [a] (consumes t: tree a) -> int
val gone (t) = 0

val bad: (consumes t: tree int) -> int
val bad (t) = gone [t @ tree int] t
"""
    _, _, diags = check_text(src, "t")
    assert codes(diags) == ["E-KIND"]


def test_diagnostic_spans_are_inside_the_source():
    from conftest import CORPUS

    for rel in sorted((CORPUS / "neg").glob("*.mz")):
        text = rel.read_text(encoding="utf-8")
        _, _, diags = check_text(text, rel.name)
        assert diags
        for d in diags:
            assert 0 <= d.span.start <= len(text)
            assert d.span.start + d.span.length <= len(text)


BOX = """
data {mut}box = Box {{ v: int }}

val two: (consumes b: box) -> (box, box)
val two (b) = (b, b)
"""


def test_duplicability_does_not_leak_between_checks():
    # Each check's environment is freed once its result is dropped, and the
    # next check's environment may reuse its id. A duplicability answer
    # cached for one program must not be seen by the next, which declares
    # `box` differently.
    for _ in range(300):
        assert codes(check_text(BOX.format(mut=""), "box")[2]) == []
        assert codes(check_text(BOX.format(mut="mutable "), "box")[2]) == ["E-SUBSUME"]


# A `let` or a known-tag `match` checked inside a larger expression scopes
# its binders over its own body only: a later sibling that names `x` means
# the outer `x`, an int, so `x.contents` has no structural permission.
# Each program traps `BAD_FIELD` when run unchecked.
INNER_BINDERS_STAY_INSIDE = {
    "let in a tuple": """
val main: () -> int
val main () =
  let x = 1 in
  let p = (let x = Ref { contents = 2 } in 0, x.contents) in
  0
""",
    "let in a call argument": """
val main: () -> int
val main () =
  let x = 1 in
  add (let x = Ref { contents = 2 } in 0, x.contents)
""",
    "known-tag match in a tuple": """
val main: () -> int
val main () =
  let x = 1 in
  let p = (match Ref { contents = Ref { contents = 2 } } with
           | Ref { contents = x } -> 0, x.contents) in
  0
""",
}


def test_inner_binders_do_not_reach_later_siblings():
    for name, src in INNER_BINDERS_STAY_INSIDE.items():
        assert codes(check_text(src, "t")[2]) == ["E-SUBSUME"], name


def test_inner_binders_still_scope_over_their_body():
    src = """
val main: () -> int
val main () =
  let x = 1 in
  let p = (let y = Ref { contents = 2 } in y.contents, x) in
  add (match Ref { contents = x } with | Ref { contents = z } -> z, x)
"""
    assert codes(check_text(src, "t")[2]) == []


# A local named like a top-level value, then a field pattern of that name:
# the field must not be anchored at the top-level name, or the call would
# check against the top-level signature. Each program traps `BAD_FIELD`
# when run unchecked.
SHADOWED_TOP_LEVEL = {
    "let": """
data pair = P { add: int; b: int }

val f: (p: pair) -> int
val f (p) =
  let add = 1 in
  match p with
  | P { add = add; b = b } -> add (b, b)

val main: () -> int
val main () = f (P { add = 1; b = 2 })
""",
    "parameter": """
data pair = P { add: int; b: int }

val g: (add: int, p: pair) -> int
val g (add, p) =
  match p with
  | P { add = add; b = b } -> add (b, b)

val main: () -> int
val main () = g (1, P { add = 1; b = 2 })
""",
}


@pytest.mark.parametrize("binder", sorted(SHADOWED_TOP_LEVEL))
def test_a_shadowed_top_level_name_anchors_no_local(binder):
    src = SHADOWED_TOP_LEVEL[binder]
    with pytest.raises(RuntimeTrap) as exc:
        run_text(src, "main", checked=False)
    assert exc.value.kind == "BAD_FIELD"
    diags = check_text(src, "t")[2]
    assert [(d.code, d.message) for d in diags] == [
        ("E-SUBSUME", "callee has no function permission")
    ]


# A name with a `val` signature in the checked file and no definition there
# has nothing to run: each program checked clean and then trapped `UNBOUND`.
GHOSTS = {
    "call": """
val ghost: (x: int) -> int
val main: () -> int
val main () = ghost 1
""",
    "lambda body": """
val ghost: (x: int) -> int
val main: () -> int
val main () =
  let f = fun (y: int) : int = ghost y in
  f 1
""",
}


@pytest.mark.parametrize("use", sorted(GHOSTS))
def test_a_signature_without_a_definition_cannot_be_used(use):
    src = GHOSTS[use]
    with pytest.raises(RuntimeTrap) as exc:
        run_text(src, "main", checked=False)
    assert exc.value.kind == "UNBOUND"
    diags = check_text(src, "t")[2]
    assert [(d.code, d.message) for d in diags] == [
        ("E-UNDEFINED", "'ghost' has a signature but no definition")
    ]
    (diag,) = diags
    assert src[diag.span.start : diag.span.end] == "ghost"
    assert src.rindex("ghost") == diag.span.start


def test_a_definition_later_in_the_file_and_an_unused_signature_are_legal():
    src = """
val unused: (x: int) -> int
val helper: (x: int) -> int
val main: () -> int
val main () = helper 1
val helper (x) = add (x, 1)
"""
    assert check_text(src, "t")[2] == []
    value, program = run_text(src, "main")
    assert program.render(value) == "2"


class TailRecorder(Checker):
    """Keeps the atoms held at each tail it checks."""

    def _finish_tail(self, penv, anchor, tail, span):
        self.tail_atoms = penv.atoms
        return super()._finish_tail(penv, anchor, tail, span)


def test_the_tail_of_a_let_chain_holds_no_repeated_atom():
    lines = ["val main: () -> int", "val main () =", "  let x0 = 7 in"]
    for i in range(1, 300):
        rhs = [f"add (x{i // 2}, x{i - 1})", f"sub (x{i - 1}, x{i // 3})", f"mul (x{i - 1}, 3)"]
        lines.append(f"  let x{i} = {rhs[i % 3]} in")
    lines.append("  x299")
    file, env = load_text("\n".join(lines) + "\n", "t")
    checker = TailRecorder(env)
    assert checker.check_file(file) == []
    repeated = {str(a): n for a, n in Counter(checker.tail_atoms).items() if n > 1}
    assert repeated == {}
    assert len(checker.tail_atoms) >= 300


def test_an_explicit_type_argument_keeps_the_callers_names():
    # `x` in the type argument is `g`'s parameter, not `f`'s component `x`,
    # which stands for the argument `y` inside `f`'s signature alone.
    src = """
val f: [p: perm] (x: int | p) -> int
val f (x) = x

val g: (x: ref int, y: int) -> int
val g (x, y) =
  let u = f [x @ ref int] y in
  x.contents

val main: () -> int
val main () = g (Ref { contents = 3 }, 4)
"""
    assert check_text(src, "t")[2] == []
    value, program = run_text(src, "main")
    assert program.render(value) == "3"
