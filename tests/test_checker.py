import gc
import subprocess
import sys
import weakref
from collections import Counter

import pytest
from conftest import CORPUS, corpus_text

from minimz.ast import DValDef, DValSig
from minimz.check import Checker, CheckFailure
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


CORPUS_FILES = sorted(
    p.relative_to(CORPUS).as_posix() for p in CORPUS.rglob("*.mz") if p.name != "prelude.mz"
)


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
    assert [d.perm_snapshot for d in first] == ["r$2 @ () * post"]
    assert first == second


def _each_definition_alone(rel):
    """The diagnostics of every definition of `rel`, each checked by a new
    checker with what `check_file` gives it at that point: the signatures
    available so far and the file's undefined names."""
    file, env = load_text(corpus_text(rel), rel)
    own = {d.name for d in file.decls if isinstance(d, DValSig)}
    undefined = own - {d.name for d in file.decls if isinstance(d, DValDef)}
    available = {name: ty for name, ty in env.sigs.items() if name not in own}
    diags = []
    for decl in file.decls:
        if isinstance(decl, DValSig):
            available[decl.name] = env.sigs[decl.name]
        elif isinstance(decl, DValDef):
            try:
                Checker(env).check_function_def(
                    decl, env.sigs[decl.name], available, undefined
                )
            except CheckFailure as exc:
                diags.append(exc.diag)
    return diags


@pytest.mark.parametrize("rel", CORPUS_FILES)
def test_a_definition_checks_as_it_does_in_its_file(rel):
    # Code, span, message and snapshot: the names a diagnostic shows are
    # drawn by its own definition alone.
    assert _each_definition_alone(rel) == check_text(corpus_text(rel), rel)[2]


def test_a_definition_checked_alone_cannot_use_a_name_its_file_never_defines():
    src = """
val g: () -> int
val f: () -> int
val f () = g ()
"""
    file, env = load_text(src, "t")
    (diag,) = Checker(env).check_file(file)
    assert (diag.code, diag.message) == ("E-UNDEFINED", "'g' has a signature but no definition")
    (decl,) = [d for d in file.decls if isinstance(d, DValDef)]
    with pytest.raises(CheckFailure) as exc:
        Checker(env).check_function_def(decl, env.sigs["f"], dict(env.sigs), {"g"})
    assert exc.value.diag == diag


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
    """Each definition's check draws its `$k` names from its own unifier, so
    a check that runs next to another gives every diagnostic (code, span,
    message and permission snapshot) that it gives alone."""
    import threading

    files = CORPUS_FILES
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
    assert src[diag.span.start :][: diag.span.length] == "ghost"
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


@pytest.mark.parametrize(
    "id_sig", ["[a] (consumes a: a) -> a", "[c] (consumes y: c) -> c"]
)
def test_a_polymorphic_argument_is_matched_up_to_the_names_of_its_binders(id_sig):
    # `id`'s type variable and its component may share a name: the two are
    # bound apart, and neither name has to match the ones `use` wrote.
    src = f"""
val id: {id_sig}
val id (x) = x

val use: (f: [b] (consumes x: b) -> b) -> int
val use (f) = f [int] 7

val main: () -> int
val main () = use id
"""
    assert check_text(src, "t")[2] == []
    value, program = run_text(src, "main")
    assert program.render(value) == "7"


# A domain with nested bars: `g` consumes `p`, its inner bar, and borrows
# `q`, its outer one.
NESTED_DOMAIN = """
val g: [p: perm, q: perm] ((x: int | consumes p) | q) -> int
val g (x) = x
"""


@pytest.mark.parametrize(
    "caller, expected",
    [
        # `h` never holds `p`
        ("val h: [p: perm, q: perm] (y: int | q) -> int\nval h (y) = g [p, q] y", ["E-SUBSUME"]),
        ("val h: [p: perm, q: perm] (y: int | consumes p * q) -> int\nval h (y) = g [p, q] y", []),
        # `g` does not give `p` back
        ("val h: [p: perm, q: perm] (y: int | p * q) -> int\nval h (y) = g [p, q] y", ["E-CONSUMED"]),
    ],
    ids=["without p", "consuming p", "borrowing p"],
)
def test_a_call_takes_every_bar_of_the_callees_domain(caller, expected):
    assert codes(check_text(NESTED_DOMAIN + caller, "t")[2]) == expected


def test_a_body_holds_every_bar_of_its_domain():
    src = """
val g: [p: perm] ((x: int | consumes p) | empty) -> (| p)
val g (x) = ()
"""
    assert check_text(src, "t")[2] == []


def let_built_list(n: int) -> str:
    """`main` returning a list of n cells, each bound by a `let`."""
    lines = ["val main: () -> list int", "val main () =", "  let l0 = Nil in"]
    lines += [f"  let l{i} = Cons {{ head = {i}; tail = l{i - 1} }} in" for i in range(1, n + 1)]
    return "\n".join(lines + [f"  l{n}"]) + "\n"


def test_a_let_built_list_deeper_than_the_search_depth_checks():
    assert check_text(let_built_list(80), "t")[2] == []


def test_a_long_let_built_list_checks_under_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    assert check_text(let_built_list(10_000), "t")[2] == []


def test_a_deeply_nested_list_literal_checks():
    literal = "Nil"
    for i in range(100):
        literal = f"Cons {{ head = {i}; tail = {literal} }}"
    src = f"val main: () -> list int\nval main () = {literal}\n"
    assert check_text(src, "t")[2] == []


def test_a_goal_is_met_by_the_second_atom_of_its_tag():
    # `x`'s exit goals are its two atoms; the first atom of the tag meets
    # only the first goal, and the second goal needs the second atom
    src = """
val main: (n: int, m: int, x: Cons { head = m; tail = m } | x @ Cons { head = n; tail = m }) -> int
val main (n, m, x) = n
"""
    assert check_text(src, "t")[2] == []


def nested_tuple(n: int) -> str:
    """`f` returning `(1, (1, ... 1))`, n tuples deep, at `(int, (int, ... int))`."""
    ty, value = "int", "1"
    for _ in range(n):
        ty, value = f"(int, {ty})", f"(1, {value})"
    return f"val f: () -> {ty}\nval f () = {value}\n"


@pytest.mark.parametrize("n", [80, 120])
def test_a_deep_tuple_checks_under_the_default_recursion_limit(n):
    assert sys.getrecursionlimit() <= 1000
    assert check_text(nested_tuple(n), "t")[2] == []


# Two aliases of kind perm: an alias has its body's kind.
PERM_ALIASES = """
alias same (p: perm) = p
alias both (p: perm) (r: perm) = p * r
"""


@pytest.mark.parametrize(
    "src",
    [
        "val f: [q: perm] (x: int | same q) -> int\nval f (x) = x",
        "val f: [q: perm] (x: int | both q empty) -> int\nval f (x) = x",
        "val f: [q: perm] (| consumes q) -> (| both q empty)\nval f () = ()",
        "data box (p: perm) = Box { v: int | both p empty }\n"
        "val f: [q: perm] (consumes b: box q) -> (int | q)\n"
        "val f (b) = match b with | Box { v = v } -> v",
        "val g: [p: perm] (| consumes p) -> (| p)\nval g () = ()\n"
        "val h: [q: perm] (| consumes q) -> (| q)\nval h () = g [both q empty] ()",
    ],
    ids=["same in a bar", "domain bar", "codomain bar", "branch bar", "type argument"],
)
def test_a_permission_alias_stands_wherever_a_permission_does(src):
    assert check_text(PERM_ALIASES + src, "t")[2] == []


def test_a_type_variable_is_no_permission_argument():
    src = """
val g: [p: perm] (| consumes p) -> (| p)
val g () = ()

val h: [a, q: perm] (| consumes q) -> (| q)
val h () = g [a] ()
"""
    (diag,) = check_text(src, "t")[2]
    assert (diag.code, diag.message) == (
        "E-KIND",
        "type argument for 'p' has kind type, expected perm",
    )
    assert src[diag.span.start :][: diag.span.length] == "g [a] ()"


def test_an_uninferable_type_argument_is_named_by_its_binder():
    src = """
val mk: [a] () -> list a
val mk () = Nil

val use: () -> int
val use () = let l = mk () in 0
"""
    (diag,) = check_text(src, "t")[2]
    assert (diag.code, diag.message) == ("E-KIND", "cannot infer type argument(s) ['a']")


# Each checker diagnostic below is reached by no other test: its code, the
# text its span covers, and its message.
@pytest.mark.parametrize(
    "src, code, spanned, message",
    [
        (
            "val id: [a] (consumes x: a) -> a\nval id (x) = x\n"
            "val f: () -> int\nval f () = id [int, int] 1",
            "E-ARITY",
            "id [int, int] 1",
            "expected at most 1 type argument(s), got 2",
        ),
        (
            "val inc: int -> int\nval inc (x) = add (x, 1)\n"
            "val f: () -> int\nval f () = inc [int] 1",
            "E-ARITY",
            "inc [int] 1",
            "callee is not polymorphic",
        ),
        (
            "val f: () -> int\nval f () = match Nil with | Cons { head = h; tail = t } -> 0",
            "E-MATCH",
            "match Nil with | Cons { head = h; tail = t } -> 0",
            "no branch for known tag 'Nil'",
        ),
        (
            "val f: (x: int) -> int\nval f (x) = let (a, b) = x in a",
            "E-SUBSUME",
            "(a, b)",
            "no tuple permission to destructure",
        ),
        (
            "data mutable cell = Cell { v: int }\n"
            "val f: (consumes c: cell) -> ()\nval f (c) = tag of c <- Nil",
            "E-MATCH",
            "tag of c <- Nil",
            "tag update must stay within 'cell'",
        ),
        (
            "data mutable d = A { x: int } | B { x: int; y: int }\n"
            "val f: (consumes v: d) -> ()\n"
            "val f (v) = match v with\n"
            "  | A { x = x } -> tag of v <- B { x = x }\n"
            "  | B { x = x; y = y } -> ()",
            "E-MATCH",
            "tag of v <- B { x = x }",
            "tag update to 'B' is missing field 'y'",
        ),
        (
            "val give: [p: perm] (| consumes p) -> ()\nval give () = ()\n"
            "val f: [p: perm] (| consumes p) -> ()\n"
            "val f () = let g = fun () -> give [p] () in ()",
            "E-CONSUMED",
            "fun () -> give [p] ()",
            "lambda captures affine permission (p); "
            "affine permissions must enter through the domain",
        ),
        (
            "data tree = Leaf | Node { v: int }\n"
            "val f: (consumes l: list int) -> int\n"
            "val f (l) = match l with\n"
            "  | Nil -> 0\n"
            "  | Cons { head = h; tail = t } -> 1\n"
            "  | Leaf -> 2",
            "E-MATCH",
            "Leaf",
            "branch 'Leaf' is not part of 'list'",
        ),
        (
            "val f: (x: int) -> int\nval f (x) = match x with | Nil -> 0",
            "E-MATCH",
            "match x with | Nil -> 0",
            "no data permission for match scrutinee",
        ),
    ],
    ids=[
        "type arity",
        "not polymorphic",
        "known tag",
        "tuple pattern",
        "tag family",
        "tag field",
        "captured permission variable",
        "foreign branch",
        "scrutinee without data",
    ],
)
def test_a_checker_diagnostic(src, code, spanned, message):
    (diag,) = check_text(src, "t")[2]
    assert (diag.code, src[diag.span.start :][: diag.span.length], diag.message) == (
        code,
        spanned,
        message,
    )


# A structural permission with a typed field, `x @ Cell { v: int }`: reading
# the field or matching on the tag names the field, as a tuple's typed
# components are named (`Subsumer.open_fields`).
STRUCTURAL_FIELD = """
data mutable cell = Cell { v: int }

val mk: () -> Cell { v: int }
val mk () = Cell { v = 1 }
"""


@pytest.mark.parametrize(
    "src",
    [
        "val f: (x: Cell { v: int }) -> int\nval f (x) = x.v",
        "val g: () -> int\nval g () = match mk () with | Cell { v = n } -> n",
    ],
    ids=["field read", "match"],
)
def test_a_typed_field_of_a_structural_permission_is_read(src):
    assert check_text(STRUCTURAL_FIELD + src, "t")[2] == []


@pytest.mark.parametrize(
    "body, accepted",
    [("x.v", True), ("(x.v, x.v)", False),
     ("match x with | Cell { v = r } -> r", True), ("match x with | Cell { v = r } -> (r, r)", False)],
)
def test_a_named_typed_field_holds_its_one_permission(body, accepted):
    # `ref int` is affine: the field's one permission goes to one result.
    result = "ref int" if accepted else "(ref int, ref int)"
    src = (
        "data mutable cell = Cell { v: ref int }\n"
        f"val f: (consumes x: Cell {{ v: ref int }}) -> {result}\nval f (x) = {body}\n"
    )
    diags = check_text(src, "t")[2]
    assert [(d.code, d.message) for d in diags] == (
        [] if accepted else [("E-SUBSUME", "permission not available: v$0 @ ref int")]
    )


# A clean check whose search backs off from a tuple to the next: the first
# structural tuple of `p` fails its component's field goal.
BACKED_OFF = """
val f: (n: int, m: int, p: (Cons { head = m; tail = m }, int) | p @ (Cons { head = n; tail = m }, int)) -> int
val f (n, m, p) = n
"""


@pytest.mark.parametrize(
    "src, rejected",
    [(corpus_text("neg/neg_double_stop.mz"), True), (corpus_text("pos/iter.mz"), False),
     (BACKED_OFF, False)],
    ids=["rejected", "clean", "backed off"],
)
def test_a_finished_check_is_freed_without_the_cycle_collector(src, rejected):
    # A rejected definition's failure, and the failures its search backed off
    # from, must keep no frame of the search that holds them.
    file, env = load_text(src, "t")
    gc.collect()
    gc.disable()
    try:
        checker = Checker(env)
        diags = checker.check_file(file)
        assert bool(diags) == rejected
        ref = weakref.ref(checker)
        del checker, diags
        assert ref() is None
        assert gc.collect() == 0  # the check left no cyclic garbage either
    finally:
        gc.enable()


SAME = (
    "data mutable cell = Cell { v: int }\n"
    "val same: (c: cell) -> =c\nval same (c) = c\n"
)


@pytest.mark.parametrize(
    "src, expected",
    [
        ("val id: (x: int) -> =x\nval id (x) = x\nval g: () -> int\nval g () = id 1", []),
        (SAME + "val g: (consumes c: cell) -> cell\nval g (c) = same c", []),
        # `same c` is `c` itself, and `c` has one permission
        (
            SAME + "val g: (consumes c: cell) -> (cell, cell)\nval g (c) = (same c, c)",
            [("E-SUBSUME", "permission not available: c @ cell")],
        ),
    ],
    ids=["int", "cell", "cell twice"],
)
def test_a_call_with_a_singleton_codomain_gives_back_its_argument(src, expected):
    assert [(d.code, d.message) for d in check_text(src, "t")[2]] == expected


@pytest.mark.parametrize(
    "pattern, expected",
    [
        ("(a, b)", []),
        ("(a, b, c)", [("E-ARITY", "tuple pattern expects 2 component(s)", "(a, b, c)")]),
    ],
)
def test_a_tuple_pattern_in_a_field_of_a_match_arm(pattern, expected):
    src = (
        "val f: (l: list (int, int)) -> int\nval f (l) = match l with\n"
        f"  | Nil -> 0\n  | Cons {{ head = {pattern}; tail = t }} -> add (a, b)\n"
    )
    diags = check_text(src, "t")[2]
    assert [(d.code, d.message, src[d.span.start :][: d.span.length]) for d in diags] == expected


TAG_KEEPS = """
data mutable d = A { x: int; y: int } | B { x: int }

val f: (v: d) -> int
val f (v) = match v with
  | A { x = x; y = y } -> tag of v <- B { }; v.x
  | B { x = x } -> x

val g: (consumes v: d) -> d
val g (v) = match v with
  | A { x = x; y = y } -> tag of v <- B { }; v
  | B { x = x } -> v

val main: () -> int
val main () = f (A { x = 5; y = 6 })
"""


def test_a_tag_update_keeps_the_fields_it_does_not_give():
    assert check_text(TAG_KEEPS, "t")[2] == []
    assert run_text(TAG_KEEPS, "main", "t")[0] == 5
    # the field `B` has not is gone
    gone = TAG_KEEPS.replace("<- B { }; v.x", "<- B { }; v.y")
    assert [(d.code, d.message) for d in check_text(gone, "t")[2]] == [
        ("E-SUBSUME", "no field 'y' on B")
    ]


@pytest.mark.parametrize(
    "src",
    [
        "val f: (a: ref int) -> (=a)\nval f (b) = b",
        "val g: (a: int, c: list (=a)) -> list (=a)\nval g (b, d) = d",
        "val h: (a: ref int | a @ ref int) -> (=a)\nval h (b) = b",
    ],
    ids=["codomain", "later component", "bar"],
)
def test_a_domain_component_is_named_apart_from_its_parameter(src):
    # the component's name stands for the parameter's anchor in what it
    # scopes over, whatever name the definition gives the parameter
    assert check_text(src, "t")[2] == []


def test_a_call_with_named_components_renames_them_to_its_arguments():
    # `k`'s components are named, so the call takes the general path: `y`'s
    # type names `x`, which is `p` at this call
    src = (
        "val k: (x: int, y: list (=x)) -> int\nval k (a, b) = a\n"
        "val main: (p: int, q: int, l: list (=q)) -> int\nval main (p, q, l) = k (p, l)"
    )
    (diag,) = check_text(src, "t")[2]
    assert (diag.code, src[diag.span.start :][: diag.span.length], diag.message) == (
        "E-SUBSUME",
        "k (p, l)",
        "permission not available: l @ list (=p)",
    )
    assert diag.perm_snapshot == "p @ int * q @ int * l @ list (=q)"


# A walk over a tree that lends each element to a callback, whose domain
# has a bar; the callbacks below are unified with that domain.
ITER = """
data mutable tree a = Leaf | Node { left: tree a; elem: a; right: tree a }
val iter: [a, s: perm] (f: (a | s) -> bool, t: tree a | s) -> bool
val iter (f, t) = true
"""


def test_a_domain_without_a_bar_unifies_with_one_whose_bar_is_empty():
    # the callback's domain has no bar: it meets `(a | s)` with `s` empty
    src = ITER + (
        "val main: (t: tree int) -> bool\n"
        "val main (t) =\n  let cb = fun (x: int) : bool = true in\n  iter (cb, t)"
    )
    assert check_text(src, "t")[2] == []


def test_a_component_named_on_one_side_draws_a_name():
    # unifying `(x: int)` with `(a | s)` renames `x` to a fresh name, which
    # numbers every later one: here `r$8`, the result of `newref`
    src = ITER + (
        "val main: (t: tree int) -> int\n"
        "val main (t) =\n  let cb = fun (x: int) : bool = true in\n"
        "  let ok = iter (cb, t) in\n  let r = newref 0 in\n  add (r, 1)"
    )
    (diag,) = check_text(src, "t")[2]
    assert (diag.code, diag.message) == ("E-SUBSUME", "permission not available: r$8 @ int")
    assert diag.perm_snapshot == (
        "fn$1 @ ((x: int) -> bool) * fn$1 @ ((int | empty) -> bool) * t @ tree int"
        " * r$5 @ bool * n$7 @ int * r$8 @ ref int * n$9 @ int"
    )


def test_a_bar_over_a_tuple_does_not_unify_with_a_bar_over_an_int():
    # the carriers of two bars, one a tuple and one not, do not unify
    src = (
        "val f: [p: perm] (r: ref (int | p)) -> int\nval f (r) = 0\n"
        "val main: [q: perm] (r: ref ((int, int) | q)) -> int\nval main (r) = f r"
    )
    (diag,) = check_text(src, "t")[2]
    assert (diag.code, diag.message, diag.perm_snapshot) == (
        "E-SUBSUME",
        "permission not available: r @ ref (int | ?p)",
        "r @ ref (int, int | q)",
    )


def test_an_atom_of_a_bar_solves_a_metavariable():
    # `a` is solved only by matching `c @ ref a` in the callback's bar
    # against `c @ ref int`: the match keeps its binding
    src = (
        "val apply: [a] (c: ref int, f: (int | c @ ref a) -> bool) -> a\n"
        "val apply (c, f) = apply (c, f)\n"
        "val main: (c: ref int) -> int\nval main (c) =\n"
        "  let cb = fun (x: int | c @ ref int) : bool = true in\n  add (apply (c, cb), 1)"
    )
    assert check_text(src, "t")[2] == []
