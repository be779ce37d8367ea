"""Golden test of how subsumption searches fail and back off.

`fold_pins.txt` holds, for each program of `PROGRAMS`, every diagnostic the
checker gives it (code, span, message and permission snapshot), or `clean`.
The programs fold structural permissions into nominal ones where a fold
fails deep down, backs off to another atom, falls back to a split, or
needs a bar; they choose between several atoms of one tag, take apart
deep tuples, nested bars, existentials and aliases, and open held atoms.
A change to the search that keeps its behaviour must leave the file
unchanged.

To rewrite the file after an intended change of behaviour:

    PYTHONPATH=src python3 tests/test_fold_pins.py > tests/fold_pins.txt
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path

from minimz.driver import check_text

GOLDEN = Path(__file__).with_name("fold_pins.txt")

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

LIST = """
val len: [a] (l: list a) -> int

val len (l) =
  match l with
  | Nil -> 0
  | Cons { head = h; tail = t } -> add (len t, 1)
"""


def _let_list(n: int, bad: int | None = None, ty: str = "list int") -> str:
    """`main` binding a list of n cells by lets, the cell `bad` holding a
    bool, and returning it at `ty`."""
    lines = [f"val main: () -> {ty}", "", "val main () =", "  let l0 = Nil in"]
    for i in range(1, n + 1):
        head = "true" if i == bad else str(i)
        lines.append(f"  let l{i} = Cons {{ head = {head}; tail = l{i - 1} }} in")
    lines.append(f"  l{n}")
    return "\n".join(lines) + "\n"


def _nested_tuple(n: int, inner: str) -> str:
    """`main` returning `(1, (1, ... inner))`, n tuples deep, at
    `(int, (int, ... int))`."""
    ty, value = "int", inner
    for _ in range(n):
        ty, value = f"(int, {ty})", f"(1, {value})"
    return f"val main: () -> {ty}\nval main () = {value}\n"


PROGRAMS: dict[str, str] = {
    # a wrong field type deep in a literal
    "tree literal, bool elem three deep": TREE + """
val main: () -> tree int
val main () =
  Node { left = Node { left = Leaf; elem = 1; right = Node { left = Leaf; elem = true; right = Leaf } };
         elem = 2; right = Leaf }
""",
    "tree literal, bool elem in the last leaf's parent": TREE + """
val main: () -> tree int
val main () =
  Node { left = Node { left = Leaf; elem = 1; right = Leaf }; elem = 2;
         right = Node { left = Leaf; elem = 3; right = Node { left = Leaf; elem = false; right = Leaf } } }
""",
    "tree literal, a leaf where a tree of trees is wanted": TREE + """
val main: () -> tree (tree int)
val main () = Node { left = Leaf; elem = Node { left = Leaf; elem = 1; right = Leaf }; right = Node { left = Leaf; elem = 2; right = Leaf } }
""",
    "polymorphic call on a literal, elems of two types": TREE + """
val main: () -> int
val main () =
  size (Node { left = Node { left = Leaf; elem = 1; right = Leaf }; elem = true; right = Leaf })
""",
    "list literal, bool head three deep": """
val main: () -> list int
val main () = Cons { head = 1; tail = Cons { head = 2; tail = Cons { head = false; tail = Nil } } }
""",
    "let-built list, bool head at the bottom": _let_list(12, bad=1),
    "let-built list, bool head in the middle": _let_list(12, bad=6),
    "let-built list at the wrong element type": _let_list(5, ty="list bool"),
    "let-built list of lists": _let_list(3, ty="list (list int)"),
    "a shared subtree folded twice": TREE + """
val main: () -> (tree int, tree int)
val main () =
  let s = Node { left = Leaf; elem = 1; right = Leaf } in
  let a = Node { left = s; elem = 2; right = Leaf } in
  let b = Node { left = Leaf; elem = 3; right = s } in
  (a, b)
""",
    # mutable `ref` folds
    "a ref folded, then its content needed again": """
val main: () -> (ref (ref int), ref int)
val main () =
  let r = Ref { contents = 1 } in
  let s = Ref { contents = r } in
  (s, r)
""",
    "two refs around one ref": """
val main: () -> (ref (ref int), ref (ref int))
val main () =
  let r = Ref { contents = 1 } in
  let a = Ref { contents = r } in
  let b = Ref { contents = r } in
  (a, b)
""",
    "a ref of a list, folded at the wrong type": """
val main: () -> ref (list bool)
val main () =
  let l = Cons { head = 1; tail = Nil } in
  Ref { contents = l }
""",
    "a ref written after it is built": """
val main: (consumes x: ref int) -> ref (ref int)
val main (x) =
  let r = Ref { contents = Ref { contents = 0 } } in
  r.contents <- x;
  r
""",
    # branches with a bar
    "a branch bar met once, wanted twice": """
data cell (p: perm) = Cell { v: int | p }

val main: (consumes x: ref int) -> (cell (x @ ref int), cell (x @ ref int))
val main (x) =
  let y = Cell { v = 1 } in
  let z = Cell { v = 2 } in
  (y, z)
""",
    "a branch bar left to a metavariable": """
data cell (p: perm) = Cell { v: int | p }

val keep: [p: perm] (consumes c: cell p) -> int
val keep (c) = 0

val main: (consumes x: ref int) -> ref int
val main (x) = let n = keep (Cell { v = 1 }) in x
""",
    "a branch bar after a field that fails": """
data cell (p: perm) = Cell { v: int | p }

val main: (consumes x: ref int) -> cell (x @ ref int)
val main (x) = Cell { v = true }
""",
    # folds that fall back to a split
    "a borrowed list's element, given back by a split": LIST + """
val main: (consumes r: ref int) -> ref int
val main (r) =
  let c = Cons { head = r; tail = Nil } in
  let n = len c in
  r
""",
    "a split that gives the element at the wrong type": LIST + """
val main: (consumes r: ref int) -> ref bool
val main (r) =
  let c = Cons { head = r; tail = Nil } in
  let n = len c in
  r
""",
    "a borrowed list's tail, wanted whole": LIST + """
val main: (consumes r: ref int, consumes s: ref int) -> list (ref int)
val main (r, s) =
  let t = Cons { head = s; tail = Nil } in
  let c = Cons { head = r; tail = t } in
  let n = len c in
  t
""",
    # two structural atoms of one anchor
    "two structural atoms, the first with a typed field": """
val main: (n: int, x: Cons { head = n; tail: list int } | x @ Nil) -> list int
val main (n, x) = x
""",
    "two structural atoms, neither folds": """
val main: (n: int, m: int, x: Cons { head = n; tail = m } | x @ Cons { head = m; tail = n }) -> list int
val main (n, m, x) = x
""",
    "two structural atoms, the second folds": """
val main: (n: int, m: list int, x: Cons { head = m; tail = m } | x @ Cons { head = n; tail = m }) -> list int
val main (n, m, x) = x
""",
    "a fold inside a fold backs off to the tail's second atom": """
val main: (n: int, b: bool, t: Cons { head = b; tail: list int }, x: Cons { head = n; tail = t } | t @ Nil) -> list int
val main (n, b, t, x) = x
""",
    "a mutable fold inside a fold backs off and gives its leaf back": """
data mutable mt = MLeaf | MNode { l: mt; v: int }

val main: (n: int, b: bool, consumes a: MLeaf, consumes t: MNode { l = a; v = b },
           consumes x: MNode { l = t; v = n } | consumes t @ MNode { l = a; v = n }) -> mt
val main (n, b, a, t, x) = x
""",
    "a mutable fold inside a fold fails on both atoms": """
data mutable mt = MLeaf | MNode { l: mt; v: int }

val main: (n: int, b: bool, consumes a: MLeaf, consumes t: MNode { l = a; v = b },
           consumes x: MNode { l = t; v = n } | consumes t @ MNode { l = x; v = n }) -> mt
val main (n, b, a, t, x) = x
""",
    "two immutable structural atoms that name each other": """
data u = U

val main: (n: int, y: U, z: U | y @ Cons { head = n; tail = z } * z @ Cons { head = n; tail = y }) -> list int
val main (n, y, z) = y
""",
    # several atoms of one tag
    "three atoms of one tag, the first meets the goal": """
val main: (n: int, m: int, consumes x: Cons { head = n; tail = m }
           | consumes (x @ Cons { head = m; tail = n } * x @ Cons { head = m; tail = m }))
  -> (| x @ Cons { head = n; tail = m })
val main (n, m, x) = ()
""",
    "three atoms of one tag, the second meets the goal": """
val main: (n: int, m: int, consumes x: Cons { head = n; tail = m }
           | consumes (x @ Cons { head = m; tail = n } * x @ Cons { head = m; tail = m }))
  -> (| x @ Cons { head = m; tail = n })
val main (n, m, x) = ()
""",
    "three atoms of one tag, none meets the goal": """
val main: (n: int, m: int, consumes x: Cons { head = n; tail = m }
           | consumes (x @ Cons { head = m; tail = n } * x @ Cons { head = m; tail = m }))
  -> (| x @ Cons { head = n; tail = n })
val main (n, m, x) = ()
""",
    "two ref atoms, the second's content meets the goal": """
val main: (n: int, b: bool, consumes x: Ref { contents = b } | consumes x @ Ref { contents = n })
  -> (| x @ Ref { contents: int })
val main (n, b, x) = ()
""",
    "two structural tuples of one anchor, the second meets the goal": """
val main: (a: int, b: bool, consumes p: (=a, =b) | consumes p @ (=b, =a)) -> (| p @ (bool, int))
val main (a, b, p) = ()
""",
    # deep tuples, nested bars, existentials and aliases
    "79-deep tuple, the innermost component a bool": _nested_tuple(79, "true"),
    "nested bars, all met": """
val main: (consumes x: ref int, consumes y: ref int) -> ((int | x @ ref int) | y @ ref int)
val main (x, y) = 1
""",
    "nested bars, the inner one met twice": """
val main: (consumes x: ref int) -> ((int | x @ ref int) | x @ ref int)
val main (x) = 1
""",
    "a focused element and its wand": """
val focus_ref: [a] (consumes r: ref a) -> focused a (r @ ref a)
val focus_ref (r) =
  match r with
  | Ref { contents = x } ->
      (x, fun (| consumes (x @ a * r @ Ref { contents = x })) : (| r @ ref a) = ())
""",
    "a wand whose ammo is gone": """
val focus_ref: [a] (consumes r: ref a) -> (focused a (r @ ref a), ref a)
val focus_ref (r) =
  match r with
  | Ref { contents = x } ->
      ((x, fun (| consumes (x @ a * r @ Ref { contents = x })) : (| r @ ref a) = ()), r)
""",
    "a goal met only by alias expansion": """
alias pair = (int, int)
val main: () -> pair
val main () = (1, 2)
""",
    "an alias goal whose expansion fails": """
alias pair = (int, int)
val main: () -> pair
val main () = (1, true)
""",
    # goals met by opening a held atom
    "a goal met only by opening a held tuple": """
val main: (consumes p: (int, ref int)) -> (int, ref int)
val main (p) = p
""",
    "a held tuple opened, a component at the wrong type": """
val main: (consumes p: (int, ref int)) -> (int, ref bool)
val main (p) = p
""",
    "a held existential opened for a goal": """
val main: (consumes x: ({b} ref b)) -> (| x @ ({c} ref c))
val main (x) = ()
""",
    "a held existential opened, the goal at the wrong type": """
val main: (consumes x: ({b} ref b)) -> (| x @ ref int)
val main (x) = ()
""",
    # the search ends on a cell that points to itself
    "a self-referential mutable cell": """
data mutable node = Node { next: node } | End

val take: (consumes r: node) -> ()
val take (r) = ()

val main: (consumes r: Node { next: node }) -> ()
val main (r) =
  r.next <- r;
  take r
""",
    "two structural atoms that name the goal's anchor and each other, split in turn": """
data tr = Lf | Nd { left: tr; elem: int; right: tr }

val main: (e: int, w: tr, y: tr, h: tr
           | y @ Nd { left = h; elem = e; right = w } * h @ Nd { left = y; elem = e; right = w }) -> bool
val main (e, w, y, h) = not w
""",
}


def dump() -> str:
    lines = []
    for name, text in PROGRAMS.items():
        _, _, diags = check_text(text, "fold.mz")
        if not diags:
            lines.append(f"{name}: clean")
        for d in diags:
            lines.append(f"{name}: {d.code} {d.span.start}+{d.span.length} {d.message}")
            lines.append(f"  snapshot: {d.perm_snapshot}")
    return "\n".join(lines) + "\n"


def test_fold_outcomes_match_their_pins():
    want = GOLDEN.read_text(encoding="utf-8")
    got = dump()
    diff = "".join(
        difflib.unified_diff(
            want.splitlines(keepends=True),
            got.splitlines(keepends=True),
            GOLDEN.name,
            "now",
        )
    )
    assert got == want, diff


if __name__ == "__main__":
    sys.stdout.write(dump())
