from conftest import parse_type

from minimz.ast import TConcrete, TSingleton, TTuple
from minimz.parser import parse_file
from minimz.printer import pretty_print, print_type


def test_concrete_with_singleton_fields():
    ty = TConcrete(
        "Node",
        (
            ("left", TSingleton("l")),
            ("elem", TSingleton("x")),
            ("right", TSingleton("r")),
        ),
        None,
    )
    assert print_type(ty) == "Node { left = l; elem = x; right = r }"


def test_empty_tuple():
    assert print_type(TTuple(())) == "()"


def test_forall_arrow_roundtrip():
    source = "[a, s: perm] (f: (a | s) -> bool, t: tree a | s) -> bool"
    ty = parse_type(source)
    assert parse_type(print_type(ty)) == ty


def test_wand_roundtrip():
    source = "{ammo: perm} ((| consumes (pre * ammo)) -> (| post) | ammo)"
    ty = parse_type(source)
    assert parse_type(print_type(ty)) == ty


def test_file_roundtrip_small():
    source = """
data mutable tree a =
  Leaf
| Node { left: tree a; elem: a; right: tree a }

val size: [a] tree a -> int

val size (t) =
  match t with
  | Leaf -> 0
  | Node { left = l; elem = x; right = r } -> add (add (size l, size r), 1)

val inc: () -> int -> int

val inc () = fun (x: int) -> add (x, 1)
"""
    file = parse_file(source, "x.mz")
    printed = pretty_print(file)
    assert "fun (x: int) ->\n" in printed  # a lambda without a codomain
    assert parse_file(printed, "x.mz") == file


def test_file_roundtrip_of_a_tag_update():
    source = """
data mutable cell = Empty | Full { v: int }

val fill: (consumes c: cell) -> cell

val fill (c) =
  tag of c <- Full { v = 1 };
  c
"""
    file = parse_file(source, "x.mz")
    printed = pretty_print(file)
    assert "tag of c <- Full { v = 1 }" in printed
    assert parse_file(printed, "x.mz") == file


def test_printer_deterministic():
    source = "val f: [a, p: perm] (consumes x: (a | p)) -> (| p)"
    file = parse_file(source)
    assert pretty_print(file) == pretty_print(parse_file(pretty_print(file)))
