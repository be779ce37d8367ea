from __future__ import annotations

import random
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from minimz.driver import CORPUS_DIR, checked_clean, parsed_clean, resolved_clean
from minimz.lexer import tokenize
from minimz.parser import Parser

# Every property test draws the same examples on every run and keeps no
# example database, so two runs of one tree test the same inputs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    # Hypothesis still caches the constants it reads from the sources, from
    # collection on; the cache lives for the run only, not in `.hypothesis/`.
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


@pytest.fixture(autouse=True)
def cold_front_end_and_check_memos():
    """Each test starts as a fresh process does, with no definition known
    to parse, resolve or check clean, so a test that loads and checks a
    program through the driver parses, resolves and checks each of its
    definitions, whatever ran before it."""
    parsed_clean.cache_clear()
    resolved_clean.cache_clear()
    checked_clean.cache_clear()


CORPUS = CORPUS_DIR


def corpus_text(rel: str) -> str:
    return (CORPUS / rel).read_text(encoding="utf-8")


def parse_type(text: str):
    """The type `text` spells, parsed alone; input after it is a
    `ParseError`."""
    parser = Parser(tokenize(text))
    ty = parser.parse_type()
    if parser.kind != "EOF":
        raise parser.error("trailing input after type")
    return ty


def parse_expr(text: str):
    """The expression `text` spells, parsed alone; input after it is a
    `ParseError`."""
    parser = Parser(tokenize(text))
    e = parser.parse_expr()
    if parser.kind != "EOF":
        raise parser.error("trailing input after expression")
    return e


def is_node(value) -> bool:
    """Is `value` a node or a node class, one that `ast.fields` reads?"""
    return hasattr(value, "_node_fields")


# ---------------------------------------------------------------------------
# Random trees shared by the behavioral acceptance tests. A tree is either
# None (leaf) or (left, value, right).
# ---------------------------------------------------------------------------


def random_tree(rng: random.Random, max_nodes: int):
    n = rng.randint(0, max_nodes)

    def build(k: int):
        if k == 0:
            return None
        left = rng.randint(0, k - 1)
        return (build(left), rng.randint(-50, 50), build(k - 1 - left))

    return build(n)


def tree_from_fringe(rng: random.Random, values: list[int]):
    if not values:
        return None
    split = rng.randint(0, len(values) - 1)
    return (
        tree_from_fringe(rng, values[:split]),
        values[split],
        tree_from_fringe(rng, values[split + 1 :]),
    )


def inorder(tree) -> list[int]:
    if tree is None:
        return []
    left, value, right = tree
    return inorder(left) + [value] + inorder(right)


def tree_literal(tree) -> str:
    if tree is None:
        return "Leaf"
    left, value, right = tree
    lit = str(value) if value >= 0 else f"sub (0, {-value})"
    return (
        "Node { left = "
        + tree_literal(left)
        + "; elem = "
        + lit
        + "; right = "
        + tree_literal(right)
        + " }"
    )


def value_to_pylist(value) -> list[int]:
    """Convert a runtime `list int` into a Python list."""
    from minimz.runtime import Cell

    out = []
    while True:
        assert type(value) is Cell
        if value.tag == "Nil":
            return out
        assert value.tag == "Cons"
        head = value.fields["head"]
        assert type(head) is int
        out.append(head)
        value = value.fields["tail"]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20130923)
