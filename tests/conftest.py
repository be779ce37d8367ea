from __future__ import annotations

import random
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from minimz.driver import CORPUS_DIR

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


CORPUS = CORPUS_DIR


def corpus_text(rel: str) -> str:
    return (CORPUS / rel).read_text(encoding="utf-8")


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


def value_to_pylist(interp, value) -> list[int]:
    """Convert a runtime `list int` into a Python list."""
    from minimz.interp import VAddr, VInt

    out = []
    while True:
        assert isinstance(value, VAddr)
        cell = interp.heap[value.addr]
        if cell.tag == "Nil":
            return out
        assert cell.tag == "Cons"
        head = cell.fields["head"]
        assert isinstance(head, VInt)
        out.append(head.value)
        value = cell.fields["tail"]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20130923)
