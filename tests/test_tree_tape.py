"""The flat tree tape the parse service ships (``tree_to_tape``).

A tree reply crosses the worker pipe as a pickled postorder list and is
decoded on the caller's side by ``tape_to_jsonable``; the decoded tree
must equal ``tree_to_jsonable`` of the original for every tree.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_matrix import format_sample
from repro.core.interpreter import Parser
from repro.core.lazytree import LazyNode
from repro.core.parsetree import (
    ArrayNode,
    Leaf,
    Node,
    tape_to_jsonable,
    tree_from_jsonable,
    tree_to_jsonable,
    tree_to_tape,
)
from repro.formats import registry

GOLDEN_DIR = Path(__file__).parent / "golden"


def round_trip(tree):
    return tape_to_jsonable(tree_to_tape(tree))


@pytest.mark.parametrize(
    "path", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda path: path.stem
)
def test_golden_trees_round_trip(path):
    with open(path, "r", encoding="utf-8") as handle:
        pinned = json.load(handle)["tree"]
    tree = tree_from_jsonable(pinned)
    assert round_trip(tree) == tree_to_jsonable(tree) == pinned


@pytest.mark.parametrize("fmt", sorted(registry))
def test_format_samples_round_trip(fmt):
    tree = registry[fmt].build_parser().parse(format_sample(fmt))
    assert round_trip(tree) == tree_to_jsonable(tree)


def test_lazy_tree_round_trips():
    parser = registry["elf"].build_parser()
    sample = format_sample("elf")
    root = parser.parse_lazy(sample, lazy_threshold=0)
    assert isinstance(root, LazyNode) and not root.is_materialized
    assert round_trip(root) == tree_to_jsonable(parser.parse(sample))


def test_edge_cases_round_trip():
    tree = Node(
        "Root",
        {"EOI": 0, "start": 0, "end": 0},
        [
            Leaf(b""),
            Node("Empty", {}, []),
            ArrayNode("None", []),
            ArrayNode(
                "Outer",
                [ArrayNode("Inner", [Leaf(b"\x00"), ArrayNode("Deep", [])]), Leaf(b"")],
            ),
        ],
    )
    assert round_trip(tree) == tree_to_jsonable(tree)
    for single in (Leaf(b""), Leaf(b"\xff" * 3), Node("N", {}, []), ArrayNode("A", [])):
        assert round_trip(single) == tree_to_jsonable(single)


def test_blackbox_env_values_round_trip():
    def blackbox(data):
        return {"text": data.decode(), "pair": (1, len(data)), "missing": None}

    grammar = "blackbox Ext ;\nS -> Ext[0, EOI] ;"
    tree = Parser(grammar, blackboxes={"Ext": blackbox}).parse(b"abc")
    env = tree.child("Ext").env
    assert (env["text"], env["pair"], env["missing"]) == ("abc", (1, 3), None)
    decoded = round_trip(tree)
    assert decoded == tree_to_jsonable(tree)
    assert decoded["children"][0]["env"]["pair"] == (1, 3)  # still a tuple


def test_tape_layout_is_flat_postorder():
    tree = Node("S", {"n": 1}, [Leaf(b"ab"), ArrayNode("A", [Leaf(b"c")])])
    leaves = [b"ab", b"c"]
    assert pickle.loads(tree_to_tape(tree)) == leaves + [None, "A", 1, "S", {"n": 1}, 2]


def test_deep_tree_needs_no_recursion():
    tree = Leaf(b"x")
    for depth in range(5000):
        tree = Node("N", {"d": depth}, [tree])
    decoded = round_trip(tree)
    for depth in reversed(range(5000)):
        assert decoded["env"] == {"d": depth}
        decoded = decoded["children"][0]
    assert decoded == {"leaf": "78"}


def test_non_tree_is_refused():
    with pytest.raises(TypeError):
        tree_to_tape(Node("S", {}, ["not a tree"]))


_names = st.text(alphabet="ABCxyz_", min_size=1, max_size=4)
_env_values = st.one_of(
    st.integers(), st.text(max_size=4), st.none(), st.tuples(st.integers())
)
_trees = st.recursive(
    st.binary(max_size=8).map(Leaf),
    lambda children: st.one_of(
        st.builds(
            Node,
            _names,
            st.dictionaries(_names, _env_values, max_size=3),
            st.lists(children, max_size=4),
        ),
        st.builds(ArrayNode, _names, st.lists(children, max_size=4)),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_trees)
def test_generated_trees_round_trip(tree):
    assert round_trip(tree) == tree_to_jsonable(tree)
