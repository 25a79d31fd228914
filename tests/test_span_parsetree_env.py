"""Unit tests for parse trees and evaluation environments."""

import pytest

from repro.core.env import EvalContext, initial_env, upd_start_end, upd_start_end_in_place
from repro.core.errors import EvaluationError
from repro.core.parsetree import ArrayNode, Leaf, Node, tree_equal_modulo_specials


class TestParseTree:
    def build(self):
        leaf = Leaf(b"PK")
        child_a = Node("A", {"EOI": 2, "start": 0, "end": 2, "val": 7}, [leaf])
        child_b = Node("A", {"EOI": 2, "start": 2, "end": 4, "val": 9}, [Leaf(b"xy")])
        array = ArrayNode("A", [child_a, child_b])
        root = Node("S", {"EOI": 4, "start": 0, "end": 4, "count": 2}, [array, child_a])
        return root, array, child_a, child_b

    def test_attr_access(self):
        root, *_ = self.build()
        assert root["count"] == 2
        assert root.attr("missing", 42) == 42
        with pytest.raises(KeyError):
            root["missing"]

    def test_attrs_strips_specials(self):
        root, *_ = self.build()
        assert root.attrs == {"count": 2}

    def test_child_and_children_named(self):
        root, _array, child_a, _child_b = self.build()
        assert root.child("A") is child_a
        assert root.child("B") is None
        assert root.children_named("A") == [child_a]

    def test_array_lookup(self):
        root, array, *_ = self.build()
        assert root.array("A") is array
        assert root.array("Z") is None
        assert len(array) == 2
        assert list(array)[1]["val"] == 9

    def test_find_all_walks_recursively(self):
        root, *_ = self.build()
        assert len(root.find_all("A")) == 3  # two array elements + direct child

    def test_walk_and_size(self):
        root, *_ = self.build()
        assert root.size() == 8

    def test_equality_and_pretty(self):
        root, *_ = self.build()
        other, *_ = self.build()
        assert root == other
        assert "S" in root.pretty()

    def test_tree_equal_modulo_specials(self):
        left = Node("S", {"EOI": 4, "start": 0, "end": 4, "x": 1}, [Leaf(b"ab")])
        right = Node("S", {"EOI": 9, "start": 3, "end": 7, "x": 1}, [Leaf(b"ab")])
        different = Node("S", {"EOI": 4, "start": 0, "end": 4, "x": 2}, [Leaf(b"ab")])
        assert tree_equal_modulo_specials(left, right)
        assert not tree_equal_modulo_specials(left, different)


class TestEnvironment:
    def test_initial_env(self):
        assert initial_env(10) == {"EOI": 10, "start": 10, "end": 0}

    def test_upd_start_end_widens(self):
        env = initial_env(10)
        updated = upd_start_end(env, 3, 5, True)
        assert (updated["start"], updated["end"]) == (3, 5)
        assert (env["start"], env["end"]) == (10, 0)  # original untouched

    def test_upd_start_end_untouched(self):
        env = initial_env(10)
        assert upd_start_end(env, 3, 5, False) is env

    def test_upd_start_end_in_place_matches_functional(self):
        cases = [(3, 5, True), (0, 0, False), (7, 9, True), (1, 2, True)]
        functional = initial_env(10)
        destructive = initial_env(10)
        for left, right, touched in cases:
            functional = upd_start_end(functional, left, right, touched)
            upd_start_end_in_place(destructive, left, right, touched)
        assert functional == destructive

    def test_context_lookup_and_binding(self):
        ctx = EvalContext(initial_env(4))
        ctx.bind("x", 3)
        assert ctx.lookup_name("x") == 3
        with pytest.raises(EvaluationError):
            ctx.lookup_name("y")

    def test_context_array_length(self):
        ctx = EvalContext(initial_env(4))
        ctx.arrays["A"] = [Node("A", {"val": 1}, [])]
        assert ctx.array_length("A") == 1
        with pytest.raises(EvaluationError):
            ctx.array_length("B")

    def test_child_context_sees_outer_bindings(self):
        outer = EvalContext(initial_env(4))
        outer.bind("x", 1)
        outer.record_node(Node("H", {"ofs": 9}, []))
        inner = outer.child()
        assert inner.lookup_name("x") == 1
        assert inner.lookup_dot("H", "ofs") == 9
