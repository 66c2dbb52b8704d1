from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heapquery.errors import (
    InvalidLabelError,
    InvalidPropertyError,
    NodeNotFoundError,
    ReservedLabelError,
)
from heapquery.property_graph import (
    PropertyGraph,
    ensure_user_label,
    values_equal,
)

from .conftest import build_point_graph, build_tree_graph
from .oracles import SizeLimitExceededError, structurally_equal
from .strategies import graphs, rebuild_permuted


class TestNodes:
    def test_add_node_labels_and_count(self):
        g = PropertyGraph()
        node_id = g.add_node("BinaryTree$Node", {"value": 1})
        assert g.node_count == 1
        assert g.node(node_id).label == "BinaryTree$Node"
        assert g.node(node_id).properties == {"value": 1}

    def test_identical_add_node_calls_make_distinct_nodes(self):
        g = PropertyGraph()
        first = g.add_node("A", {})
        second = g.add_node("A", {})
        assert first != second
        assert g.node_count == 2

    def test_class_metadata_node(self):
        g = PropertyGraph()
        node_id = g.add_node("Class", {"name": "BinaryTree"})
        assert g.node(node_id).properties["name"] == "BinaryTree"

    def test_empty_label_rejected(self):
        g = PropertyGraph()
        with pytest.raises(InvalidLabelError):
            g.add_node("")

    def test_reserved_label_guard(self):
        with pytest.raises(ReservedLabelError):
            ensure_user_label("Local")
        with pytest.raises(ReservedLabelError):
            ensure_user_label("Class")
        assert ensure_user_label("BinaryTree") == "BinaryTree"

    def test_heterogeneous_list_property_rejected(self):
        g = PropertyGraph()
        with pytest.raises(InvalidPropertyError):
            g.add_node("A", {"xs": [1, "two"]})

    def test_uid_property_must_be_integer(self):
        g = PropertyGraph()
        with pytest.raises(InvalidPropertyError):
            g.add_node("A", {"$uid": "nope"})
        with pytest.raises(InvalidPropertyError):
            g.add_node("A", {"$uid": True})

    @pytest.mark.parametrize("explicit_lower_id", [False, True])
    def test_nodes_can_be_added_while_iterating(self, explicit_lower_id):
        g = PropertyGraph()
        for label in "ABC":
            g.add_node(label, node_id=10 + ord(label) if explicit_lower_id else None)
        if explicit_lower_id:
            g.add_node("D", node_id=0)  # ids no longer ascending in the store
        before = [(n.id, n.label) for n in g.nodes()]
        seen = []
        for n in g.nodes():
            seen.append((n.id, n.label))
            g.add_node("Y")
        assert seen == before
        assert g.node_count == 2 * len(before)
        assert [n.id for n in g.nodes()] == sorted(n.id for n in g.nodes())
        assert g.audit() == []


class TestRelationships:
    def test_add_relationship(self):
        g = build_tree_graph()
        c = next(n for n in g.nodes() if n.properties.get("value") == 4)
        b = next(n for n in g.nodes() if n.properties.get("value") == 2)
        labels = [rel.label for rel, other in g.neighbors(c.id, "out") if other.id == b.id]
        assert labels == ["left"]

    def test_self_loop_accepted(self):
        g = PropertyGraph()
        n = g.add_node("A")
        g.add_relationship("f", n, n)
        assert g.relationship_count == 1
        assert g.audit() == []

    def test_parallel_edges_allowed(self):
        g = PropertyGraph()
        a, b = g.add_node("A"), g.add_node("B")
        g.add_relationship("f", a, b)
        g.add_relationship("f", a, b)
        assert g.relationship_count == 2

    def test_dangling_endpoint(self):
        g = PropertyGraph()
        n = g.add_node("A")
        with pytest.raises(NodeNotFoundError):
            g.add_relationship("left", n, n + 999)


class TestSetFieldEdge:
    def test_rebind_replaces_previous_edge(self):
        g = build_point_graph()
        n5 = next(n for n in g.nodes() if n.properties.get("value") == 5)
        before = g.relationship_count
        g.set_field_edge("left", n5.id, n5.id)
        left = [(rel, other) for rel, other in g.neighbors(n5.id, "out") if rel.label == "left"]
        assert len(left) == 1
        assert left[0][1].id == n5.id
        assert g.relationship_count == before

    def test_fresh_field_goes_zero_to_one(self):
        g = PropertyGraph()
        a, b = g.add_node("A"), g.add_node("B")
        g.set_field_edge("f", a, b)
        assert [other.id for rel, other in g.neighbors(a, "out")] == [b]

    def test_idempotent(self):
        g = PropertyGraph()
        a, b = g.add_node("A"), g.add_node("B")
        g.set_field_edge("f", a, b)
        once = g.copy()
        g.set_field_edge("f", a, b)
        assert structurally_equal(once, g)


class TestNeighbors:
    def test_tree_root_children(self):
        g = build_tree_graph()
        c = next(n for n in g.nodes() if n.properties.get("value") == 4)
        out = g.neighbors(c.id, "out", {"left", "right"})
        assert {(rel.label, other.properties["value"]) for rel, other in out} == {("left", 2), ("right", 5)}

    def test_tree_root_incidence(self):
        # Hand-enumerated adjacency of the root node: left and right out,
        # instanceof out, root in from the BinaryTree instance.
        g = build_tree_graph()
        c = next(n for n in g.nodes() if n.properties.get("value") == 4)
        incident = g.neighbors(c.id, "both")
        assert sorted(rel.label for rel, _ in incident) == ["instanceof", "left", "right", "root"]
        assert len(incident) == 4

    def test_isolated_node(self):
        g = PropertyGraph()
        n = g.add_node("A")
        assert g.neighbors(n, "both") == []

    def test_unknown_node(self):
        g = PropertyGraph()
        with pytest.raises(NodeNotFoundError):
            g.neighbors(12, "out")

    def test_deterministic_order(self):
        g = PropertyGraph()
        a, b = g.add_node("A"), g.add_node("B")
        ids = [g.add_relationship("f", a, b) for _ in range(5)]
        assert [rel.id for rel, _ in g.neighbors(a, "out")] == sorted(ids)


class TestStructuralEquality:
    def test_id_insensitive(self):
        g = build_point_graph()
        assert structurally_equal(g, rebuild_permuted(g, seed=7))

    def test_property_mismatch(self):
        g = build_point_graph()
        h = build_point_graph()
        tree = next(n for n in h.nodes() if n.label == "BinaryTree")
        tree.properties["size"] = 3
        assert not structurally_equal(g, h)

    def test_different_graphs(self):
        assert not structurally_equal(build_tree_graph(), build_point_graph())

    def test_uid_is_ignored(self):
        assert structurally_equal(build_tree_graph(with_uids=True), build_tree_graph(with_uids=False))

    def test_edge_label_matters(self):
        g = PropertyGraph()
        a, b = g.add_node("A"), g.add_node("A")
        g.add_relationship("f", a, b)
        h = PropertyGraph()
        a, b = h.add_node("A"), h.add_node("A")
        h.add_relationship("g", a, b)
        assert not structurally_equal(g, h)

    def test_parallel_edge_multiplicity_matters(self):
        g = PropertyGraph()
        a, b = g.add_node("A"), g.add_node("B")
        g.add_relationship("f", a, b)
        g.add_relationship("f", a, b)
        h = PropertyGraph()
        a, b = h.add_node("A"), h.add_node("B")
        h.add_relationship("f", a, b)
        assert not structurally_equal(g, h)

    def test_size_limit(self):
        g = PropertyGraph()
        for _ in range(5):
            g.add_node("A")
        with pytest.raises(SizeLimitExceededError):
            structurally_equal(g, g, max_nodes=4)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_nodes=10))
    def test_reflexive(self, g):
        assert structurally_equal(g, g)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_nodes=10), st.integers(0, 1000))
    def test_symmetric_under_permutation(self, g, seed):
        h = rebuild_permuted(g, seed)
        assert structurally_equal(g, h)
        assert structurally_equal(h, g)


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(graphs(max_nodes=8, max_edges=12))
    def test_audit_clean_after_construction(self, g):
        assert g.audit() == []

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_nodes=6, max_edges=8), st.data())
    def test_field_edge_unique_after_assignments(self, g, data):
        ids = [n.id for n in g.nodes()]
        if not ids:
            return
        for _ in range(data.draw(st.integers(0, 10))):
            start = data.draw(st.sampled_from(ids))
            end = data.draw(st.sampled_from(ids))
            fieldname = data.draw(st.sampled_from(["f", "g"]))
            g.set_field_edge(fieldname, start, end)
            out_labels = [rel.label for rel, _ in g.neighbors(start, "out") if rel.label == fieldname]
            assert len(out_labels) == 1
        assert g.audit() == []

    def test_add_apis_do_not_mutate_existing(self):
        g = build_tree_graph()
        snapshot = {n.id: (n.label, dict(n.properties)) for n in g.nodes()}
        rels = {r.id: (r.label, r.start, r.end) for r in g.relationships()}
        n = g.add_node("X", {"p": 1})
        g.add_relationship("h", n, n)
        for node_id, (label, props) in snapshot.items():
            assert g.node(node_id).label == label
            assert g.node(node_id).properties == props
        for rel_id, (label, start, end) in rels.items():
            rel = g.relationship(rel_id)
            assert (rel.label, rel.start, rel.end) == (label, start, end)


class TestRelationshipLabelIndex:
    @settings(max_examples=60, deadline=None)
    @given(graphs(max_nodes=6, max_edges=8), st.data())
    def test_kept_through_adds_and_removals(self, g, data):
        ids = [n.id for n in g.nodes()]
        if not ids:
            return
        list(g.relationships_with_label("f"))  # builds the index
        for _ in range(data.draw(st.integers(0, 12))):
            start, end = data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids))
            label = data.draw(st.sampled_from(["f", "g", "h"]))
            if data.draw(st.booleans()):
                g.set_field_edge(label, start, end)
            else:
                g.add_relationship(label, start, end)
        for label in {rel.label for rel in g.relationships()} | {"f"}:
            expected = [rel.id for rel in g.relationships() if rel.label == label]
            assert [rel.id for rel in g.relationships_with_label(label)] == expected
        assert g.audit() == []

    def test_relationships_stay_in_ascending_id_order(self):
        g = PropertyGraph()
        a, b = g.add_node("A"), g.add_node("B")
        for label in "fgfgf":
            g.add_relationship(label, a, b)
        g.remove_relationship(0)
        g.remove_relationship(3)
        g.add_relationship("f", b, a)
        assert [rel.id for rel in g.relationships()] == [1, 2, 4, 5]
        assert [rel.id for rel in g.relationships_with_label("f")] == [2, 4, 5]
        assert g.audit() == []

    def test_relationships_can_change_while_iterating(self):
        g = PropertyGraph()
        a = g.add_node("A")
        for label in "fgf":
            g.add_relationship(label, a, a)
        for rel in g.relationships():
            g.remove_relationship(rel.id)
            g.add_relationship(rel.label, a, a)
        assert [(rel.id, rel.label) for rel in g.relationships()] == [(3, "f"), (4, "g"), (5, "f")]
        assert g.audit() == []

    def test_adding_relationships_while_iterating_a_lookup_terminates(self):
        g = PropertyGraph()
        a = g.add_node("A")
        g.add_relationship("x", a, a)
        for steps, _ in enumerate(g.relationships_with_label("x")):
            assert steps < 1000, "iteration did not end"
            g.add_relationship("x", a, a)
        assert [rel.id for rel in g.relationships_with_label("x")] == [0, 1]
        assert g.audit() == []

    def test_copy_keeps_an_independent_index(self):
        g = build_tree_graph()
        lefts = [rel.id for rel in g.relationships_with_label("left")]
        dup = g.copy()
        assert dup._rels_by_label == g._rels_by_label
        added = dup.add_relationship("left", 0, 0)
        dup.remove_relationship(lefts[0])
        assert [rel.id for rel in g.relationships_with_label("left")] == lefts
        assert [rel.id for rel in dup.relationships_with_label("left")] == lefts[1:] + [added]
        assert g.audit() == [] and dup.audit() == []

    def test_audit_reports_stale_entry_and_unordered_store(self):
        g = PropertyGraph()
        a = g.add_node("A")
        first, second = g.add_relationship("f", a, a), g.add_relationship("f", a, a)
        assert [rel.id for rel in g.relationships_with_label("f")] == [first, second]
        g.relationship(second).label = "g"  # in place, after the index was built
        problems = g.audit()
        assert any("relationship label index entry 'f'" in p for p in problems)
        assert any("relationship label index entry 'g'" in p for p in problems)
        g = PropertyGraph()
        a = g.add_node("A")
        g.add_relationship("f", a, a)
        g.add_relationship("f", a, a)
        g._rels = dict(reversed(g._rels.items()))
        assert "relationships are not stored in ascending id order" in g.audit()


class TestValues:
    def test_int_float_never_equal(self):
        assert not values_equal(1, 1.0)
        assert not values_equal(True, 1)
        assert values_equal(1, 1)
        assert values_equal([1, 2], [1, 2])
        assert not values_equal([1], [1.0])
