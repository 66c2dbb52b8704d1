"""The traversal memo a graph keeps across queries.

Each node's ``neighbors`` list and strongly connected component, per
direction and relationship types, stay on the graph until a relationship is
added or removed.  Queries on a long-lived graph must give the rows the same
query gives on a copy, which starts without a memo, and ``audit()`` must
find every kept entry fresh.
"""

from __future__ import annotations

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from heapquery.property_graph import PropertyGraph
from heapquery.subgraph import extract

from .conftest import UID, run_query
from .strategies import graphs, rel_labels
from .test_planner import count_calls

QUERIES = [
    "MATCH (m)-[:f*]->(m) RETURN m",
    "MATCH (m)<-[:f|g*]-(m) RETURN m",
    "MATCH (m:A)-[*1..]->(m) RETURN count(m)",
    "MATCH (a)<-[:f]-(m)-[:g*]->(m) RETURN a, m",
    "MATCH (a)-[:f*]->(b) RETURN DISTINCT a, b",
    "MATCH (a)-[:g]->(b)-[:f*0..2]->(c) RETURN a, b, c",
    "MATCH (a)-[r]-(b) RETURN a, r, b",
    "MATCH (a:A) MATCH (b)-[:f*]->(a) RETURN count(b)",
]

ROUNDS = 60

CYCLE_PROBE = "MATCH (m)-[:f*]->(m) RETURN count(m)"


def _chain(length: int) -> tuple[PropertyGraph, list[int]]:
    g = PropertyGraph()
    ids = [g.add_node("A") for _ in range(length)]
    for start, end in zip(ids, ids[1:]):
        g.add_relationship("f", start, end)
    return g, ids


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(graphs(max_nodes=6, max_edges=8), st.data())
    def test_long_lived_graph_answers_like_a_fresh_copy(self, graph, data):
        for _ in range(data.draw(st.integers(1, 12))):
            action = data.draw(st.sampled_from(["query", "query", "add", "remove", "node"]))
            ids = [node.id for node in graph.nodes()]
            rels = [rel.id for rel in graph.relationships()]
            if action == "add" and ids:
                graph.add_relationship(data.draw(rel_labels), data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids)))
            elif action == "remove" and rels:
                graph.remove_relationship(data.draw(st.sampled_from(rels)))
            elif action == "node":
                graph.add_node("A")
            else:
                text = data.draw(st.sampled_from(QUERIES))
                kept, _ = run_query(graph, text)
                fresh, _ = run_query(graph.copy(), text)
                assert kept.rows == fresh.rows, text
            assert graph.audit() == []


class TestWrites:
    def test_closing_a_cycle_after_a_probe(self):
        g, (a, b) = _chain(2)
        assert run_query(g, CYCLE_PROBE)[0].rows == [(0,)]
        g.add_relationship("f", b, a)
        assert run_query(g, CYCLE_PROBE)[0].rows == [(2,)]
        assert g.audit() == []

    def test_opening_a_cycle_after_a_probe(self):
        g, (a, b) = _chain(2)
        back = g.add_relationship("f", b, a)
        assert run_query(g, CYCLE_PROBE)[0].rows == [(2,)]
        g.remove_relationship(back)
        assert run_query(g, CYCLE_PROBE)[0].rows == [(0,)]
        assert g.audit() == []

    def test_set_field_edge_drops_the_memo(self):
        g, (a, b, c) = _chain(3)
        g.add_relationship("f", c, a)
        assert run_query(g, CYCLE_PROBE)[0].rows == [(3,)]
        g.set_field_edge("f", c, b)
        assert run_query(g, CYCLE_PROBE)[0].rows == [(2,)]
        assert g.audit() == []

    def test_an_unfilled_extraction_drops_the_memo_on_a_write(self, tree_snapshot):
        graph = extract(tree_snapshot)
        probe = "MATCH (m:`BinaryTree$Node`)-[:left|right*]->(m) RETURN count(m)"
        assert run_query(graph, probe)[0].rows == [(0,)]
        leaf, root = (next(graph.nodes_with_uid(UID[name])).id for name in "ac")
        graph.add_relationship("left", leaf, root)
        assert not graph.filled
        assert run_query(graph, probe)[0].rows == run_query(graph.copy(), probe)[0].rows == [(3,)]

    def test_add_node_keeps_the_memo(self, monkeypatch):
        g, (a, b) = _chain(2)
        g.add_relationship("f", b, a)
        run_query(g, CYCLE_PROBE)
        calls = count_calls(monkeypatch, "strong_components")
        c = g.add_node("A")
        assert run_query(g, CYCLE_PROBE)[0].rows == [(2,)]
        assert [call[0] for call in calls] == [c]  # only the new node is searched

    def test_copy_starts_without_a_memo(self, monkeypatch):
        g, (a, b) = _chain(2)
        g.add_relationship("f", b, a)
        run_query(g, CYCLE_PROBE)
        calls = count_calls(monkeypatch, "strong_components")
        assert run_query(g.copy(), CYCLE_PROBE)[0].rows == [(2,)]
        assert len(calls) == 1


class TestKeptAcrossQueries:
    def test_second_query_reads_the_memo(self, monkeypatch, tree_graph):
        probe = "MATCH (m:`BinaryTree$Node`)-[:left|right*]->(m) RETURN count(m)"
        run_query(tree_graph, probe)
        calls = count_calls(monkeypatch, "strong_components")
        neighbors = []
        original = PropertyGraph.neighbors
        monkeypatch.setattr(PropertyGraph, "neighbors", lambda *args: neighbors.append(args) or original(*args))
        assert run_query(tree_graph, probe)[0].rows == [(0,)]
        assert calls == [] and neighbors == []

    def test_reachability_reads_the_memo(self, monkeypatch):
        g, ids = _chain(5)
        text = "MATCH (n:A)-[:f*]->(m) RETURN DISTINCT n, m"
        first, _ = run_query(g, text)
        neighbors = []
        original = PropertyGraph.neighbors
        monkeypatch.setattr(PropertyGraph, "neighbors", lambda *args: neighbors.append(args) or original(*args))
        assert run_query(g, text)[0].rows == first.rows
        assert neighbors == []


class TestAudit:
    def test_in_place_label_change_shows_as_stale_memo(self):
        g, (a, b, c) = _chain(3)
        back = g.add_relationship("f", c, a)
        assert run_query(g, CYCLE_PROBE)[0].rows == [(3,)]
        g.relationship(back).label = "g"  # not a write the graph sees
        problems = g.audit()
        assert f"kept out ['f'] neighbors of node {c} are stale" in problems
        assert f"kept out ['f'] component of node {b} is {a}, a rebuild gives {b}" in problems

    def test_components_map_to_their_smallest_id(self):
        g, (a, b, c) = _chain(3)
        g.add_relationship("f", c, b)
        d = g.add_node("A")
        run_query(g, CYCLE_PROBE)
        assert g.traversal_memo("out", frozenset({"f"}))[1] == {a: a, b: b, c: b, d: d}


class TestSharedReaders:
    def test_readers_sharing_a_graph_agree(self):
        """Threads that query one graph at once get its answers and leave its memo fresh.

        Each reader starts its closed walk at another node of one large
        component, so a component entered into the memo in parts would let
        a reader look up a node that is not there yet.
        """
        g = PropertyGraph()
        ids = [g.add_node("A", {"$uid": i}) for i in range(600)]
        for start, end in zip(ids, ids[1:]):
            g.add_relationship("f", start, end)
        g.add_relationship("f", ids[-1], ids[200])
        g.add_relationship("f", ids[400], ids[100])
        probes = [f"MATCH (m {{`$uid`: {uid}}})-[:f*]->(m) RETURN count(m)" for uid in (120, 250, 380, 510)]
        expected = {text: run_query(g.copy(), text)[0].rows for text in probes}
        barrier = threading.Barrier(len(probes), timeout=60)
        results, errors = [], []

        def reader(text):
            try:
                for _ in range(ROUNDS):
                    barrier.wait()
                    results.append(run_query(g, text)[0].rows == expected[text])
                    if barrier.wait() == 0:  # no reader is running: drop the memo with a write
                        g.remove_relationship(g.add_relationship("h", ids[0], ids[0]))
            except Exception as exc:  # reported below, with the other readers' results
                errors.append(exc)
                barrier.abort()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(text,)) for text in probes]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == [True] * ROUNDS * len(probes)
        assert g.audit() == []
