"""Closed-walk pruning, aggregate leaves and label lookups by id.

A variable-length segment that must end where it starts, ``(m)-[:f*]->(m)``
with no upper bound and direction out or in, only steps to neighbours in the
start's strongly connected component.  That prunes branches that could never
return, so the rows stay the same bag in the same order: checked against the
brute-force oracle and against the matcher with every node in one component.
"""

from __future__ import annotations

import random

import pytest

from heapquery import QueryContext, query_bounded, query_engine
from heapquery.cypher_ast import PropertyAccess, Variable
from heapquery.errors import ExecutionError, TypeMismatchError
from heapquery.property_graph import PropertyGraph
from heapquery.query_engine import NodeRef, execute
from heapquery.subgraph import extract

from .conftest import REPOK_QUERY, UID, as_bag, build_tree_graph
from .generators import random_graph
from .oracles import enumerate_rows
from .test_planner import count_calls, parsed

ARROWS = {"out": ("-", "->"), "in": ("<-", "-")}
CLOSED_HOPS = ["*0..", "*1..", "*", "*2.."]


def _closed(rng: random.Random) -> str:
    left, right = ARROWS[rng.choice(list(ARROWS))]
    return f"{left}[{rng.choice(['', ':f', ':f|g'])}{rng.choice(CLOSED_HOPS)}]{right}"


def _random_closed_query(rng: random.Random) -> tuple[str, str]:
    """A MATCH with a closed segment, and the node variables to return."""
    label = rng.choice(["", ":A", ":B"])
    seg, seg2 = _closed(rng), _closed(rng)
    shape = rng.choice(["alone", "after-hop", "rel-var", "optional", "two-closed", "then-hop"])
    if shape == "alone":
        return f"MATCH (m{label}){seg}(m)", "m"
    if shape == "after-hop":
        return f"MATCH (a{label})-[:f]->(m){seg}(m)", "a, m"
    if shape == "rel-var":
        left, right = ARROWS[rng.choice(list(ARROWS))]
        return f"MATCH (a{label}){left}[r:g]{right}(m){seg}(m)", "a, m"
    if shape == "optional":
        return f"MATCH (a:A) OPTIONAL MATCH (m{label}){seg}(m)", "a, m"
    if shape == "two-closed":
        return f"MATCH (m{label}){seg}(m){seg2}(m)", "m"
    return f"MATCH (m{label}){seg}(m)-[:g]->(b)", "m, b"


def _single_component(real):
    """``strong_components`` with every node it reaches put in one component: no pruning."""

    def single(start, steps, comps):
        real(start, steps, comps)
        for node_id in comps:
            comps[node_id] = "one"

    return single


class TestClosedWalks:
    def test_random_closed_walks_match_enumeration_and_the_unpruned_rows(self, monkeypatch):
        rng = random.Random(4242)
        real = query_engine.strong_components
        calls = count_calls(monkeypatch, "strong_components")
        counted = query_engine.strong_components
        for _ in range(400):
            graph = random_graph(rng, max_edges=10)
            match, names = _random_closed_query(rng)
            text = f"{match} RETURN {names}"
            table, _ = execute(parsed(text), graph)
            assert as_bag(table) == enumerate_rows(graph, parsed(text)), text
            count = f"{match} RETURN count(*)"
            assert as_bag(execute(parsed(count), graph)[0]) == enumerate_rows(graph, parsed(count)), count
            full = f"{match} RETURN {names}{', r' if '[r:' in match else ''}"
            pruned, _ = execute(parsed(full), graph)
            monkeypatch.setattr(query_engine, "strong_components", _single_component(real))
            unpruned, _ = execute(parsed(full), graph.copy())  # a copy keeps no component map
            monkeypatch.setattr(query_engine, "strong_components", counted)
            assert pruned.rows == unpruned.rows, full
        assert len(calls) > 300

    def test_later_segment_starts_its_own_search(self, monkeypatch):
        g = PropertyGraph()
        a, b, c, d = (g.add_node("A") for _ in range(4))
        for start, end, label in [(a, b, "g"), (a, c, "g"), (b, d, "f"), (d, b, "f"), (c, c, "f")]:
            g.add_relationship(label, start, end)
        calls = count_calls(monkeypatch, "strong_components")
        text = "MATCH (a)-[:g]->(m)-[:f*]->(m) RETURN a, m"
        table, _ = execute(parsed(text), g)
        assert table.rows == [(NodeRef(a), NodeRef(b)), (NodeRef(a), NodeRef(c))]
        assert as_bag(table) == enumerate_rows(g, parsed(text))
        assert [call[0] for call in calls] == [b, c]  # c is not reached from b: searched from c

    def test_one_search_covers_the_starts_it_reaches(self, monkeypatch):
        g = PropertyGraph()
        nodes = [g.add_node("A") for _ in range(6)]
        for start, end in zip(nodes, nodes[1:]):
            g.add_relationship("f", start, end)
        g.add_relationship("f", nodes[5], nodes[3])
        calls = count_calls(monkeypatch, "strong_components")
        table, _ = execute(parsed("MATCH (m:A)-[:f*]->(m) RETURN m"), g)
        assert table.rows == [(NodeRef(nodes[3]),), (NodeRef(nodes[4]),), (NodeRef(nodes[5]),)]
        assert len(calls) == 1

    def test_long_cycle_and_long_list(self):
        g = PropertyGraph()
        nodes = [g.add_node("A", {"$uid": i}) for i in range(3000)]  # deeper than the recursion limit
        for start, end in zip(nodes, nodes[1:]):
            g.add_relationship("next", start, end)
        table, _ = execute(parsed("MATCH (m:A)-[:next*]->(m) RETURN count(m)"), g)
        assert table.rows == [(0,)]
        g.add_relationship("next", nodes[-1], nodes[0])
        table, _ = execute(parsed("MATCH (m:A {`$uid`: 7})-[:next*]->(m) RETURN count(m)"), g)
        assert table.rows == [(1,)]
        table, _ = execute(parsed("MATCH (m:A {`$uid`: 7})<-[:next*0..]-(m) RETURN count(m)"), g)
        assert table.rows == [(2,)]

    def test_components_run_for_repok_only(self, monkeypatch, tree_graph):
        calls = count_calls(monkeypatch, "strong_components")
        table, _ = execute(parsed(REPOK_QUERY.replace("{$1}", f"{{`$uid`: {UID['f']}}}")), tree_graph)
        assert table.rows == [(True,)]
        assert calls and len(calls[-1][2]) == 5  # one component map over the five tree nodes
        chain = PropertyGraph()
        ids = [chain.add_node("N", {"$uid": i}) for i in range(20)]
        for start, end in zip(ids, ids[1:]):
            chain.add_relationship("next", start, end)
            chain.add_relationship("a", start, end)
        chain.add_relationship("next", ids[-1], ids[0])
        calls.clear()
        for text in [
            "MATCH (n {`$uid`: 0})-[:a|b*]->(m) RETURN DISTINCT m",  # the DAG query
            "MATCH (n {`$uid`: 0})-[:next*]->(m) RETURN count(m)",  # the list query
            "MATCH (m:N)-[:next*1..3]->(m) RETURN count(m)",
            "MATCH (m:N)-[:next*]-(m) RETURN count(m)",
            "MATCH (m:N)-[:next*]->(n) RETURN count(m)",
        ]:
            execute(parsed(text), chain)
        assert calls == []
        execute(parsed("MATCH (m:N)-[:next*]->(m) RETURN count(m)"), chain)
        assert len(calls) == 1


class TestAggregateLeaves:
    def test_constant_leaf_is_evaluated_once_per_bound_object(self, monkeypatch, tree_graph):
        calls = count_calls(monkeypatch, "eval_expression")
        text = REPOK_QUERY.replace("{$1}", f"{{`$uid`: {UID['f']}}}")
        table, _ = execute(parsed(text), tree_graph)
        assert table.rows == [(True,)]
        leaves = [call for call in calls if isinstance(call[1], (Variable, PropertyAccess))]
        assert len(leaves) == 4  # per t.size leaf: the check on the one bound tree, then the value

    @pytest.mark.parametrize(
        "rows, raising, error, message",
        [
            ([{"t": NodeRef(0)}, {"t": NodeRef(0)}, {"t": 5}, {"t": "x"}], 2, TypeMismatchError, "'t' has no properties"),
            ([{"t": NodeRef(0)}, {}, {"t": 5}], 1, ExecutionError, "unbound variable 't'"),
        ],
    )
    def test_constant_check_raises_on_the_same_row(self, monkeypatch, rows, raising, error, message):
        g = PropertyGraph()
        g.add_node("T", {"size": 1})
        calls = count_calls(monkeypatch, "eval_expression")
        with pytest.raises(error) as exc:
            query_engine._aggregated(PropertyAccess("t", "size"), rows, g)
        assert str(exc.value) == message
        assert calls[-1][0] is rows[raising]

    def test_count_of_a_variable_missing_from_a_row(self):
        with pytest.raises(ExecutionError, match="unbound variable 'n'"):
            query_engine._aggregated(query_engine.Count(Variable("n")), [{"n": NodeRef(0)}, {}], PropertyGraph())


class TestLabelLookups:
    def test_label_count_on_an_unfilled_extraction_builds_no_node(self, tree_snapshot):
        graph = extract(tree_snapshot)
        table, _ = execute(parsed("MATCH (n:`BinaryTree$Node`) RETURN count(n)"), graph)
        assert table.rows == [(5,)]
        assert graph._nodes == {} and not graph.filled

    def test_node_ids_are_an_ascending_copy(self, tree_snapshot):
        for graph in (build_tree_graph(), extract(tree_snapshot), extract(tree_snapshot).fill()):
            ids = graph.node_ids_with_label("BinaryTree$Node")
            assert ids == sorted(ids) == [n.id for n in graph.nodes_with_label("BinaryTree$Node")]
            ids.append(-1)
            assert -1 not in graph.node_ids_with_label("BinaryTree$Node")

    @pytest.mark.parametrize("filled", [False, True])
    def test_adding_nodes_while_iterating_a_lookup_terminates(self, tree_snapshot, filled):
        graphs = [build_tree_graph(), extract(tree_snapshot).fill()] if filled else [PropertyGraph()]
        for graph in graphs:
            graph.add_node("L", {"$uid": 77})
            for lookup in (lambda: graph.nodes_with_label("L"), lambda: graph.nodes_with_uid(77)):
                before = len(list(lookup()))
                for steps, _ in enumerate(lookup()):
                    assert steps < 1000, "iteration did not end"
                    graph.add_node("L", {"$uid": 77})
                assert len(list(lookup())) == 2 * before

    def test_caching_context_drops_the_numbering_of_a_cached_graph(self, tree_snapshot):
        ctx = QueryContext(tree_snapshot, cache_extractions=True)
        assert query_bounded(ctx, UID["f"], "MATCH (n) RETURN count(n)").table.rows == [(9,)]
        assert tree_snapshot._numberings == {}
        plain = QueryContext(tree_snapshot)
        assert query_bounded(plain, UID["f"], "MATCH (n) RETURN count(n)").table.rows == [(9,)]
        assert len(tree_snapshot._numberings) == 1
