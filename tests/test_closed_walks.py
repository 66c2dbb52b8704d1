"""Closed-walk pruning, aggregate leaves and label lookups by id.

A variable-length segment that must end where it starts, ``(m)-[:f*]->(m)``
with no upper bound and direction out or in, only steps to neighbours in the
start's strongly connected component, and, when it opens a path with a lower
bound of at least one, drops each start with no step into its own component.
That prunes branches and starts that could never return, so the rows stay the
same bag in the same order: checked against the brute-force oracle and
against the matcher with every node in one component.
"""

from __future__ import annotations

import random

import pytest

from heapquery import query_engine
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

    def test_components_run_for_closed_walks_and_counted_segments(self, monkeypatch, tree_graph):
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
            "MATCH (n {`$uid`: 0})-[:a|b*]->(m) RETURN count(DISTINCT m)",  # DISTINCT only: the search
            "MATCH (n {`$uid`: 0})-[:next*1..3]->(m) RETURN count(m)",  # bounded
            "MATCH (n {`$uid`: 0})-[:next*2]->(m) RETURN count(m)",  # fixed length
            "MATCH (m:N)-[:next*1..3]->(m) RETURN count(m)",
            "MATCH (m:N)-[:next*]-(m) RETURN count(m)",
            "MATCH (m:N)-[:next*]->(n) RETURN count(DISTINCT m)",  # distinct starts: the search
        ]:
            execute(parsed(text), chain)
        assert calls == []
        execute(parsed("MATCH (m:N)-[:next*]->(m) RETURN count(m)"), chain)  # a closed walk
        assert len(calls) == 1
        # a counted segment, by its target or its start; the cycle falls back to enumeration
        for types, counted in [(":a", "m"), (":next", "m"), (":a", "n"), (":next", "n")]:
            calls.clear()
            text = f"MATCH (n {{`$uid`: 0}})-[{types}*]->(m) RETURN count({counted})"
            table, _ = execute(parsed(text), chain.copy())  # a copy keeps no component map
            assert table.rows == [(19,)] and as_bag(table) == enumerate_rows(chain, parsed(text))
            assert len(calls) == 1


def _closable_graph(rng: random.Random) -> PropertyGraph:
    """Self-loops, 2-cycles and acyclic branches: nodes on a cycle next to nodes on none."""
    g = PropertyGraph()
    ids = [g.add_node(rng.choice("AB"), {"$uid": 100 + i}) for i in range(rng.randint(2, 7))]
    for i, start in enumerate(ids):
        for end in ids[i + 1 :]:
            if rng.random() < 0.3:  # forward only: acyclic on its own
                g.add_relationship(rng.choice("fg"), start, end)
        if rng.random() < 0.2:
            g.add_relationship(rng.choice("fg"), start, start)
        if rng.random() < 0.2 and i + 1 < len(ids):
            other = rng.choice(ids[i + 1 :])
            g.add_relationship(rng.choice("fg"), start, other)
            g.add_relationship(rng.choice("fg"), other, start)
    return g


# Closed-walk probes: components are read for out and in with no upper
# bound; ``*0..`` keeps every start, and the undirected probe reads none.
PROBES = ["-[{}*1..]->", "-[{}*2..]->", "-[{}*0..]->", "<-[{}*1..]-", "<-[{}*2..]-", "-[{}*1..]-"]
STARTS = {
    "label": ("MATCH (a:B) {match} (m:A){seg}(m)", "a, m"),
    "uid": ("MATCH (a:B) {match} (m {{`$uid`: {uid}}}){seg}(m)", "a, m"),
    "bound": ("MATCH (m:A) {match} (m){seg}(m), (c:B)", "m, c"),  # c is absent when m has no walk
}


class TestStartPruning:
    @pytest.mark.parametrize("optional", [False, True])
    @pytest.mark.parametrize("start", sorted(STARTS))
    def test_pruned_starts_keep_the_rows_and_their_order(self, monkeypatch, start, optional):
        rng = random.Random(f"{start}-{optional}")
        real = query_engine.strong_components
        binds = count_calls(monkeypatch, "_bind")
        pruned_binds = unpruned_binds = 0
        for _ in range(120):
            graph = _closable_graph(rng)
            probe = rng.choice(PROBES).format(rng.choice(["", ":f", ":f|g"]))
            fmt, names = STARTS[start]
            match = fmt.format(match="OPTIONAL MATCH" if optional else "MATCH", seg=probe, uid=rng.randint(100, 106))
            for ret in (names, "count(*)"):
                text = f"{match} RETURN {ret}"
                binds.clear()
                pruned, _ = execute(parsed(text), graph)
                pruned_binds += len(binds)
                assert as_bag(pruned) == enumerate_rows(graph, parsed(text)), text
                binds.clear()
                monkeypatch.setattr(query_engine, "strong_components", _single_component(real))
                unpruned, _ = execute(parsed(text), graph.copy())  # a copy keeps no component map
                monkeypatch.setattr(query_engine, "strong_components", real)
                unpruned_binds += len(binds)
                assert pruned.rows == unpruned.rows, text
        assert pruned_binds < unpruned_binds

    def test_undirected_and_zero_hop_probes_drop_no_start(self, monkeypatch):
        g = PropertyGraph()
        a, b = g.add_node("A"), g.add_node("A")
        g.add_relationship("f", a, b)
        calls = count_calls(monkeypatch, "strong_components")
        binds = count_calls(monkeypatch, "_bind")
        table, _ = execute(parsed("MATCH (m:A)-[:f*1..]-(m) RETURN m"), g)
        assert table.rows == [] and calls == []
        assert {call[3] for call in binds if call[2].var == "m"} == {a, b}
        table, _ = execute(parsed("MATCH (m:A)-[:f*0..]->(m) RETURN m"), g)
        assert table.rows == [(NodeRef(a),), (NodeRef(b),)]
        binds.clear()
        table, _ = execute(parsed("MATCH (m:A)-[:f*1..]->(m) RETURN m"), g)
        assert table.rows == [] and binds == []

    def test_repok_binds_no_start_on_a_valid_tree(self, monkeypatch):
        text = REPOK_QUERY.replace("{$1}", f"{{`$uid`: {UID['f']}}}")
        binds = count_calls(monkeypatch, "_bind")
        table, _ = execute(parsed(text), build_tree_graph())
        assert table.rows == [(True,)]
        assert [call for call in binds if call[2].var == "m"] == []

    def test_repok_binds_only_the_cycle_on_a_cyclic_tree(self, monkeypatch):
        g = build_tree_graph()
        a, b, c = (next(g.nodes_with_uid(UID[name])).id for name in "abc")
        g.add_relationship("left", a, c)  # c -> b -> a -> c
        text = REPOK_QUERY.replace("{$1}", f"{{`$uid`: {UID['f']}}}")
        binds = count_calls(monkeypatch, "_bind")
        table, _ = execute(parsed(text), g)
        assert table.rows == [(False,)]
        assert {call[3] for call in binds if call[2].var == "m"} == {a, b, c}


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
            query_engine._check_constant(PropertyAccess("t", "size"), rows, g)
        assert str(exc.value) == message
        assert calls[-1][0] is rows[raising]

    def test_count_of_a_variable_missing_from_a_row(self):
        with pytest.raises(ExecutionError, match="unbound variable 'n'"):
            query_engine._count(query_engine.Count(Variable("n")), [{"n": NodeRef(0)}, {}], PropertyGraph())


class TestLabelLookups:
    def test_label_count_on_an_unfilled_extraction_builds_no_node(self, tree_snapshot):
        graph = extract(tree_snapshot)
        table, _ = execute(parsed("MATCH (n:`BinaryTree$Node`) RETURN count(n)"), graph)
        assert table.rows == [(5,)]
        assert graph._nodes == {} and not graph._filled

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
