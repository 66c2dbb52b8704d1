"""Index-driven start lookup, set-semantics reachability and the iterative
matcher, checked against the brute-force oracle and by counting work."""

from __future__ import annotations

import random

import pytest

from heapquery import query_engine
from heapquery.errors import InvalidPropertyError
from heapquery.heap_model import parse_program, run_program
from heapquery.property_graph import PropertyGraph
from heapquery.query_engine import execute
from heapquery.snapshot_io import CsvBundle, export_csv, import_csv

from .conftest import as_bag, build_tree_graph, expanded_queries
from .generators import random_graph
from .oracles import enumerate_rows

ARROWS = {"out": ("-", "->"), "in": ("<-", "-"), "both": ("-", "-")}
HOPS = {"*": 1, "*0..": 0, "*1..3": 1, "*2..": 2}  # spelling -> lower bound


def parsed(fmt: str, *args):
    (query,) = expanded_queries(fmt, *args)
    return query


def count_calls(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(query_engine, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(query_engine, name, counted)
    return calls


def _random_case(rng: random.Random):
    """A random cyclic graph with some in-place ``$uid``s and one query on it.

    Returns (graph, query text, start pattern text, whether the query may use
    the reachability search).
    """
    # Fewer edges than the generator's default: the brute-force oracle walks
    # every trail, which on an undirected unbounded segment over 12 edges can
    # take it many seconds.
    graph = random_graph(rng, max_edges=9)
    for node in graph.nodes():
        if rng.random() < 0.6:
            node.properties["$uid"] = rng.randint(100, 104)  # repeats allowed
    if rng.random() < 0.5:
        start = f"{{`$uid`: {rng.randint(100, 105)}}}"
    else:
        start = f":{rng.choice('AB')}" + (f" {{v: {rng.randint(1, 3)}}}" if rng.random() < 0.3 else "")
    hops = rng.choice(list(HOPS))
    left, right = ARROWS[rng.choice(list(ARROWS))]
    types = rng.choice(["", ":f", ":f|g"])
    segment = f"{left}[{types}{hops}]{right}"
    shape = rng.choice(["fresh", "fresh", "fresh", "closed", "pinned"])
    consume = rng.choice(["RETURN DISTINCT {v}", "RETURN count(DISTINCT {v})", "RETURN count({v})"])
    if shape == "closed":
        text = f"MATCH (n{start}){segment}(n) " + consume.format(v="n")
    elif shape == "pinned":
        text = f"MATCH (m {{`$uid`: {rng.randint(100, 104)}}}) MATCH (n{start}){segment}(m) " + consume.format(v="n")
    else:
        target = f":{rng.choice('AB')}" if rng.random() < 0.3 else ""
        text = f"MATCH (n{start}){segment}(m{target}) " + consume.format(v="m")
    eligible = shape == "fresh" and HOPS[hops] <= 1 and "DISTINCT" in consume
    return graph, text, start, eligible


class TestFastPathsAgainstOracle:
    def test_random_anchored_reachability_matches_enumeration(self, monkeypatch):
        rng = random.Random(3141)
        bfs = count_calls(monkeypatch, "_reachable")
        ran = {True: 0, False: 0}
        for _ in range(500):
            graph, text, start, eligible = _random_case(rng)
            starts = sum(enumerate_rows(graph, parsed(f"MATCH (n{start}) RETURN n")).values())
            bfs.clear()
            table, _ = execute(parsed(text), graph)
            assert as_bag(table) == enumerate_rows(graph, parsed(text)), text
            assert len(bfs) == (starts if eligible else 0), text
            ran[eligible] += 1
        assert min(ran.values()) > 100

    def test_reachability_rows_are_in_ascending_target_order(self):
        g = PropertyGraph()
        ids = [g.add_node("A", {"$uid": 100 + i}) for i in range(6)]
        for a, b in [(0, 5), (5, 1), (0, 3), (3, 2), (2, 4), (4, 0)]:
            g.add_relationship("f", ids[a], ids[b])
        table, _ = execute(parsed("MATCH (n {`$uid`: 100})-[:f*]->(m) RETURN DISTINCT m"), g)
        assert [m.id for (m,) in table.rows] == [ids[1], ids[2], ids[3], ids[4], ids[5]]

    def test_multi_segment_and_optional_shapes_keep_enumerating(self, monkeypatch, tree_graph):
        bfs = count_calls(monkeypatch, "_reachable")
        for text in [
            "MATCH (t {`$uid`: 16})-[:root]->(r)-[:left|right*0..]->(n) RETURN DISTINCT n",
            "OPTIONAL MATCH (n {`$uid`: 13})-[*]->(m) RETURN DISTINCT m",
            "MATCH (n {`$uid`: 13})-[*]->(m) WHERE m.value > 1 RETURN DISTINCT m",
            "MATCH (n {`$uid`: 13})-[*]->(m), (p {`$uid`: 11}) RETURN DISTINCT m",
        ]:
            table, _ = execute(parsed(text), tree_graph)
            assert as_bag(table) == enumerate_rows(tree_graph, parsed(text)), text
        assert bfs == []


class TestScaleGuards:
    @pytest.fixture(scope="class")
    def chain(self):
        g = PropertyGraph()
        previous = None
        for i in range(100_000):
            node = g.add_node("Cell", {"$uid": i + 1})
            if previous is not None:
                g.add_relationship("next", previous, node)
            previous = node
        return g

    def test_long_chain_count_needs_no_recursion(self, chain):
        query = parsed("MATCH (a {$1})-[:next*]->(m) RETURN count(m)", 1)
        table, _ = execute(query, chain)
        assert table.rows == [(99_999,)]

    def test_long_chain_distinct_targets(self, chain, monkeypatch):
        bfs = count_calls(monkeypatch, "_reachable")
        query = parsed("MATCH (a {$1})-[:next*]->(m) RETURN DISTINCT m", 1)
        table, _ = execute(query, chain)
        assert table.row_count == 99_999
        assert len(bfs) == 1

    def test_uid_lookup_checks_only_its_matches(self, chain, monkeypatch):
        checks = count_calls(monkeypatch, "_node_matches")
        query = parsed("MATCH (x {$1}) RETURN x", 50_000)
        table, _ = execute(query, chain)
        assert [x.id for (x,) in table.rows] == [49_999]
        assert len(checks) <= 2


class TestIndexAudit:
    def test_audit_after_writes(self):
        graph = build_tree_graph()
        for text in ["MATCH (n:`BinaryTree$Node`) RETURN count(n)", "MATCH (n {`$uid`: 13}) RETURN n"]:
            execute(parsed(text), graph)
        assert graph._by_label is not None and graph._by_uid is not None
        writes = [
            "CREATE (x:Extra {value: 9})-[:left]->(y:Extra {value: 10}) RETURN x",
            "MERGE (x:Extra {value: 11})-[:left]->(y:Extra {value: 12}) RETURN x",
            "MATCH (n:Extra) CREATE (n)-[:mark]->(m:Flag) RETURN m",
            "MERGE (x:Extra {value: 11})-[:left]->(y:Extra {value: 12}) RETURN x",
        ]
        for text in writes:
            _, graph = execute(parsed(text), graph)
            assert graph.audit() == [], text
        table, _ = execute(parsed("MATCH (n:Extra) RETURN count(n)"), graph)
        assert table.rows == [(4,)]
        assert graph.copy().audit() == []

    def test_audit_after_import_with_explicit_ids(self):
        source = build_tree_graph()
        bundle = export_csv(source)
        header, *rows = bundle.nodes.decode().splitlines()
        reordered = CsvBundle("\n".join([header, *reversed(rows)]).encode() + b"\n", bundle.relationships)
        graph = import_csv(reordered)
        assert [n.id for n in graph.nodes()] == [n.id for n in source.nodes()]
        table, _ = execute(parsed("MATCH (n {`$uid`: 12})-[:left]->(m) RETURN m.value"), graph)
        assert table.rows == [(1,)]
        assert [n.id for n in graph.nodes_with_label("Class")] == [0, 1]
        graph.add_node("Class", {"name": "Late", "$uid": 12}, node_id=99)
        assert graph.audit() == []
        assert [n.id for n in graph.nodes_with_uid(12)] == [3, 99]

    def test_explicit_lower_id_is_inserted_in_order(self):
        g = PropertyGraph()
        g.add_node("A", {"$uid": 1}, node_id=5)
        assert [n.id for n in g.nodes_with_label("A")] == [5]
        assert [n.id for n in g.nodes_with_uid(1)] == [5]
        g.add_node("A", {"$uid": 1}, node_id=2)
        assert [n.id for n in g.nodes()] == [2, 5]
        assert [n.id for n in g.nodes_with_label("A")] == [2, 5]
        assert [n.id for n in g.nodes_with_uid(1)] == [2, 5]
        assert g.audit() == []

    def test_audit_reports_stale_index_and_unordered_adjacency(self):
        g = PropertyGraph()
        a, b = g.add_node("A", {"$uid": 1}), g.add_node("A")
        g.add_relationship("f", a, b)
        g.add_relationship("g", a, b)
        assert list(g.nodes_with_uid(1))
        g.node(b).properties["$uid"] = 2  # in place, after the index was built
        g._out[a].reverse()
        problems = g.audit()
        assert any("$uid index entry 2" in p for p in problems)
        assert any(f"outgoing index of {a} is not in ascending" in p for p in problems)


class TestUidFields:
    def test_string_uid_field_is_rejected(self):
        program = 'class K { String $uid; K(String $uid) { this.$uid = $uid; } } K a = new K("x");'
        with pytest.raises(InvalidPropertyError):
            run_program(parse_program(program))

    def test_integer_uid_field_is_indexed(self):
        program = "class K { int $uid; K(int $uid) { this.$uid = $uid; } } K a = new K(7); K b = new K(8);"
        graph = run_program(parse_program(program))
        assert [n.label for n in graph.nodes_with_uid(8)] == ["K"]
        assert graph.audit() == []
