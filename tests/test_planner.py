"""The planner: $uid-pinned clauses first, the equality index for an
``equals`` probe, and paths matched from their last node.  Checked against
the brute-force oracle and the forward matcher, and by counting reversals."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from heapquery import QueryContext, property_graph, query_bounded, query_engine
from heapquery.property_graph import PropertyGraph
from heapquery.query_engine import cell_tag, execute
from heapquery.subgraph import ExtractionConfig, SnapshotGraph, extract

from bench.generate import BP_HOP, BP_LABEL, BP_PATHS, BP_UID, DAG_QUERY, INGEST_QUERY, LIST_QUERY

from .conftest import CONTAINS_KEY_QUERY, REPOK_QUERY, as_bag, build_tree_graph, expanded_queries
from .generators import build_hashmap_snapshot, random_graph
from .oracles import enumerate_rows, hashmap_contains, reference_extract

ARROWS = {"out": ("-", "->"), "in": ("<-", "-"), "both": ("-", "-")}
HOPS = ["", "*0..", "*1..3", "*"]


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


def record_shortcuts(monkeypatch) -> list:
    """(the MATCH clause, its ``_shortcut`` decision) for each call ``execute`` makes, in order."""
    calls = []
    original = query_engine._shortcut

    def recorded(clauses, i, items):
        calls.append((clauses[i], original(clauses, i, items)))
        return calls[-1][1]

    monkeypatch.setattr(query_engine, "_shortcut", recorded)
    return calls


def row_bag(rows: list[dict]) -> Counter:
    return Counter(tuple(sorted((name, cell_tag(value)) for name, value in row.items())) for row in rows)


def _segment(rng: random.Random) -> str:
    left, right = ARROWS[rng.choice(list(ARROWS))]
    return f"{left}[{rng.choice(['', ':f', ':f|g'])}{rng.choice(HOPS)}]{right}"


def _uid(rng: random.Random) -> str:
    return f"{{`$uid`: {rng.randint(100, 105)}}}"


def _random_case(rng: random.Random):
    """A random cyclic graph with in-place ``$uid``s and a query the planner runs.

    Returns (graph, aggregating query, the same MATCH/WHERE with a RETURN of
    every variable, whether the query binds a relationship variable, shape).
    The aggregate is ``count(*)`` or ``count(DISTINCT a)``; the latter lets a
    single variable-length segment use the reachability search.
    """
    graph = random_graph(rng, max_edges=9)
    for node in graph.nodes():
        if rng.random() < 0.6:
            node.properties["$uid"] = rng.randint(100, 104)  # repeats allowed
    if rng.random() < 0.3:  # a probe with no structural twin
        graph.add_node("A", {"v": 9, "$uid": rng.randint(100, 104)})
    start = _uid(rng) if rng.random() < 0.5 else f":{rng.choice('AB')}"
    seg, seg2 = _segment(rng), _segment(rng)
    shape = rng.choice(
        ["uid-ends", "label-uid", "probe", "probe-first", "bound-end", "named-before", "two-seg", "rel-var", "repeated"]
    )
    if shape == "uid-ends":
        match = f"MATCH (a {_uid(rng)}){seg}(b {_uid(rng)})"
    elif shape == "label-uid":
        match = f"MATCH (a{start}){seg}(b {_uid(rng)})"
    elif shape == "probe":
        match = f"MATCH (a{start}){seg}(b) MATCH (p {_uid(rng)}) WHERE equals(b, p)"
    elif shape == "probe-first":
        match = f"MATCH (p {_uid(rng)}) MATCH (a{start}){seg}(b){seg2}(c) WHERE equals(p, c)"
    elif shape == "bound-end":
        match = f"MATCH (b {_uid(rng)}) MATCH (a{start}){seg}(b)"
    elif shape == "named-before":  # b is not bound while the path is matched
        match = f"MATCH (a{start}){seg}(b) MATCH (b {_uid(rng)})"
    elif shape == "two-seg":
        match = f"MATCH (a{start}){seg}(b){seg2}(c {_uid(rng)})"
    elif shape == "rel-var":
        left, right = ARROWS[rng.choice(list(ARROWS))]
        match = f"MATCH (a{start}){left}[r:f]{right}(b){seg}(c {_uid(rng)})"
    elif rng.random() < 0.5:  # repeated: a closed walk counts only where the target was bound first
        match = f"MATCH (a {_uid(rng)}){seg}(b)-[:f]->(a)"
    else:
        match = f"MATCH (a{start})-[:f]->(b){seg}(a {_uid(rng)})"
    names = sorted({name for name in "abcpr" if f"({name}" in match or f"[{name}" in match})
    agg = f"{match} RETURN {rng.choice(['count(*)', 'count(DISTINCT a)'])}"
    rows = f"{match} RETURN {', '.join(names)}"
    return graph, agg, rows, "r" in names, shape


class TestAgainstOracle:
    def test_random_planned_queries_match_enumeration(self, monkeypatch):
        rng = random.Random(2718)
        reversals = count_calls(monkeypatch, "_reversed")
        bfs = count_calls(monkeypatch, "_reachable")
        returns = count_calls(monkeypatch, "_return_clause")  # (graph, clause, rows) per query
        reversed_shapes: Counter = Counter()
        shapes: Counter = Counter()
        reversed_bfs = 0
        for _ in range(500):
            graph, agg, rows, has_rel_var, shape = _random_case(rng)
            reversals.clear()
            bfs.clear()
            table, _ = execute(parsed(agg), graph)
            assert as_bag(table) == enumerate_rows(graph, parsed(agg)), agg
            planned_rows = row_bag(returns[-1][2])
            forward, _ = execute(parsed(rows), graph)
            forward_rows = row_bag(returns[-1][2])
            if "DISTINCT" in agg:  # the reachability search drops duplicate rows
                assert planned_rows.keys() == forward_rows.keys(), agg
            else:
                assert planned_rows == forward_rows, agg
            reversed_bfs += bool(reversals and bfs)
            if not has_rel_var:
                assert as_bag(forward) == enumerate_rows(graph, parsed(rows)), rows
            if shape == "repeated":
                assert reversals == [], agg
            shapes[shape] += 1
            reversed_shapes[shape] += bool(reversals)
        assert min(shapes.values()) > 35
        assert reversed_bfs > 0
        for shape in ("uid-ends", "label-uid", "probe", "bound-end", "two-seg", "rel-var"):
            assert reversed_shapes[shape] > 0, shape

    def test_label_start_with_uid_end_is_matched_backwards(self, monkeypatch):
        rng = random.Random(99)
        reversals = count_calls(monkeypatch, "_reversed")
        bfs = count_calls(monkeypatch, "_reachable")
        for _ in range(200):
            graph = random_graph(rng, max_edges=9)
            for node in graph.nodes():
                node.properties["$uid"] = rng.randint(100, 104)
            count = rng.choice(["count(a)", "count(DISTINCT a)"])
            text = f"MATCH (a:{rng.choice('AB')}){_segment(rng)}(b {_uid(rng)}) RETURN {count}"
            reversals.clear()
            table, _ = execute(parsed(text), graph)
            assert as_bag(table) == enumerate_rows(graph, parsed(text)), text
            assert len(reversals) == 1, text
        assert len(bfs) > 20  # reachability searches from the $uid end

    def test_closed_walk_through_a_bound_anchor_is_kept(self):
        g = PropertyGraph()
        a = g.add_node("A", {"$uid": 1})
        b = g.add_node("A", {"$uid": 2})
        g.add_relationship("f", a, b)
        g.add_relationship("f", b, a)
        for text in [
            "MATCH (m {`$uid`: 1}) MATCH (n:A)-[:f*]->(m) RETURN count(n)",  # n = m through the cycle
            "MATCH (n:A)-[:f*]->(m {`$uid`: 1}) RETURN count(n)",  # m fresh: n = m excluded
            "MATCH (m {`$uid`: 1}) MATCH (n {`$uid`: 1})-[:f*]->(m) RETURN count(n)",
        ]:
            table, _ = execute(parsed(text), g)
            assert as_bag(table) == enumerate_rows(g, parsed(text)), text
        table, _ = execute(parsed("MATCH (m {`$uid`: 1}) MATCH (n:A)-[:f*]->(m) RETURN count(n)"), g)
        assert table.rows == [(2,)]

    def test_closed_walk_to_a_repeated_variable_is_kept(self):
        g = PropertyGraph()
        a = g.add_node("A", {"$uid": 1})
        c = g.add_node("C")
        for start, end in [(a, a), (a, c), (c, a)]:
            g.add_relationship("f", start, end)
        # b = a is kept: the segment's target a was bound at its start
        text = "MATCH (a:A)-[:f]->(b)-[:f*]->(a {`$uid`: 1}) RETURN count(b)"
        table, _ = execute(parsed(text), g)
        assert as_bag(table) == enumerate_rows(g, parsed(text))
        assert table.rows == [(3,)]


class TestWhereItRuns:
    @pytest.fixture
    def hashmap(self):
        snapshot, map_id, probe_id, present = build_hashmap_snapshot(random.Random(8), 300)
        assert hashmap_contains(snapshot, map_id, probe_id) == present
        return snapshot, map_id, probe_id, present

    def test_contains_key_is_matched_from_the_key(self, hashmap, monkeypatch):
        snapshot, map_id, probe_id, present = hashmap
        ctx = QueryContext(snapshot, cache_extractions=True)
        reversals = count_calls(monkeypatch, "_reversed")
        for _ in range(2):
            rs = query_bounded(ctx, [map_id, probe_id], CONTAINS_KEY_QUERY, map_id, probe_id)
            rs.next()
            assert rs.get(0) is present
        assert len(reversals) == 2

    def test_contains_key_on_every_key_of_a_filled_graph(self, monkeypatch):
        snapshot, map_id, _, _ = build_hashmap_snapshot(random.Random(9), 60)
        graph = extract(snapshot).fill()
        reversals = count_calls(monkeypatch, "_reversed")
        for key in [obj.id for obj in snapshot.objects if obj.cls == "app.Key"]:
            query = parsed(CONTAINS_KEY_QUERY, map_id, key)
            table, _ = execute(query, graph)
            assert table.rows == [(hashmap_contains(snapshot, map_id, key),)]
        assert len(reversals) == 61
        assert graph.audit() == []

    def test_reversal_on_an_unfilled_extraction_matches_the_oracle(self, monkeypatch):
        """Matching backwards fills a graph ``extract`` returns, and gives the enumeration's bag."""
        rng = random.Random(4243)
        reversals = count_calls(monkeypatch, "_reversed")
        probe = (
            "MATCH (h {$1})-[:table]->(t)-[:element]->(e)-[:next*0..]->(x)-[:key]->(k) "
            "MATCH (p {$2}) WHERE equals(k, p) RETURN "
        )
        key_end = "MATCH (e:`java.util.HashMap$Node`)-[:next*0..]->(x)-[:key]->(k {$1}) RETURN "
        for _ in range(25):
            snapshot, map_id, probe_id, _ = build_hashmap_snapshot(rng, rng.randint(1, 50))
            config = ExtractionConfig(root=[map_id, probe_id])
            reference = reference_extract(snapshot, config)
            keys = [obj.id for obj in snapshot.objects if obj.cls == "app.Key"]
            cases = [
                (probe + rng.choice(["count(k)", "count(DISTINCT e)", "count(*)"]), map_id, probe_id),
                (key_end + rng.choice(["count(e)", "count(DISTINCT x)"]), rng.choice(keys)),
            ]
            for fmt, *args in cases:
                graph = extract(snapshot, config)
                query = parsed(fmt, *args)
                reversals.clear()
                table, _ = execute(query, graph)
                assert len(reversals) == 1 and graph._filled, fmt
                assert as_bag(table) == enumerate_rows(reference, query), (fmt, args)

    def test_a_repeated_contains_key_on_a_default_context_builds_nothing(self, monkeypatch):
        snapshot, map_id, probe_id, present = build_hashmap_snapshot(random.Random(1), 2000)
        assert hashmap_contains(snapshot, map_id, probe_id) == present
        ctx = QueryContext(snapshot)
        args = ([map_id, probe_id], CONTAINS_KEY_QUERY, map_id, probe_id)
        assert query_bounded(ctx, *args).table.rows == [(present,)]
        built = []
        for name in ("fill", "_build_slot", "_build_object", "_build_tail", "_build_out"):
            original = getattr(SnapshotGraph, name)
            monkeypatch.setattr(SnapshotGraph, name, lambda *a, _o=original, _n=name: built.append(_n) or _o(*a))
        assert query_bounded(ctx, *args).table.rows == [(present,)]
        assert built == []

    @pytest.mark.parametrize(
        "text",
        [
            "MATCH (a:A)-[:f*]->(b {`$uid`: 1}) RETURN a",
            "MATCH (a:A)-[:f*]->(b {`$uid`: 1}) RETURN DISTINCT a",
            "OPTIONAL MATCH (a:A)-[:f*]->(b {`$uid`: 1}) RETURN count(a)",
            "MATCH (c {`$uid`: 2}) OPTIONAL MATCH (a:A)-[:f*]->(b {`$uid`: 1}) RETURN count(a)",
            "MATCH (a {`$uid`: 1})-[:f*]->(b)-[:f]->(a) RETURN count(b)",
            "MATCH (a:A)-[:f]->(b)-[:f*]->(a {`$uid`: 1}) RETURN count(b)",
            "MATCH (a:A) MATCH (b:A)-[:f*]->(a) MATCH (c {`$uid`: 1}) WHERE a.v > 0 MATCH (d) RETURN count(*)",
        ],
    )
    def test_no_reversal(self, text, monkeypatch):
        g = PropertyGraph()
        ids = [g.add_node("A", {"$uid": i, "v": i}) for i in range(1, 5)]
        for a, b in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]:
            g.add_relationship("f", ids[a], ids[b])
        reversals = count_calls(monkeypatch, "_reversed")
        table, _ = execute(parsed(text), g)
        if "OPTIONAL" not in text and "MATCH (d)" not in text:
            assert as_bag(table) == enumerate_rows(g, parsed(text)), text
        assert reversals == [], text

    def test_uid_end_order_is_kept_without_aggregation(self):
        g = PropertyGraph()
        ids = [g.add_node("A", {"$uid": i}) for i in range(5)]
        for a in range(1, 5):
            g.add_relationship("f", ids[a], ids[0])
        table, _ = execute(parsed("MATCH (a:A)-[:f]->(b {`$uid`: 0}) RETURN a"), g)
        assert [a.id for (a,) in table.rows] == ids[1:]

    def test_repok_stays_forward(self, monkeypatch, tree_graph):
        reversals = count_calls(monkeypatch, "_reversed")
        query = parsed(REPOK_QUERY, 16)
        table, _ = execute(query, tree_graph)
        assert table.rows == [(True,)]
        assert reversals == []

    def test_planned_clauses(self):
        def planned(query):
            return query_engine._planned(query, query_engine._summary(query.clauses[-1]))

        query = parsed(CONTAINS_KEY_QUERY, 1, 2)
        clauses, probe = planned(query)
        assert clauses == (query.clauses[1], query.clauses[0], *query.clauses[2:])
        assert probe == {"k": "p", "p": "k"}
        named_before = parsed("MATCH (a)-[:f]->(p) MATCH (p {`$uid`: 2}) RETURN count(*)")
        assert planned(named_before) == (named_before.clauses, {})
        not_aggregating = parsed("MATCH (a)-[:f]->(b) MATCH (p {`$uid`: 2}) WHERE equals(b, p) RETURN b")
        assert planned(not_aggregating) == (not_aggregating.clauses, None)


class TestBenchmarkShapes:
    """The planner's choices on the query shapes the benchmark runs."""

    @pytest.mark.parametrize(
        "fmt, args, decisions",
        [
            (LIST_QUERY, [1], ["count"]),
            (BP_LABEL, ["X"], ["count"]),
            (DAG_QUERY, [1], ["reach"]),
            (REPOK_QUERY, [1], [None, None]),
            (BP_PATHS, [1], [None]),
            (BP_HOP, [1], [None]),
            (BP_UID, [1], [None]),
            (INGEST_QUERY, ["Cell"], [None]),
        ],
    )
    def test_one_shortcut_decision_per_match(self, monkeypatch, tree_graph, fmt, args, decisions):
        calls = record_shortcuts(monkeypatch)
        execute(parsed(fmt, *args), tree_graph)
        assert [decision for _, decision in calls] == decisions

    def test_contains_key_runs_the_probe_first_and_matches_backwards_from_the_key(self, monkeypatch):
        snapshot, map_id, _, _ = build_hashmap_snapshot(random.Random(5), 30)
        graph = extract(snapshot).fill()
        key = next(obj.id for obj in snapshot.objects if obj.cls == "app.Key")
        query = parsed(CONTAINS_KEY_QUERY, map_id, key)
        calls = record_shortcuts(monkeypatch)
        reversals = count_calls(monkeypatch, "_reversed")
        probed, equal_nodes = [], graph.equal_nodes
        monkeypatch.setattr(graph, "equal_nodes", lambda node_id: probed.append(node_id) or equal_nodes(node_id))
        table, _ = execute(query, graph)
        assert table.rows == [(hashmap_contains(snapshot, map_id, key),)]
        assert calls == [(query.clauses[1], None), (query.clauses[0], None)]  # (p {$2}) first
        assert [args[0] for args in reversals] == [query.clauses[0].patterns[0]]
        assert probed == [next(graph.nodes_with_uid(key)).id]  # k's candidates: the nodes equal to p


class TestEqualityIndex:
    def test_equal_nodes_and_structural_keys(self):
        g = PropertyGraph()
        a = g.add_node("K", {"val": 1, "$uid": 5})
        b = g.add_node("K", {"val": 1, "$uid": 6})
        c = g.add_node("K", {"val": 1.0})
        d = g.add_node("J", {"val": 1})
        assert g.equal_nodes(a) == [a, b]
        assert g.equal_nodes(c) == [c]
        assert g.equal_nodes(d) == [d]
        e = g.add_node("K", {"val": 1})
        assert g.equal_nodes(b) == [a, b, e]
        assert g.copy().equal_nodes(a) == [a, b, e]
        assert g.audit() == []

    def test_equals_computes_each_key_once(self, monkeypatch):
        g = PropertyGraph()
        g.add_node("K", {"val": 3, "$uid": 0})
        for i in range(50):
            g.add_node("K", {"val": i % 5})
        computed = []
        plain = property_graph.structural_key
        monkeypatch.setattr(property_graph, "structural_key", lambda node: computed.append(node.id) or plain(node))
        for _ in range(2):
            table, _ = execute(parsed("MATCH (p {`$uid`: 0}) MATCH (k:K) RETURN DISTINCT equals(k, p)"), g)
            assert sorted(v for (v,) in table.rows) == [False, True]
        assert sorted(computed) == list(range(51))

    def test_audit_after_writes_with_the_index_built(self):
        graph = build_tree_graph()
        text = (
            "MATCH (p {`$uid`: 12}) MATCH (t {`$uid`: 16})-[:root]->(r)-[:left|right*0..]->(n) "
            "WHERE equals(n, p) RETURN count(n)"
        )
        table, _ = execute(parsed(text), graph)
        assert table.rows == [(1,)]
        assert graph._by_structure
        writes = [
            "CREATE (x:`BinaryTree$Node` {value: 2})-[:left]->(y:Extra {value: 10}) RETURN x",
            "MATCH (n {`$uid`: 13}) CREATE (n)-[:right]->(m:`BinaryTree$Node` {value: 2}) RETURN m",
            "MERGE (x:`BinaryTree$Node` {value: 2})-[:left]->(y:Extra {value: 11}) RETURN x",
        ]
        for write in writes:
            _, graph = execute(parsed(write), graph)
            assert graph.audit() == [], write
            table, _ = execute(parsed(text), graph)
            assert as_bag(table) == enumerate_rows(graph, parsed(text)), write
        assert table.rows == [(2,)]
        assert graph.copy().audit() == []

    def test_index_built_before_the_fill_is_kept_by_writes(self):
        snapshot, map_id, probe_id, _ = build_hashmap_snapshot(random.Random(3), 40)
        graph = extract(snapshot, ExtractionConfig(root=[map_id, probe_id]))
        twins = graph.equal_nodes(next(graph.nodes_with_uid(probe_id)).id)  # built lazily
        assert not graph._filled
        _, graph = execute(parsed("CREATE (k:`app.Key` {val: -1}) RETURN k"), graph)
        assert graph.audit() == []
        assert graph.equal_nodes(twins[0]) == twins

    def test_audit_reports_a_stale_structural_key(self):
        g = PropertyGraph()
        a = g.add_node("K", {"val": 1})
        g.add_node("K", {"val": 1})
        assert len(g.equal_nodes(a)) == 2
        g.node(a).properties["val"] = 2  # in place, after the index was built
        problems = g.audit()
        assert any("'K' equality index" in p for p in problems)
        assert any(f"structural key of node {a}" in p for p in problems)
