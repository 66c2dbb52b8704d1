"""Counting a MATCH's rows from per-target multiplicities.

A query of one non-optional MATCH of one path and a RETURN whose only reads
of the rows are ``count(target)``, ``count(DISTINCT target)`` or ``count(*)``
builds no row.  A lone node counts its candidates once each.  An unbounded
out or in segment counts walks in topological order when the region it
reaches has no cycle, and enumerates paths otherwise.  Checked against the
brute-force oracle, tables and error classes, on DAGs with parallel edges,
on cyclic graphs and on snapshot extractions, with calls of the matcher's
``_bind`` and of the walk counter counted.
"""

from __future__ import annotations

import random
import time

import pytest

from heapquery import cypher_ast, query_engine
from heapquery.errors import ExecutionError
from heapquery.property_graph import PropertyGraph
from heapquery.query_engine import execute
from heapquery.subgraph import extract

from .conftest import as_bag
from .generators import random_graph, random_snapshot
from .oracles import enumerate_rows, reference_extract
from .test_planner import count_calls, parsed

ARROWS = {"out": ("-", "->"), "in": ("<-", "-")}
COUNTED_RETURNS = [
    "count(m)",
    "count(*)",
    "count(DISTINCT m), count(m)",
    "count(m) > 2 AND count(DISTINCT m) <= count(*)",
    "count(m) < 'a'",  # TypeMismatchError
    "NOT count(*)",  # TypeMismatchError
]


def outcome(run, graph: PropertyGraph, text: str):
    """The bag of rows ``run`` gives for ``text``, or the class of the error it raises."""
    try:
        return run(graph, parsed(text))
    except ExecutionError as error:
        return type(error)


def engine(graph: PropertyGraph, query):
    return as_bag(execute(query, graph)[0])


def random_dag(rng: random.Random, max_nodes: int = 8, max_edges: int = 12) -> PropertyGraph:
    """Nodes labeled A or B, most with a ``v``, each with ``$uid`` 100 + its index.

    Relationships, labeled f or g, go only from a lower to a higher index,
    up to two between a pair, so the graph has no cycle.
    """
    g = PropertyGraph()
    ids = []
    for i in range(rng.randint(2, max_nodes)):
        props = {"$uid": 100 + i}
        if rng.random() < 0.7:
            props["v"] = rng.randint(1, 3)
        ids.append(g.add_node(rng.choice("AB"), props))
    pairs: dict[tuple[int, int], int] = {}
    for _ in range(rng.randint(0, max_edges)):
        start, end = sorted(rng.sample(ids, 2))
        if pairs.get((start, end), 0) < 2:
            pairs[(start, end)] = pairs.get((start, end), 0) + 1
            g.add_relationship(rng.choice("fg"), start, end)
    return g


def random_segment(rng: random.Random) -> str:
    left, right = ARROWS[rng.choice(list(ARROWS))]
    return f"{left}[{rng.choice(['', ':f', ':f|g'])}{rng.choice(['*', '*0..', '*1..'])}]{right}"


def diamond(depth: int) -> PropertyGraph:
    """Levels that each split over ``a`` and ``b`` and join again; ``$uid`` 0 on the top node.

    From the top, ``-[:a|b*]->`` has 4 * (2 ** depth - 1) paths.
    """
    g = PropertyGraph()
    bottom = g.add_node("D", {"$uid": 0})
    for _ in range(depth):
        left, right, join = g.add_node("D"), g.add_node("D"), g.add_node("D")
        for start, end, label in [(bottom, left, "a"), (bottom, right, "b"), (left, join, "a"), (right, join, "b")]:
            g.add_relationship(label, start, end)
        bottom = join
    return g


class TestAgainstOracle:
    def test_random_dags_count_walks_without_rows(self, monkeypatch):
        rng = random.Random(2212)
        binds = count_calls(monkeypatch, "_bind")
        walks = count_calls(monkeypatch, "_walk_counts")
        starts = ["{`$uid`: %d}", ":A", ":B", ":A {v: 2}", ""]
        targets = ["", ":A", " {v: 2}", ":B {v: 1}"]
        errors = 0
        for _ in range(400):
            graph = random_dag(rng)
            start = rng.choice(starts).replace("%d", str(rng.randint(100, 108)))
            ret = rng.choice(COUNTED_RETURNS)
            text = f"MATCH (n{start}){random_segment(rng)}(m{rng.choice(targets)}) RETURN {ret}"
            binds.clear()
            walks.clear()
            expected = outcome(enumerate_rows, graph, text)
            assert outcome(engine, graph, text) == expected, text
            assert binds == [] and len(walks) == 1, text
            errors += isinstance(expected, type)
        assert errors > 20

    def test_distinct_only_counts_keep_the_search(self, monkeypatch):
        rng = random.Random(5)
        bfs = count_calls(monkeypatch, "_reachable")
        walks = count_calls(monkeypatch, "_walk_counts")
        for _ in range(100):
            graph = random_dag(rng)
            text = f"MATCH (n:{rng.choice('AB')}){random_segment(rng)}(m) RETURN count(DISTINCT m)"
            assert outcome(engine, graph, text) == outcome(enumerate_rows, graph, text), text
        assert walks == [] and len(bfs) > 100

    def test_random_cyclic_graphs_fall_back_to_enumeration(self, monkeypatch):
        rng = random.Random(77)
        binds = count_calls(monkeypatch, "_bind")
        fell_back = counted = 0
        for _ in range(300):
            graph = random_graph(rng, max_edges=8)
            start = rng.choice([":A", ":B", ""])
            text = f"MATCH (n{start}){random_segment(rng)}(m{rng.choice(['', ':A'])}) RETURN {rng.choice(COUNTED_RETURNS)}"
            binds.clear()
            assert outcome(engine, graph, text) == outcome(enumerate_rows, graph, text), text
            fell_back += bool(binds)
            counted += not binds
        assert fell_back > 50 and counted > 50

    def test_label_starts_union_their_targets(self):
        g = PropertyGraph()
        a1, a2, b, c = g.add_node("A"), g.add_node("A"), g.add_node("B"), g.add_node("C")
        for start, end in [(a1, b), (a2, b), (a2, b), (b, c), (a1, a2)]:
            g.add_relationship("f", start, end)
        # from a1: a2, b (twice via a2, once direct), c (three times); from a2: b twice, c twice
        for ret, row in [("count(m)", (11,)), ("count(DISTINCT m)", (3,)), ("count(DISTINCT m), count(*)", (3, 11))]:
            text = f"MATCH (n:A)-[:f*]->(m) RETURN {ret}"
            table, _ = execute(parsed(text), g)
            assert table.rows == [row] and as_bag(table) == enumerate_rows(g, parsed(text)), text
        text = "MATCH (n:A)-[:f*0..]->(m) RETURN count(m), count(DISTINCT m)"
        assert execute(parsed(text), g)[0].rows == [(13, 4)]


class TestStartCounts:
    """``count(n)`` of the start is the number of rows: the sum of the multiplicities."""

    def test_random_dags_count_the_start_without_rows(self, monkeypatch):
        rng = random.Random(2301)
        binds = count_calls(monkeypatch, "_bind")
        walks = count_calls(monkeypatch, "_walk_counts")
        returns = ["count(n)", "count(n), count(DISTINCT m)", "count(n) = count(*) AND count(n) >= count(m)"]
        for _ in range(200):
            graph = random_dag(rng)
            start = rng.choice([":A", ":B", " {v: 2}", ""])
            text = f"MATCH (n{start}){random_segment(rng)}(m{rng.choice(['', ':A'])}) RETURN {rng.choice(returns)}"
            binds.clear()
            walks.clear()
            assert outcome(engine, graph, text) == outcome(enumerate_rows, graph, text), text
            assert binds == [] and len(walks) == 1, text

    def test_distinct_start_counts_keep_their_paths(self, monkeypatch):
        """``count(DISTINCT n)`` alone keeps the search; beside a count of the target, enumeration."""
        rng = random.Random(2302)
        binds = count_calls(monkeypatch, "_bind")
        bfs = count_calls(monkeypatch, "_reachable")
        walks = count_calls(monkeypatch, "_walk_counts")
        searched = enumerated = 0
        for _ in range(100):
            graph = random_dag(rng)
            segment = random_segment(rng)
            for ret in ["count(DISTINCT n)", "count(DISTINCT n), count(m)"]:
                text = f"MATCH (n:{rng.choice('AB')}){segment}(m) RETURN {ret}"
                bfs.clear()
                binds.clear()
                assert outcome(engine, graph, text) == outcome(enumerate_rows, graph, text), text
                searched += bool(bfs)
                enumerated += bool(binds) and not bfs
        assert walks == [] and searched > 50 and enumerated > 50

    def test_diamond_start_count_equals_the_row_count(self, monkeypatch):
        binds = count_calls(monkeypatch, "_bind")
        g = diamond(12)
        counts = [
            execute(parsed(f"MATCH (n {{`$uid`: 0}})-[:a|b*]->(m) RETURN {count}"), g)[0].rows
            for count in ["count(n)", "count(*)"]
        ]
        assert counts == [[(4 * (2**12 - 1),)]] * 2
        assert binds == []
        text = "MATCH (n {`$uid`: 0})-[:a|b*]->(m) RETURN count(n)"
        small = diamond(3)
        assert engine(small, parsed(text)) == enumerate_rows(small, parsed(text))


class TestLoneNodes:
    QUERIES = [
        "MATCH (n:A) RETURN count(n)",
        "MATCH (n:A {v: 2}) RETURN count(DISTINCT n), count(*)",
        "MATCH (n {`$uid`: %d}) RETURN count(*)",
        "MATCH (n) RETURN count(n) > 3",
        "MATCH (n:B) RETURN count(n) < 'a'",
    ]

    def test_property_graphs(self, monkeypatch):
        rng = random.Random(31)
        binds = count_calls(monkeypatch, "_bind")
        for _ in range(150):
            graph = random_graph(rng)
            for node in graph.nodes():
                node.properties["$uid"] = rng.randint(1, 4)  # repeats allowed
            text = rng.choice(self.QUERIES).replace("%d", str(rng.randint(1, 5)))
            assert outcome(engine, graph, text) == outcome(enumerate_rows, graph, text), text
        assert binds == []

    def test_snapshot_graphs(self, monkeypatch):
        rng = random.Random(32)
        binds = count_calls(monkeypatch, "_bind")
        for _ in range(150):
            snapshot = random_snapshot(rng, max_objects=8)
            cls = rng.choice(snapshot.classes).name
            text = rng.choice(
                [
                    f"MATCH (n:`{cls}`) RETURN count(n)",
                    f"MATCH (n:`{cls}` {{p0: {rng.randint(0, 9)}}}) RETURN count(DISTINCT n), count(*)",
                    f"MATCH (n {{`$uid`: {rng.randint(1, 9)}}}) RETURN count(n)",
                    f"MATCH (n {{`$uid`: {rng.randint(1, 9)}}})-[:ref0|ref1*]->(m) RETURN count(m), count(*)",
                    f"MATCH (n:`{cls}`)<-[:ref0*0..]-(m:`{cls}`) RETURN count(m)",
                ]
            )
            graph = extract(snapshot)
            binds.clear()
            assert outcome(engine, graph, text) == outcome(enumerate_rows, reference_extract(snapshot), text), text
            if "-" not in text:
                assert binds == [], text
                if "{" not in text:
                    assert graph._nodes == {}  # a bare label builds no node


class TestReturnItems:
    @pytest.mark.parametrize(
        "text, items",
        [
            ("MATCH (n:D)-[:a*]->(m) RETURN count(m), count(DISTINCT m) > 1", 2),  # counted
            ("MATCH (n:D)-[:a*]->(m) RETURN count(DISTINCT m)", 1),  # the search
            ("MATCH (n {`$uid`: 0})-[:a*1..2]->(m) RETURN count(m) = n.v", 1),  # planned, enumerated
            ("MATCH (n:D) MATCH (n)-[:b]->(m) RETURN n, m.v", 2),  # not aggregating
        ],
    )
    def test_each_item_is_walked_once_per_execute(self, monkeypatch, text, items):
        g = diamond(2)
        query = parsed(text)
        walks = []
        original = cypher_ast.walk

        def walk(*args):
            walks.append(args)
            return original(*args)

        monkeypatch.setattr(cypher_ast, "walk", walk)  # under find_counts too
        monkeypatch.setattr(query_engine, "walk", walk)
        table, _ = execute(query, g)
        assert len(walks) == items
        assert as_bag(table) == enumerate_rows(g, query)


class TestShapes:
    def test_cycle_added_after_a_first_probe_falls_back(self, monkeypatch):
        g = PropertyGraph()
        a, b, c = (g.add_node("A", {"$uid": i}) for i in range(3))
        g.add_relationship("f", a, b)
        g.add_relationship("f", b, c)
        binds = count_calls(monkeypatch, "_bind")
        text = "MATCH (n {`$uid`: 0})-[:f*]->(m) RETURN count(m)"
        assert execute(parsed(text), g)[0].rows == [(2,)] and binds == []
        g.add_relationship("f", c, b)  # b -> c -> b: the trail a, b, c, b is a third row
        table, _ = execute(parsed(text), g)
        assert table.rows == [(3,)] and as_bag(table) == enumerate_rows(g, parsed(text))
        assert binds

    def test_self_loop_falls_back(self, monkeypatch):
        g = PropertyGraph()
        a, b = g.add_node("A"), g.add_node("A")
        g.add_relationship("f", a, b)
        g.add_relationship("f", b, b)
        binds = count_calls(monkeypatch, "_bind")
        text = "MATCH (n:A)-[:f*]->(m) RETURN count(m)"
        table, _ = execute(parsed(text), g)
        # a-b and a-b-b; b-b ends where it starts
        assert table.rows == [(2,)] and as_bag(table) == enumerate_rows(g, parsed(text))
        assert binds

    @pytest.mark.parametrize(
        "text",
        [
            "MATCH (n:D)-[:a*1..3]->(m) RETURN count(m)",  # bounded
            "MATCH (n:D)-[:a*2..]->(m) RETURN count(m)",  # two lower hops
            "MATCH (n:D)-[:a*]-(m) RETURN count(m)",  # both directions
            "MATCH (n:D)-[:a*]->(m) RETURN count(DISTINCT n), count(m)",  # counts distinct starts
            "MATCH (n:D)-[:a*]->(m {`$uid`: 0}) RETURN count(m)",  # the planner starts from the target
            "MATCH (n:D)-[:a*]->(m) RETURN count(m) = n.v",  # reads a row outside a count
            "MATCH (n:D)-[:a*]->() RETURN count(n.v)",  # counts a property
            "MATCH (n:D)-[:a]->(m)-[:b*]->(o) RETURN count(o)",  # two segments
            "OPTIONAL MATCH (n:D)-[:a*]->(m) RETURN count(m)",
            "MATCH (n:D)-[:a*]->(m) WHERE m.v = 1 RETURN count(m)",
        ],
    )
    def test_other_shapes_enumerate(self, monkeypatch, text):
        g = diamond(3)
        walks = count_calls(monkeypatch, "_walk_counts")
        table, _ = execute(parsed(text), g)
        assert as_bag(table) == enumerate_rows(g, parsed(text))
        assert walks == []

    def test_depth_30_diamond(self, monkeypatch):
        g = diamond(30)
        binds = count_calls(monkeypatch, "_bind")
        started = time.perf_counter()
        table, _ = execute(parsed("MATCH (n {`$uid`: 0})-[:a|b*]->(m) RETURN count(m)"), g)
        assert time.perf_counter() - started < 1.0  # enumerating its paths would take hours
        assert table.rows == [(4 * (2**30 - 1),)] == [(4_294_967_292,)]
        assert binds == []
        text = "MATCH (n:D)<-[:a|b*0..]-(m) RETURN count(DISTINCT m), count(*)"
        assert execute(parsed(text), g)[0].rows[0][0] == g.node_count
        assert binds == []

