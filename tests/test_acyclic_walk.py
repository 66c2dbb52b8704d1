"""The bare walk of a last unbounded segment over a region with no cycle.

A last segment that is unbounded, out or in, with a lower bound of 0 or 1,
no relationship variable and no return to its start, and that shares no
relationship type with another segment of its path, is matched by
``query_engine._walk``: a preorder walk that tracks no relationship.  A step
onto a node of the walk it is on closes a cycle; the walk then stops and the
generic loop runs from that start, keeping none of the walk's rows.

The rows must be the generic loop's, in its order: checked with the plan's
``walk`` field switched off, and as a bag against the brute-force oracle, on
forests, diamonds, DAGs, graphs whose cycle is met last, self-loops and
random multigraphs.
"""

from __future__ import annotations

import random

import pytest

from heapquery import query_engine
from heapquery.property_graph import PropertyGraph
from heapquery.query_engine import NodeRef, execute, prepare

from .conftest import REPOK_QUERY, UID, as_bag, build_tree_graph
from .generators import random_graph
from .oracles import enumerate_rows
from .test_counted_paths import random_dag
from .test_planner import parsed

SEGMENTS = ["-[:f*]->", "-[:f*0..]->", "-[:f*1..]->", "<-[:f*]-", "<-[:f*0..]-", "-[:f|g*]->", "-[*1..]->"]
TARGETS = ["", ":A", ":B {v: 1}", " {v: 2}"]


def _query(rng: random.Random) -> str:
    """A query whose last segment the walk may match, or one that shares its types and may not."""
    seg, target = rng.choice(SEGMENTS), rng.choice(TARGETS)
    start = rng.choice(["", ":A", " {v: 1}"])
    shape = rng.choice(["fresh", "anonymous", "bound", "repeated", "after-hop", "optional", "shared"])
    if shape == "fresh":
        return f"MATCH (s{start}){seg}(x{target}) RETURN s, x"
    if shape == "anonymous":
        return f"MATCH (s{start}){seg}({target}) RETURN s"
    if shape == "bound":
        return f"MATCH (x{target}) MATCH (s{start}){seg}(x) RETURN s, x"
    if shape == "repeated":  # the target is the path's first node
        return f"MATCH (x{target})-[:g]->(s){seg}(x) RETURN s, x"
    if shape == "after-hop":
        return f"MATCH (t{start})<-[:g]-(s){seg}(x{target}) RETURN t, s, x"
    if shape == "optional":
        return f"MATCH (s:A) OPTIONAL MATCH (s){seg}(x{target}) RETURN s, x"
    return f"MATCH (a{start})-[:f]->(b)-[:g]->(c){seg}(x{target}) RETURN a, c, x"


def _forest(rng: random.Random) -> PropertyGraph:
    """Each node but the roots has one parent of a lower index."""
    g = PropertyGraph()
    ids = []
    for i in range(rng.randint(2, 9)):
        ids.append(g.add_node(rng.choice("AB"), {"v": rng.randint(1, 3)} if rng.random() < 0.7 else {}))
        if i and rng.random() < 0.8:
            g.add_relationship(rng.choice("fg"), rng.choice(ids[:-1]), ids[-1])
    return g


def _diamonds(rng: random.Random) -> PropertyGraph:
    """Layers of one or two nodes, each node joined to every node of the next layer, some twice."""
    g = PropertyGraph()
    layers = [[g.add_node(rng.choice("AB"), {"v": rng.randint(1, 3)}) for _ in range(rng.randint(1, 2))]]
    for _ in range(rng.randint(1, 4)):
        layers.append([g.add_node(rng.choice("AB"), {"v": rng.randint(1, 3)}) for _ in range(rng.randint(1, 2))])
        for start in layers[-2]:
            for end in layers[-1]:
                for _ in range(rng.choice([1, 1, 2])):
                    g.add_relationship(rng.choice("fg"), start, end)
    return g


def _cycle_last(rng: random.Random) -> PropertyGraph:
    """A forest or diamonds with one more relationship, from the last node: a cycle the walk meets last, or a self-loop."""
    g = rng.choice([_forest, _diamonds])(rng)
    last = g.node_count - 1
    g.add_relationship(rng.choice("fg"), last, rng.choice([0, last, rng.randrange(g.node_count)]))
    return g


GRAPHS = [_forest, _diamonds, random_dag, _cycle_last, random_graph]


def generic(monkeypatch):
    """Plans made while this is on leave every ``walk`` unset, so the generic loop matches every segment."""
    monkeypatch.setattr(query_engine, "_walked", lambda segments, path, bound: tuple(segments))


def walk_results(monkeypatch) -> list:
    """The results of every ``_walk`` call: rows, or None for a walk that stopped at a cycle."""
    results = []
    real = query_engine._walk

    def recorded(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(query_engine, "_walk", recorded)
    return results


class TestWalkMatchesTheLoop:
    def test_random_regions_give_the_loops_rows_in_its_order(self, monkeypatch):
        rng = random.Random(3030)
        walks = walk_results(monkeypatch)
        for i in range(600):
            graph = GRAPHS[i % len(GRAPHS)](rng)
            text = _query(rng)
            with monkeypatch.context() as m:
                generic(m)
                expected, _ = execute(parsed(text), graph.copy())  # a copy shares no kept adjacency
            table, _ = execute(parsed(text), graph)
            assert table.rows == expected.rows, text
            assert as_bag(table) == enumerate_rows(graph, parsed(text)), text
        walked = [rows for rows in walks if rows is not None]
        assert len(walked) > 1000 and sum(map(len, walked)) > 800
        assert sum(rows is None for rows in walks) > 150  # cycles: the loop ran instead

    def test_a_cycle_met_last_keeps_none_of_the_walks_rows(self, monkeypatch):
        g = PropertyGraph()
        ids = [g.add_node("N", {"v": i}) for i in range(6)]
        for start, end in zip(ids, ids[1:]):
            g.add_relationship("next", start, end)
        g.add_relationship("next", ids[-1], ids[-2])  # the walk's last step
        walks = walk_results(monkeypatch)
        text = f"MATCH (s {{v: 0}})-[:next*0..]->(x) RETURN x.v"
        table, _ = execute(parsed(text), g)
        assert walks == [None]
        assert [row[0] for row in table.rows] == [0, 1, 2, 3, 4, 5, 4]
        assert as_bag(table) == enumerate_rows(g, parsed(text))

    def test_self_loop_falls_back(self, monkeypatch):
        g = PropertyGraph()
        a, b = g.add_node("A"), g.add_node("B")
        g.add_relationship("f", a, b)
        g.add_relationship("f", b, b)
        walks = walk_results(monkeypatch)
        table, _ = execute(parsed("MATCH (s:A)-[:f*1..]->(x) RETURN x"), g)
        assert walks == [None]
        assert table.rows == [(NodeRef(b),), (NodeRef(b),)]

    def test_each_start_walks_or_falls_back_on_its_own(self, monkeypatch):
        g = PropertyGraph()
        a, b, c, d = (g.add_node("A") for _ in range(4))
        g.add_relationship("f", a, b)
        g.add_relationship("f", c, d)
        g.add_relationship("f", d, c)  # only c and d reach a cycle
        walks = walk_results(monkeypatch)
        table, _ = execute(parsed("MATCH (s)-[:f*]->(x) RETURN s, x"), g)
        assert [rows is None for rows in walks] == [False, False, True, True]
        expected = [(a, b), (c, d), (d, c)]  # a fresh target does not count a walk back to its start
        assert table.rows == [(NodeRef(s), NodeRef(x)) for s, x in expected]

    def test_long_list_deeper_than_the_recursion_limit(self, monkeypatch):
        g = PropertyGraph()
        ids = [g.add_node("N", {"$uid": i}) for i in range(3000)]
        for start, end in zip(ids, ids[1:]):
            g.add_relationship("next", start, end)
        walks = walk_results(monkeypatch)
        table, _ = execute(parsed("MATCH (n {`$uid`: 0})-[:next*]->(m) RETURN m"), g)
        assert [row[0].id for row in table.rows] == ids[1:]
        g.add_relationship("next", ids[-1], ids[0])
        table, _ = execute(parsed("MATCH (n {`$uid`: 0})-[:next*]->(m) RETURN m"), g)
        assert [row[0].id for row in table.rows] == ids[1:]  # the walk back to the start does not count
        assert [rows is None for rows in walks] == [False, True]


class TestWhichSegmentsWalk:
    @staticmethod
    def walks(text: str) -> list:
        """Per MATCH path of ``text`` with a relationship, its last segment's ``walk``."""
        plan = prepare(parsed(text))
        return [
            forward.segments[-1].walk
            for _, step in plan.steps
            if isinstance(step, query_engine._Match)
            for forward, _ in step.paths
            if forward.segments
        ]

    @pytest.mark.parametrize(
        "text, walk",
        [
            ("MATCH (s)-[:f*]->(x) RETURN x", "fresh"),
            ("MATCH (s)<-[*0..]-(x:A {v: 1}) RETURN x", "fresh"),
            ("MATCH (s)-[:f*1..]->() RETURN s", "anonymous"),
            ("MATCH (x) MATCH (s)-[:f*]->(x) RETURN x", "bound"),
            ("MATCH (x)-[:g]->(s)-[:f*]->(x) RETURN x", "bound"),
            ("MATCH (s)-[:g]->(t)-[:f*]->(x) RETURN x", "fresh"),
            ("MATCH (s)-[:f*1..3]->(x) RETURN x", None),  # bounded
            ("MATCH (s)-[:f*2..]->(x) RETURN x", None),  # lower bound above 1
            ("MATCH (s)-[:f*]-(x) RETURN x", None),  # both directions
            ("MATCH (s)-[:f*]->(s) RETURN s", None),  # must return to its start
            ("MATCH (s)-[:f*]->(x)-[:g]->(y) RETURN y", None),  # not the last segment
            ("MATCH (s)-[r:f]->(x) RETURN x", None),  # a single hop
            ("MATCH (s)-[*]->(t)-[:g]->(x) RETURN x", None),
            ("MATCH (s)-[:g]->(t)-[*]->(x) RETURN x", None),  # any type shares g
            ("MATCH (s)-[:f|g]->(t)-[:g*]->(x) RETURN x", None),
            ("MATCH (a)-[:f]->(b)-[:g]->(c)-[:f*]->(x) RETURN x", None),  # could step the first f again
        ],
    )
    def test_plan(self, text, walk):
        assert self.walks(text) == [walk]

    def test_a_shared_type_keeps_the_first_relationship_out_of_the_walk(self, monkeypatch):
        g = PropertyGraph()
        a, b, c = (g.add_node("A") for _ in range(3))
        g.add_relationship("f", a, b)
        g.add_relationship("g", b, c)
        g.add_relationship("f", c, a)  # c -[:f*]-> a -[:f]-> b ...: the first f is not stepped again
        walks = walk_results(monkeypatch)
        text = "MATCH (a)-[:f]->(b)-[:g]->(c)-[:f*]->(x) RETURN a, c, x"
        table, _ = execute(parsed(text), g)
        assert walks == []
        assert table.rows == [(NodeRef(a), NodeRef(c), NodeRef(a))]
        assert as_bag(table) == enumerate_rows(g, parsed(text))

    def test_repok_takes_the_walk_and_a_bounded_segment_does_not(self, monkeypatch):
        text = REPOK_QUERY.replace("{$1}", f"{{`$uid`: {UID['f']}}}")
        assert self.walks(text) == ["fresh", None]  # the OPTIONAL MATCH must return to its start
        walks = walk_results(monkeypatch)
        table, _ = execute(parsed(text), build_tree_graph())
        assert table.rows == [(True,)]
        assert len(walks) == 1 and len(walks[0]) == 5  # the five tree nodes, from the root
        walks.clear()
        table, _ = execute(parsed(f"MATCH (n {{`$uid`: {UID['c']}}})-[:left|right*1..3]->(m) RETURN m"), build_tree_graph())
        assert len(table.rows) == 4 and walks == []

    def test_a_path_matched_backwards_walks_to_its_first_node(self, monkeypatch):
        rng = random.Random(7)
        walks = walk_results(monkeypatch)
        # The planner matches each from m; only a segment last in that order walks.
        texts = [
            "MATCH (n:A)-[:f*]->(m {`$uid`: 102}) RETURN count(n)",
            "MATCH (n:A)-[:f*]->(k)-[:g]->(m {`$uid`: 102}) RETURN count(n)",
            "MATCH (n:A)-[:g]->(k)-[:f*]->(m {`$uid`: 102}) RETURN count(n)",
        ]
        for _ in range(50):
            graph = random_dag(rng)
            for text in texts:
                table, _ = execute(parsed(text), graph)
                assert as_bag(table) == enumerate_rows(graph, parsed(text)), text
        assert walks and all(rows is not None for rows in walks)
        assert [self.walks(text) for text in texts] == [["fresh"], [None], ["fresh"]]  # as matched forward
