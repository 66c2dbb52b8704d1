"""Path shapes the plain random differential never draws, against the brute-force oracle.

``generators.random_path_query`` draws anonymous path ends, node variables
repeated in a path or bound by an earlier MATCH, single hops with a
relationship variable, bound or not, ``*0..``, ``*2..`` and ``*2`` hops, and
OPTIONAL MATCH.  The engine must give the oracle's bag of rows, or raise the
oracle's error class.  The matcher steps every segment in one loop, a single
hop being the segment ``1..1``: its closed walk always counts, and a
variable-length one counts only when its target's variable is bound on entry
or earlier in the path.
"""

from __future__ import annotations

import random
from collections import Counter

from heapquery.cypher_ast import HOPS_ONE, Hops, MatchClause
from heapquery.cypher_frontend import validate
from heapquery.errors import ExecutionError
from heapquery.property_graph import PropertyGraph
from heapquery.query_engine import NodeRef, RelRef, execute

from .generators import random_graph, random_path_query
from .oracles import enumerate_rows
from .printer import query_text
from .test_counted_paths import engine
from .test_planner import count_calls, parsed


def outcome(run, graph: PropertyGraph, query):
    """The bag of rows ``run`` gives for ``query``, or the class of the error it raises."""
    try:
        return run(graph, query)
    except ExecutionError as error:
        return type(error)


HOP_SHAPES = {
    HOPS_ONE: "single hop",
    Hops("range", 0, None): "*0..",
    Hops("range", 2, None): "*2..",
    Hops("exact", 2, 2): "*2",
}


def shapes(query) -> set[str]:
    """The shapes of ``random_path_query``'s docstring that ``query`` draws."""
    found, named = set(), set()
    for clause in query.clauses:
        if not isinstance(clause, MatchClause):
            continue
        (path,) = clause.patterns
        names = [node.var for node in path.nodes]
        variables = [name for name in names if name]
        rel_variables = [rel.var for rel in path.rels if rel.var]
        found.update(
            shape
            for shape, drawn in [
                ("OPTIONAL MATCH", clause.optional),
                ("anonymous end", path.rels and None in (names[0], names[-1])),
                ("repeated in a path", len(set(variables)) < len(variables)),
                ("bound by an earlier MATCH", named.intersection(variables)),
                ("relationship variable", set(rel_variables) - named),
                ("bound relationship variable", named.intersection(rel_variables)),
            ]
            if drawn
        )
        found.update(HOP_SHAPES.get(rel.hops, "other hops") for rel in path.rels)
        named.update(variables + rel_variables)
    return found


class TestAgainstOracle:
    def test_random_path_shapes_match_bruteforce(self):
        rng = random.Random(2401)
        drawn = Counter()
        for _ in range(1000):
            graph = random_graph(rng, max_nodes=6, max_edges=8)
            query = random_path_query(rng)
            assert validate(query) == [], query_text(query)
            expected = outcome(enumerate_rows, graph, query)
            assert outcome(engine, graph, query) == expected, query_text(query)
            drawn.update(shapes(query) | ({"raised"} if isinstance(expected, type) else set()))
        assert len(drawn) == 12 and min(drawn.values()) >= 15, drawn


class TestClosedWalks:
    def test_an_anonymous_target_is_never_bound(self):
        g = PropertyGraph()
        a, b = g.add_node("A"), g.add_node("A")
        g.add_relationship("f", a, b)
        g.add_relationship("f", b, a)
        # a -> b and b -> a; the walks back to their start count only for a named target
        for text, count in [
            ("MATCH ()-[*]->() RETURN count(*)", 2),
            ("MATCH (n)-[*]->() RETURN count(*)", 2),
            ("MATCH ()-[*]->()-[*0..]->() RETURN count(*)", 4),
            ("MATCH (n)-[*]->(n) RETURN count(*)", 2),
            ("MATCH (n)-[*]->(m)-[*]->(n) RETURN count(*)", 2),
        ]:
            assert execute(parsed(text), g)[0].rows == [(count,)], text
            assert engine(g, parsed(text)) == enumerate_rows(g, parsed(text)), text

    def test_a_single_hop_may_return_to_its_start(self):
        g = PropertyGraph()
        a = g.add_node("A")
        loop = g.add_relationship("f", a, a)
        table, _ = execute(parsed("MATCH (n)-[r]->(m) RETURN n, r, m"), g)
        assert table.rows == [(NodeRef(a), RelRef(loop), NodeRef(a))]
        # ``*1..1`` walks the same hop as a variable-length segment: its closed walk needs a bound target
        for text, count in [("MATCH ()-[]->() RETURN count(*)", 1), ("MATCH ()-[*1..1]->() RETURN count(*)", 0)]:
            assert execute(parsed(text), g)[0].rows == [(count,)], text


class TestStepping:
    def test_the_last_hop_of_a_segment_is_not_stepped_from(self, monkeypatch):
        g = PropertyGraph()
        chain = [g.add_node("A", {"$uid": uid}) for uid in range(5)]
        for start, end in zip(chain, chain[1:]):
            g.add_relationship("next", start, end)
        steps = count_calls(monkeypatch, "_steps")
        for hops, stepped in [("", 1), ("*1..2", 2), ("*2", 2), ("*0..3", 3)]:
            steps.clear()
            table, _ = execute(parsed(f"MATCH (a {{`$uid`: 0}})-[:next{hops}]->(b) RETURN b"), g)
            assert table.rows and [args[-1] for args in steps] == chain[:stepped], hops
