"""A template's plan: made once per kept template, and the same as each bound query's.

``prepare`` reads whether a node pattern has a ``$uid``, never the id, so
the plan of a template whose ``$k`` and ``[]k`` markers are still slots must
equal the plan of every query ``bind`` makes from it.  The pipeline relies on
that: a call of a kept template binds its ids and runs against the kept plan.
"""

from __future__ import annotations

import random
import re

from heapquery import api, query_engine, query_unbounded
from heapquery.api import QueryContext
from heapquery.cypher_ast import MatchClause, NodePattern, PathPattern, Query
from heapquery.cypher_frontend import (
    Marker,
    Slot,
    bind,
    check_arguments,
    expand_positional,
    parse,
    slot_sites,
    validate,
)
from heapquery.errors import QueryError
from heapquery.query_engine import prepare

from .conftest import UID
from .generators import random_path_query
from .test_planner import _random_case
from .test_positional import random_case

MARKERS = (Marker("$1", "$", 1), Marker("$2", "$", 2), Marker("[]3", "[]", 3))


def bound_queries(template: Query, args) -> list[Query]:
    return bind(template, slot_sites(template), check_arguments(MARKERS, args))


def assert_one_plan(template: Query, queries: list[Query]) -> None:
    plan = prepare(template)
    for query in queries:
        assert prepare(query) == plan, query


def with_slots(rng: random.Random, query: Query) -> Query:
    """``query`` with a ``$uid`` slot put into some of its MATCH node patterns."""
    clauses = []
    for clause in query.clauses:
        if isinstance(clause, MatchClause):
            paths = []
            for path in clause.patterns:
                nodes = tuple(
                    NodePattern(node.var, node.label, (("$uid", Slot(rng.choice(MARKERS).text)), *node.properties))
                    if rng.random() < 0.4
                    else node
                    for node in path.nodes
                )
                paths.append(PathPattern(nodes, path.rels))
            clause = MatchClause(tuple(paths), clause.optional)
        clauses.append(clause)
    return Query(tuple(clauses))


class TestPreparedOnce:
    def test_a_kept_template_is_prepared_once(self, tree_snapshot, monkeypatch):
        prepared = []
        original = query_engine.prepare

        def counted(query):
            prepared.append(query)
            return original(query)

        monkeypatch.setattr(api, "prepare", counted)
        monkeypatch.setattr(query_engine, "prepare", counted)
        ctx = QueryContext(tree_snapshot)
        fmt = "MATCH (n {$1})-[*0..]->(m {[]2}) RETURN n.value, m.value"
        first = query_unbounded(ctx, fmt, UID["a"], [UID["a"]])
        batch = query_unbounded(ctx, fmt, UID["b"], [UID["a"], UID["b"], UID["d"]])
        assert len(prepared) == 1
        assert first.row_count() == 1 and batch.row_count() == 2  # a is not below b
        assert query_unbounded(ctx, fmt, UID["b"], []).columns() == ["n.value", "m.value"]
        assert len(prepared) == 1


class TestTemplatePlanEqualsBoundPlans:
    def test_random_positional_templates(self):
        rng = random.Random(26)
        compared = 0
        for _ in range(3000):
            fmt, args = random_case(rng)
            try:
                tokens, _, arguments = expand_positional(fmt, args)
                template = parse(tokens, fmt)
            except QueryError:  # expansion or parse
                continue
            if validate(template):
                continue
            queries = bind(template, slot_sites(template), arguments)
            assert_one_plan(template, queries)
            compared += bool(slot_sites(template)) and len(queries)
        assert compared > 300

    def test_random_path_shapes_with_slots(self):
        rng = random.Random(2601)
        for _ in range(1000):
            template = with_slots(rng, random_path_query(rng))
            assert validate(template) == []
            ids = [rng.randint(0, 5) for _ in range(rng.randint(0, 3))]
            assert_one_plan(template, bound_queries(template, [rng.randint(0, 5), rng.randint(0, 5), ids]))

    def test_random_planned_queries_with_slots(self):
        """The planner's shapes: each ``$uid`` literal becomes a ``$1`` or ``$2`` slot."""
        rng = random.Random(2602)
        planned = 0
        for _ in range(500):
            _, agg, _, _, _ = _random_case(rng)
            fmt = re.sub(r"\{`\$uid`: \d+\}", lambda _: "{" + rng.choice(["$1", "$2"]) + "}", agg)
            tokens, _, arguments = expand_positional(fmt, [rng.randint(100, 105), rng.randint(100, 105)])
            template = parse(tokens, fmt)
            assert validate(template) == []
            assert_one_plan(template, bind(template, slot_sites(template), arguments))
            planned += prepare(template).probe is not None
        assert planned == 500
