"""A kept template: parsed and planned once, and run with its ids as parameters.

The pipeline runs the one parsed query of a template for every call, its
``$k`` ids, or each id of a ``[]k`` batch, passed to ``execute`` as
parameters against the plan ``prepare`` made once.  The reference puts each
id into the text as literal tokens and parses a query per id
(``conftest.expanded_queries``).  Both give the same table, or fail with the
same error class at the same stage.
"""

from __future__ import annotations

import random
import re

from heapquery import api, query_engine, query_unbounded
from heapquery.api import QueryContext
from heapquery.cypher_ast import MatchClause, NodePattern, PathPattern, Query, Slot
from heapquery.cypher_frontend import expand_positional, parse, validate
from heapquery.errors import HeapQueryError, QueryValidationError
from heapquery.query_engine import execute, execute_batch, prepare
from heapquery.subgraph import extract

from .conftest import UID, expanded_queries
from .generators import random_graph, random_path_query
from .printer import query_text
from .test_planner import _random_case
from .test_positional import random_case

MARKERS = ("$1", "$2", "[]3")

# The stage whose check raises each error class; any other class is raised by execution.
STAGE_OF = {
    "ExpansionError": "expand",
    "QuerySyntaxError": "parse",
    "UnsupportedFeatureError": "parse",
    "QueryValidationError": "validate",
}


def parameter_outcome(graph, fmt: str, args: list) -> tuple:
    """(columns, rows) of ``fmt``'s parsed query run with the ids of ``args`` as parameters, or (stage, error class)."""
    stage = "expand"
    try:
        tokens, _, arguments = expand_positional(fmt, args)
        stage = "parse"
        template = parse(tokens, fmt)
        stage = "validate"
        diagnostics = validate(template)
        if diagnostics:
            raise QueryValidationError(diagnostics)
        stage = "execute"
        plan = prepare(template)
        if arguments.batch is None:
            table, _ = execute(template, graph, plan, arguments.params)
        else:
            table, _ = execute_batch(template, graph, plan, arguments.batch)
    except HeapQueryError as exc:
        return stage, type(exc).__name__
    return table.columns, table.rows


def substituted_outcome(graph, fmt: str, args: list) -> tuple:
    """``parameter_outcome`` of the queries with the ids substituted as literal tokens, run one after another.

    An empty ``[]k`` batch substitutes no id, so a stand-in id checks the
    template, whose RETURN names the columns, as the pipeline does.
    """
    try:
        queries = expanded_queries(fmt, *args)
        if not queries:
            (query,) = expanded_queries(fmt, *([0] if arg == [] else arg for arg in args))
            return list(prepare(query).columns), []
        rows = []
        for query in queries:
            table, graph = execute(query, graph)
            rows += table.rows
    except HeapQueryError as exc:
        return STAGE_OF.get(type(exc).__name__, "execute"), type(exc).__name__
    return table.columns, rows


def assert_same_outcome(graph, fmt: str, args: list) -> tuple:
    outcome = parameter_outcome(graph, fmt, args)
    assert outcome == substituted_outcome(graph, fmt, args), (fmt, args)
    return outcome


def with_slots(rng: random.Random, query: Query) -> Query:
    """``query`` with a ``$uid`` slot put into some of its MATCH node patterns."""
    clauses = []
    for clause in query.clauses:
        if isinstance(clause, MatchClause):
            paths = []
            for path in clause.patterns:
                nodes = tuple(
                    NodePattern(node.var, node.label, (("$uid", Slot(rng.choice(MARKERS))), *node.properties))
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

    def test_every_call_and_batch_element_runs_the_kept_query(self, tree_snapshot, monkeypatch):
        ran = []
        original = query_engine.execute

        def recorded(query, graph, plan=None, params=None):
            ran.append((query, params))
            return original(query, graph, plan, params)

        monkeypatch.setattr(api, "execute", recorded)
        monkeypatch.setattr(query_engine, "execute", recorded)
        ctx = QueryContext(tree_snapshot)
        single, batch = "MATCH (n {$1}) RETURN n.value", "MATCH (n {$1})-[*0..]->(m {[]2}) RETURN m.value"
        assert [query_unbounded(ctx, single, UID[key]).table.rows for key in "ab"] == [[(1,)], [(2,)]]
        assert query_unbounded(ctx, batch, UID["b"], [UID["a"], UID["b"], UID["d"]]).table.rows == [(1,), (2,)]
        assert query_unbounded(ctx, batch, UID["c"], [UID["d"]]).table.rows == [(5,)]
        kept = {fmt: ctx._templates[fmt][1][()].query for fmt in (single, batch)}
        assert len(ran) == 6
        assert all(query is kept[single] for query, _ in ran[:2])
        assert all(query is kept[batch] for query, _ in ran[2:])
        uid, each = Slot("$1"), Slot("[]2")
        assert [params for _, params in ran[2:5]] == [{uid: UID["b"], each: UID[key]} for key in "abd"]


class TestParametersAgainstSubstitution:
    def test_random_positional_templates(self, tree_snapshot):
        rng = random.Random(26)
        graph = extract(tree_snapshot)
        kinds = set()
        for _ in range(3000):
            fmt, args = random_case(rng)
            outcome = assert_same_outcome(graph, fmt, args)
            kinds.add(outcome[0] if isinstance(outcome[0], str) else "rows" if outcome[1] else "empty")
        assert kinds == {"expand", "parse", "validate", "execute", "rows", "empty"}, kinds

    def test_random_path_shapes_with_slots(self):
        rng = random.Random(2601)
        rows = 0
        for _ in range(1000):
            graph = random_graph(rng)
            for node in graph.nodes():
                if rng.random() < 0.7:
                    node.properties["$uid"] = rng.randint(0, 5)  # repeats allowed
            fmt = query_text(with_slots(rng, random_path_query(rng)))
            ids = [rng.randint(0, 5) for _ in range(rng.randint(0, 3))]
            outcome = assert_same_outcome(graph, fmt, [rng.randint(0, 5), rng.randint(0, 5), ids])
            rows += isinstance(outcome[1], list) and bool(outcome[1])
        assert rows > 300

    def test_random_planned_queries_with_slots(self):
        """The planner's shapes: each ``$uid`` literal becomes a ``$1`` or ``$2`` slot."""
        rng = random.Random(2602)
        planned = counted = 0
        for _ in range(500):
            graph, agg, _, _, _ = _random_case(rng)
            fmt = re.sub(r"\{`\$uid`: \d+\}", lambda _: "{" + rng.choice(["$1", "$2"]) + "}", agg)
            columns, rows = assert_same_outcome(graph, fmt, [rng.randint(100, 105), rng.randint(100, 105)])
            planned += prepare(parse(expand_positional(fmt, [0, 0])[0], fmt)).probe is not None
            counted += rows[0][0] > 0
        assert planned == 500
        assert counted > 40
