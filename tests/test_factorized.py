"""Cross joins are kept as factors: a counting RETURN reads them without building their product.

A MATCH or OPTIONAL MATCH that joins no variable bound before it is matched
once, and its rows are kept as a factor of the rows.  Every clause but a
counting RETURN reads the product, in the nested-loop order of one factor
per clause.  These tests check the counts against ``oracles.enumerate_rows``
and against the same RETURN over the built product, the rows of a RETURN
with no count against a nested loop over each clause's own rows, and count
the rows built.
"""

from __future__ import annotations

import itertools
import random

import pytest

from heapquery import QueryContext, query_engine, query_unbounded
from heapquery.errors import ExecutionError, PipelineError, TypeMismatchError
from heapquery.property_graph import PropertyGraph
from heapquery.query_engine import ABSENT, cell_tag, execute

from .conftest import REPOK_QUERY, as_bag, expanded_queries
from .generators import random_graph
from .oracles import enumerate_rows

NODE = "BinaryTree$Node"


def parsed(fmt: str, *args):
    (query,) = expanded_queries(fmt, *args)
    return query


def recorded(monkeypatch, name: str) -> list:
    """(arguments, result) of each call of the ``query_engine`` function ``name``."""
    calls = []
    original = getattr(query_engine, name)

    def recording(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(query_engine, name, recording)
    return calls


# --- random cross joins ----------------------------------------------------------

# One clause's pattern over the fresh variables x and y; "Nope" labels no node.
_PATTERNS = [
    ("({x}:A)", "x"),
    ("({x}:B)-[:f]->({y})", "xy"),
    ("({x}:Nope)", "x"),
    ("({x} {{v: 1}})", "x"),
    ("({x})-[:g*1..2]->({y}:A)", "xy"),
    ("({x}:A)<-[:f]-({y} {{v: 2}})", "xy"),
    ("({x})-[:f|g]->({y}:B)", "xy"),
    ("({x} {{`$uid`: {uid}}})", "x"),
    ("({x}:T)", "x"),
]


def _graph(rng: random.Random) -> PropertyGraph:
    """A random graph with a ``$uid`` on some nodes and one or two ``T`` nodes, whose ``size`` may differ."""
    g = random_graph(rng, max_nodes=6, max_edges=10)
    for node in g.nodes():
        if rng.random() < 0.8:
            node.properties["$uid"] = 100 + node.id
    size = rng.randint(0, 4)
    for _ in range(rng.choice([1, 1, 2])):
        g.add_node("T", {"size": rng.choice([size, size, size + 1])})
    return g


def _clauses(rng: random.Random) -> tuple[list[str], list[list[str]]]:
    """2-3 cross-joined clauses, and the variables of each."""
    clauses, names = [], []
    for j in range(rng.randint(2, 3)):
        pattern, used = rng.choice(_PATTERNS)
        x, y = f"x{j}", f"y{j}"
        text = pattern.format(x=x, y=y, uid=100 + rng.randrange(8))
        clauses.append(f"{rng.choice(['MATCH', 'OPTIONAL MATCH'])} {text}")
        names.append([x, y][: len(used)])
    return clauses, names


def _aggregate(rng: random.Random, names: list[list[str]]) -> str:
    """A counting RETURN: count(*), a count of one factor, a constant read, or a count over two factors."""
    flat = [name for clause in names for name in clause]
    one, other = rng.choice(flat), rng.choice(flat)
    sized = [clause[0] for clause in names]  # a clause's first variable may be a T node, with a size
    items = [
        "count(*)",
        f"count({one})",
        f"count(DISTINCT {one})",
        f"count({one}.v)",
        f"count(*), count(DISTINCT {one}), count({other})",
        f"count({one}) = {rng.choice(sized)}.size",
        f"count(*) = {one}.v",
        f"{one}.v = count(DISTINCT {other})",
        f"{rng.choice(sized)}.size = count(DISTINCT {one}) AND count(*) > 0",
        f"count({one}.v = {other}.v)",
        f"count(DISTINCT equals({one}, {other}))",
    ]
    return "RETURN " + rng.choice(items)


def _outcome(fn):
    """The table's rows, or the class and message of the error ``fn`` raised."""
    try:
        return fn()[0].rows
    except ExecutionError as exc:  # TypeMismatchError too
        return type(exc), str(exc)


def _over_the_product(monkeypatch):
    """Make ``_aggregate_row`` read the built product as its one factor: the RETURN of unfactored rows."""
    original = query_engine._aggregate_row

    def unfactored(leaves, factors, graph, multiplicities):
        return original(leaves, [query_engine._product(factors)], graph, multiplicities)

    monkeypatch.setattr(query_engine, "_aggregate_row", unfactored)


def _nested_loop(graph: PropertyGraph, clauses: list[str], names: list[list[str]]) -> list[tuple]:
    """The rows of the cross join in nested-loop order, from each clause matched on its own."""
    factors = []
    for clause, variables in zip(clauses, names):
        optional = clause.startswith("OPTIONAL")
        alone = clause.removeprefix("OPTIONAL ")
        rows = execute(parsed(f"{alone} RETURN {', '.join(variables)}"), graph)[0].rows
        if not rows and optional:
            rows = [(ABSENT,) * len(variables)]
        factors.append(rows)
    return [sum(parts, ()) for parts in itertools.product(*factors)]


class TestRandomCrossJoins:
    def test_counts_match_the_oracle_and_the_built_product(self, monkeypatch):
        rng = random.Random(3101)
        kinds = {"rows": 0, "error": 0, "empty": 0, "factored": 0}
        returned = recorded(monkeypatch, "_return_clause")
        for _ in range(600):
            graph = _graph(rng)
            clauses, names = _clauses(rng)
            text = " ".join(clauses) + " " + _aggregate(rng, names)
            query = parsed(text)
            returned.clear()
            got = _outcome(lambda: execute(query, graph))
            factors = returned[0][0][2] if returned else None
            with monkeypatch.context() as patched:
                _over_the_product(patched)
                assert got == _outcome(lambda: execute(query, graph)), text
            try:
                expected = enumerate_rows(graph, query)
            except ExecutionError:
                assert isinstance(got, tuple) and got[0] is ExecutionError, text
                kinds["error"] += 1
                continue
            assert isinstance(got, list) and as_bag(query_engine.ResultTable([], got)) == expected, text
            kinds["rows"] += 1
            kinds["empty"] += not all(factors)
            kinds["factored"] += len(factors) > 1
        assert kinds["rows"] > 300 and kinds["error"] > 5 and min(kinds["empty"], kinds["factored"]) > 100, kinds

    def test_rows_without_a_count_keep_the_nested_loop_order(self):
        rng = random.Random(3102)
        nonempty = 0
        for _ in range(400):
            graph = _graph(rng)
            clauses, names = _clauses(rng)
            flat = [name for clause in names for name in clause]
            text = " ".join(clauses) + f" RETURN {', '.join(flat)}"
            table, _ = execute(parsed(text), graph)
            expected = _nested_loop(graph, clauses, names)
            assert [tuple(map(cell_tag, row)) for row in table.rows] == [tuple(map(cell_tag, row)) for row in expected]
            assert as_bag(table) == enumerate_rows(graph, parsed(text)), text
            nonempty += bool(expected)
        assert nonempty > 150

    def test_a_factor_size_multiplied_into_the_wrong_count_is_caught(self, monkeypatch):
        # The differential above must see a mutant that scales by the leaf's own factor's size.
        original = query_engine._own_factor

        def own_size(leaf, factors, owner):
            factor, _ = original(leaf, factors, owner)
            return factor, 1 if factor is None else len(factor)

        monkeypatch.setattr(query_engine, "_own_factor", own_size)
        rng = random.Random(3103)
        wrong = 0
        for _ in range(200):
            graph = _graph(rng)
            clauses, names = _clauses(rng)
            query = parsed(" ".join(clauses) + f" RETURN count({rng.choice(names[-1])})")
            wrong += as_bag(execute(query, graph)[0]) != enumerate_rows(graph, query)
        assert wrong > 10


# --- an empty factor ---------------------------------------------------------------


def _strings_graph() -> PropertyGraph:
    g = PropertyGraph()
    g.add_node("A", {"v": "s"})
    g.add_node("A", {"v": 2})
    g.add_node("B", {})
    return g


class TestEmptyFactor:
    @pytest.mark.parametrize("word", ["MATCH", "OPTIONAL MATCH"])
    def test_a_later_cross_match_does_not_run(self, monkeypatch, word):
        g = _strings_graph()
        matched = recorded(monkeypatch, "_extensions")
        table, _ = execute(parsed(f"MATCH (a:Nope) {word} (b:A) RETURN count(b.v < 1), count(*)"), g)
        assert table.rows == [(0, 0)]
        assert len(matched) == 1  # the first clause's only
        matched.clear()
        with pytest.raises(TypeMismatchError, match="cannot order 's' < 1"):
            execute(parsed(f"MATCH (a:B) {word} (b:A) RETURN count(b.v < 1), count(*)"), g)
        assert [len(rows) for _, rows in matched] == [1, 2]

    def test_an_empty_factor_after_a_full_one_empties_the_rows(self):
        g = _strings_graph()
        for text, rows in [
            ("MATCH (a:A) MATCH (b:Nope) MATCH (c:B) RETURN count(*), count(DISTINCT a)", [(0, 0)]),
            ("MATCH (a:A) MATCH (b:Nope) RETURN count(*) = a.v", []),  # a read outside a count needs a row
            ("MATCH (a:A) MATCH (b:Nope) RETURN a, b", []),
            ("MATCH (a:A) OPTIONAL MATCH (b:Nope) RETURN count(*), count(b)", [(2, 0)]),
        ]:
            table, _ = execute(parsed(text), g)
            assert table.rows == rows, text
            assert as_bag(table) == enumerate_rows(g, parsed(text)), text

    def test_the_error_class_and_stage_are_kept(self, tree_snapshot):
        ctx = QueryContext(tree_snapshot)
        counted = f"MATCH (n:`{NODE}`) RETURN count(n.value < 'x')"
        assert query_unbounded(ctx, f"MATCH (a:Nope) {counted}").table.rows == [(0,)]
        with pytest.raises(PipelineError) as exc:
            query_unbounded(ctx, f"MATCH (a:BinaryTree) {counted}")
        assert exc.value.stage == "execute" and isinstance(exc.value.cause, TypeMismatchError)


# --- rows built ----------------------------------------------------------------------


def _tree(cyclic: bool) -> PropertyGraph:
    """A complete binary tree of 300 nodes with its owner (``$uid`` 1); ``cyclic`` adds last.left = root."""
    g = PropertyGraph()
    nodes = [g.add_node(NODE, {"$uid": 10 + i}) for i in range(300)]
    for i, node in enumerate(nodes[1:], start=1):
        g.add_relationship("left" if i % 2 else "right", nodes[(i - 1) // 2], node)
    if cyclic:
        g.add_relationship("left", nodes[-1], nodes[0])
    tree = g.add_node("BinaryTree", {"$uid": 1, "size": 300})
    g.add_relationship("root", tree, nodes[0])
    return g


class TestRowsBuilt:
    def test_two_label_scans_are_counted_without_their_product(self, monkeypatch):
        g = PropertyGraph()
        for label in "AB":
            for _ in range(500):
                g.add_node(label)
        products = recorded(monkeypatch, "_product")
        matched = recorded(monkeypatch, "_extensions")
        table, _ = execute(parsed("MATCH (a:A) MATCH (b:B) RETURN count(*), count(DISTINCT b)"), g)
        assert table.rows == [(250_000, 500)]
        assert products == []
        assert [len(rows) for _, rows in matched] == [500, 500]

    @pytest.mark.parametrize("cyclic, sizes", [(False, [300, 1]), (True, [427, 9])])
    def test_repok_keeps_each_clause_rows_as_they_were_matched(self, monkeypatch, cyclic, sizes):
        g = _tree(cyclic)
        products = recorded(monkeypatch, "_product")
        matched = recorded(monkeypatch, "_extensions")
        returned = recorded(monkeypatch, "_return_clause")
        table, _ = execute(parsed(REPOK_QUERY, 1), g)
        assert table.rows == [(not cyclic,)]
        assert products == []  # no 427 x 9 product, and no merged copy of a clause's rows
        ((args, _),) = returned
        factors = args[2]
        assert [len(factor) for factor in factors] == sizes
        assert factors[0] is matched[0][1]  # the first MATCH's rows, not a copy
        if cyclic:
            assert factors[1] is matched[1][1]
        else:
            assert factors[1] == [{"m": ABSENT}]  # the OPTIONAL MATCH's one absent row
