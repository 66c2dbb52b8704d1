from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heapquery
from heapquery import query_engine
from heapquery.cypher_ast import (
    And,
    Comparison,
    Count,
    EqualsCall,
    Hops,
    HOPS_ONE,
    Literal,
    MatchClause,
    NodePattern,
    Not,
    Or,
    PathPattern,
    PropertyAccess,
    Query,
    RelPattern,
    ReturnClause,
    ReturnItem,
    Variable,
    WhereClause,
    find_counts,
)
from heapquery.cypher_frontend import expand_positional, parse, validate
from heapquery.errors import ExecutionError, QueryValidationError, TypeMismatchError
from heapquery.property_graph import PropertyGraph
from heapquery.query_engine import (
    ABSENT,
    NodeRef,
    RelRef,
    execute,
    execute_batch,
    prepare,
)
from heapquery.subgraph import ExtractionConfig, extract

from .conftest import (
    CONTAINS_KEY_QUERY,
    REACHABLE_QUERY,
    REPOK_QUERY,
    TREE_CREATE_QUERY,
    TWO_HOP_QUERY,
    UID,
    as_bag,
    expanded_queries,
)
from .generators import build_hashmap_snapshot, build_tree_case, random_graph, random_query
from .oracles import enumerate_rows, hashmap_contains, structurally_equal, worklist_repok
from .strategies import graphs, prop_keys


def node_by_value(graph, value):
    return next(n for n in graph.nodes() if n.properties.get("value") == value)


def expanded(fmt, args):
    (query,) = expanded_queries(fmt, *args)
    return query


class TestMatchPattern:
    def test_reachability_returns_all_but_start(self, tree_graph):
        table, _ = execute(expanded(REACHABLE_QUERY, [UID["c"]]), tree_graph)
        got = {v.id for (v,) in table.rows}
        start = next(n for n in tree_graph.nodes() if n.properties.get("$uid") == UID["c"])
        assert len(got) == 7
        assert got == {n.id for n in tree_graph.nodes()} - {start.id}

    def test_two_hops_direction_and_value(self, tree_graph):
        table, _ = execute(expanded(TWO_HOP_QUERY, [UID["c"]]), tree_graph)
        assert [tree_graph.node(v.id).properties["$uid"] for (v,) in table.rows] == [UID["a"]]

    def test_optional_match_yields_absent_row(self):
        g = PropertyGraph()
        g.add_node("A")
        table, _ = execute(expanded("OPTIONAL MATCH (n)-[:f]->(m) RETURN n, m", []), g)
        assert table.rows == [(ABSENT, ABSENT)]

    def test_range_one_to_two(self, tree_graph):
        query = expanded("MATCH (n {value: 4})-[:left|right*1..2]->(m) RETURN m", [])
        table, _ = execute(query, tree_graph)
        values = sorted(tree_graph.node(v.id).properties["value"] for (v,) in table.rows)
        assert values == [1, 2, 3, 5]  # b, d and b's children a, e

    def test_relationship_not_reused_within_path(self):
        g = PropertyGraph()
        a, b = g.add_node("A"), g.add_node("A")
        g.add_relationship("f", a, b)
        # a-f->b back over the same edge is not a valid 2-hop path
        query = expanded("MATCH (n)-[:f*2]-(m) RETURN n, m", [])
        table, _ = execute(query, g)
        assert table.rows == []

    def test_parallel_edges_give_two_paths(self):
        g = PropertyGraph()
        a, b = g.add_node("A"), g.add_node("B")
        g.add_relationship("f", a, b)
        g.add_relationship("f", a, b)
        query = expanded("MATCH (n:A)-[:f]->(m) RETURN m", [])
        table, _ = execute(query, g)
        assert len(table.rows) == 2

    def test_closed_walk_requires_pinned_endpoint(self):
        g = PropertyGraph()
        a, b = g.add_node("A"), g.add_node("A")
        g.add_relationship("f", a, b)
        g.add_relationship("f", b, a)
        free, _ = execute(expanded("MATCH (n {$1})-[:f*1..]->(m) RETURN m", [0]), _with_uids(g))
        pinned, _ = execute(expanded("MATCH (m {$1})-[:f*1..]->(m) RETURN m", [0]), _with_uids(g))
        assert {v.id for (v,) in free.rows} == {1}
        assert len(pinned.rows) == 1

    def test_zero_length_stays_on_start(self):
        g = PropertyGraph()
        a = g.add_node("A")
        query = expanded("MATCH (n:A)-[:f*0..]->(m) RETURN m", [])
        table, _ = execute(query, g)
        assert [v.id for (v,) in table.rows] == [a]


def _with_uids(graph: PropertyGraph) -> PropertyGraph:
    for node in graph.nodes():
        node.properties.setdefault("$uid", node.id)
    return graph


class TestEvalExpression:
    def test_equals_reflexive_on_node(self, tree_graph):
        n = NodeRef(next(iter([n.id for n in tree_graph.nodes()])))
        query = expanded("MATCH (n {$1}) RETURN equals(n, n)", [UID["a"]])
        table, _ = execute(query, tree_graph)
        assert table.rows == [(True,)]

    def test_equals_is_structural_modulo_uid(self, tree_graph):
        # a{value:1} vs a rebuilt twin with a different uid
        twin = tree_graph.copy()
        twin_id = twin.add_node("BinaryTree$Node", {"value": 1, "$uid": 99})
        query = expanded("MATCH (n {$1}), (m {$2}) RETURN equals(n, m)", [UID["a"], 99])
        table, _ = execute(query, twin)
        assert table.rows == [(True,)]

    def test_equals_on_relationships_is_identity(self):
        g = PropertyGraph()
        a = g.add_node("A")
        first, second = g.add_relationship("f", a, a), g.add_relationship("f", a, a)
        query = expanded("MATCH (n)-[r]->(), ()-[s]->() RETURN r, s, equals(r, s), equals(n, r), equals(n, 1)", [])
        table, _ = execute(query, g)
        assert table.rows == [
            (RelRef(x), RelRef(y), x == y, False, False) for x in (first, second) for y in (first, second)
        ]
        assert as_bag(table) == enumerate_rows(g, query)
        assert execute(expanded("RETURN equals(1, 1.0), equals(1, 1)", []), g)[0].rows == [(False, True)]

    def test_property_comparison(self, tree_graph):
        query = expanded("MATCH (a {$1}), (c {$2}) RETURN a.value < c.value", [UID["a"], UID["c"]])
        table, _ = execute(query, tree_graph)
        assert table.rows == [(True,)]  # 1 < 4

    def test_absent_comparison_filters_row(self, tree_graph):
        # f has no value property: comparison yields absent, WHERE drops it
        query = expanded("MATCH (n:`BinaryTree`) WHERE n.value = 1 RETURN n", [])
        table, _ = execute(query, tree_graph)
        assert table.rows == []

    def test_type_mismatch_on_order(self):
        g = PropertyGraph()
        g.add_node("A", {"p": "text"})
        query = expanded("MATCH (n:A) WHERE n.p < 1 RETURN n", [])
        with pytest.raises(TypeMismatchError):
            execute(query, g)

    def test_int_float_equality_is_type_sensitive(self):
        g = PropertyGraph()
        g.add_node("A", {"p": 1})
        table, _ = execute(expanded("MATCH (n:A) RETURN n.p = 1.0, n.p = 1", []), g)
        assert table.rows == [(False, True)]

    def test_equality_of_nodes_and_relationships_is_identity(self):
        g = PropertyGraph()
        a, b = g.add_node("A", {"p": 1}), g.add_node("A", {"p": 1})
        first, second = g.add_relationship("f", a, b), g.add_relationship("f", b, a)
        table, _ = execute(expanded("MATCH (n:A), (m:A) RETURN n, m, n = m, n <> m", []), g)
        assert table.rows == [(NodeRef(x), NodeRef(y), x == y, x != y) for x in (a, b) for y in (a, b)]
        table, _ = execute(expanded("MATCH ()-[r]->(), ()-[s]->() RETURN r, s, r = s, r <> s", []), g)
        assert table.rows == [(RelRef(x), RelRef(y), x == y, x != y) for x in (first, second) for y in (first, second)]
        # a node never equals a relationship of the same id, nor a primitive
        query = expanded("MATCH (n:A)-[r]->() RETURN n = r, n <> r, n = 1, n <> 1, r = 'a', r <> 'a'", [])
        assert a == first and execute(query, g)[0].rows[0] == (False, True, False, True, False, True)

    def test_three_valued_logic(self):
        g = PropertyGraph()
        g.add_node("A", {"p": 1})
        # absent OR true is true; absent AND true is absent (row dropped)
        kept, _ = execute(expanded("MATCH (n:A) WHERE n.q = 1 OR n.p = 1 RETURN n", []), g)
        assert len(kept.rows) == 1
        dropped, _ = execute(expanded("MATCH (n:A) WHERE n.q = 1 AND n.p = 1 RETURN n", []), g)
        assert dropped.rows == []


class TestAggregatingReturn:
    @staticmethod
    def graph() -> PropertyGraph:
        g = PropertyGraph()
        for props in ({"p": 1, "k": 7}, {"p": 2, "k": 7}, {"p": 2, "k": 7, "q": "x"}):
            g.add_node("A", props)
        return g

    @pytest.mark.parametrize(
        "text, row",
        [
            ("MATCH (n:A) RETURN count(n) > 2 AND count(DISTINCT n.p) = 2", (True, )),
            ("MATCH (n:A) RETURN count(n.q), n.k = 7 OR count(*) < 0, n.k = count(*)", (1, True, False)),
            ("MATCH (n:A) RETURN NOT count(n.missing) > 0, n.missing = count(n)", (True, ABSENT)),
            ("MATCH (n:A), (m:A {p: 1}) RETURN equals(m, m) AND count(*) = 3", (True,)),
        ],
    )
    def test_values(self, text, row):
        table, _ = execute(expanded(text, []), self.graph())
        assert table.rows == [row]

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("MATCH (n:A) RETURN n.p = count(n)", ExecutionError, "n.p is not constant across rows; grouped aggregation is not supported"),
            ("MATCH (n:A) RETURN equals(n, n) AND count(n) > 0", ExecutionError, "n is not constant across rows; grouped aggregation is not supported"),
            ("MATCH (n:A) RETURN NOT count(n)", TypeMismatchError, "NOT needs a boolean, got 3"),
            ("MATCH (n:A) RETURN count(n) AND true", TypeMismatchError, "AND needs a boolean, got 3"),
            ("MATCH (n:A) RETURN false OR count(n)", TypeMismatchError, "OR needs a boolean, got 3"),
            ("MATCH (n:A) RETURN count(n) < 'x'", TypeMismatchError, "cannot order 3 < 'x'"),
            # Items run left to right, each with its leaves first: the first item's error wins.
            ("MATCH (n:A), (t:A) RETURN count(n) < 'a', count(n) = t.p", TypeMismatchError, "cannot order 9 < 'a'"),
            ("MATCH (n:A), (t:A) RETURN count(n) = t.p, count(n) < 'a'", ExecutionError, "t.p is not constant across rows; grouped aggregation is not supported"),
        ],
    )
    def test_errors(self, text, error, message):
        with pytest.raises(error) as exc:
            execute(expanded(text, []), self.graph())
        assert str(exc.value) == message


_reads = st.one_of(st.sampled_from("tn").map(Variable), st.builds(PropertyAccess, st.sampled_from("tn"), prop_keys))
_aggregate_leaves = st.one_of(
    st.just(Count(None)),
    st.builds(Count, _reads, st.booleans()),
    _reads,
    st.sampled_from([0, 1, 2, 0.5, "x", True]).map(Literal),
)
_aggregate_items = st.recursive(
    _aggregate_leaves,
    lambda inner: st.one_of(
        st.builds(Comparison, st.sampled_from(["=", "<>", "<", ">="]), inner, inner),
        st.builds(EqualsCall, inner, inner),
        st.builds(Not, inner),
        st.lists(inner, min_size=2, max_size=3).map(lambda operands: And(tuple(operands))),
        st.lists(inner, min_size=2, max_size=3).map(lambda operands: Or(tuple(operands))),
    ),
    max_leaves=4,
).filter(find_counts)


@st.composite
def aggregating_queries(draw):
    """``MATCH (t) [OPTIONAL] MATCH (t)-[]-(n) [WHERE] RETURN`` items that each hold a count."""
    t = NodePattern("t", draw(st.sampled_from([None, "A"])), draw(st.sampled_from([(), (), (("p", Literal(1)),)])))
    n = NodePattern("n", draw(st.sampled_from([None, None, "A", "B"])))
    hops = draw(st.sampled_from([HOPS_ONE, Hops("range", 0, 1)]))
    rel = RelPattern(None, draw(st.sampled_from([(), ("f",)])), draw(st.sampled_from(["out", "in", "both"])), hops)
    clauses = [MatchClause((PathPattern((t,)),)), MatchClause((PathPattern((NodePattern("t"), n), (rel,)),), draw(st.booleans()))]
    if draw(st.integers(0, 3)) == 0:
        clauses.append(WhereClause(Comparison(draw(st.sampled_from(["=", "<>"])), PropertyAccess("n", "p"), Literal(1))))
    items = draw(st.lists(_aggregate_items, min_size=1, max_size=2))
    return Query((*clauses, ReturnClause(tuple(ReturnItem(item) for item in items))))


class TestAggregatingOracle:
    @settings(max_examples=300, deadline=None)
    @given(graphs(max_nodes=6, max_edges=8), aggregating_queries())
    def test_tables_and_error_classes_match_bruteforce(self, graph, query):
        assert validate(query) == []
        try:
            expected = enumerate_rows(graph, query)
        except ExecutionError as error:
            with pytest.raises(ExecutionError) as raised:
                execute(query, graph)
            assert type(raised.value) is type(error)
            return
        table, _ = execute(query, graph)
        assert as_bag(table) == expected


class TestExecute:
    def test_tree_creation_query(self, tree_instances_graph):
        graph = PropertyGraph()
        table, graph = execute(expanded(TREE_CREATE_QUERY, ["BinaryTree$Node", "BinaryTree"]), graph)
        assert structurally_equal(graph, tree_instances_graph)
        assert len(table.rows) == 1
        (result,) = table.rows[0]
        assert graph.node(result.id).label == "BinaryTree"

    def test_create_returns_its_relationship(self):
        table, g = execute(expanded("CREATE (a:A)-[r:T]->(b:B) RETURN a, r, b", []), PropertyGraph())
        ((a, r, b),) = table.rows
        assert isinstance(r, RelRef) and g.relationship(r.id).label == "T"
        assert (g.relationship(r.id).start, g.relationship(r.id).end) == (a.id, b.id)

    def test_merge_existing_pattern_binds_without_writing(self, tree_graph):
        before = tree_graph.copy()
        query = expanded("MATCH (c {$1}), (b {$2}) MERGE (c)-[:left]->(b) RETURN c", [UID["c"], UID["b"]])
        table, after = execute(query, tree_graph)
        assert structurally_equal(before, after)
        assert len(table.rows) == 1

    def test_merge_creates_whole_pattern_when_absent(self):
        g = PropertyGraph()
        query = expanded("MERGE (x:A)-[:r]->(y:B) RETURN x", [])
        table, g = execute(query, g)
        assert g.node_count == 2
        assert g.relationship_count == 1
        # merging again finds it instead of duplicating
        table, g = execute(expanded("MERGE (x:A)-[:r]->(y:B) RETURN x", []), g)
        assert g.node_count == 2
        assert g.relationship_count == 1

    def test_create_instantiates_per_row(self):
        g = PropertyGraph()
        g.add_node("A")
        g.add_node("A")
        query = expanded("MATCH (n:A) CREATE (m:B) RETURN m", [])
        table, g = execute(query, g)
        assert sum(1 for n in g.nodes() if n.label == "B") == 2

    def test_read_only_clauses_do_not_mutate(self, tree_graph):
        before = tree_graph.copy()
        execute(expanded("MATCH (n:`BinaryTree$Node`) WHERE n.value > 1 RETURN DISTINCT n", []), tree_graph)
        assert structurally_equal(before, tree_graph)

    def test_distinct_idempotent(self, tree_graph):
        once, _ = execute(expanded("MATCH (n)-[*1..2]-(m) RETURN DISTINCT m", []), tree_graph)
        table2, _ = execute(expanded("MATCH (n)-[*1..2]-(m) RETURN DISTINCT m", []), tree_graph)
        assert once.rows == table2.rows
        assert len(once.rows) == len({r for r in once.rows})

    def test_count_star_equals_binding_bag(self, tree_graph):
        rows, _ = execute(expanded("MATCH (n)-[:left]->(m) RETURN n", []), tree_graph)
        table, _ = execute(expanded("MATCH (n)-[:left]->(m) RETURN count(*)", []), tree_graph)
        assert table.rows == [(rows.row_count,)]

    def test_determinism(self, tree_graph):
        first, _ = execute(expanded("MATCH (n)-[:left|right*1..]->(m) RETURN n, m", []), tree_graph)
        second, _ = execute(expanded("MATCH (n)-[:left|right*1..]->(m) RETURN n, m", []), tree_graph)
        assert first.rows == second.rows

    def test_no_rollback_on_failure(self):
        g = PropertyGraph()
        g.add_node("A", {"p": "s"})
        query = expanded("CREATE (b:B) MATCH (n:A) WHERE n.p < 1 RETURN n", [])
        with pytest.raises(TypeMismatchError):
            execute(query, g)
        assert sum(1 for n in g.nodes() if n.label == "B") == 1

    def test_aggregate_over_empty_table_counts_zero(self):
        g = PropertyGraph()
        table, _ = execute(expanded("MATCH (n:Missing) RETURN count(n) > 0", []), g)
        assert table.rows == [(False,)]


class TestInvariantQueries:
    def test_repok_on_valid_tree(self, tree_snapshot):
        graph = extract(tree_snapshot, ExtractionConfig(root=UID["f"]))
        table, _ = execute(expanded(REPOK_QUERY, [UID["f"]]), graph)
        assert table.rows == [(True,)]

    def test_repok_detects_back_edge(self, tree_snapshot):
        graph = extract(tree_snapshot, ExtractionConfig(root=UID["f"]))
        a = next(n for n in graph.nodes() if n.properties.get("$uid") == UID["a"])
        c = next(n for n in graph.nodes() if n.properties.get("$uid") == UID["c"])
        graph.add_relationship("left", a.id, c.id)
        table, _ = execute(expanded(REPOK_QUERY, [UID["f"]]), graph)
        assert table.rows == [(False,)]

    def test_contains_key_small_fixture(self):
        rng = random.Random(7)
        snapshot, map_id, probe_id, present = build_hashmap_snapshot(rng, 3)
        graph = extract(snapshot, ExtractionConfig())
        table, _ = execute(expanded(CONTAINS_KEY_QUERY, [map_id, probe_id]), graph)
        assert table.rows == [(hashmap_contains(snapshot, map_id, probe_id),)]
        assert table.rows == [(present,)]

    def test_array_slots_are_queryable_by_index(self):
        rng = random.Random(8)
        snapshot, map_id, _, _ = build_hashmap_snapshot(rng, 6)
        graph = extract(snapshot, ExtractionConfig())
        query = expanded(
            "MATCH (h {$1})-[:table]->(t)-[e:element]->(x) WHERE e.index >= 0 RETURN count(x)",
            [map_id],
        )
        table, _ = execute(query, graph)
        occupied = sum(1 for slot in snapshot.object(map_id).fields["table"].ids if slot is not None)
        assert table.rows == [(occupied,)]


def batch_table(fmt: str, uids, graph):
    """The table of ``fmt``'s parsed query run once per id of its ``[]1`` batch, the ids as parameters."""
    tokens, _, arguments = expand_positional(fmt, [uids])
    query = parse(tokens, fmt)
    return execute_batch(query, graph, prepare(query), arguments.batch)[0]


class TestExecuteBatch:
    def test_union_of_per_element_results(self, tree_graph):
        table = batch_table("MATCH (n {[]1})-[:left|right]->(m) RETURN m", [UID["a"], UID["b"]], tree_graph)
        # a has no children, b has two
        values = sorted(tree_graph.node(v.id).properties["value"] for (v,) in table.rows)
        assert values == [1, 3]

    def test_empty_collection(self, tree_graph):
        table = batch_table("MATCH (n {[]1}) RETURN n", [], tree_graph)
        assert table.columns == ["n"]
        assert table.rows == []

    def test_singleton_equals_plain_execute(self, tree_graph):
        batch = batch_table("MATCH (n {[]1})-[:left]->(m) RETURN m", [UID["c"]], tree_graph)
        plain_table, _ = execute(expanded("MATCH (n {$1})-[:left]->(m) RETURN m", [UID["c"]]), tree_graph)
        assert batch.rows == plain_table.rows

    def test_batch_is_bag_union_of_singles(self, tree_graph):
        import random
        from collections import Counter

        rng = random.Random(17)
        for _ in range(20):
            uids = [rng.choice(list(UID.values())) for _ in range(rng.randint(0, 4))]
            batch = batch_table("MATCH (n {[]1})-[:left|right*1..]->(m) RETURN m", uids, tree_graph)
            singles = Counter()
            for uid in uids:
                single, _ = execute(expanded("MATCH (n {$1})-[:left|right*1..]->(m) RETURN m", [uid]), tree_graph)
                singles += as_bag(single)
            assert as_bag(batch) == singles

    def test_each_element_sees_the_writes_of_those_before_it(self, tree_graph):
        fmt = "MATCH (n {[]1}) OPTIONAL MATCH (t:Tmp) CREATE (x:Tmp) RETURN count(t)"
        assert batch_table(fmt, [UID["a"], UID["b"], UID["c"]], tree_graph).rows == [(0,), (1,), (2,)]

    def test_a_slot_without_its_id_is_an_execution_error(self, tree_graph):
        fmt = "MATCH (n)-[:left]->(m {$1}) RETURN m"
        query = parse(expand_positional(fmt, [UID["a"]])[0], fmt)
        with pytest.raises(ExecutionError, match=r"no id was passed for \$1"):
            execute(query, tree_graph)

class TestOracleEquivalence:
    def test_random_queries_match_bruteforce(self):
        rng = random.Random(2024)
        for _ in range(120):
            graph = random_graph(rng)
            query = random_query(rng)
            assert validate(query) == []
            table, _ = execute(query, graph)
            assert as_bag(table) == enumerate_rows(graph, query)

    def test_random_mixed_type_orderings_match_bruteforce(self):
        rng = random.Random(2026)
        outcomes = set()
        for _ in range(150):
            graph = random_graph(rng, strings=True)
            query = random_query(rng, strings=True)
            assert validate(query) == []
            try:
                expected = enumerate_rows(graph, query)
            except TypeMismatchError:
                with pytest.raises(TypeMismatchError):
                    execute(query, graph)
                outcomes.add("raised")
                continue
            table, _ = execute(query, graph)
            assert as_bag(table) == expected
            outcomes.add("rows")
        assert outcomes == {"raised", "rows"}

    def test_read_only_queries_never_mutate(self):
        rng = random.Random(4)
        for _ in range(40):
            graph = random_graph(rng)
            before = graph.copy()
            execute(random_query(rng), graph)
            assert structurally_equal(before, graph)
            assert graph.audit() == []

    def test_write_queries_keep_indexes_consistent(self, tree_graph):
        writes = [
            "CREATE (x:Extra {value: 9})-[:left]->(y:Extra {value: 10}) RETURN x",
            "MERGE (x:Extra {value: 9})-[:left]->(y:Extra {value: 10}) RETURN x",
            "MATCH (n:Extra) CREATE (n)-[:mark]->(m:Flag) RETURN m",
        ]
        for text in writes:
            _, tree_graph = execute(expanded(text, []), tree_graph)
            assert tree_graph.audit() == []

    def test_tree_parity_with_worklist(self):
        rng = random.Random(99)
        for kind in ("valid", "cyclic", "size-mismatch", "forest"):
            for _ in range(10):
                snapshot, tree_id = build_tree_case(rng, kind)
                graph = extract(snapshot, ExtractionConfig(root=tree_id))
                table, _ = execute(expanded(REPOK_QUERY, [tree_id]), graph)
                assert table.rows == [(worklist_repok(snapshot, tree_id),)], (kind, snapshot)


def _clause_sequence(rng: random.Random) -> str:
    """Random MATCH, OPTIONAL MATCH, WHERE, CREATE and MERGE clauses, then a count."""
    names = ["a"]
    clauses = ["MATCH (a:A)"]
    for i in range(rng.randint(1, 5)):
        old, new = rng.choice(names), f"v{i}"
        kinds = ["match", "optional", "create", "merge", "cross"]
        if clauses[-1].startswith(("MATCH", "OPTIONAL")):
            kinds.append("where")
        kind = rng.choice(kinds)
        if kind in ("match", "optional"):
            word = "MATCH" if kind == "match" else "OPTIONAL MATCH"
            rel = rng.choice(["[:f]", f"[r{i}:g]", "[:f*1..2]", "[*0..]"])
            clauses.append(f"{word} ({old})-{rel}->({new}{rng.choice(['', ':B'])})")
        elif kind == "cross":
            clauses.append(f"{rng.choice(['MATCH', 'OPTIONAL MATCH'])} ({new}:B)-[:g*1..]->({new})")
        elif kind == "where":
            clauses.append(f"WHERE {old}.v = 1 OR {old}.v = 2")
        elif kind == "create":
            clauses.append(f"CREATE ({old})-[:h]->({new}:C)")
        elif rng.random() < 0.5:
            clauses.append(f"MERGE ({old})-[:f]->({rng.choice(names)})")
        else:
            clauses.append(f"MERGE ({new}:B {{v: 1}})-[:f]->({new}x:C)")
        if kind != "where":
            names.append(new)
    return " ".join(clauses) + " RETURN count(*)"


class TestRowVariables:
    def test_rows_entering_a_clause_bind_the_same_names(self, monkeypatch):
        """``prepare`` decides on a cross join once, for every row entering the clause."""
        seen = []
        for name in ("_match_clause", "_where_clause", "_create_clause", "_merge_clause", "_return_clause"):
            original = getattr(query_engine, name)

            def recorded(graph, clause, rows, *rest, original=original, name=name):
                # The RETURN is given the rows' factors; it reads their product.
                product = query_engine._product(rows) if name == "_return_clause" else rows
                seen.append({frozenset(row) for row in product})
                return original(graph, clause, rows, *rest)

            monkeypatch.setattr(query_engine, name, recorded)
        rng = random.Random(31)
        ran = 0
        for _ in range(300):
            text = _clause_sequence(rng)
            try:
                execute(expanded(text, []), random_graph(rng))
            except (QueryValidationError, ExecutionError):
                continue  # e.g. a write through a variable OPTIONAL MATCH left absent
            ran += 1
        assert ran > 200
        assert all(len(names) <= 1 for names in seen)
        assert sum(len(names) == 1 for names in seen) > 500


class TestNodeRef:
    def test_is_exported_and_frozen(self):
        assert heapquery.NodeRef is NodeRef
        ref = NodeRef(1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ref.id = 2
        assert ref.id == 1

    def test_a_bound_node_equals_and_hashes_by_id(self, tree_graph):
        ((bound,),) = execute(expanded("MATCH (n {$1}) RETURN n", [UID["a"]]), tree_graph)[0].rows
        assert bound == NodeRef(bound.id) and hash(bound) == hash(NodeRef(bound.id))
        assert bound != NodeRef(bound.id + 1)
        assert {bound, NodeRef(bound.id)} == {bound}
        assert NodeRef(1) != RelRef(1)
        assert repr(bound) == f"NodeRef(id={bound.id})"
        with pytest.raises(dataclasses.FrozenInstanceError):
            bound.id = 0
        assert repr(NodeRef(1)) == "NodeRef(id=1)"

    def test_copies_and_pickles(self):
        ref = NodeRef(1)
        for clone in (copy.copy(ref), copy.deepcopy(ref), pickle.loads(pickle.dumps(ref))):
            assert clone == ref and hash(clone) == hash(ref) and clone.id == 1
