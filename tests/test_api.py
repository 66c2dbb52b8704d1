from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from heapquery import api, subgraph

from heapquery.api import (
    QueryContext,
    query_boolean,
    query_bounded,
    query_long,
    query_object,
    query_string,
    query_unbounded,
)
from heapquery.cypher_frontend import MAX_NESTING, parse
from heapquery.errors import (
    CastError,
    CursorError,
    DanglingReferenceError,
    ExtractionConfigError,
    PipelineError,
    QuerySyntaxError,
    UnknownColumnError,
)
from heapquery.query_engine import RelRef
from heapquery.snapshot_io import graph_to_snapshot, load_snapshot
from heapquery.subgraph import (
    ClassInfo,
    ExtractionConfig,
    FieldDecl,
    HeapObject,
    HeapSnapshot,
    Ref,
    SnapshotGraph,
    extract,
)

from .conftest import CONTAINS_KEY_QUERY, DATA, REPOK_QUERY, TWO_HOP_QUERY, UID, build_tree_graph
from .generators import build_hashmap_snapshot, build_large_snapshot
from .oracles import reachable_from
from .printer import query_text


@pytest.fixture
def ctx(tree_snapshot) -> QueryContext:
    return QueryContext(tree_snapshot)


def kept_graph(snapshot: HeapSnapshot, root=None):
    """The graph that ``snapshot`` keeps for the reads from ``root``; None if it keeps none."""
    entry = snapshot._kept.get(ExtractionConfig(root=root).key())
    return None if entry is None else entry[1]


@pytest.fixture
def numbered(monkeypatch) -> list:
    """The ids of the objects of each numbering that ``extract`` or a read computes."""
    calls = []
    number = subgraph._number

    def counting(snapshot, included):
        calls.append(sorted(obj.id for obj in included))
        return number(snapshot, included)

    monkeypatch.setattr(subgraph, "_number", counting)
    return calls


class TestQueryBounded:
    def test_two_hop_from_root_node(self, ctx):
        rs = query_bounded(ctx, UID["c"], TWO_HOP_QUERY, UID["c"])
        assert rs.row_count() == 1
        assert rs.next()
        assert rs.get("m") == UID["a"]

    def test_count_over_interior_subgraph(self, ctx, tree_snapshot):
        # reachable objects from b plus the one class-metadata node
        expected = len(reachable_from(tree_snapshot, [UID["b"]])) + 1
        rs = query_bounded(ctx, UID["b"], "MATCH (n) RETURN count(n)")
        rs.next()
        assert expected == 4
        assert rs.get(0) == expected

    def test_unknown_root(self, ctx):
        with pytest.raises(PipelineError) as exc:
            query_bounded(ctx, 404, "MATCH (n) RETURN n")
        assert exc.value.stage == "extract"

    @pytest.mark.parametrize("root", [404, True, [UID["a"], 1.5]])
    def test_a_query_is_parsed_before_its_graph_is_extracted(self, ctx, root):
        for _ in range(2):
            with pytest.raises(PipelineError) as exc:
                query_bounded(ctx, root, "MATCH (n RETURN n")
            assert exc.value.stage == "parse"

    def test_multiple_roots_via_list(self, ctx):
        rs = query_bounded(ctx, [UID["a"], UID["d"]], "MATCH (n:`BinaryTree$Node`) RETURN count(n)")
        rs.next()
        assert rs.get(0) == 2

    @pytest.mark.parametrize("cache", [False, True])
    @pytest.mark.parametrize("root", [True, 1.0, "1", [[1]], [1, True]])
    def test_root_ids_must_be_integers(self, root, cache):
        ctx = QueryContext(build_large_snapshot()[0], cache_extractions=cache)
        with pytest.raises(PipelineError) as exc:
            query_bounded(ctx, root, "MATCH (n) RETURN count(n)")
        assert exc.value.stage == "extract"
        assert isinstance(exc.value.__cause__, ExtractionConfigError)


class TestQueryUnbounded:
    def test_node_instance_count(self, ctx):
        rs = query_unbounded(ctx, "MATCH (n:`BinaryTree$Node`) RETURN count(n)")
        rs.next()
        assert rs.get(0) == 5

    def test_singleton_assertion(self, ctx):
        rs = query_unbounded(ctx, "MATCH (n:`BinaryTree`) RETURN count(n)")
        rs.next()
        assert rs.get(0) == 1

    def test_garbage_visible_unless_collected(self, tree_snapshot):
        extra = HeapObject(99, "BinaryTree$Node", {"value": 9})
        snap = HeapSnapshot(tree_snapshot.classes, tree_snapshot.objects + [extra], tree_snapshot.roots)
        plain = QueryContext(snap)
        rs = query_unbounded(plain, "MATCH (n:`BinaryTree$Node`) RETURN count(n)")
        rs.next()
        assert rs.get(0) == 6
        gc = QueryContext(snap, ExtractionConfig(force_collect=True))
        rs = query_unbounded(gc, "MATCH (n:`BinaryTree$Node`) RETURN count(n)")
        rs.next()
        assert rs.get(0) == 5

    def test_bounded_rows_subset_of_unbounded(self, ctx):
        query = "MATCH (n:`BinaryTree$Node`)-[:left]->(m) RETURN m"
        bounded = query_bounded(ctx, UID["c"], query)
        unbounded = query_unbounded(ctx, query)

        def uids(rs):
            out = set()
            while rs.next():
                out.add(rs.get("m"))
            return out

        assert uids(bounded) <= uids(unbounded)


class TestTypedVariants:
    def test_boolean_invariant_query(self, ctx):
        assert query_boolean(ctx, REPOK_QUERY, UID["f"], root=UID["f"]) is True

    def test_long_agrees_with_generic(self, ctx):
        count = query_long(ctx, "MATCH (n:`BinaryTree$Node`) RETURN count(n)")
        rs = query_unbounded(ctx, "MATCH (n:`BinaryTree$Node`) RETURN count(n)")
        rs.next()
        assert count == rs.get(0) == 5

    def test_string_variant(self, ctx):
        assert query_string(ctx, "MATCH (c:Class {name: 'BinaryTree'}) RETURN c.name") == "BinaryTree"

    def test_boolean_on_node_is_cast_error(self, ctx):
        with pytest.raises(PipelineError) as exc:
            query_boolean(ctx, "MATCH (n {$1}) RETURN n", UID["a"])
        assert exc.value.stage == "result"

    def test_shape_error_on_many_rows(self, ctx):
        with pytest.raises(PipelineError) as exc:
            query_long(ctx, "MATCH (n:`BinaryTree$Node`) RETURN n.value")
        assert exc.value.stage == "result"

    def test_query_object_resolves_snapshot_object(self, ctx, tree_snapshot):
        uid, obj = query_object(ctx, "MATCH (n:`BinaryTree`) RETURN n")
        assert uid == UID["f"]
        assert obj is tree_snapshot.object(UID["f"])

    def test_query_object_of_a_node_that_is_no_snapshot_object(self, ctx):
        with pytest.raises(PipelineError) as exc:
            query_object(ctx, "MATCH (c:Class {name: 'BinaryTree'}) RETURN c")
        assert exc.value.stage == "result" and isinstance(exc.value.cause, CastError)


class TestResultSet:
    def test_empty_result(self, ctx):
        rs = query_unbounded(ctx, "MATCH (n:`Missing`) RETURN n")
        assert rs.next() is False
        assert rs.row() == 0

    def test_cursor_semantics(self, ctx):
        rs = query_unbounded(ctx, "MATCH (n:`BinaryTree$Node`)-[:left]->(m) RETURN m")
        assert rs.row_count() == 2
        assert rs.next() is True
        assert rs.row() == 1
        assert rs.next() is True
        assert rs.row() == 2
        assert rs.next() is False

    def test_get_before_next(self, ctx):
        rs = query_unbounded(ctx, "MATCH (n:`BinaryTree`) RETURN n")
        with pytest.raises(CursorError):
            rs.get(0)

    def test_get_by_alias_and_index(self, ctx):
        rs = query_unbounded(ctx, "MATCH (n:`BinaryTree`) RETURN n.size AS s")
        assert rs.columns() == ["s"]
        rs.next()
        assert rs.get("s") == rs.get(0) == 5

    def test_unknown_column(self, ctx):
        rs = query_unbounded(ctx, "MATCH (n:`BinaryTree`) RETURN n")
        rs.next()
        with pytest.raises(UnknownColumnError):
            rs.get("zzz")
        for index in (1, -1):
            with pytest.raises(UnknownColumnError):
                rs.get(index)

    def test_a_bool_is_not_a_column_number(self, ctx):
        rs = query_unbounded(ctx, "MATCH (n:`BinaryTree`) RETURN n, n.size")
        rs.next()
        assert (rs.get(0), rs.get(1)) == (16, 5)
        for column in (False, True):
            with pytest.raises(UnknownColumnError):
                rs.get(column)
            with pytest.raises(UnknownColumnError):
                rs.get_node(column)

    def test_get_of_absent_cells_relationships_and_nodes_without_uid(self, ctx):
        rs = query_unbounded(ctx, "OPTIONAL MATCH (n:`Missing`) RETURN n")
        assert rs.next() and rs.get("n") is None
        rs = query_unbounded(ctx, "MATCH (t:`BinaryTree`)-[r:root]->(n) RETURN r")
        rs.next()
        (rel,) = rs.table.rows[0]
        assert isinstance(rel, RelRef) and rs.get("r") == rel.id
        rs = query_unbounded(ctx, "MATCH (c:Class {name: 'BinaryTree'}) RETURN c")
        rs.next()
        with pytest.raises(CastError):
            rs.get("c")

    def test_get_node(self, ctx):
        rs = query_unbounded(ctx, "MATCH (c:Class {name: 'BinaryTree'}), (t:`BinaryTree`) RETURN c, t, t.size")
        rs.next()
        assert rs.get_node("c").label == "Class" and rs.get_node("c").properties == {"name": "BinaryTree"}
        assert rs.get_node(1).properties["$uid"] == rs.get("t") == UID["f"]
        with pytest.raises(CastError):
            rs.get_node("t.size")


class TestBatch:
    def test_union_through_facade(self, ctx):
        rs = query_unbounded(ctx, "MATCH (n {[]1})-[:left|right]->(m) RETURN m", [UID["a"], UID["b"]])
        uids = []
        while rs.next():
            uids.append(rs.get("m"))
        assert sorted(uids) == sorted([UID["a"], UID["e"]])


class TestWarnings:
    def test_unreturned_create_warns(self, ctx):
        rs = query_unbounded(ctx, "CREATE (x:Tmp) RETURN 1")
        assert [w.message for w in rs.warnings] == [
            "query creates entities but returns none of them; they cannot be referenced afterwards"
        ]

    def test_read_has_no_warnings(self, ctx):
        assert query_unbounded(ctx, "MATCH (n) RETURN count(n)").warnings == []

    def test_empty_batch_returns_the_empty_table(self, ctx):
        rs = query_unbounded(ctx, "MATCH (n {[]1}) RETURN n", [])
        assert rs.columns() == ["n"]
        assert rs.row_count() == 0
        assert rs.warnings == []


class TestStageTagging:
    def test_expand_stage(self, ctx):
        with pytest.raises(PipelineError) as exc:
            query_unbounded(ctx, "MATCH (n {$1}) RETURN n")
        assert exc.value.stage == "expand"

    def test_parse_stage(self, ctx):
        with pytest.raises(PipelineError) as exc:
            query_unbounded(ctx, "MATCH (n RETURN n")
        assert exc.value.stage == "parse"

    def test_validate_stage(self, ctx):
        with pytest.raises(PipelineError) as exc:
            query_unbounded(ctx, "MATCH (n) RETURN z")
        assert exc.value.stage == "validate"

    @pytest.mark.parametrize("items", ["c.name, count(o)", "c, count(o)"])
    def test_grouped_aggregation_is_refused_at_validate(self, items):
        ctx = QueryContext(build_large_snapshot()[0])
        with pytest.raises(PipelineError) as exc:
            query_unbounded(ctx, f"MATCH (o)-[:instanceof]->(c) RETURN {items}")
        assert exc.value.stage == "validate"
        assert "mixing aggregated and plain RETURN items is not supported" in str(exc.value)

    def test_execute_stage(self, tree_snapshot):
        classes = tree_snapshot.classes + [
            ClassInfo("S", None, (FieldDecl("s", "primitive", "String"),))
        ]
        snap = HeapSnapshot(classes, tree_snapshot.objects + [HeapObject(50, "S", {"s": "x"})], tree_snapshot.roots)
        ctx = QueryContext(snap)
        with pytest.raises(PipelineError) as exc:
            query_unbounded(ctx, "MATCH (n:S) WHERE n.s < 1 RETURN n")
        assert exc.value.stage == "execute"


# Queries nested ``n`` levels deep: the text, the column of the token that opens level ``n``,
# and the value the query returns at the limit.
NESTED = {
    "parentheses": (lambda n: "RETURN " + "(" * n + "1" + ")" * n, lambda n: 7 + n, 1),
    "not": (lambda n: "RETURN " + "NOT " * n + "true", lambda n: 4 + 4 * n, MAX_NESTING % 2 == 0),
    "equals": (lambda n: "RETURN " + "equals(" * n + "1" + ", 1)" * n, lambda n: 1 + 7 * n, False),
    "count": (lambda n: "MATCH (n) RETURN count(" + "(" * (n - 1) + "n" + ")" * (n - 1) + ")", lambda n: 22 + n, 9),
}


class TestExpressionSize:
    def test_long_and_chain_in_return(self, ctx):
        rs = query_unbounded(ctx, "MATCH (n) RETURN count(n) > 0" + " AND true" * 9_999)
        assert rs.table.rows == [(True,)]

    def test_long_or_chain_in_where(self, ctx):
        terms = " OR ".join(f"n.value = {i}" for i in range(0, 2_000, 2))
        assert query_long(ctx, f"MATCH (n) WHERE {terms} RETURN count(n)") == 2

    @pytest.mark.parametrize("form", NESTED)
    def test_nesting_at_the_limit_runs(self, ctx, form):
        build, _, value = NESTED[form]
        text = build(MAX_NESTING)
        assert query_text(parse(text))
        assert query_unbounded(ctx, text).table.rows == [(value,)]

    @pytest.mark.parametrize("form", NESTED)
    def test_nesting_past_the_limit_is_a_syntax_error(self, ctx, form):
        build, column, _ = NESTED[form]
        with pytest.raises(PipelineError) as exc:
            query_unbounded(ctx, build(MAX_NESTING + 1))
        cause = exc.value.cause
        assert exc.value.stage == "parse"
        assert isinstance(cause, QuerySyntaxError)
        assert (cause.line, cause.column) == (1, column(MAX_NESTING + 1))
        assert f"limit of {MAX_NESTING} levels" in str(cause)

    @pytest.mark.parametrize("text", ["RETURN " + "(" * 300 + "1" + ")" * 300, "RETURN " + "NOT " * 1_000 + "true"])
    def test_deep_nesting_is_not_a_recursion_error(self, ctx, text):
        with pytest.raises(PipelineError) as exc:
            query_unbounded(ctx, text)
        assert exc.value.stage == "parse"
        assert isinstance(exc.value.cause, QuerySyntaxError)


class TestExtractionMemo:
    def test_cache_reuses_graph(self, tree_snapshot):
        ctx = QueryContext(tree_snapshot, cache_extractions=True)
        first = query_unbounded(ctx, "MATCH (n) RETURN count(n)")
        second = query_unbounded(ctx, "MATCH (n) RETURN count(n)")
        assert first._graph is second._graph

    @pytest.mark.parametrize("cache", [False, True])
    def test_root_order_shares_one_entry(self, tree_snapshot, cache):
        ctx = QueryContext(tree_snapshot, cache_extractions=cache)
        first = query_bounded(ctx, [UID["a"], UID["d"]], "MATCH (n) RETURN count(n)")
        second = query_bounded(ctx, [UID["d"], UID["a"], UID["d"]], "MATCH (n) RETURN count(n)")
        assert first._graph is second._graph
        assert list(tree_snapshot._kept.keys()) == [ExtractionConfig(root=[UID["a"], UID["d"]]).key()]
        assert kept_graph(tree_snapshot, [UID["d"], UID["a"]]) is first._graph

    def test_cached_graph_is_filled(self, tree_snapshot):
        ctx = QueryContext(tree_snapshot, cache_extractions=True)
        graph = query_bounded(ctx, UID["c"], "MATCH (n {$1}) RETURN n", UID["c"])._graph
        assert graph._filled
        assert graph.audit() == []

    @pytest.mark.parametrize("cache", [False, True])
    def test_writes_do_not_leak_into_cache(self, cache):
        ctx = QueryContext(graph_to_snapshot(build_tree_graph()), cache_extractions=cache)
        count = "MATCH (n) RETURN count(n)"
        assert query_long(ctx, count) == 8
        shared = query_unbounded(ctx, count)._graph
        sizes = (shared.node_count, shared.relationship_count)
        for _ in range(2):  # the first call of a template is parsed, the second is not
            created = query_unbounded(ctx, "CREATE (x:Foo) RETURN x")
            assert created.table.row_count == 1 and created._graph is not shared
            assert query_long(ctx, count) == 8
            with pytest.raises(PipelineError) as exc:
                query_unbounded(ctx, "MATCH (n) CREATE (m:New) RETURN NOT 1")
            assert exc.value.stage == "execute"
            assert query_long(ctx, count) == 8
            merged = query_unbounded(ctx, "MERGE (x:Foo) RETURN count(x)")
            assert merged.table.rows == [(1,)]
            assert query_long(ctx, count) == 8
        assert query_unbounded(ctx, count)._graph is shared
        assert (shared.node_count, shared.relationship_count) == sizes
        assert shared.audit() == []

    def test_reads_share_one_graph_per_root_set(self, tree_snapshot):
        ctx = QueryContext(tree_snapshot)
        first = query_unbounded(ctx, "MATCH (n:`BinaryTree$Node`) RETURN count(n)")
        second = query_unbounded(ctx, "MATCH (n {$1}) RETURN n", UID["c"])
        assert first._graph is second._graph and not first._graph._filled
        bounded = query_bounded(ctx, UID["c"], "MATCH (n {$1}) RETURN n", UID["c"])
        assert bounded._graph is not first._graph
        assert query_bounded(ctx, [UID["c"]], "MATCH (n) RETURN count(n)")._graph is bounded._graph

    @pytest.mark.parametrize("cache", [False, True])
    def test_kept_graphs_go_with_their_numberings(self, tree_snapshot, cache):
        ctx = QueryContext(tree_snapshot, cache_extractions=cache)
        roots = [obj.id for obj in tree_snapshot.objects]
        for root in roots + [[UID["a"], UID["b"]], None] + roots:
            rs = query_bounded(ctx, root, "MATCH (n) RETURN count(n)")
            assert kept_graph(tree_snapshot, root) is rs._graph
        assert sum(len(reachable_from(tree_snapshot, [r])) for r in roots) > len(tree_snapshot.objects)
        assert 0 < len(tree_snapshot._kept.keys()) < len(roots)

    def test_a_read_keeps_its_numbering_recently_used(self, tree_snapshot, numbered):
        # a reaches 1 object and c 5, which fill the budget of 6; the read of
        # a after c makes c the least recently used, so d drops c, not a
        ctx = QueryContext(tree_snapshot)
        for name in "acada":
            query_bounded(ctx, UID[name], "MATCH (n) RETURN count(n)")
        assert [len(ids) for ids in numbered] == [1, 5, 1]
        assert kept_graph(tree_snapshot, UID["c"]) is None

    def test_two_root_sets_used_in_turn_keep_each_other(self, numbered):
        """An unbounded read fills the budget; a bounded read used in turn with it does not drop it."""
        snapshot, root, *_ = build_large_snapshot()
        ctx = QueryContext(snapshot)
        for _ in range(5):
            assert query_long(ctx, "MATCH (n:`app.Item`) RETURN count(n)") == 1000
            assert query_long(ctx, "MATCH (n {$1}) RETURN count(n)", root, root=root) == 1
        assert [len(ids) for ids in numbered] == [len(snapshot.objects), 1000]

        numbered.clear()
        snapshot, map_id, probe_id, _ = build_hashmap_snapshot(random.Random(5), 200)
        ctx = QueryContext(snapshot)
        for _ in range(5):
            query_boolean(ctx, CONTAINS_KEY_QUERY, map_id, probe_id, root=[map_id, probe_id])
            query_bounded(ctx, probe_id, "MATCH (n {$1}) RETURN count(n)", probe_id)
        assert len(numbered) == 2 and len(numbered[0]) == len(snapshot.objects)

    @pytest.mark.parametrize("cache", [False, True])
    def test_the_first_call_of_a_write_keeps_and_fills_no_graph(self, monkeypatch, cache):
        snapshot = build_large_snapshot()[0]
        ctx = QueryContext(snapshot, cache_extractions=cache)
        fills = []
        fill = SnapshotGraph.fill
        monkeypatch.setattr(SnapshotGraph, "fill", lambda graph: fills.append(graph) or fill(graph))
        for _ in range(2):
            created = query_unbounded(ctx, "CREATE (x:Foo) RETURN x")
            assert created.table.row_count == 1 and not created._graph._filled
        assert list(snapshot._kept.keys()) == [ExtractionConfig().key()]  # the numbering, and no graph
        assert kept_graph(snapshot) is None and fills == []
        read = query_unbounded(ctx, "MATCH (n:Foo) RETURN count(n)")
        assert read.table.rows == [(0,)] and read._graph is kept_graph(snapshot)
        assert fills == ([read._graph] if cache else [])

    @pytest.mark.parametrize("bad", [True, 1.0, [1, True], [True, 1], [[1]], (1.0,)])
    def test_a_bad_root_fails_after_an_equal_good_one(self, bad):
        ctx = QueryContext(build_large_snapshot()[0])
        good = [1] * len(bad) if isinstance(bad, (list, tuple)) else 1
        for _ in range(2):
            assert query_long(ctx, "MATCH (n) RETURN count(n)", root=good) > 0
            with pytest.raises(PipelineError) as exc:
                query_bounded(ctx, bad, "MATCH (n) RETURN count(n)")
            assert exc.value.stage == "extract"
            assert isinstance(exc.value.__cause__, ExtractionConfigError)


class TestContextDefaults:
    @pytest.mark.parametrize("root", [UID["a"], [UID["a"]], "x"])
    def test_a_root_in_the_defaults_is_refused(self, tree_snapshot, root):
        """Each query passes its own root, which would silently replace this one."""
        with pytest.raises(ExtractionConfigError):
            QueryContext(tree_snapshot, ExtractionConfig(root=root))

    def test_the_other_defaults_apply(self, tree_snapshot):
        ctx = QueryContext(tree_snapshot, ExtractionConfig(blacklist=frozenset({"BinaryTree"})))
        assert query_long(ctx, "MATCH (n:BinaryTree) RETURN count(n)") == 0


class TestContainsKeyThroughFacade:
    def test_present_and_absent(self):
        from .oracles import hashmap_contains

        rng = random.Random(3)
        for _ in range(10):
            snapshot, map_id, probe_id, _present = build_hashmap_snapshot(rng, rng.randint(3, 20))
            ctx = QueryContext(snapshot)
            got = query_boolean(ctx, CONTAINS_KEY_QUERY, map_id, probe_id)
            assert got == hashmap_contains(snapshot, map_id, probe_id)


@pytest.fixture
def validate_calls(monkeypatch) -> list:
    """Snapshots passed to ``HeapSnapshot.validate``, one entry per full check."""
    calls = []
    original = HeapSnapshot.validate

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(HeapSnapshot, "validate", counting)
    return calls


class TestValidateOnce:
    def test_loaded_snapshot_is_not_validated_again(self, validate_calls):
        snapshot = load_snapshot((DATA / "tree_snapshot.json").read_bytes())
        assert len(validate_calls) == 1
        ctx = QueryContext(snapshot)
        for uid in UID.values():
            query_bounded(ctx, uid, "MATCH (n) RETURN count(n)")
        assert len(validate_calls) == 1
        snapshot.validate()
        assert len(validate_calls) == 2

    def test_hand_built_snapshot_is_validated_at_first_use(self, tree_snapshot, validate_calls):
        snapshot = HeapSnapshot(tree_snapshot.classes, tree_snapshot.objects, tree_snapshot.roots)
        ctx = QueryContext(snapshot)
        query_bounded(ctx, UID["f"], "MATCH (n) RETURN count(n)")
        query_unbounded(ctx, "MATCH (n) RETURN count(n)")
        assert validate_calls == [snapshot]

    def test_dangling_reference_fails_at_first_use(self):
        def dangling() -> HeapSnapshot:
            return HeapSnapshot(
                [ClassInfo("A", None, (FieldDecl("f", "reference", "A"),))],
                [HeapObject(1, "A", {"f": Ref(99)})],
                {},
            )

        with pytest.raises(DanglingReferenceError):
            QueryContext(dangling())
        snapshot = dangling()
        for _ in range(2):
            with pytest.raises(DanglingReferenceError):
                extract(snapshot, ExtractionConfig(root=1))


class TestTracedCallSites:
    def test_each_api_call_site_of_the_benchmark_tracer_is_an_api_attribute(self):
        """The traced benchmark wraps ``heapquery.api.<name>`` for its front-end and engine spans."""
        path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        names = [name for module, name, _ in tracing.CALL_SITES if module == "heapquery.api"]
        assert names
        assert [name for name in names if not callable(getattr(api, name, None))] == []
