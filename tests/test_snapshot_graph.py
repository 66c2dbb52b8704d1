"""The graph ``extract`` returns, checked against the eager reference extraction.

A SnapshotGraph numbers every node and relationship up front and builds
them on first touch.  Filled, it must equal ``oracles.reference_extract``
in ids, labels, properties, endpoints and adjacency; partly built, it must
give the same query rows in the same order.  Graphs extracted with one key
share that numbering and nothing else.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from heapquery import subgraph
from heapquery.api import QueryContext, query_bounded
from heapquery.errors import NodeNotFoundError, RelationshipNotFoundError, UnknownRootError
from heapquery.query_engine import execute
from heapquery.subgraph import (
    ClassInfo,
    ExtractionConfig,
    FieldDecl,
    HeapObject,
    HeapSnapshot,
    Ref,
    RefArray,
    SnapshotGraph,
    collect,
    extract,
    follow_references,
)

from .conftest import CONTAINS_KEY_QUERY, REACHABLE_QUERY, REPOK_QUERY, TWO_HOP_QUERY, UID, expanded_queries
from .generators import build_hashmap_snapshot, build_large_snapshot, build_tree_case, random_snapshot
from .oracles import reference_extract

# The query shapes of the bounded-probe benchmark workload.
PROBE_HOP = "MATCH (r {$1})-[:tree]->(t) RETURN t.key"
PROBE_UID = "MATCH (x {$1}) RETURN x.value"
PROBE_PATHS = "MATCH (n {$1})-[:left|right*1..3]->(m) RETURN count(m)"
PROBE_LABEL = "MATCH (n:@1) RETURN count(n)"
PROBE_ARRAY = "MATCH (h {$1})-[:data]->(a)-[:element]->(d) RETURN a, d, d.value"
DAG_QUERY = "MATCH (n {$1})-[:a|b*]->(m) RETURN DISTINCT m"
LIST_QUERY = "MATCH (n {$1})-[:next*]->(m) RETURN count(m)"


def _nodes(graph):
    return [(n.id, n.label, list(n.properties.items())) for n in graph.nodes()]


def _rels(graph):
    return [(r.id, r.label, r.start, r.end, list(r.properties.items())) for r in graph.relationships()]


def _rows(graph, fmt: str, *args) -> list:
    rows = []
    for query in expanded_queries(fmt, *args):
        table, _ = execute(query, graph)
        rows.extend(table.rows)
    return rows


# --- random snapshots and configs ---------------------------------------------------


def _with_hierarchy_and_statics(rng: random.Random, snapshot: HeapSnapshot) -> HeapSnapshot:
    """``snapshot`` with random superclasses, static references and arrays, and roots out of name order."""
    ids = [o.id for o in snapshot.objects]
    roots = {name: rng.choice(ids) for name in rng.sample("abcdef", rng.randint(0, 3))}
    classes = []
    for info in snapshot.classes:
        superclass = rng.choice(classes).name if classes and rng.random() < 0.5 else None
        statics = dict(info.statics)
        if rng.random() < 0.3:
            statics["all"] = RefArray([rng.choice(ids) if rng.random() < 0.8 else None for _ in range(rng.randint(0, 3))])
        if rng.random() < 0.2:
            statics["one"] = Ref(rng.choice(ids))
        classes.append(ClassInfo(info.name, superclass, info.fields, statics))
    return HeapSnapshot(classes, snapshot.objects, roots)


def _random_config(rng: random.Random, snapshot: HeapSnapshot) -> ExtractionConfig:
    names = [c.name for c in snapshot.classes]
    blacklist = frozenset(n for n in names if rng.random() < 0.2)
    whitelist = frozenset(n for n in names if n not in blacklist and rng.random() < 0.2)
    force_collect = rng.random() < 0.2
    pool = [o.id for o in (collect(snapshot) if force_collect else snapshot).objects]
    root = None
    if pool and rng.random() < 0.6:
        roots = rng.sample(pool, k=min(len(pool), rng.randint(1, 2)))
        root = roots[0] if len(roots) == 1 and rng.random() < 0.5 else roots
    return ExtractionConfig(whitelist, blacklist, root, force_collect)


def _touch_and_compare(rng: random.Random, graph: SnapshotGraph, expected) -> dict:
    """Build random parts of ``graph`` lazily, checking each against ``expected``.

    Returns the objects built, by ("node" | "rel", id), to check that a later
    fill keeps them.
    """
    built = {}
    for _ in range(rng.randint(1, 6)):
        what = rng.random()
        if what < 0.3 and expected.node_count:
            node_id = rng.randrange(expected.node_count)
            node = graph.node(node_id)
            want = expected.node(node_id)
            assert (node.label, list(node.properties.items())) == (want.label, list(want.properties.items()))
            built["node", node_id] = node
        elif what < 0.6 and expected.node_count:
            node_id = rng.randrange(expected.node_count)
            got = graph.neighbors(node_id, "out")
            want = expected.neighbors(node_id, "out")
            assert [(r.id, r.label, r.end, o.id) for r, o in got] == [(r.id, r.label, r.end, o.id) for r, o in want]
            for rel, other in got:
                built["rel", rel.id] = rel
                built["node", other.id] = other
        elif what < 0.75 and expected.relationship_count:
            rel_id = rng.randrange(expected.relationship_count)
            rel = graph.relationship(rel_id)
            want = expected.relationship(rel_id)
            assert (rel.label, rel.start, rel.end, rel.properties) == (want.label, want.start, want.end, want.properties)
            built["rel", rel_id] = rel
        elif what < 0.9:
            uid = rng.randint(0, 13)
            assert [n.id for n in graph.nodes_with_uid(uid)] == [n.id for n in expected.nodes_with_uid(uid)]
        else:
            label = rng.choice(["demo.C0", "demo.C1", "demo.C2", "demo.C9"])
            assert [n.id for n in graph.nodes_with_label(label)] == [n.id for n in expected.nodes_with_label(label)]
    return built


def test_filled_graph_equals_reference_extract():
    rng = random.Random(606)
    lazy_cases = 0
    for _ in range(300):
        snapshot = _with_hierarchy_and_statics(rng, random_snapshot(rng))
        config = _random_config(rng, snapshot)
        graph = extract(snapshot, config)
        expected = reference_extract(snapshot, config)
        assert isinstance(graph, SnapshotGraph)
        assert (graph.node_count, graph.relationship_count) == (expected.node_count, expected.relationship_count)
        built = {}
        if rng.random() < 0.5:
            built = _touch_and_compare(rng, graph, expected)
            lazy_cases += not graph._filled
        assert _nodes(graph) == _nodes(expected)
        assert _rels(graph) == _rels(expected)
        for node in expected.nodes():
            for direction in ("out", "in", "both"):
                got = [(r.id, o.id) for r, o in graph.neighbors(node.id, direction)]
                assert got == [(r.id, o.id) for r, o in expected.neighbors(node.id, direction)]
        assert graph.audit() == []
        for (kind, item_id), item in built.items():
            assert (graph.node(item_id) if kind == "node" else graph.relationship(item_id)) is item
        # the next ids continue the same numbering
        new_node = graph.add_node("Extra")
        assert new_node == expected.add_node("Extra")
        assert graph.add_relationship("extra", new_node, new_node) == expected.add_relationship("extra", new_node, new_node)
        assert graph.audit() == []
    assert lazy_cases > 50


def _random_writes(rng: random.Random, node_count: int) -> list:
    """``add_node`` and ``add_relationship`` calls on a graph of ``node_count`` nodes, some between new nodes."""
    writes = []
    for _ in range(rng.randint(1, 5)):
        if not node_count or rng.random() < 0.4:
            props = rng.choice([{}, {"v": 1}, {"$uid": rng.randint(0, 13)}])
            writes.append(("add_node", rng.choice(["demo.C0", "demo.C1", "Extra"]), props))
            node_count += 1
        else:
            writes.append(("add_relationship", "extra", rng.randrange(node_count), rng.randrange(node_count)))
    return writes


def _apply(graph, writes) -> list[int]:
    return [getattr(graph, name)(*args) for name, *args in writes]


def _assert_same_graph(graph, expected):
    assert _nodes(graph) == _nodes(expected)
    assert _rels(graph) == _rels(expected)
    for node in expected.nodes():
        for direction in ("out", "in"):
            got = [(r.id, o.id) for r, o in graph.neighbors(node.id, direction)]
            assert got == [(r.id, o.id) for r, o in expected.neighbors(node.id, direction)]
    assert graph.audit() == []


def test_repeated_extractions_share_the_numbering_and_not_the_graph():
    rng = random.Random(607)
    for _ in range(300):
        snapshot = _with_hierarchy_and_statics(rng, random_snapshot(rng))
        config = _random_config(rng, snapshot)
        expected = reference_extract(snapshot, config)
        labels = ["demo.C0", "demo.C1", "Extra"]

        # Writes on an unfilled graph append without filling, and a later
        # fill gives what filling first would have.
        written = extract(snapshot, config)
        if rng.random() < 0.5:
            _touch_and_compare(rng, written, expected)
        writes = _random_writes(rng, expected.node_count)
        filled_first = extract(snapshot, config).fill()
        assert _apply(written, writes) == _apply(filled_first, writes)
        assert not written._filled
        for label in labels:
            assert [n.id for n in written.nodes_with_label(label)] == [n.id for n in filled_first.nodes_with_label(label)]
        for uid in range(14):
            assert [n.id for n in written.nodes_with_uid(uid)] == [n.id for n in filled_first.nodes_with_uid(uid)]
        rows = _rows(written, "MERGE (m:`demo.C1` {v: 1}) RETURN m")
        assert rows == _rows(filled_first, "MERGE (m:`demo.C1` {v: 1}) RETURN m")
        _rows(written, "CREATE (x:`demo.C0` {v: 2}) RETURN x")
        assert not written._filled
        written.fill()
        _rows(filled_first, "CREATE (x:`demo.C0` {v: 2}) RETURN x")
        _assert_same_graph(written, filled_first)

        # The second and third graph with the key see none of those writes,
        # and share no property map with the written graphs.
        reordered = replace(config, root=config.root[::-1] if isinstance(config.root, list) else config.root)
        for again in (extract(snapshot, config), extract(snapshot, reordered)):
            for label in labels:
                assert [n.id for n in again.nodes_with_label(label)] == [n.id for n in expected.nodes_with_label(label)]
            _assert_same_graph(again, expected)
            for rel in again.relationships():
                assert rel.properties is not written.relationship(rel.id).properties
        assert len(snapshot._kept.keys()) == 1


def test_list_properties_are_not_shared():
    cls = ClassInfo("A", None, (FieldDecl("xs", "primitive-array", "int[]"),), {"ys": [4]})
    snapshot = HeapSnapshot([cls], [HeapObject(1, "A", {"xs": [1, 2]})], {})
    for config in (ExtractionConfig(root=1), ExtractionConfig()):
        graph = extract(snapshot, config)
        graph.node(0).properties["xs"].append(3)
        graph.node(1).properties["ys"].append(5)
        again = extract(snapshot, config)
        assert (again.node(0).properties["xs"], again.node(1).properties["ys"]) == ([1, 2], [4])
    assert snapshot.object(1).fields["xs"] == [1, 2]


def test_adding_nodes_while_iterating_an_unfilled_lookup():
    graph = extract(_chain_snapshot(5), ExtractionConfig())
    graph.add_node("c.Cell", {"$uid": 3})
    for _ in graph.nodes_with_label("c.Cell"):  # 5 numbered and 1 added
        graph.add_node("c.Cell", {"$uid": 3})
    for _ in graph.nodes_with_uid(3):  # 1 numbered and 7 added
        graph.add_node("c.Cell", {"$uid": 3})
    assert not graph._filled
    assert (len(list(graph.nodes_with_label("c.Cell"))), len(list(graph.nodes_with_uid(3)))) == (20, 16)


def test_a_filled_graph_answers_uid_lookups_without_an_index_of_every_node(monkeypatch):
    from heapquery import property_graph

    built = []
    build_index = property_graph._build_index

    def counted(items, key_of):
        built.append(key_of)
        return build_index(items, key_of)

    monkeypatch.setattr(property_graph, "_build_index", counted)
    graph = extract(_chain_snapshot(5), ExtractionConfig())
    graph.add_node("c.Cell", {"$uid": 3})  # added before the fill, next to numbered uid 3
    graph.fill()
    graph.add_node("Extra", {"$uid": 7})  # added after it, a uid no object has
    graph.add_node("Extra", {"$uid": 3, "v": 1})
    graph.add_node("Extra", {"v": 2})
    expected = graph.copy()  # a PropertyGraph, whose first lookup indexes every node
    assert not isinstance(expected, SnapshotGraph) and expected._by_uid is None
    for uid in (1, 3, 5, 7, 99):
        assert [n.id for n in graph.nodes_with_uid(uid)] == [n.id for n in expected.nodes_with_uid(uid)]
    assert [n.id for n in graph.nodes_with_uid(3)] == [3, 7, 9]  # numbered first, then added in id order
    assert built.count(property_graph._uid_key) == 1  # the copy's index, not the filled graph's
    assert graph._by_uid == {3: [7, 9], 7: [8]}  # only the nodes added since the numbering
    assert graph.audit() == [] and expected.audit() == []
    graph.node(3).properties["$uid"] = 4  # an in-place change is not seen by the lookup, but audit reports it
    assert [n.id for n in graph.nodes_with_uid(3)] == [3, 7, 9]
    assert any(problem.startswith("$uid index entry") for problem in graph.audit())


def test_unknown_root_leaves_no_numbering():
    snapshot = _chain_snapshot(10)
    for root in (404, [1, 404]):
        for _ in range(2):
            with pytest.raises(UnknownRootError):
                extract(snapshot, ExtractionConfig(root=root))
        assert list(snapshot._kept.keys()) == []
    extract(snapshot, ExtractionConfig(root=[1, 1]))
    assert list(snapshot._kept.keys()) == [ExtractionConfig(root=1).key()]


def test_kept_numberings_hold_at_most_the_snapshot_objects():
    """At most the snapshot's objects, plus the numbering used last before a new one, which stays."""
    snapshot = _chain_snapshot(50)  # root i reaches the 51 - i objects from i on
    reached = lambda key: 51 - min(key[0])  # noqa: E731
    used_last = None
    for step, root in enumerate((41, 31, 41, 21, 46, 1, 46, 1, 11)):
        graph = extract(snapshot, ExtractionConfig(root=root))
        held = sum(map(reached, snapshot._kept.keys()))
        assert held <= len(snapshot.objects) + (0 if used_last is None else reached(used_last))
        assert list(snapshot._kept.keys())[-1] == ExtractionConfig(root=root).key()
        if used_last is not None:
            assert used_last in snapshot._kept.keys()  # the one used before a new one is never dropped
        assert [n.properties["$uid"] for n in graph.nodes_with_label("c.Cell")] == list(range(root, 51))
        used_last = ExtractionConfig(root=root).key()
        if step == 4:
            # 10 + 20 + 30 objects did not fit: 31 was used least recently, and was dropped
            assert [key[0] for key in snapshot._kept.keys()] == [{41}, {21}, {46}]
    # 1 reaches all 50: the others go, but 46, used just before it, stays; then
    # 46 and 1 take turns without numbering again, and 11 drops 46, used before 1
    assert [key[0] for key in snapshot._kept.keys()] == [{1}, {11}]


def test_repeated_root_does_not_follow_references_again(monkeypatch):
    calls = []

    def counting(snapshot, start_ids):
        calls.append(list(start_ids))
        return follow_references(snapshot, start_ids)

    monkeypatch.setattr(subgraph, "follow_references", counting)
    snapshot, headers, _, data = _probe_snapshot(random.Random(8))
    ctx = QueryContext(snapshot)
    for root in ([headers[0], headers[1]], [headers[1], headers[0]], headers[1], [headers[1]]):
        query_bounded(ctx, root, PROBE_UID, data[1][0])
    assert calls == [[headers[0], headers[1]], [headers[1]]]


# --- query rows on fresh graphs -------------------------------------------------------

PROBE_CLASSES = [
    ClassInfo(
        "bench.Header",
        None,
        (FieldDecl("tree", "reference", "bench.Node"), FieldDecl("data", "reference-array", "bench.Data")),
    ),
    ClassInfo(
        "bench.Node",
        None,
        (
            FieldDecl("left", "reference", "bench.Node"),
            FieldDecl("right", "reference", "bench.Node"),
            FieldDecl("key", "primitive", "int"),
        ),
    ),
    ClassInfo("bench.Data", None, (FieldDecl("value", "primitive", "int"),)),
]


def _probe_snapshot(rng: random.Random, structures: int = 3, size: int = 30):
    """Independent header/tree/data structures under named roots, plus garbage."""
    objects = []
    roots = {}
    headers, tree_nodes, data = [], [], []
    next_id = 1
    for s in range(structures):
        header = next_id
        node_ids = list(range(header + 1, header + 1 + size))
        data_ids = list(range(node_ids[-1] + 1, node_ids[-1] + 1 + size // 3))
        next_id = data_ids[-1] + 1
        children = {n: {} for n in node_ids}
        for i, node_id in enumerate(node_ids[1:], start=1):
            while True:
                parent = rng.choice(node_ids[:i])
                free = [side for side in ("left", "right") if side not in children[parent]]
                if free:
                    children[parent][rng.choice(free)] = node_id
                    break
        slots = [rng.choice(data_ids) if rng.random() < 0.8 else None for _ in range(len(data_ids) + 2)]
        objects.append(HeapObject(header, "bench.Header", {"tree": Ref(node_ids[0]), "data": RefArray(slots)}))
        for node_id in node_ids:
            fields = {side: Ref(child) for side, child in children[node_id].items()}
            fields["key"] = rng.randint(0, 99)
            objects.append(HeapObject(node_id, "bench.Node", fields))
        objects += [HeapObject(d, "bench.Data", {"value": rng.randint(-50, 50)}) for d in data_ids]
        roots[f"s{s}"] = header
        headers.append(header)
        tree_nodes.append(node_ids)
        data.append(data_ids)
    objects.append(HeapObject(next_id, "bench.Data", {"value": 7}))  # unreachable
    return HeapSnapshot(PROBE_CLASSES, objects, roots), headers, tree_nodes, data


def _assert_same_rows(snapshot, config, fmt, *args, lazy=False):
    graph = extract(snapshot, config)
    assert _rows(graph, fmt, *args) == _rows(reference_extract(snapshot, config), fmt, *args)
    if lazy:
        assert not graph._filled, fmt


def test_probe_shapes_match_reference_without_fill():
    rng = random.Random(1030)
    for _ in range(8):
        snapshot, headers, tree_nodes, data = _probe_snapshot(rng)
        for s, header in enumerate(headers):
            config = ExtractionConfig(root=header)
            _assert_same_rows(snapshot, config, PROBE_HOP, header, lazy=True)
            _assert_same_rows(snapshot, config, PROBE_UID, rng.choice(data[s]), lazy=True)
            _assert_same_rows(snapshot, config, PROBE_PATHS, rng.choice(tree_nodes[s]), lazy=True)
            _assert_same_rows(snapshot, config, PROBE_ARRAY, header, lazy=True)
            for label in ("bench.Node", "bench.Data", "bench.Missing"):
                _assert_same_rows(snapshot, config, PROBE_LABEL, label, lazy=True)
            _assert_same_rows(snapshot, ExtractionConfig(root=[header, headers[0]]), PROBE_PATHS, tree_nodes[s][0])
        # the benchmark's writes, and whole-graph reads
        header = headers[-1]
        config = ExtractionConfig(root=header)
        _assert_same_rows(snapshot, config, "MATCH (r {$1}) CREATE (r)-[:extra]->(x:@2 {value: -1}) RETURN x", header, "bench.Data")
        _assert_same_rows(snapshot, config, "MATCH (r {$1}) MERGE (m:@2 {value: -2}) RETURN m", header, "bench.Data")
        _assert_same_rows(snapshot, ExtractionConfig(), "MATCH (n) RETURN n, n.key")
        _assert_same_rows(snapshot, ExtractionConfig(), "MATCH (l:Local)-[b]->(x) RETURN l, b, x")
        _assert_same_rows(snapshot, config, "MATCH (a)<-[:element]-(x) RETURN a, x")


def _dag_and_list_snapshot() -> HeapSnapshot:
    """A diamond DAG of depth 8 from object 0, and a 60-cell list from object 5000."""
    dag_class = ClassInfo("g.V", None, (FieldDecl("a", "reference", "g.V"), FieldDecl("b", "reference", "g.V")))
    list_class = ClassInfo("g.L", None, (FieldDecl("next", "reference", "g.L"),))
    depth = 8
    objects = []
    for level in range(depth):  # node i of a level points at i and i + 1 of the next
        for i in range(level + 1):
            fields = {}
            if level + 1 < depth:
                fields = {"a": Ref(100 * (level + 1) + i), "b": Ref(100 * (level + 1) + i + 1)}
            objects.append(HeapObject(100 * level + i, "g.V", fields))
    objects += [HeapObject(5000 + i, "g.L", {"next": Ref(5000 + i + 1)} if i < 59 else {}) for i in range(60)]
    return HeapSnapshot([dag_class, list_class], objects, {})


def test_heap_analytics_shapes_match_reference():
    rng = random.Random(1031)
    for _ in range(12):
        snapshot, map_id, probe_id, _ = build_hashmap_snapshot(rng, rng.randint(1, 40))
        _assert_same_rows(snapshot, ExtractionConfig(root=[map_id, probe_id]), CONTAINS_KEY_QUERY, map_id, probe_id)
    for kind in ("valid", "cyclic", "size-mismatch", "forest") * 6:
        snapshot, tree_id = build_tree_case(rng, kind)
        _assert_same_rows(snapshot, ExtractionConfig(root=tree_id), REPOK_QUERY, tree_id, lazy=True)
        _assert_same_rows(snapshot, ExtractionConfig(), REPOK_QUERY, tree_id, lazy=True)

    snapshot = _dag_and_list_snapshot()
    _assert_same_rows(snapshot, ExtractionConfig(root=0), DAG_QUERY, 0, lazy=True)
    _assert_same_rows(snapshot, ExtractionConfig(root=5000), LIST_QUERY, 5000, lazy=True)
    _assert_same_rows(snapshot, ExtractionConfig(root=[0, 5010]), LIST_QUERY, 5010, lazy=True)


def test_contexts_over_one_snapshot_share_its_kept_graphs():
    """A caching and a default context, read in random turns, return what a fresh extraction returns."""
    rng = random.Random(1032)
    cases = []
    for _ in range(4):
        snapshot, map_id, probe_id, _ = build_hashmap_snapshot(rng, rng.randint(1, 40))
        cases.append((snapshot, [([map_id, probe_id], CONTAINS_KEY_QUERY, (map_id, probe_id))]))
    for kind in ("valid", "cyclic", "size-mismatch", "forest") * 2:
        snapshot, tree_id = build_tree_case(rng, kind)
        cases.append((snapshot, [(tree_id, REPOK_QUERY, (tree_id,)), (None, REPOK_QUERY, (tree_id,))]))
    probes = [(0, DAG_QUERY, (0,)), (5000, LIST_QUERY, (5000,)), ([0, 5010], LIST_QUERY, (5010,)), (None, LIST_QUERY, (5050,))]
    cases.append((_dag_and_list_snapshot(), probes))
    for snapshot, probes in cases:
        contexts = [QueryContext(snapshot, cache_extractions=True), QueryContext(snapshot)]
        graphs = []
        for root, fmt, args in rng.choices(probes, k=3 * len(probes)):
            first, second = (query_bounded(ctx, root, fmt, *args) for ctx in rng.sample(contexts, 2))
            expected = _rows(extract(snapshot, ExtractionConfig(root=root)), fmt, *args)
            assert first.table.rows == second.table.rows == expected, fmt
            assert first._graph is second._graph and first._graph._filled  # the caching context filled it
            assert snapshot._kept[ExtractionConfig(root=root).key()][1] is first._graph
            graphs.append(first._graph)
        assert all(graph.audit() == [] for graph in graphs)


def test_criterion_7_and_tree_fixture_shapes_match_reference(tree_snapshot):
    snapshot, root, item_ids, _ = build_large_snapshot()
    items = "MATCH (n:`app.Item`)-[:next*2]->(m) RETURN count(m)"
    _assert_same_rows(snapshot, ExtractionConfig(root=root), items, lazy=True)
    _assert_same_rows(snapshot, ExtractionConfig(root=root), "MATCH (n {$1})-[:next*2]->(m) RETURN m, m.payload", 500, lazy=True)
    _assert_same_rows(snapshot, ExtractionConfig(blacklist=frozenset({"app.Junk"})), items, lazy=True)

    for config in (ExtractionConfig(), ExtractionConfig(root=UID["f"]), ExtractionConfig(root=UID["b"])):
        _assert_same_rows(tree_snapshot, config, TWO_HOP_QUERY, UID["c"], lazy=True)
        _assert_same_rows(tree_snapshot, config, "MATCH (n:`BinaryTree$Node`) RETURN n, n.value", lazy=True)
        _assert_same_rows(tree_snapshot, config, "MATCH (f {$1})-[:root]->(r)-[:left]->(x) RETURN f, r, x", UID["f"])
        _assert_same_rows(tree_snapshot, config, REACHABLE_QUERY, UID["b"])
        _assert_same_rows(tree_snapshot, config, "MATCH (n)-[r]->(m:Class) RETURN n, r, m")
        _assert_same_rows(tree_snapshot, config, "MATCH (n {$1}), (m {$1}) WHERE equals(n, m) RETURN count(n)", UID["a"])


# --- what a read builds ------------------------------------------------------------------


def _chain_snapshot(length: int) -> HeapSnapshot:
    chain = ClassInfo("c.Cell", None, (FieldDecl("next", "reference", "c.Cell"), FieldDecl("value", "primitive", "int")))
    objects = [
        HeapObject(i, "c.Cell", {"value": i * 10, **({"next": Ref(i + 1)} if i < length else {})})
        for i in range(1, length + 1)
    ]
    return HeapSnapshot([chain], objects, {"head": 1})


def test_uid_lookup_builds_at_most_two_nodes():
    snapshot = _chain_snapshot(1000)
    graph = extract(snapshot, ExtractionConfig(root=1))
    assert graph.node_count == 1002  # 1,000 cells, their class node and the binder
    assert _rows(graph, PROBE_UID, 640) == [(6400,)]
    assert len(graph._nodes) <= 2
    assert len(graph._rels) == 0


def test_one_hop_builds_one_object_out_edges():
    snapshot = _chain_snapshot(1000)
    graph = extract(snapshot, ExtractionConfig(root=1))
    assert _rows(graph, "MATCH (x {$1})-[:next]->(y) RETURN y.value", 640) == [(6410,)]
    # the start, its class node and its successor; its instanceof and next edges
    assert len(graph._nodes) == 3
    assert len(graph._rels) == 2


def test_node_count_does_not_fill():
    graph = extract(_chain_snapshot(50), ExtractionConfig(root=1))
    assert (graph.node_count, graph.relationship_count) == (52, 100)
    assert not graph._filled
    assert not graph._nodes and not graph._rels


def test_write_after_partial_reads_keeps_identity():
    snapshot, headers, _, data = _probe_snapshot(random.Random(7))
    graph = extract(snapshot, ExtractionConfig(root=headers[0]))
    _rows(graph, PROBE_ARRAY, headers[0])
    built_nodes = dict(graph._nodes)
    built_rels = dict(graph._rels)
    assert built_nodes and not graph._filled
    rows = _rows(graph, "MATCH (r {$1}) CREATE (r)-[:extra]->(x:@2 {value: -1}) RETURN x", headers[0], "bench.Data")
    assert not graph._filled and len(rows) == 1  # the write appended without filling
    assert all(graph.node(node_id) is node for node_id, node in built_nodes.items())
    assert all(graph.relationship(rel_id) is rel for rel_id, rel in built_rels.items())
    graph.fill()
    assert all(graph.node(node_id) is node for node_id, node in built_nodes.items())
    assert all(graph.relationship(rel_id) is rel for rel_id, rel in built_rels.items())
    assert list(graph._nodes) == sorted(graph._nodes)
    assert list(graph._rels) == sorted(graph._rels)
    assert graph.audit() == []


# Writes that append above the numbered range without filling.
_ADD_NODE = lambda g: g.add_node("New")  # noqa: E731
_ADD_RELATIONSHIP = lambda g: g.add_relationship("new", 0, 1)  # noqa: E731


@pytest.mark.parametrize(
    "touch",
    [
        lambda g: list(g.nodes()),
        lambda g: list(g.relationships()),
        lambda g: list(g.relationships_with_label("next")),
        lambda g: g.neighbors(0, "in"),
        lambda g: g.neighbors(0, "both"),
        lambda g: list(g.nodes_with_label("Class")),
        lambda g: list(g.nodes_with_label("Local")),
        lambda g: list(g.nodes_with_label("c.Cell[]")),
        lambda g: g.copy(),
        lambda g: g.audit(),
        _ADD_NODE,
        _ADD_RELATIONSHIP,
        lambda g: g.remove_relationship(0),
        lambda g: g.set_field_edge("next", 0, 0),
        lambda g: g.add_node("New", node_id=20),
    ],
)
def test_whole_graph_calls_fill_first(touch):
    graph = extract(_chain_snapshot(5), ExtractionConfig())
    touch(graph)
    assert graph._filled is (touch not in (_ADD_NODE, _ADD_RELATIONSHIP))
    assert graph.audit() == []


def test_lazy_lookups_and_missing_ids():
    graph = extract(_chain_snapshot(5), ExtractionConfig())
    assert list(graph.nodes_with_label("c.Other")) == []
    assert list(graph.nodes_with_uid(99)) == []
    assert [n.properties["$uid"] for n in graph.nodes_with_label("c.Cell")] == [1, 2, 3, 4, 5]
    assert graph.node(6).label == "Local"  # the last node: built with the statics and binders
    assert graph.relationship(9).label == "head"
    for missing in (-1, 7, "x"):
        with pytest.raises(NodeNotFoundError):
            graph.node(missing)
        with pytest.raises(NodeNotFoundError):
            graph.neighbors(missing)
    for missing in (-1, 10):
        with pytest.raises(RelationshipNotFoundError):
            graph.relationship(missing)
    assert not graph._filled
    graph.fill()
    with pytest.raises(NodeNotFoundError):
        graph.node(7)
