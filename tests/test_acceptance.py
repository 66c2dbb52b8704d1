"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import random
import statistics
import time
from contextlib import contextmanager

from heapquery.cypher_frontend import parse, validate
from heapquery.heap_model import FieldAssign, parse_program, run_to_point, step_command
from heapquery.property_graph import PropertyGraph
from heapquery.query_engine import execute
from heapquery.snapshot_io import (
    export_csv,
    graph_to_snapshot,
    import_csv,
    load_snapshot,
    save_snapshot,
)
from heapquery.subgraph import ExtractionConfig, collect, extract

from .conftest import (
    REACHABLE_QUERY,
    REPOK_QUERY,
    CONTAINS_KEY_QUERY,
    TREE_CREATE_QUERY,
    TWO_HOP_QUERY,
    UID,
    as_bag,
    build_tree_graph,
    expanded_queries,
)
from .generators import (
    build_hashmap_snapshot,
    build_large_snapshot,
    build_tree_case,
    random_graph,
    random_query,
    random_snapshot,
)
from .oracles import (
    enumerate_rows,
    hashmap_contains,
    reachable_from,
    replay_field_assignments,
    structurally_equal,
    worklist_repok,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def run(graph: PropertyGraph, fmt: str, *args):
    (query,) = expanded_queries(fmt, *args)
    return execute(query, graph)


def test_criterion_1_tree_fixture_suite():
    with criterion(1, "tree fixture suite"):
        started = time.perf_counter()

        # creation query on an empty graph builds the instance subgraph
        table, created = run(PropertyGraph(), TREE_CREATE_QUERY, "BinaryTree$Node", "BinaryTree")
        assert structurally_equal(created, build_tree_graph(with_uids=False, with_classes=False))
        assert len(table.rows) == 1
        assert created.node(table.rows[0][0].id).label == "BinaryTree"

        # reachability from the root node: every node except n itself
        fixture = build_tree_graph()
        table, _ = run(fixture, REACHABLE_QUERY, UID["c"])
        got = {v.id for (v,) in table.rows}
        start = next(n for n in fixture.nodes() if n.properties.get("$uid") == UID["c"])
        assert len(got) == 7
        assert got == {n.id for n in fixture.nodes()} - {start.id}

        # two directed hops through left/right to the value-1 node
        table, _ = run(fixture, TWO_HOP_QUERY, UID["c"])
        assert [fixture.node(v.id).properties["$uid"] for (v,) in table.rows] == [UID["a"]]

        assert time.perf_counter() - started < 1.0


def test_criterion_2_interpreter_golden(point_program, point_graph):
    with criterion(2, "interpreter golden state"):
        graph = run_to_point(point_program)
        assert graph.node_count == 7
        assert graph.relationship_count == 7
        assert structurally_equal(graph, point_graph)
        labels = sorted(n.label for n in graph.nodes())
        assert labels == ["BinaryTree", "BinaryTree$Node", "BinaryTree$Node", "Class", "Class", "Local", "Local"]


def test_criterion_3_field_assignment_law():
    with criterion(3, "field assignment law"):
        rng = random.Random(31337)
        empty_ct = parse_program("return;").class_table
        for _ in range(1000):
            n_objects = rng.randint(1, 5)
            labels = [rng.choice(["P", "Q"]) for _ in range(n_objects)]

            graph = PropertyGraph()
            instances = [graph.add_node(labels[i]) for i in range(n_objects)]
            binders = [graph.add_node("Local") for i in range(n_objects)]
            names = [f"v{i}" for i in range(n_objects)]
            for i in range(n_objects):
                graph.add_relationship(names[i], binders[i], instances[i])

            assignments = []
            for _ in range(rng.randint(1, 8)):
                x = rng.randrange(n_objects)
                y = rng.randrange(n_objects)
                fieldname = rng.choice(["f", "g"])
                assignments.append((x, fieldname, y))
                graph = step_command(graph, FieldAssign(names[x], fieldname, names[y]), empty_ct)

            # law: at most one outgoing edge per (node, field)
            for node in graph.nodes():
                out_labels = [rel.label for rel, _ in graph.neighbors(node.id, "out")]
                for fieldname in ("f", "g"):
                    assert out_labels.count(fieldname) <= 1

            # symbolic replay of the rewrite rule must agree
            oracle_nodes = [(instances[i], labels[i], {}) for i in range(n_objects)]
            oracle_nodes += [(binders[i], "Local", {}) for i in range(n_objects)]
            fixed = [(names[i], binders[i], instances[i]) for i in range(n_objects)]
            expected = replay_field_assignments(
                oracle_nodes,
                fixed,
                {},
                [(instances[x], fieldname, instances[y]) for x, fieldname, y in assignments],
            )
            assert structurally_equal(graph, expected)


def test_criterion_4_query_oracle_equivalence():
    with criterion(4, "query engine vs brute force"):
        started = time.perf_counter()
        rng = random.Random(777)
        for _ in range(500):
            graph = random_graph(rng)
            query = random_query(rng)
            assert validate(query) == []
            table, _ = execute(query, graph)
            assert as_bag(table) == enumerate_rows(graph, query)
        assert time.perf_counter() - started < 60.0


def test_criterion_5_contains_key_parity():
    with criterion(5, "containsKey parity"):
        rng = random.Random(555)
        outcomes = set()
        for _ in range(200):
            snapshot, map_id, probe_id, _ = build_hashmap_snapshot(rng, rng.randint(10, 500))
            graph = extract(snapshot, ExtractionConfig())
            table, _ = run(graph, CONTAINS_KEY_QUERY, map_id, probe_id)
            expected = hashmap_contains(snapshot, map_id, probe_id)
            assert table.rows == [(expected,)]
            outcomes.add(expected)
        assert outcomes == {True, False}  # both present and absent probes occurred


def test_criterion_6_repok_parity():
    with criterion(6, "tree invariant parity"):
        rng = random.Random(666)
        kinds = ["valid", "cyclic", "size-mismatch", "forest"]
        outcomes = set()
        for i in range(200):
            snapshot, tree_id = build_tree_case(rng, kinds[i % 4])
            graph = extract(snapshot, ExtractionConfig(root=tree_id))
            table, _ = run(graph, REPOK_QUERY, tree_id)
            expected = worklist_repok(snapshot, tree_id)
            assert table.rows == [(expected,)]
            outcomes.add(expected)
        assert outcomes == {True, False}


def test_criterion_7_extraction_optimizations():
    with criterion(7, "extraction optimizations"):
        started = time.perf_counter()
        snapshot, root, item_ids, junk_ids = build_large_snapshot()

        unrestricted = extract(snapshot, ExtractionConfig())
        bounded = extract(snapshot, ExtractionConfig(root=root))
        assert bounded.node_count <= unrestricted.node_count

        def uids(graph):
            return {n.properties["$uid"] for n in graph.nodes() if "$uid" in n.properties}

        expected = reachable_from(snapshot, [root])
        assert uids(bounded) == expected == item_ids

        collected = collect(snapshot)
        assert {o.id for o in collected.objects} == item_ids
        assert junk_ids == {o.id for o in snapshot.objects} - {o.id for o in collected.objects}

        no_junk = extract(snapshot, ExtractionConfig(blacklist=frozenset({"app.Junk"})))
        assert uids(no_junk) == item_ids
        for rel in no_junk.relationships():
            for endpoint in (rel.start, rel.end):
                assert no_junk.node(endpoint).label != "app.Junk"

        assert time.perf_counter() - started < 5.0


def test_criterion_8_round_trip_laws():
    with criterion(8, "round-trip laws"):
        rng = random.Random(888)

        for _ in range(200):
            snapshot = random_snapshot(rng)
            assert load_snapshot(save_snapshot(snapshot)) == snapshot

        for _ in range(200):
            graph = _random_csv_graph(rng)
            assert structurally_equal(import_csv(export_csv(graph)), graph)

        for _ in range(100):
            graph = extract(random_snapshot(rng), ExtractionConfig())
            again = extract(graph_to_snapshot(graph), ExtractionConfig())
            assert structurally_equal(graph, again)


def _random_csv_graph(rng: random.Random) -> PropertyGraph:
    g = PropertyGraph()
    ids = []
    for _ in range(rng.randint(0, 20)):
        props = {}
        if rng.random() < 0.6:
            props["k"] = rng.choice([1, 1.5, True, "s", [1, 2]])
        ids.append(g.add_node(rng.choice("XY"), props))
    if ids:
        for _ in range(rng.randint(0, 25)):
            g.add_relationship(rng.choice("fg"), rng.choice(ids), rng.choice(ids), {"w": rng.randint(0, 5)} if rng.random() < 0.3 else None)
    return g


def test_criterion_9_in_memory_vs_csv_path():
    with criterion(9, "in-memory vs CSV-path speed"):
        snapshot, root, _, _ = build_large_snapshot()
        graph = extract(snapshot, ExtractionConfig())
        text = "MATCH (n:`app.Item`)-[:next*2]->(m) RETURN count(m)"
        query = parse(text)
        assert validate(query) == []

        # same clock the CLI --time flag reports stage times with
        memory_ms = []
        csv_ms = []
        for _ in range(20):
            t0 = time.perf_counter()
            table, _ = execute(query, graph)
            memory_ms.append((time.perf_counter() - t0) * 1000)
            assert table.rows == [(998,)]

            t0 = time.perf_counter()
            rebuilt = import_csv(export_csv(graph))
            table, _ = execute(query, rebuilt)
            csv_ms.append((time.perf_counter() - t0) * 1000)
            assert table.rows == [(998,)]

        assert statistics.median(csv_ms) >= 2 * statistics.median(memory_ms), (
            statistics.median(csv_ms),
            statistics.median(memory_ms),
        )
