"""The three benchmark workloads: set-up, one op, and the check of its answer.

Each op is one call a user of heapquery makes (a ``query_bounded`` call, or
one ingest pass); ``run_op`` returns what the op produced and ``check``
compares it with the answer the generator wrote next to the op.  Calls into
heapquery go through the tracer, which records a span for each when tracing
is on.
"""

from __future__ import annotations

import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from heapquery import (
    CsvBundle,
    QueryContext,
    graph_to_snapshot,
    import_csv,
    load_snapshot,
    query_bounded,
    run_to_point,
    save_snapshot,
)
from heapquery import cli
from heapquery.property_graph import CLASS_LABEL, LOCAL_LABEL

WARM_QUERY = "MATCH (n {$1}) RETURN count(n)"


class OpFailed(Exception):
    """An op ended in an error reported by heapquery rather than raised."""


def check_result(op, rs) -> str | None:
    """None when the result set holds the op's expected answer, else why not."""
    if "expect_set" in op:
        got = []
        while rs.next():
            got.append(rs.get(0))
        if sorted(got) != op["expect_set"]:
            return f"expected {len(op['expect_set'])} distinct nodes, got {len(got)} rows"
        return None
    table = rs.table
    if table.row_count != 1 or len(table.columns) != 1:
        return f"expected one cell, got {table.row_count} rows x {len(table.columns)} columns"
    rs.next()
    got = rs.get(0)
    if type(got) is not type(op["expect"]) or got != op["expect"]:
        return f"expected {op['expect']!r}, got {got!r}"
    return None


class QueryWorkload:
    """Ops are ``query_bounded`` calls on one snapshot loaded in set-up."""

    cache_extractions = False

    def __init__(self, inputs: Path, workdir: Path, tracer):
        self.tracer = tracer
        self.data = (inputs / "snapshot.json").read_bytes()
        self.manifest = json.loads((inputs / "ops.json").read_bytes())
        self.ops = self.manifest["ops"]
        self.round = self.manifest["round"]
        self.ctx = None

    def reset(self) -> None:
        self.ctx = None

    def setup(self) -> None:
        snapshot = self.tracer.call("snapshot_io.load", load_snapshot, self.data)
        self.ctx = self.tracer.call("api.context", QueryContext, snapshot, cache_extractions=self.cache_extractions)

    def probe_snapshots(self):
        return [self.ctx.snapshot]

    def run_op(self, op):
        return self.tracer.call("api.query", query_bounded, self.ctx, op["root"], op["query"], *op["args"])

    def check(self, op, result) -> str | None:
        return check_result(op, result)


class HeapAnalytics(QueryWorkload):
    """Read-only queries on a context whose extraction cache set-up fills."""

    cache_extractions = True

    def setup(self) -> None:
        super().setup()
        for root in self.manifest["warm_roots"]:
            rs = self.tracer.call("api.query", query_bounded, self.ctx, root, WARM_QUERY, root)
            problem = check_result({"expect": 1}, rs)
            if problem is not None:
                raise AssertionError(f"warm-up query from {root}: {problem}")


class IngestExport:
    """Ops run a program, snapshot it, and send it through the CLI and CSV."""

    def __init__(self, inputs: Path, workdir: Path, tracer):
        self.tracer = tracer
        self.workdir = workdir
        manifest = json.loads((inputs / "ops.json").read_bytes())
        self.ops = manifest["ops"]
        self.round = 1
        self.warmup = manifest["warmup"]
        self.last_snapshot = None

    def reset(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def setup(self) -> None:
        # Set-up pays first-call costs (module-level state, argument parser,
        # CSV dialects) on a small program, so timed ops do not.
        self.workdir.mkdir(parents=True)
        problem = self.check(self.warmup, self.run_op(self.warmup))
        if problem is not None:
            raise AssertionError(f"warm-up op: {problem}")

    def probe_snapshots(self):
        return [self.last_snapshot] if self.last_snapshot is not None else []

    def run_op(self, op):
        call = self.tracer.call
        snapshot_path = self.workdir / "heap.json"
        csv_dir = self.workdir / "csv"
        graph = call("heap_model.run", run_to_point, op["program"])
        snapshot = call("snapshot_io.graph_to_snapshot", graph_to_snapshot, graph)
        snapshot_path.write_bytes(call("snapshot_io.save", save_snapshot, snapshot))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            query_rc = call("cli.query", cli.main, ["query", str(snapshot_path), "-q", op["query"], *op["args"]])
            export_rc = call("cli.export", cli.main, ["export", str(snapshot_path), "-o", str(csv_dir)])
        if query_rc != 0 or export_rc != 0:
            raise OpFailed(f"cli exit codes query={query_rc} export={export_rc}: {err.getvalue().strip()}")
        bundle = CsvBundle((csv_dir / "nodes.csv").read_bytes(), (csv_dir / "relationships.csv").read_bytes())
        imported = call("snapshot_io.import_csv", import_csv, bundle)
        self.last_snapshot = snapshot
        return graph, snapshot, out.getvalue(), bundle, imported

    def check(self, op, result) -> str | None:
        graph, snapshot, query_out, bundle, imported = result
        expect = op["expect"]
        labels = [node.label for node in graph.nodes()]
        instances = sum(1 for label in labels if label not in (CLASS_LABEL, LOCAL_LABEL))
        node_rows = expect["objects"] + expect["classes"] + expect["binders"]
        rel_rows = expect["objects"] + expect["field_edges"] + expect["binders"]
        checks = [
            ("instances after run_to_point", instances, expect["objects"]),
            ("binders after run_to_point", labels.count(LOCAL_LABEL), expect["binders"]),
            ("snapshot objects", len(snapshot.objects), expect["objects"]),
            ("snapshot roots", len(snapshot.roots), expect["binders"]),
            ("cli query answer", query_out.strip().splitlines()[-1:], [str(expect["next_edges"])]),
            ("exported node rows", bundle.nodes.count(b"\n") - 1, node_rows),
            ("exported relationship rows", bundle.relationships.count(b"\n") - 1, rel_rows),
            ("imported nodes", imported.node_count, node_rows),
            ("imported relationships", imported.relationship_count, rel_rows),
        ]
        for what, got, want in checks:
            if got != want:
                return f"{what}: expected {want!r}, got {got!r}"
        return None


WORKLOADS = {
    "bounded-probe": QueryWorkload,
    "heap-analytics": HeapAnalytics,
    "ingest-export": IngestExport,
}
