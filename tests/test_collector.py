"""The cyclic garbage collector is paused inside bulk calls and restored after them."""

from __future__ import annotations

import gc

import pytest

from heapquery import (
    QueryContext,
    export_csv,
    extract,
    graph_to_snapshot,
    import_csv,
    load_snapshot,
    parse_program,
    query_bounded,
    query_unbounded,
    run_program,
    run_to_point,
    save_snapshot,
)
from heapquery import api, cli
from heapquery.errors import EvalError, PipelineError, ProgramSyntaxError, SnapshotSchemaError
from heapquery.property_graph import collector_paused

from .conftest import DATA, UID, TWO_HOP_QUERY

PAUSED = {
    "load_snapshot": load_snapshot,
    "save_snapshot": save_snapshot,
    "graph_to_snapshot": graph_to_snapshot,
    "import_csv": import_csv,
    "extract": extract,
    "_run_pipeline": api._run_pipeline,
    "parse_program": parse_program,
    "run_program": run_program,
    "run_to_point": run_to_point,
}

METHOD_PROGRAM = """
class P { P next; P(P next) { this.next = next; }
          P set(P o) { this.next = o; return this; }
          P chain(P o) { this.set(o); P t = new P(o); return this; } }
P a = new P(null);
P b = new P(new P(null));
a.chain(b);
/* POINT */
return a;
"""


@pytest.fixture(autouse=True)
def restore_collector():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def enable_calls(monkeypatch):
    """Enables the collector, then counts the calls of ``gc.enable``."""
    gc.enable()
    calls = []
    enable = gc.enable

    def counting_enable():
        calls.append(1)
        enable()

    monkeypatch.setattr(gc, "enable", counting_enable)
    return calls


def _bad_document() -> bytes:
    return b'{"classes":[],"objects":[{"id":true,"class":"A"}],"roots":{}}'


def _calls(ctx: QueryContext) -> None:
    """One successful call of each paused function."""
    data = (DATA / "tree_snapshot.json").read_bytes()
    query_bounded(ctx, UID["f"], TWO_HOP_QUERY, UID["c"])
    query_unbounded(ctx, "CREATE (x:Extra {v: 1}) RETURN x")
    snapshot = load_snapshot(data)
    graph = extract(snapshot)
    import_csv(export_csv(graph))
    save_snapshot(graph_to_snapshot(run_to_point(METHOD_PROGRAM)))


class TestRestoresTheCollector:
    def test_enabled_after_successful_calls(self, tree_snapshot):
        gc.enable()
        _calls(QueryContext(tree_snapshot))
        assert gc.isenabled()

    def test_enabled_after_pipeline_error(self, tree_snapshot):
        gc.enable()
        with pytest.raises(PipelineError):
            query_bounded(QueryContext(tree_snapshot), UID["f"], "MATCH (n RETURN n")
        assert gc.isenabled()

    def test_enabled_after_schema_error(self):
        gc.enable()
        with pytest.raises(SnapshotSchemaError):
            load_snapshot(_bad_document())
        assert gc.isenabled()

    def test_enabled_after_a_program_that_fails(self):
        # The first fails to parse; the second parses and fails when run (a literal for a reference field).
        broken = "class A { A f; A(A f) { this.f = f; } }\nA x = new A(1);"
        gc.enable()
        for call, error in [
            (lambda: parse_program("class A {"), ProgramSyntaxError),
            (lambda: run_to_point("class A {"), ProgramSyntaxError),
            (lambda: run_program(parse_program(broken)), EvalError),
            (lambda: run_to_point(broken), EvalError),
        ]:
            with pytest.raises(error):
                call()
            assert gc.isenabled()

    def test_collector_is_off_while_a_program_runs(self, monkeypatch):
        from heapquery import heap_model

        gc.enable()
        seen = []
        eval_expr = heap_model.eval_expr

        def recording_eval_expr(*args):
            seen.append(gc.isenabled())
            return eval_expr(*args)

        monkeypatch.setattr(heap_model, "eval_expr", recording_eval_expr)
        run_to_point(METHOD_PROGRAM)
        run_program(parse_program(METHOD_PROGRAM))
        assert len(seen) >= 2 and not any(seen)
        assert gc.isenabled()

    def test_stays_disabled_when_the_caller_disabled_it(self, tree_snapshot):
        gc.disable()
        ctx = QueryContext(tree_snapshot)
        _calls(ctx)
        assert not gc.isenabled()
        with pytest.raises(PipelineError):
            query_bounded(ctx, UID["f"], "MATCH (n RETURN n")
        assert not gc.isenabled()
        with pytest.raises(SnapshotSchemaError):
            load_snapshot(_bad_document())
        assert not gc.isenabled()

    def test_collector_is_off_inside_the_pipeline(self, tree_snapshot, monkeypatch):
        gc.enable()
        seen = []
        execute = api.execute

        def recording_execute(*args):
            seen.append(gc.isenabled())
            return execute(*args)

        monkeypatch.setattr(api, "execute", recording_execute)
        query_bounded(QueryContext(tree_snapshot), UID["f"], TWO_HOP_QUERY, UID["c"])
        assert seen == [False]
        assert gc.isenabled()


class TestNesting:
    def test_pipeline_restores_once_around_extract(self, tree_snapshot, enable_calls):
        # _run_pipeline is paused and calls extract, which is paused too.
        query_bounded(QueryContext(tree_snapshot), UID["f"], TWO_HOP_QUERY, UID["c"])
        assert len(enable_calls) == 1
        assert gc.isenabled()

    def test_cli_export_inside_a_pause_restores_once(self, tmp_path, enable_calls):
        # The export command runs load_snapshot, then extract, then export_csv.
        snapshot_path = tmp_path / "tree.json"
        snapshot_path.write_bytes((DATA / "tree_snapshot.json").read_bytes())
        with collector_paused():
            assert cli.main(["export", str(snapshot_path), "-o", str(tmp_path / "out")]) == 0
            assert enable_calls == []
            assert not gc.isenabled()
        assert len(enable_calls) == 1
        assert gc.isenabled()

    def test_each_outermost_call_restores(self, tree_snapshot, enable_calls):
        graph = extract(tree_snapshot)
        graph_to_snapshot(graph)
        assert len(enable_calls) == 2


class TestDecoratedFunctions:
    @pytest.mark.parametrize("name", sorted(PAUSED))
    def test_name_and_docstring_are_kept(self, name):
        fn = PAUSED[name]
        assert fn.__name__ == name
        assert fn.__doc__ == fn.__wrapped__.__doc__
        assert fn.__wrapped__.__name__ == name
        if not name.startswith("_"):
            assert fn.__doc__


class TestNoCyclicGarbage:
    def test_paused_calls_leave_no_cyclic_garbage(self, tree_snapshot):
        # A pause must not hold back garbage: the calls free everything they
        # allocate by reference counting.  The first round pays one-off
        # costs (caches, lazy imports).
        ctx = QueryContext(tree_snapshot)
        _calls(ctx)
        gc.collect()
        gc.disable()
        _calls(ctx)
        assert gc.collect() == 0

    def test_a_dropped_snapshot_with_kept_graphs_leaves_no_cyclic_garbage(self):
        # The graphs reads share are kept on the snapshot, and read nothing of it.
        gc.collect()
        gc.disable()
        snapshot = load_snapshot((DATA / "tree_snapshot.json").read_bytes())
        contexts = [QueryContext(snapshot), QueryContext(snapshot, cache_extractions=True)]
        for ctx in contexts:
            for root in (UID["f"], UID["c"], None):
                query_bounded(ctx, root, TWO_HOP_QUERY, UID["c"])
                query_bounded(ctx, root, "MATCH (n)<-[:left]-(m) RETURN count(m)")
        del snapshot, contexts, ctx
        assert gc.collect() == 0
