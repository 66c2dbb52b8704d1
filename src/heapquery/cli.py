"""Command-line driver.

Subcommands:

* ``run <program>``: evaluate a program to its ``/* POINT */`` marker and
  print the resulting heap snapshot as canonical JSON.
* ``query <snapshot> -q TEXT [flags] [ARGS...]``: run one query; positional
  ARGS feed ``$``/``@``/``[]`` markers in order.
* ``export <snapshot> -o DIR [flags]``: write nodes.csv and
  relationships.csv for the extracted subgraph.
* ``repl <snapshot> [flags]``: interactive loop over one graph extracted
  with the same flags; the writes of each query that succeeds accumulate in
  it for the session.

``query`` and ``repl`` run every query through the API's pipeline
(``api._run_pipeline``), so they report the same stage-tagged errors and
lint warnings.

Exit codes: 0 success, 1 input/IO errors, 2 query-pipeline errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
import time

from .api import QueryContext, ResultSet, _run_pipeline, query_bounded, query_unbounded
from .errors import HeapQueryError, PipelineError
from .heap_model import run_to_point
from .property_graph import UID_KEY, PropertyGraph
from .query_engine import ABSENT, NodeRef, RelRef
from .snapshot_io import export_csv, graph_to_snapshot, load_snapshot, save_snapshot
from .subgraph import ExtractionConfig, extract


def _split_classes(value: str) -> frozenset:
    return frozenset(part for part in value.split(",") if part)


def _coerce_arg(text: str):
    """An integer; a list for comma-separated integers, where a trailing comma
    marks a list (``3,`` is ``[3]`` and ``,`` is ``[]``); else the text."""
    try:
        return int(text)
    except ValueError:
        pass
    if "," in text:
        ids = text[:-1] if text.endswith(",") else text
        try:
            return [int(p) for p in ids.split(",")] if ids else []
        except ValueError:
            pass
    return text


def _render_cell(graph: PropertyGraph, value) -> str:
    if value is ABSENT:
        return "null"
    if isinstance(value, NodeRef):
        node = graph.node(value.id)
        uid = node.properties.get(UID_KEY)
        return f"#{uid if uid is not None else '-'}:{node.label}"
    if isinstance(value, RelRef):
        rel = graph.relationship(value.id)
        return f"-[:{rel.label}]-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a parse changes no state in it."""
    parser = argparse.ArgumentParser(prog="heapquery", description="Query object heaps as property graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a program to its POINT marker and print the snapshot")
    p_run.add_argument("program", help="program file")

    def extraction_flags(p):
        p.add_argument("--root", action="append", type=int, default=None, help="restrict to objects reachable from this uid (repeatable)")
        p.add_argument("--whitelist", type=_split_classes, default=frozenset(), help="comma-separated class names to always include")
        p.add_argument("--blacklist", type=_split_classes, default=frozenset(), help="comma-separated class names to exclude")
        p.add_argument("--gc", action="store_true", help="drop objects unreachable from the snapshot roots first")

    p_query = sub.add_parser("query", help="run one query against a snapshot")
    p_query.add_argument("snapshot", help="snapshot JSON file")
    p_query.add_argument("-q", "--query", required=True, dest="text", help="query text with optional positional markers")
    extraction_flags(p_query)
    p_query.add_argument("--time", action="store_true", help="print per-stage milliseconds to stderr")
    p_query.add_argument("args", nargs="*", help="positional arguments for $/@/[] markers")

    p_export = sub.add_parser("export", help="export the extracted subgraph as CSV")
    p_export.add_argument("snapshot", help="snapshot JSON file")
    p_export.add_argument("-o", "--output", required=True, help="output directory")
    extraction_flags(p_export)

    p_repl = sub.add_parser("repl", help="interactive query loop over a snapshot")
    p_repl.add_argument("snapshot", help="snapshot JSON file")
    extraction_flags(p_repl)

    return parser


def _load_snapshot_file(path: str):
    with open(path, "rb") as f:
        return load_snapshot(f.read())


def _config_from_args(args, root=None) -> ExtractionConfig:
    """The extraction flags; ``--root`` goes in only as ``root``, because a query passes it on its own."""
    return ExtractionConfig(whitelist=args.whitelist, blacklist=args.blacklist, root=root, force_collect=args.gc)


def _extract_from_args(snapshot, args) -> PropertyGraph:
    try:
        return extract(snapshot, _config_from_args(args, args.root or None))
    except HeapQueryError as exc:
        raise PipelineError("extract", exc) from exc


def _print_result(rs: ResultSet) -> None:
    """Lint warnings to stderr, then the table, tab-separated, to stdout."""
    for warning in rs.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print("\t".join(rs.table.columns))
    for row in rs.table.rows:
        print("\t".join(_render_cell(rs._graph, value) for value in row))


def cmd_run(args) -> int:
    with open(args.program, "r", encoding="utf-8") as f:
        text = f.read()
    snapshot = graph_to_snapshot(run_to_point(text))
    sys.stdout.write(save_snapshot(snapshot).decode("utf-8") + "\n")
    return 0


def cmd_query(args) -> int:
    started = time.perf_counter()
    snapshot = _load_snapshot_file(args.snapshot)
    timings: dict | None = {"load": (time.perf_counter() - started) * 1000} if args.time else None
    ctx = QueryContext(snapshot, _config_from_args(args))
    values = [_coerce_arg(a) for a in args.args]
    if args.root:
        rs = query_bounded(ctx, args.root, args.text, *values, timings=timings)
    else:
        rs = query_unbounded(ctx, args.text, *values, timings=timings)
    if timings is not None:
        stages = " ".join(f"{name}={ms:.3f}" for name, ms in timings.items())
        print(f"time_ms {stages}", file=sys.stderr)
    _print_result(rs)
    return 0


def cmd_export(args) -> int:
    bundle = export_csv(_extract_from_args(_load_snapshot_file(args.snapshot), args))
    os.makedirs(args.output, exist_ok=True)
    for name, data in (("nodes.csv", bundle.nodes), ("relationships.csv", bundle.relationships)):
        fd, tmp = tempfile.mkstemp(dir=args.output, prefix=f".{name}.")
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, os.path.join(args.output, name))
    return 0


def cmd_repl(args) -> int:
    ctx = QueryContext(_load_snapshot_file(args.snapshot))
    graph = _extract_from_args(ctx.snapshot, args)
    prompt = "> " if sys.stdin.isatty() else ""  # piped output holds only the tables
    while True:
        try:
            line = input(prompt)
        except EOFError:
            print("", file=sys.stderr)
            return 0
        line = line.strip()
        if not line:
            continue
        if line in (":quit", ":q", ":exit"):
            return 0
        try:
            rs = _run_pipeline(ctx, None, line, (), session=graph)
        except PipelineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            continue
        graph = rs._graph  # a write's copy, kept only because the query succeeded
        _print_result(rs)


def main(argv=None) -> int:
    # Marker ARGS may trail the flags; argparse cannot interleave a greedy
    # positional with options, so leftovers are collected explicitly.
    args, extra = _build_parser().parse_known_args(argv)
    bad = [e for e in extra if e.startswith("--")]
    if bad:
        print(f"error: unrecognized flags {bad}", file=sys.stderr)
        return 1
    if args.command == "query":
        args.args = list(args.args) + extra
    elif extra:
        print(f"error: unexpected arguments {extra}", file=sys.stderr)
        return 1
    handler = {"run": cmd_run, "query": cmd_query, "export": cmd_export, "repl": cmd_repl}[args.command]
    try:
        return handler(args)
    except (OSError, HeapQueryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, PipelineError) else 1


if __name__ == "__main__":
    sys.exit(main())
