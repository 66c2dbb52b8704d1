"""Public query facade over a heap snapshot.

A QueryContext owns a snapshot plus default extraction settings.  Each call
runs the one query pipeline, which the CLI's ``query`` and ``repl`` share:
expand positional arguments, parse, validate (and lint into
``ResultSet.warnings``), extract the graph, execute, and wrap rows in a ResultSet.
A context parses, validates, lints and plans (``query_engine.prepare``) a
format string once per tuple of ``@k`` values, and keeps the parsed query
with its plan (``TEMPLATE_CACHE_SIZE``): a later call of the same template
only checks its arguments, binds its ``$k`` ids, or each id of its ``[]k``
collection, into the parsed query, and runs the bound queries against the
kept plan.  A template that fails to parse or validate is not kept, so it
fails the same way each time.  Bounded queries
restrict extraction to objects reachable from the supplied root(s);
unbounded queries see every object in the snapshot, including unreachable
ones unless force-collect is enabled.

Extraction returns a SnapshotGraph, which queries the snapshot in place.
The snapshot keeps one per root set for reads (see ``QueryContext``), so
the ``extract`` stage of ``timings=`` (and of the CLI's ``--time``) is a
lookup for a root set used before, and otherwise the selection and
numbering of the objects.  A write query's own graph is made there too.
What a query builds is timed in ``execute``: one that scans every node, or
matches a path backwards, builds the whole graph, once per kept graph.

Not thread safe: callers serialize access to a context.  Every pipeline
failure is re-raised as PipelineError naming the failing stage.

The pipeline runs with CPython's cyclic garbage collector paused
(``collector_paused``): its temporary objects hold no reference cycles and are
freed by reference counting, so a collection inside a query would only
rescan the loaded snapshot.  The collector is restored to the state it was
in before the call, also when the call raises.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .cypher_ast import Query
from .cypher_frontend import bind, check_arguments, expand_positional, lint, parse, slot_sites, validate
from .errors import (
    CastError,
    CursorError,
    ExtractionConfigError,
    PipelineError,
    QueryValidationError,
    ShapeError,
    UnknownColumnError,
)
from .property_graph import UID_KEY, PropertyGraph, collector_paused
from .query_engine import ABSENT, NodeRef, Plan, RelRef, ResultTable, execute, execute_batch, prepare
from .subgraph import ExtractionConfig, HeapObject, HeapSnapshot, extract, shared_graph, with_root


class ResultSet:
    """Cursor-style access to a result table, in the java.sql mold.

    ``next()`` advances to the following row and reports whether one exists;
    accessors are valid only after it returned True.  Node-valued cells are
    returned as their ``$uid`` by ``get`` and as graph nodes by ``get_node``.
    ``warnings`` holds the lint diagnostics of the query.
    """

    def __init__(self, table: ResultTable, graph: PropertyGraph, warnings=()):
        self._table = table
        self._graph = graph
        self.warnings = list(warnings)
        self._row = 0  # 1-based once positioned

    @property
    def table(self) -> ResultTable:
        return self._table

    def columns(self) -> list[str]:
        return list(self._table.columns)

    def row_count(self) -> int:
        return self._table.row_count

    def next(self) -> bool:
        if self._row >= self._table.row_count:
            self._row = self._table.row_count + 1
            return False
        self._row += 1
        return True

    def row(self) -> int:
        """Current row number, 0 before the first ``next()``."""
        return 0 if self._row > self._table.row_count else self._row

    def _current(self):
        if self._row < 1 or self._row > self._table.row_count:
            raise CursorError("cursor is not positioned on a row")
        return self._table.rows[self._row - 1]

    def _column_index(self, column) -> int:
        if isinstance(column, int):
            if 0 <= column < len(self._table.columns):
                return column
            raise UnknownColumnError(column)
        try:
            return self._table.columns.index(column)
        except ValueError:
            raise UnknownColumnError(column) from None

    def get(self, column):
        """Cell of the current row; nodes are exposed as their ``$uid``."""
        value = self._current()[self._column_index(column)]
        if value is ABSENT:
            return None
        if isinstance(value, NodeRef):
            uid = self._graph.node(value.id).properties.get(UID_KEY)
            if uid is None:
                raise CastError(f"node in column {column!r} has no {UID_KEY}; use get_node()")
            return uid
        if isinstance(value, RelRef):
            return self._graph.relationship(value.id).id
        return value

    def get_node(self, column):
        value = self._current()[self._column_index(column)]
        if not isinstance(value, NodeRef):
            raise CastError(f"column {column!r} does not hold a node")
        return self._graph.node(value.id)


# The format strings a context keeps parsed, least recently used dropped
# first, and for each the tuples of @k values it keeps, oldest dropped first.
TEMPLATE_CACHE_SIZE = 64


class _Parsed(NamedTuple):
    """A validated query of a template, with its ``slot_sites``, lint warnings and ``prepare``'s plan."""

    query: Query
    sites: tuple
    warnings: list
    plan: Plan


@dataclass
class QueryContext:
    """A snapshot plus default extraction settings (whitelist, blacklist, force-collect).

    The snapshot is validated here unless ``load_snapshot`` or an earlier
    ``validate()`` already did; queries do not validate it again, so it must
    not be changed afterwards, and neither may the defaults.

    Reads from one root set (equal ``ExtractionConfig.key()``: the same ids
    in any order) share one graph, which the snapshot keeps with its
    numbering (``shared_graph``) for every context, and build into it what
    they touch; a path matched backwards fills it once, at O(reachable)
    cost.  A write query (one with a CREATE or MERGE clause) runs on a new
    ``extract``, so its writes, and those of a failing one, are not seen
    later.  A kept graph goes when the snapshot drops its numbering (see
    ``extract``), not with the context.  ``cache_extractions`` fills the
    shared graph of each read.

    Parsed templates are kept per context, each with its plan (see the
    module docstring): a repeated call only binds its ids and runs.  So is
    the key of the defaults, computed at the first query's ``extract``
    stage; a query's key is that key with its root argument.
    """

    snapshot: HeapSnapshot
    defaults: ExtractionConfig = field(default_factory=ExtractionConfig)
    cache_extractions: bool = False

    def __post_init__(self):
        if self.defaults.root is not None:  # each query passes its own, which would replace it
            raise ExtractionConfigError(f"a context's defaults take no root, got {self.defaults.root!r}")
        self.snapshot._ensure_valid()
        self._key = None  # self.defaults.key(), once a query computed it
        self._templates: OrderedDict = OrderedDict()  # format string -> (its markers, {@k values: _Parsed})

    def _cached(self, fmt: str, args) -> tuple:
        """The kept parse of ``fmt`` for the ``@k`` values in ``args``, and ``args`` checked; None for what is not kept."""
        template = self._templates.get(fmt)
        if template is None:
            return None, None
        self._templates.move_to_end(fmt)
        arguments = check_arguments(template[0], args)
        return template[1].get(arguments.names), arguments

    def _keep(self, fmt: str, markers: tuple, names: tuple, parsed: _Parsed) -> None:
        if fmt not in self._templates:
            if len(self._templates) == TEMPLATE_CACHE_SIZE:
                self._templates.popitem(last=False)
            self._templates[fmt] = (markers, {})
        kept = self._templates[fmt][1]
        if len(kept) == TEMPLATE_CACHE_SIZE:
            del kept[next(iter(kept))]
        kept[names] = parsed

    def _graph(self, root, writes: bool) -> PropertyGraph:
        """A new extraction from ``root`` for a write, else the graph that reads from ``root`` share."""
        if writes:
            return extract(self.snapshot, replace(self.defaults, root=root))
        if self._key is None:
            self._key = self.defaults.key()
        return shared_graph(self.snapshot, with_root(self._key, root), self.cache_extractions)


class _Stage:
    """Times one pipeline stage into ``timings`` and tags its errors with the stage name."""

    __slots__ = ("timings", "name", "started")

    def __init__(self, timings: dict | None, name: str):
        self.timings = timings
        self.name = name

    def __enter__(self):
        self.started = time.perf_counter()

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, Exception):
            raise PipelineError(self.name, exc) from exc
        if exc is None and self.timings is not None:
            elapsed = (time.perf_counter() - self.started) * 1000.0
            self.timings[self.name] = self.timings.get(self.name, 0.0) + elapsed


@collector_paused()
def _run_pipeline(ctx: QueryContext, root, fmt: str, args, timings: dict | None = None, session=None) -> ResultSet:
    """Expand, parse, validate (lint and plan), extract, execute; a kept template is not parsed or planned again.

    A ``session`` graph takes the place of the extraction.  It is shared
    with later queries, as a kept graph is, so a write runs on a copy of
    it, which the result holds.
    """
    with _Stage(timings, "expand"):
        parsed, arguments = ctx._cached(fmt, args)
        if parsed is None:
            tokens, markers, checked = expand_positional(fmt, args)
            if arguments is None:  # else checked twice, and a one-shot []k iterator is empty the second time
                arguments = checked
    with _Stage(timings, "parse"):
        if parsed is None:
            query = parse(tokens, fmt)
    with _Stage(timings, "validate"):
        if parsed is None:
            diagnostics = validate(query)
            if diagnostics:
                raise QueryValidationError(diagnostics)
            parsed = _Parsed(query, slot_sites(query), lint(query), prepare(query))
            ctx._keep(fmt, markers, arguments.names, parsed)
    with _Stage(timings, "extract"):
        writes = parsed.query.writes
        graph = ctx._graph(root, writes) if session is None else session.copy() if writes else session
    with _Stage(timings, "execute"):
        queries = bind(parsed.query, parsed.sites, arguments)
        if arguments.batch is None:
            table, graph = execute(queries[0], graph, parsed.plan)
        elif queries:
            table, graph = execute_batch(queries, graph, parsed.plan)
        else:  # an empty batch: no rows, under the template's columns
            table = ResultTable(list(parsed.plan.columns), [])
    return ResultSet(table, graph, parsed.warnings)


def query_bounded(ctx: QueryContext, root, fmt: str, *args, timings: dict | None = None) -> ResultSet:
    """Run a query against the subgraph reachable from ``root`` (id or list of ids)."""
    return _run_pipeline(ctx, root, fmt, args, timings)


def query_unbounded(ctx: QueryContext, fmt: str, *args, timings: dict | None = None) -> ResultSet:
    """Run a query against every object in the snapshot.

    Without force-collect in the context defaults, unreachable objects are
    visible to the query.
    """
    return _run_pipeline(ctx, None, fmt, args, timings)


def _scalar_query(ctx: QueryContext, root, fmt: str, args, kind: str, fits):
    """The single cell of a 1x1 result, and the ResultSet; ``fits(value)`` checks its ``kind``."""
    rs = _run_pipeline(ctx, root, fmt, args)
    table = rs.table
    if table.row_count != 1 or len(table.columns) != 1:
        raise PipelineError("result", ShapeError(table.row_count, len(table.columns)))
    rs.next()
    value = table.rows[0][0]
    if not fits(value):
        raise PipelineError("result", CastError(f"expected {kind}, got {value!r}"))
    return value, rs


def query_boolean(ctx: QueryContext, fmt: str, *args, root=None) -> bool:
    return _scalar_query(ctx, root, fmt, args, "a boolean", lambda v: isinstance(v, bool))[0]


def query_long(ctx: QueryContext, fmt: str, *args, root=None) -> int:
    return _scalar_query(
        ctx, root, fmt, args, "an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)
    )[0]


def query_string(ctx: QueryContext, fmt: str, *args, root=None) -> str:
    return _scalar_query(ctx, root, fmt, args, "a string", lambda v: isinstance(v, str))[0]


def query_object(ctx: QueryContext, fmt: str, *args, root=None) -> tuple[int, HeapObject]:
    """Single-object query: returns (uid, snapshot object)."""
    value, rs = _scalar_query(ctx, root, fmt, args, "a node", lambda v: isinstance(v, NodeRef))
    node = rs._graph.node(value.id)
    uid = node.properties.get(UID_KEY)
    if uid is None or not ctx.snapshot.has_object(uid):
        raise PipelineError("result", CastError("node does not correspond to a snapshot object"))
    return uid, ctx.snapshot.object(uid)
