"""Spans around calls into heapquery's layers, recorded from outside ``src/``.

The traced run wraps the public functions that heapquery's own modules call
between layers (for example ``heapquery.api.extract``, which
``QueryContext`` uses to extract a subgraph), so the spans follow the calls
the API and the CLI really make, without a copy of their pipelines here.  The
benchmark's own calls into a layer go through ``Tracer.call``.  With tracing
disabled, a call costs one extra Python frame and records nothing.

Spans are kept in memory; ``Tracer.spans`` is written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name): the call sites between layers.
CALL_SITES = (
    ("heapquery.api", "expand_positional", "cypher_frontend.expand"),
    ("heapquery.api", "parse", "cypher_frontend.parse"),
    ("heapquery.api", "validate", "cypher_frontend.validate"),
    ("heapquery.api", "extract", "subgraph.extract"),
    ("heapquery.api", "execute", "query_engine.execute"),
    ("heapquery.api", "execute_batch", "query_engine.execute"),
    ("heapquery.cli", "load_snapshot", "snapshot_io.load"),
    ("heapquery.cli", "extract", "subgraph.extract"),
    ("heapquery.cli", "export_csv", "snapshot_io.export_csv"),
    ("heapquery.cli", "query_bounded", "api.query"),
    ("heapquery.cli", "query_unbounded", "api.query"),
    ("heapquery.cli", "expand_positional", "cypher_frontend.expand"),
    ("heapquery.cli", "parse", "cypher_frontend.parse"),
)


def _graph_size(graph) -> dict:
    return {"nodes": graph.node_count, "rels": graph.relationship_count}


# Span name -> counts taken from the call's arguments and result.
COUNTERS = {
    "subgraph.extract": lambda args, result: _graph_size(result),
    "heap_model.run": lambda args, result: _graph_size(result),
    "snapshot_io.import_csv": lambda args, result: _graph_size(result),
    "query_engine.execute": lambda args, result: {"rows": result[0].row_count},
    "snapshot_io.load": lambda args, result: {"bytes": len(args[0])},
    "snapshot_io.export_csv": lambda args, result: {"bytes": len(result.nodes) + len(result.relationships)},
}


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "counts", "error")

    def __init__(self, name, op, parent, start):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        self.counts = {}
        self.error = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = None  # id of the op (or "setup", "probe") that new spans belong to
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._originals: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = Span(name, self.op, self._open[-1] if self._open else None, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc.__cause__ or exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            span.counts = counter(args, result)
        return result

    def install(self) -> list[str]:
        """Wrap every call site; returns the sites this heapquery no longer has."""
        missing = []
        for module_name, attr, name in CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def self_ms(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [span.ms for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.ms
        return own

    def root_of(self, index: int) -> Span:
        span = self.spans[index]
        while span.parent is not None:
            span = self.spans[span.parent]
        return span
