"""heapquery: query object heaps as property graphs with an openCypher subset."""

from .api import (
    QueryContext,
    ResultSet,
    query_boolean,
    query_bounded,
    query_long,
    query_object,
    query_string,
    query_unbounded,
)
from .cypher_frontend import expand_positional, lint, parse, validate
from .heap_model import parse_program, run_program, run_to_point
from .property_graph import Node, PropertyGraph, Relationship
from .query_engine import ABSENT, NodeRef, RelRef, ResultTable, execute
from .snapshot_io import (
    CsvBundle,
    export_csv,
    graph_to_snapshot,
    import_csv,
    load_snapshot,
    save_snapshot,
)
from .subgraph import (
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

__version__ = "0.1.0"

__all__ = [
    "ABSENT",
    "ClassInfo",
    "CsvBundle",
    "ExtractionConfig",
    "FieldDecl",
    "HeapObject",
    "HeapSnapshot",
    "Node",
    "NodeRef",
    "PropertyGraph",
    "QueryContext",
    "Ref",
    "RefArray",
    "RelRef",
    "Relationship",
    "ResultSet",
    "ResultTable",
    "SnapshotGraph",
    "collect",
    "execute",
    "expand_positional",
    "export_csv",
    "extract",
    "follow_references",
    "graph_to_snapshot",
    "import_csv",
    "lint",
    "load_snapshot",
    "parse",
    "parse_program",
    "query_boolean",
    "query_bounded",
    "query_long",
    "query_object",
    "query_string",
    "query_unbounded",
    "run_program",
    "run_to_point",
    "save_snapshot",
    "validate",
]
