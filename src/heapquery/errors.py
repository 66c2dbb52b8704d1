"""Exception hierarchy shared by all heapquery modules."""

from __future__ import annotations


class HeapQueryError(Exception):
    """Base class for every error raised by this package."""


# --- graph store ------------------------------------------------------------


class GraphError(HeapQueryError):
    pass


class NodeNotFoundError(GraphError):
    def __init__(self, node_id):
        super().__init__(f"no node with id {node_id!r}")
        self.node_id = node_id


class RelationshipNotFoundError(GraphError):
    def __init__(self, rel_id):
        super().__init__(f"no relationship with id {rel_id!r}")
        self.rel_id = rel_id


class InvalidLabelError(GraphError):
    pass


class ReservedLabelError(GraphError):
    def __init__(self, label: str):
        super().__init__(f"label {label!r} is reserved and may not name a user class")
        self.label = label


class InvalidPropertyError(GraphError):
    pass


# --- mini-language (parsing and evaluation) ---------------------------------

# Nesting limit of both parsers and of method calls: a level is a query's parenthesis,
# NOT, count( or equals( (up to nine parser frames each), a program's ``new``, or an
# open call.  At the limit the parsers stay well inside Python's recursion limit (1,000).
MAX_NESTING = 64


def text_position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of ``offset`` in ``text``, for the syntax errors below."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


class ProgramError(HeapQueryError):
    pass


class ProgramSyntaxError(ProgramError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class UnknownTypeError(ProgramError):
    pass


class EvalError(ProgramError):
    pass


class UnboundVariableError(EvalError):
    def __init__(self, name: str):
        super().__init__(f"variable {name!r} is not bound")
        self.name = name


class NoSuchMethodError(EvalError):
    def __init__(self, cls: str, method: str):
        super().__init__(f"class {cls!r} has no method {method!r}")
        self.cls = cls
        self.method = method


class ArityMismatchError(EvalError):
    pass


# --- snapshots and extraction ------------------------------------------------


class SnapshotError(HeapQueryError):
    pass


class SnapshotSchemaError(SnapshotError):
    """Malformed snapshot document; ``path`` addresses the offending element."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class DuplicateObjectIdError(SnapshotError):
    def __init__(self, object_id: int):
        super().__init__(f"duplicate object id {object_id}")
        self.object_id = object_id


class DanglingReferenceError(SnapshotError):
    def __init__(self, object_id: int, path: str = ""):
        msg = f"reference to unknown object id {object_id}"
        super().__init__(f"{path}: {msg}" if path else msg)
        self.object_id = object_id
        self.path = path


class UnknownRootError(SnapshotError):
    def __init__(self, object_id):
        super().__init__(f"root object id {object_id!r} not present in snapshot")
        self.object_id = object_id


class ExtractionConfigError(SnapshotError):
    pass


class NotSnapshotShapedError(SnapshotError):
    """Graph cannot be expressed as a heap snapshot (e.g. duplicate field edges)."""


# --- query frontend ----------------------------------------------------------


class QueryError(HeapQueryError):
    pass


class ExpansionError(QueryError):
    pass


class QuerySyntaxError(QueryError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class UnsupportedFeatureError(QueryError):
    def __init__(self, feature: str):
        super().__init__(f"openCypher feature not supported by this engine: {feature}")
        self.feature = feature


class QueryValidationError(QueryError):
    def __init__(self, diagnostics):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = list(diagnostics)


# --- query execution ---------------------------------------------------------


class ExecutionError(QueryError):
    pass


class TypeMismatchError(ExecutionError):
    pass


# --- result consumption ------------------------------------------------------


class ResultError(HeapQueryError):
    pass


class CastError(ResultError):
    pass


class ShapeError(ResultError):
    def __init__(self, rows: int, columns: int):
        super().__init__(f"expected a single value but result has {rows} row(s) and {columns} column(s)")
        self.rows = rows
        self.columns = columns


class CursorError(ResultError):
    pass


class UnknownColumnError(ResultError):
    def __init__(self, column):
        super().__init__(f"result has no column {column!r}")
        self.column = column


# --- facade ------------------------------------------------------------------


class PipelineError(HeapQueryError):
    """Wraps an error from one stage of the query pipeline.

    ``stage`` is one of, in pipeline order: expand, parse, validate, extract, execute, result.
    """

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
