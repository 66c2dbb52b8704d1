"""Exception hierarchy shared by all heapquery modules, and the token cursor of
both parsers (the object language's and the query language's), which raises
their syntax errors."""

from __future__ import annotations

import re
from typing import NamedTuple


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


class Token(NamedTuple):
    kind: str  # a group name of the tokenizer's pattern, or eof (and the query language's slot)
    text: str
    offset: int  # of the token's first character (of its marker, once expanded) in the text

    def keyword(self) -> str | None:
        """Uppercase form when the token can act as a keyword."""
        if self.kind == "ident":
            return self.text.upper()
        return None


def tokenize(pattern: re.Pattern, text: str) -> list[Token]:
    """The tokens ``pattern`` matches in ``text`` without whitespace and comments, then ``eof``.

    The group that matched names each token's kind; the cursor rejects ``bad`` ones.  Every
    capturing group of ``pattern`` is a named alternative, so ``lastindex`` is the one that matched.
    """
    kinds = [None] * (pattern.groups + 1)  # by group number; None for whitespace and comments
    for name, number in pattern.groupindex.items():
        kinds[number] = None if name in ("ws", "comment") else name
    new = tuple.__new__  # a Token without the Python-level ``__new__`` of a named tuple
    tokens = []
    for m in pattern.finditer(text):
        number = m.lastindex
        kind = kinds[number]
        if kind is not None:
            tokens.append(new(Token, (kind, m[number], m.start())))
    tokens.append(Token("eof", "", len(text)))
    return tokens


class TokenCursor:
    """A parser's position in the tokens of ``text``; its syntax errors are ``syntax_error``s at a token.

    A token of a kind in ``refused`` is a syntax error before any is read.
    """

    syntax_error: type[HeapQueryError]
    refused: tuple = ("bad",)

    def __init__(self, tokens: list[Token], text: str):
        self.text = text
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # nesting levels open
        refused = self.refused
        for tok in tokens:
            if tok.kind in refused:
                self.error(f"unexpected character {tok.text[0]!r}", tok)

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise self.syntax_error(message, *text_position(self.text, tok.offset))

    def int_value(self, tok: Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # more digits than ``sys.get_int_max_str_digits()`` allows
            self.error(f"integer literal of {len(tok.text)} digits is too long", tok)


class ProgramError(HeapQueryError):
    pass


class ProgramSyntaxError(ProgramError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class UnknownTypeError(ProgramError):
    pass


class LiteralTypeError(ProgramError):
    """A constructor literal that its primitive field's declared type does not take."""


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
