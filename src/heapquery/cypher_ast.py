"""AST for the supported openCypher subset, plus the canonical text of an expression.

``And`` and ``Or`` are n-ary.  The parser splices a first operand of the
same kind into the node, parenthesized or not, and never a later one:
``(a AND b) AND c`` is ``And((a, b, c))`` and prints as ``a AND b AND c``,
while ``a AND (b AND c)`` keeps its inner node and its parentheses.
``walk`` visits an expression's nodes without recursion.

``expression_text`` names a RETURN column that has no alias.  It produces
text the parser accepts, and parsing it yields the identical expression; the
tests print whole queries the same way to check that round trip.  So the
words the parser refuses as bare names are defined here, and
``quote_ident`` puts each of them in backticks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

# --- expressions ---------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: object  # int | float | bool | str


class Slot(NamedTuple):
    """A ``$k`` or ``[]k`` marker's ``$uid`` value: a parameter, whose id ``query_engine.execute`` reads from its rows.

    A tuple, so that as a row key it never equals a variable name (a string) or a count's key (an int).
    """

    marker: str  # as written, such as ``$1`` or ``[]2``


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class PropertyAccess:
    var: str
    key: str


@dataclass(frozen=True)
class Count:
    expr: object | None  # None means count(*)
    distinct: bool = False


@dataclass(frozen=True)
class EqualsCall:
    left: object
    right: object


@dataclass(frozen=True)
class Comparison:
    op: str  # = <> < <= > >=
    left: object
    right: object


@dataclass(frozen=True)
class And:
    operands: tuple  # two or more; the first is never an And


@dataclass(frozen=True)
class Or:
    operands: tuple  # two or more; the first is never an Or


@dataclass(frozen=True)
class Not:
    operand: object


Expression = Literal | Variable | PropertyAccess | Count | EqualsCall | Comparison | And | Or | Not


def children(expr) -> tuple:
    """The direct sub-expressions of ``expr``, left to right."""
    if isinstance(expr, (And, Or)):
        return expr.operands
    if isinstance(expr, (EqualsCall, Comparison)):
        return expr.left, expr.right
    if isinstance(expr, Not):
        return (expr.operand,)
    if isinstance(expr, Count) and expr.expr is not None:
        return (expr.expr,)
    return ()


def walk(expr, leaves=()):
    """The nodes of ``expr`` in preorder, left to right; not below instances of ``leaves``."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, leaves):
            stack.extend(reversed(children(node)))


def find_counts(expr) -> list[Count]:
    """The count(...) calls in ``expr``, outermost first, left to right."""
    return [node for node in walk(expr) if isinstance(node, Count)]


def pattern_variables(patterns) -> list[str]:
    """The node and relationship variables named in ``patterns``, first occurrence first."""
    seen = []
    for path in patterns:
        for node in path.nodes:
            if node.var is not None and node.var not in seen:
                seen.append(node.var)
        for rel in path.rels:
            if rel.var is not None and rel.var not in seen:
                seen.append(rel.var)
    return seen


# --- patterns --------------------------------------------------------------------


@dataclass(frozen=True)
class Hops:
    """Hop specification of a relationship pattern.

    kind: one (no star), exact (*n), range (*lo..hi, hi may be None),
    unbounded (bare *, meaning 1 or more).
    """

    kind: str
    lo: int | None = None
    hi: int | None = None

    def bounds(self) -> tuple[int, int | None]:
        if self.kind == "one":
            return 1, 1
        if self.kind == "exact":
            return self.lo, self.lo
        if self.kind == "range":
            return self.lo, self.hi
        return 1, None

    @property
    def variable_length(self) -> bool:
        return self.kind != "one"


HOPS_ONE = Hops("one")


@dataclass(frozen=True)
class NodePattern:
    var: str | None = None
    label: str | None = None
    properties: tuple = ()  # ordered (key, Literal or Slot) pairs


@dataclass(frozen=True)
class RelPattern:
    var: str | None = None
    types: tuple = ()  # empty = any type
    direction: str = "out"  # out | in | both
    hops: Hops = HOPS_ONE


@dataclass(frozen=True)
class PathPattern:
    nodes: tuple  # n+1 NodePatterns
    rels: tuple = ()  # n RelPatterns


# --- clauses ---------------------------------------------------------------------


@dataclass(frozen=True)
class CreateClause:
    patterns: tuple


@dataclass(frozen=True)
class MergeClause:
    pattern: PathPattern


@dataclass(frozen=True)
class MatchClause:
    patterns: tuple
    optional: bool = False


@dataclass(frozen=True)
class WhereClause:
    expr: object


@dataclass(frozen=True)
class ReturnItem:
    expr: object
    alias: str | None = None


@dataclass(frozen=True)
class ReturnClause:
    items: tuple
    distinct: bool = False


Clause = CreateClause | MergeClause | MatchClause | WhereClause | ReturnClause


@dataclass(frozen=True)
class Query:
    clauses: tuple

    @property
    def writes(self) -> bool:
        """True when a CREATE or MERGE clause may change the graph."""
        return any(isinstance(clause, (CreateClause, MergeClause)) for clause in self.clauses)


# --- canonical text ----------------------------------------------------------------

_PLAIN_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# openCypher keywords the parser recognizes but does not support.
UNSUPPORTED_KEYWORDS = frozenset(
    """
    WITH UNWIND SET DELETE DETACH REMOVE ORDER SKIP LIMIT UNION CALL FOREACH
    CASE EXISTS LOAD USING START YIELD XOR IN IS CONTAINS STARTS ENDS
    """.split()
)

# The other words the parser refuses as a bare name, in any case.
RESERVED_WORDS = frozenset("CREATE MERGE MATCH OPTIONAL WHERE RETURN AND OR NOT TRUE FALSE NULL DISTINCT AS".split())

_QUOTED = RESERVED_WORDS | UNSUPPORTED_KEYWORDS | {"COUNT", "EQUALS"}


def quote_ident(name: str) -> str:
    """``name`` as the parser reads it back: bare when it can be, else in backticks."""
    if _PLAIN_IDENT.match(name) and name.upper() not in _QUOTED:
        return name
    return "`" + name.replace("`", "``") + "`"


def _literal_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"
    raise TypeError(f"not a literal value: {value!r}")


def expression_text(expr) -> str:
    return _expr_text(expr, 0)


# precedence: OR(1) < AND(2) < NOT(3) < comparison(4) < atom(5)
def _expr_text(expr, parent_level: int) -> str:
    if isinstance(expr, (Or, And)):
        level = 1 if isinstance(expr, Or) else 2
        first, *rest = expr.operands
        word = " OR " if level == 1 else " AND "
        text = word.join([_expr_text(first, level), *(_expr_text(operand, level + 1) for operand in rest)])
    elif isinstance(expr, Not):
        text = f"NOT {_expr_text(expr.operand, 3)}"
        level = 3
    elif isinstance(expr, Comparison):
        text = f"{_expr_text(expr.left, 5)} {expr.op} {_expr_text(expr.right, 5)}"
        level = 4
    elif isinstance(expr, Count):
        if expr.expr is None:
            text = "count(*)"
        elif expr.distinct:
            text = f"count(DISTINCT {_expr_text(expr.expr, 0)})"
        else:
            text = f"count({_expr_text(expr.expr, 0)})"
        level = 5
    elif isinstance(expr, EqualsCall):
        text = f"equals({_expr_text(expr.left, 0)}, {_expr_text(expr.right, 0)})"
        level = 5
    elif isinstance(expr, PropertyAccess):
        text = f"{quote_ident(expr.var)}.{quote_ident(expr.key)}"
        level = 5
    elif isinstance(expr, Variable):
        text = quote_ident(expr.name)
        level = 5
    elif isinstance(expr, Literal):
        text = _literal_text(expr.value)
        level = 5
    else:
        raise TypeError(f"not an expression: {expr!r}")
    if level < parent_level:
        return f"({text})"
    return text
