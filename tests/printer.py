"""Canonical single-line text of a whole query AST, for the round-trip tests.

The engine prints only expressions (``cypher_ast.expression_text``, which
names RETURN columns); this prints patterns and clauses the same way, so that
parsing the text of a query yields the identical AST.  The text of a query
with parameters is a format string: expand it first.
"""

from __future__ import annotations

from heapquery.cypher_ast import (
    CreateClause,
    Hops,
    MatchClause,
    MergeClause,
    NodePattern,
    PathPattern,
    Query,
    RelPattern,
    ReturnClause,
    Slot,
    WhereClause,
    _literal_text,
    expression_text,
    quote_ident,
)


def _props_text(properties: tuple) -> str:
    """A property map; a ``Slot`` entry is its marker, which ``expand_positional`` reads back as the slot."""
    inner = ", ".join(
        v.marker if isinstance(v, Slot) else f"{quote_ident(k)}: {_literal_text(v.value)}" for k, v in properties
    )
    return "{" + inner + "}"


def _node_text(node: NodePattern) -> str:
    parts = []
    if node.var:
        parts.append(quote_ident(node.var))
    if node.label:
        parts.append(":" + quote_ident(node.label))
    body = "".join(parts)
    if node.properties:
        body = (body + " " if body else "") + _props_text(node.properties)
    return f"({body})"


def _hops_text(hops: Hops) -> str:
    if hops.kind == "one":
        return ""
    if hops.kind == "exact":
        return f"*{hops.lo}"
    if hops.kind == "unbounded":
        return "*"
    hi = "" if hops.hi is None else str(hops.hi)
    return f"*{hops.lo}..{hi}"


def _rel_text(rel: RelPattern) -> str:
    body = ""
    if rel.var:
        body += quote_ident(rel.var)
    if rel.types:
        body += ":" + "|".join(quote_ident(t) for t in rel.types)
    body += _hops_text(rel.hops)
    core = f"[{body}]" if body else "[]"
    if rel.direction == "out":
        return f"-{core}->"
    if rel.direction == "in":
        return f"<-{core}-"
    return f"-{core}-"


def _path_text(path: PathPattern) -> str:
    out = [_node_text(path.nodes[0])]
    for rel, node in zip(path.rels, path.nodes[1:]):
        out.append(_rel_text(rel))
        out.append(_node_text(node))
    return "".join(out)


def query_text(query: Query) -> str:
    """Canonical single-line text of a query AST."""
    parts = []
    for clause in query.clauses:
        if isinstance(clause, CreateClause):
            parts.append("CREATE " + ", ".join(_path_text(p) for p in clause.patterns))
        elif isinstance(clause, MergeClause):
            parts.append("MERGE " + _path_text(clause.pattern))
        elif isinstance(clause, MatchClause):
            kw = "OPTIONAL MATCH" if clause.optional else "MATCH"
            parts.append(kw + " " + ", ".join(_path_text(p) for p in clause.patterns))
        elif isinstance(clause, WhereClause):
            parts.append("WHERE " + expression_text(clause.expr))
        elif isinstance(clause, ReturnClause):
            kw = "RETURN DISTINCT" if clause.distinct else "RETURN"
            items = []
            for item in clause.items:
                text = expression_text(item.expr)
                if item.alias:
                    text += " AS " + quote_ident(item.alias)
                items.append(text)
            parts.append(kw + " " + ", ".join(items))
        else:
            raise TypeError(f"not a clause: {clause!r}")
    return " ".join(parts)
