"""Lexer, parser and validator for the openCypher subset, and the arguments
of positional markers.

Supported: CREATE, MERGE, MATCH, OPTIONAL MATCH, WHERE, RETURN [DISTINCT],
node/relationship patterns with label alternation and hop specifications,
comparisons, AND/OR/NOT, count(...), equals(...), literals and AS aliases.
Recognized openCypher constructs outside the subset raise
UnsupportedFeatureError naming the construct.

The markers ``$k``, ``@k`` and ``[]k`` are tokens (so none is bound inside a
string, backticks or a ``//`` comment), which ``expand_positional`` replaces
by a token at the marker's offset: syntax errors point into the format
string.  An ``@k`` marker becomes its class name, so it is part of the
parsed query.  A ``$k`` or ``[]k`` marker becomes a ``slot`` token, which a
property map takes as a ``$uid`` entry whose value is a ``Slot``, and any
other place refuses, naming the marker.  The parsed query holds no id:
validation and lint read none, and each call passes its ids as parameters
(``check_arguments``), which ``query_engine.execute`` reads from its rows.
So a format string is parsed once per tuple of ``@k`` values
(``check_arguments`` gives that tuple from the markers alone), and a ``[]k``
batch once for all its ids.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .cypher_ast import (
    And,
    Comparison,
    Count,
    CreateClause,
    EqualsCall,
    Hops,
    HOPS_ONE,
    Literal,
    MatchClause,
    MergeClause,
    NodePattern,
    Not,
    Or,
    PathPattern,
    PropertyAccess,
    Query,
    RelPattern,
    RESERVED_WORDS,
    ReturnClause,
    ReturnItem,
    Slot,
    UNSUPPORTED_KEYWORDS,
    Variable,
    WhereClause,
    find_counts,
    pattern_variables,
    walk,
)
from .errors import MAX_NESTING, ExpansionError, QuerySyntaxError, Token, TokenCursor, UnsupportedFeatureError
from .errors import tokenize as _tokenize
from .property_graph import RESERVED_LABELS, UID_KEY

# A quote that the string alternative cannot close (the text ends first, or
# an escape is followed by a line break) is one ``bad`` token up to its
# closing quote or the end of the text, and a backtick without a closing one
# runs to the end: no marker inside either is bound.
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<float>\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<backtick>`(?:[^`]|``)*`)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<marker>\$\d+|@\d+|\[\]\d+)
  | (?P<op><=|>=|<>|<-|->|\.\.|[()\[\]{},:.|*=<>-])
  | (?P<bad>'(?:[^'\\]|\\[\s\S])*'?|"(?:[^"\\]|\\[\s\S])*"?|`[\s\S]*|.)
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``: float/int/string/backtick/ident/marker/op/bad, then eof (``expand_positional`` adds slot)."""
    return _tokenize(_TOKEN_RE, text)


def _unescape_string(text: str) -> str:
    body = text[1:-1]
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            nxt = body[i + 1]
            out.append({"n": "\n", "t": "\t"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _unescape_backtick(text: str) -> str:
    return text[1:-1].replace("``", "`")


class _Parser(TokenCursor):
    syntax_error = QuerySyntaxError
    refused = ("bad", "marker")  # a marker here was never expanded

    def nest(self, tok: Token, parse):
        """``parse()`` one nesting level below ``tok``; past ``MAX_NESTING`` levels, a syntax error."""
        if self.depth == MAX_NESTING:
            self.error(f"expression nested deeper than the limit of {MAX_NESTING} levels", tok)
        self.depth += 1
        expr = parse()
        self.depth -= 1
        return expr

    def expect_op(self, op: str) -> Token:
        tok = self.advance()
        if tok.kind != "op" or tok.text != op:
            self.error(f"expected {op!r}, got {tok.text or 'end of query'!r}", tok)
        return tok

    def at_op(self, op: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text == op

    def at_keyword(self, word: str) -> bool:
        return self.peek().keyword() == word

    def take_keyword(self, word: str) -> bool:
        if self.at_keyword(word):
            self.advance()
            return True
        return False

    def name(self, what: str = "identifier") -> str:
        tok = self.advance()
        if tok.kind == "backtick":
            text = _unescape_backtick(tok.text)
            if not text:
                self.error(f"empty {what}", tok)
            return text
        if tok.kind == "ident":
            kw = tok.text.upper()
            if kw in UNSUPPORTED_KEYWORDS:
                raise UnsupportedFeatureError(kw)
            if kw in RESERVED_WORDS:
                self.error(f"expected {what}, got keyword {tok.text!r}", tok)
            return tok.text
        self.error(f"expected {what}, got {tok.text or 'end of query'!r}", tok)

    def comma_list(self, parse_item) -> tuple:
        """``item (, item)*``, each item read by ``parse_item()``."""
        items = [parse_item()]
        while self.at_op(","):
            self.advance()
            items.append(parse_item())
        return tuple(items)

    # --- query ------------------------------------------------------------------

    def parse_query(self) -> Query:
        clauses = []
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            kw = tok.keyword()
            if kw in UNSUPPORTED_KEYWORDS:
                raise UnsupportedFeatureError(kw)
            if kw == "CREATE":
                self.advance()
                clauses.append(CreateClause(self.comma_list(self.parse_path)))
            elif kw == "MERGE":
                self.advance()
                clauses.append(MergeClause(self.parse_path()))
            elif kw == "OPTIONAL":
                self.advance()
                if not self.take_keyword("MATCH"):
                    self.error("expected MATCH after OPTIONAL")
                clauses.append(MatchClause(self.comma_list(self.parse_path), optional=True))
            elif kw == "MATCH":
                self.advance()
                clauses.append(MatchClause(self.comma_list(self.parse_path)))
            elif kw == "WHERE":
                self.advance()
                clauses.append(WhereClause(self.parse_expression()))
            elif kw == "RETURN":
                self.advance()
                distinct = self.take_keyword("DISTINCT")
                clauses.append(ReturnClause(self.comma_list(self.parse_return_item), distinct))
            else:
                self.error(f"expected a clause keyword, got {tok.text!r}", tok)
        if not clauses:
            self.error("empty query")
        return Query(tuple(clauses))

    def parse_return_item(self) -> ReturnItem:
        expr = self.parse_expression()
        alias = None
        if self.take_keyword("AS"):
            alias = self.name("alias")
        return ReturnItem(expr, alias)

    # --- patterns ------------------------------------------------------------------

    def parse_path(self) -> PathPattern:
        nodes = [self.parse_node_pattern()]
        rels = []
        while self.at_op("-") or self.at_op("<-"):
            rels.append(self.parse_rel_pattern())
            nodes.append(self.parse_node_pattern())
        return PathPattern(tuple(nodes), tuple(rels))

    def parse_node_pattern(self) -> NodePattern:
        self.expect_op("(")
        var = None
        label = None
        props: tuple = ()
        if self.peek().kind in ("ident", "backtick") and self.peek().keyword() not in UNSUPPORTED_KEYWORDS:
            var = self.name("variable")
        if self.at_op(":"):
            self.advance()
            label = self.name("label")
        if self.at_op("{"):
            props = self.parse_property_map()
        self.expect_op(")")
        return NodePattern(var, label, props)

    def parse_property_map(self) -> tuple:
        self.expect_op("{")
        entries = () if self.at_op("}") else self.comma_list(self.parse_property)
        if not self.at_op("}"):
            self.error("expected ',' or '}' in property map")
        self.advance()
        return entries

    def parse_property(self) -> tuple:
        if self.peek().kind == "slot":
            return UID_KEY, Slot(self.advance().text)
        key = self.name("property key")
        self.expect_op(":")
        return key, self.parse_literal()

    def parse_rel_pattern(self) -> RelPattern:
        if self.at_op("<-"):
            self.advance()
            direction = "in"
        else:
            self.expect_op("-")
            direction = None  # decided by the closing arrow

        var = None
        types: tuple = ()
        hops = HOPS_ONE
        if self.at_op("["):
            self.advance()
            if self.peek().kind in ("ident", "backtick") and not self.at_op(":"):
                var = self.name("relationship variable")
            if self.at_op(":"):
                self.advance()
                names = [self.name("relationship type")]
                while self.at_op("|"):
                    self.advance()
                    if self.at_op(":"):
                        self.advance()
                    names.append(self.name("relationship type"))
                types = tuple(names)
            if self.at_op("*"):
                hops = self.parse_hops()
            if self.at_op("{"):
                raise UnsupportedFeatureError("relationship property maps")
            self.expect_op("]")

        if direction == "in":
            self.expect_op("-")
            if self.at_op(">"):
                self.error("relationship pattern cannot point both ways")
            return RelPattern(var, types, "in", hops)
        if self.at_op("->"):
            self.advance()
            return RelPattern(var, types, "out", hops)
        self.expect_op("-")
        if self.at_op(">"):
            self.advance()
            return RelPattern(var, types, "out", hops)
        return RelPattern(var, types, "both", hops)

    def parse_hops(self) -> Hops:
        self.expect_op("*")
        lo = None
        hi = None
        if self.peek().kind == "int":
            lo = self.int_value(self.advance())
        if self.at_op(".."):
            self.advance()
            if self.peek().kind == "int":
                hi = self.int_value(self.advance())
            return Hops("range", lo if lo is not None else 1, hi)
        if lo is not None:
            return Hops("exact", lo, lo)
        return Hops("unbounded")

    # --- expressions -----------------------------------------------------------------

    def parse_expression(self):
        return self.parse_chain("OR", Or, self.parse_and)

    def parse_and(self):
        return self.parse_chain("AND", And, self.parse_not)

    def parse_chain(self, word: str, kind, operand):
        """``operand (word operand)*`` as one ``kind`` node; a first operand of that kind is spliced in."""
        first = operand()
        if not self.at_keyword(word):
            return first
        operands = list(first.operands) if isinstance(first, kind) else [first]
        while self.take_keyword(word):
            operands.append(operand())
        return kind(tuple(operands))

    def parse_not(self):
        if self.at_keyword("NOT"):
            return Not(self.nest(self.advance(), self.parse_not))
        return self.parse_comparison()

    def parse_comparison(self):
        left = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("=", "<>", "<", "<=", ">", ">="):
            self.advance()
            right = self.parse_atom()
            return Comparison(tok.text, left, right)
        return left

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            expr = self.nest(self.advance(), self.parse_expression)
            self.expect_op(")")
            return expr
        kw = tok.keyword()
        if kw == "NULL":
            raise UnsupportedFeatureError("NULL literals")
        if kw in ("TRUE", "FALSE") or tok.kind in ("int", "float", "string") or (tok.kind == "op" and tok.text == "-"):
            return self.parse_literal()
        if tok.kind == "ident" and self.tokens[self.i + 1].text == "(":  # an ident is never the last token
            name = tok.text.upper()
            if name in ("COUNT", "EQUALS"):
                return self.nest(self.advance(), self.parse_count if name == "COUNT" else self.parse_equals)
            raise UnsupportedFeatureError(f"function {tok.text}()")
        if tok.kind in ("ident", "backtick"):
            var = self.name("variable")
            if self.at_op("."):
                self.advance()
                key = self.name("property key")
                return PropertyAccess(var, key)
            return Variable(var)
        self.error(f"expected an expression, got {tok.text or 'end of query'!r}", tok)

    def parse_count(self) -> Count:
        self.expect_op("(")
        if self.at_op("*"):
            self.advance()
            self.expect_op(")")
            return Count(None)
        distinct = self.take_keyword("DISTINCT")
        expr = self.parse_expression()
        self.expect_op(")")
        return Count(expr, distinct)

    def parse_equals(self) -> EqualsCall:
        self.expect_op("(")
        left = self.parse_expression()
        self.expect_op(",")
        right = self.parse_expression()
        self.expect_op(")")
        return EqualsCall(left, right)

    def parse_literal(self) -> Literal:
        tok = self.advance()
        kw = tok.keyword()
        if kw in ("TRUE", "FALSE"):
            return Literal(kw == "TRUE")
        if kw == "NULL":
            raise UnsupportedFeatureError("NULL property values")
        if tok.kind == "string":
            return Literal(_unescape_string(tok.text))
        negative = tok.kind == "op" and tok.text == "-"
        if negative:
            tok = self.advance()
        if tok.kind == "int":
            value: object = self.int_value(tok)
        elif tok.kind == "float":
            value = float(tok.text)
        else:
            self.error(f"expected a number, got {tok.text!r}", tok)
        return Literal(-value if negative else value)


def parse(source: str | list[Token], text: str = "") -> Query:
    """Parse query text, or the tokens of ``text``, into a Query AST (no validation)."""
    if isinstance(source, str):
        source, text = tokenize(source), source
    return _Parser(source, text).parse_query()


# --- validation -----------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    message: str

    def __str__(self) -> str:
        return self.message


def _check_expr(expr, bound: dict, out: list, *, aggregates_allowed: bool):
    """Append to ``out`` the diagnostics of one expression under ``bound`` variables, in preorder."""
    for outer in walk(expr, Count):
        # A count(...) is walked whole here, so every count below it is nested.
        for node in walk(outer) if isinstance(outer, Count) else (outer,):
            if isinstance(node, (Variable, PropertyAccess)):
                name = node.name if isinstance(node, Variable) else node.var
                if name not in bound:
                    out.append(Diagnostic(f"unbound variable {name!r}"))
            elif isinstance(node, Count):
                if not aggregates_allowed:
                    out.append(Diagnostic("count(...) is only allowed in RETURN items"))
                elif node is not outer:
                    out.append(Diagnostic("nested count(...) is not allowed"))


def validate(query: Query) -> list[Diagnostic]:
    """Static checks over a parsed query; an empty list means valid."""
    out: list[Diagnostic] = []
    bound: dict[str, str] = {}  # variable -> node|rel

    def bind(var: str | None, kind: str):
        if var is None:
            return
        if bound.get(var, kind) != kind:
            out.append(Diagnostic(f"variable {var!r} is used both as a {bound[var]} and a {kind}"))
        bound.setdefault(var, kind)

    def check_write_pattern(path: PathPattern, clause_name: str):
        states = []
        for node in path.nodes:
            was_bound = node.var is not None and node.var in bound
            states.append(was_bound)
            if was_bound:
                if node.label or node.properties:
                    out.append(
                        Diagnostic(f"{clause_name} may not restate label/properties of bound variable {node.var!r}")
                    )
            else:
                if not node.label:
                    out.append(Diagnostic(f"{clause_name} requires a label on new node {node.var or '(anonymous)'}"))
                elif node.label in RESERVED_LABELS:
                    out.append(Diagnostic(f"label {node.label!r} is reserved and cannot be {clause_name.lower()}d"))
            for key, _ in node.properties:
                if key == UID_KEY:
                    out.append(Diagnostic(f"property key {UID_KEY!r} is reserved and cannot be written"))
            bind(node.var, "node")
        if clause_name == "MERGE" and len(set(states)) > 1:
            out.append(Diagnostic("MERGE patterns must use either all-bound or all-unbound node variables"))
        for rel in path.rels:
            if rel.var is not None and rel.var in bound:
                out.append(Diagnostic(f"{clause_name} cannot reuse bound relationship variable {rel.var!r}"))
            if len(rel.types) != 1:
                out.append(Diagnostic(f"{clause_name} relationships need exactly one type"))
            if rel.direction == "both":
                out.append(Diagnostic(f"{clause_name} relationships must be directed"))
            if rel.hops.variable_length:
                out.append(Diagnostic(f"{clause_name} relationships cannot be variable-length"))
            bind(rel.var, "rel")

    def check_match_pattern(path: PathPattern):
        for node in path.nodes:
            bind(node.var, "node")
        for rel in path.rels:
            if rel.hops.variable_length:
                if rel.var is not None:
                    out.append(Diagnostic("variable-length relationships cannot be bound to a variable"))
                lo, hi = rel.hops.bounds()
                if rel.hops.kind == "exact" and lo < 1:
                    out.append(Diagnostic("exact hop count must be at least 1"))
                if lo is not None and lo < 0:
                    out.append(Diagnostic("hop bounds cannot be negative"))
                if hi is not None and lo is not None and hi < lo:
                    out.append(Diagnostic(f"hop range {lo}..{hi} is empty"))
            else:
                bind(rel.var, "rel")

    returns = [i for i, c in enumerate(query.clauses) if isinstance(c, ReturnClause)]
    if len(returns) != 1:
        out.append(Diagnostic("query must have exactly one RETURN clause"))
    elif returns[0] != len(query.clauses) - 1:
        out.append(Diagnostic("RETURN must be the last clause"))

    for i, clause in enumerate(query.clauses):
        if isinstance(clause, CreateClause):
            for path in clause.patterns:
                check_write_pattern(path, "CREATE")
        elif isinstance(clause, MergeClause):
            check_write_pattern(clause.pattern, "MERGE")
        elif isinstance(clause, MatchClause):
            for path in clause.patterns:
                check_match_pattern(path)
        elif isinstance(clause, WhereClause):
            prev = query.clauses[i - 1] if i > 0 else None
            if not isinstance(prev, MatchClause):
                out.append(Diagnostic("WHERE must immediately follow a MATCH clause"))
            _check_expr(clause.expr, bound, out, aggregates_allowed=False)
        elif isinstance(clause, ReturnClause):
            has_count = [bool(find_counts(item.expr)) for item in clause.items]
            if any(has_count) and not all(has_count):
                out.append(Diagnostic("mixing aggregated and plain RETURN items is not supported"))
            for item in clause.items:
                _check_expr(item.expr, bound, out, aggregates_allowed=True)
    return out


def lint(query: Query) -> list[Diagnostic]:
    """Non-fatal warnings for valid queries.

    Created graph entities that a query does not return cannot be referenced
    afterwards by the caller, which is usually a mistake.
    """
    created: set[str] = set()
    for clause in query.clauses:
        if isinstance(clause, CreateClause):
            created.update(pattern_variables(clause.patterns))
        elif isinstance(clause, MergeClause):
            created.update(pattern_variables((clause.pattern,)))
    if not created:
        return []
    returned: set[str] = set()
    for clause in query.clauses:
        if isinstance(clause, ReturnClause):
            for item in clause.items:
                returned |= _expr_variables(item.expr)
    if created & returned:
        return []
    return [Diagnostic("query creates entities but returns none of them; they cannot be referenced afterwards")]


def _expr_variables(expr) -> set[str]:
    return {
        node.name if isinstance(node, Variable) else node.var
        for node in walk(expr)
        if isinstance(node, (Variable, PropertyAccess))
    }


# --- positional arguments -----------------------------------------------------------


class Marker(NamedTuple):
    text: str  # as written
    sigil: str  # $, @ or []
    index: int  # k; 0, which is out of range, when k has 10 digits or more


class Arguments(NamedTuple):
    """The arguments of one call, checked against the markers of its format string."""

    names: tuple  # the class name of each @k marker, in text order
    params: dict  # the parameters of the query: each $k marker's Slot -> its id
    batch: list | None  # with a []k marker, ``params`` with its Slot -> each id of its collection, in order


def check_arguments(markers, args) -> Arguments:
    """The arguments that ``markers`` (in text order) take from ``args``; the first misfit raises ExpansionError."""
    names = []
    params = {}
    collection = None  # the []k marker's Slot and ids
    for text, sigil, index in markers:
        if not 0 < index <= len(args):
            digits = text[len(sigil) :]
            shown = index if len(digits) < 10 else digits
            raise ExpansionError(f"positional argument {sigil}{shown} is out of range (got {len(args)} arguments)")
        value = args[index - 1]
        if sigil == "@":
            if not isinstance(value, str) or not value:
                raise ExpansionError(f"@{index} needs a class name (string), got {value!r}")
            names.append(value)
        elif sigil == "$":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ExpansionError(f"${index} needs a unique id (integer), got {value!r}")
            try:
                str(value)  # an id must be one a query text can hold
            except ValueError:  # more digits than ``sys.get_int_max_str_digits()`` allows
                raise ExpansionError(f"${index} is an id of {value.bit_length()} bits, too long to bind") from None
            params[Slot(text)] = value
        else:
            if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
                raise ExpansionError(f"[]{index} needs a collection of unique ids, got {value!r}")
            elements = list(value)
            for element in elements:
                if isinstance(element, bool) or not isinstance(element, int):
                    raise ExpansionError(f"[]{index} elements must be unique ids (integers), got {element!r}")
            if collection is not None:
                raise ExpansionError("only one [] marker is supported per query")
            collection = Slot(text), elements
    batch = None if collection is None else [{**params, collection[0]: uid} for uid in collection[1]]
    return Arguments(tuple(names), params, batch)


def expand_positional(fmt: str, args) -> tuple[list[Token], tuple[Marker, ...], Arguments]:
    """The tokens of ``fmt`` with its ``$k`` (unique id), ``@k`` (class name) and ``[]k`` (batch) markers bound.

    ``@k`` becomes one name token, and ``$k`` and ``[]k`` a ``slot`` token.
    Also returned: the markers, in text order, and the arguments they take
    (``check_arguments``).
    """
    tokens = tokenize(fmt)
    markers = tuple(_marker(tok.text) for tok in tokens if tok.kind == "marker")
    arguments = check_arguments(markers, args)
    names = iter(arguments.names)
    expanded: list[Token] = []
    for tok in tokens:
        if tok.kind != "marker":
            expanded.append(tok)
        elif tok.text[0] == "@":
            expanded.append(Token("backtick", "`" + next(names).replace("`", "``") + "`", tok.offset))
        else:
            expanded.append(Token("slot", tok.text, tok.offset))
    return expanded, markers, arguments


def _marker(text: str) -> Marker:
    sigil = text.rstrip("0123456789")
    digits = text[len(sigil) :]
    return Marker(text, sigil, int(digits) if len(digits) < 10 else 0)
