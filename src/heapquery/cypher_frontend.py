"""Lexer, parser and validator for the openCypher subset, and the binding
of positional arguments.

Supported: CREATE, MERGE, MATCH, OPTIONAL MATCH, WHERE, RETURN [DISTINCT],
node/relationship patterns with label alternation and hop specifications,
comparisons, AND/OR/NOT, count(...), equals(...), literals and AS aliases.
Recognized openCypher constructs outside the subset raise
UnsupportedFeatureError naming the construct.

The markers ``$k``, ``@k`` and ``[]k`` are tokens (so none is bound inside a
string, backticks or a ``//`` comment), which ``expand_positional`` replaces
by tokens at the marker's offset: syntax errors point into the format
string.  An ``@k`` marker becomes its class name, so it is part of the
parsed query.  A ``$k`` or ``[]k`` marker becomes a ``$uid`` entry whose
value is a ``Slot``: the parsed query holds no id, validation and lint read
none, and ``bind`` puts the ids of each call into it.  So a format string
is parsed once per tuple of ``@k`` values (``check_arguments`` gives that
tuple from the markers alone), and a ``[]k`` batch once for all its ids.
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
    UNSUPPORTED_KEYWORDS,
    Variable,
    WhereClause,
    find_counts,
    pattern_variables,
    walk,
)
from .errors import MAX_NESTING, ExpansionError, QuerySyntaxError, UnsupportedFeatureError, text_position
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


class Token(NamedTuple):
    kind: str  # float/int/string/backtick/ident/marker/op/bad/eof, and slot (see expand_positional)
    text: str
    offset: int  # of the token's first character (of its marker, once expanded) in the query text

    def keyword(self) -> str | None:
        """Uppercase form when the token can act as a keyword."""
        if self.kind == "ident":
            return self.text.upper()
        return None


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text`` without whitespace and comments, then ``eof``; the parser rejects ``bad`` ones."""
    matches = _TOKEN_RE.finditer(text)
    tokens = [Token(m.lastgroup, m[m.lastgroup], m.start()) for m in matches if m.lastgroup not in ("ws", "comment")]
    tokens.append(Token("eof", "", len(text)))
    return tokens


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


class _Parser:
    def __init__(self, tokens: list[Token], text: str):
        self.text = text
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # expression nesting levels open
        for tok in tokens:
            if tok.kind in ("bad", "marker"):  # a marker here was never expanded
                self.error(f"unexpected character {tok.text[0]!r}", tok)

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise QuerySyntaxError(message, *text_position(self.text, tok.offset))

    def int_value(self, tok: Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # more digits than ``sys.get_int_max_str_digits()`` allows
            self.error(f"integer literal of {len(tok.text)} digits is too long", tok)

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

    def at_op(self, op: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
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
                clauses.append(CreateClause(tuple(self.parse_pattern_list())))
            elif kw == "MERGE":
                self.advance()
                clauses.append(MergeClause(self.parse_path()))
            elif kw == "OPTIONAL":
                self.advance()
                if not self.take_keyword("MATCH"):
                    self.error("expected MATCH after OPTIONAL")
                clauses.append(MatchClause(tuple(self.parse_pattern_list()), optional=True))
            elif kw == "MATCH":
                self.advance()
                clauses.append(MatchClause(tuple(self.parse_pattern_list())))
            elif kw == "WHERE":
                self.advance()
                clauses.append(WhereClause(self.parse_expression()))
            elif kw == "RETURN":
                self.advance()
                clauses.append(self.parse_return())
            else:
                self.error(f"expected a clause keyword, got {tok.text!r}", tok)
        if not clauses:
            self.error("empty query")
        return Query(tuple(clauses))

    def parse_return(self) -> ReturnClause:
        distinct = self.take_keyword("DISTINCT")
        items = [self.parse_return_item()]
        while self.at_op(","):
            self.advance()
            items.append(self.parse_return_item())
        return ReturnClause(tuple(items), distinct)

    def parse_return_item(self) -> ReturnItem:
        expr = self.parse_expression()
        alias = None
        if self.take_keyword("AS"):
            alias = self.name("alias")
        return ReturnItem(expr, alias)

    # --- patterns ------------------------------------------------------------------

    def parse_pattern_list(self) -> list[PathPattern]:
        paths = [self.parse_path()]
        while self.at_op(","):
            self.advance()
            paths.append(self.parse_path())
        return paths

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
        entries = []
        while not self.at_op("}"):
            key = self.name("property key")
            self.expect_op(":")
            entries.append((key, self.parse_literal()))
            if self.at_op(","):
                self.advance()
            elif not self.at_op("}"):
                self.error("expected ',' or '}' in property map")
        self.expect_op("}")
        return tuple(entries)

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
        if kw == "TRUE":
            self.advance()
            return Literal(True)
        if kw == "FALSE":
            self.advance()
            return Literal(False)
        if tok.kind in ("int", "float") or (tok.kind == "op" and tok.text == "-"):
            return self.parse_literal_expr()
        if tok.kind == "string":
            self.advance()
            return Literal(_unescape_string(tok.text))
        if tok.kind == "ident" and self.at_op("(", ahead=1):
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

    def parse_literal_expr(self) -> Literal:
        negative = False
        if self.at_op("-"):
            self.advance()
            negative = True
        tok = self.advance()
        if tok.kind == "int":
            value: object = -self.int_value(tok) if negative else self.int_value(tok)
        elif tok.kind == "float":
            value = -float(tok.text) if negative else float(tok.text)
        else:
            self.error(f"expected a number, got {tok.text!r}", tok)
        return Literal(value)

    def parse_literal(self) -> Literal:
        tok = self.peek()
        kw = tok.keyword()
        if kw == "TRUE":
            self.advance()
            return Literal(True)
        if kw == "FALSE":
            self.advance()
            return Literal(False)
        if kw == "NULL":
            raise UnsupportedFeatureError("NULL property values")
        if tok.kind == "string":
            self.advance()
            return Literal(_unescape_string(tok.text))
        if tok.kind == "slot":
            self.advance()
            return Slot(tok.text)
        return self.parse_literal_expr()


def parse(source: str | list[Token], text: str = "") -> Query:
    """Parse query text, or the tokens of ``text``, into a Query AST (no validation)."""
    if isinstance(source, str):
        source, text = tokenize(source), source
    parser = _Parser(source, text)
    query = parser.parse_query()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.error(f"unexpected trailing input {tok.text!r}", tok)
    return query


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


@dataclass(frozen=True)
class Slot:
    """The value of a ``$k`` or ``[]k`` marker's ``$uid`` entry in a parsed query, until ``bind``."""

    marker: str  # as written, such as ``$1`` or ``[]2``


class Marker(NamedTuple):
    text: str  # as written
    sigil: str  # $, @ or []
    index: int  # k; 0, which is out of range, when k has 10 digits or more


class Arguments(NamedTuple):
    """The arguments of one call, checked against the markers of its format string."""

    names: tuple  # the class name of each @k marker, in text order
    ids: dict  # marker text -> id, for each $k marker
    batch: tuple | None  # the []k marker's text and its ids, or None without one


def check_arguments(markers, args) -> Arguments:
    """The arguments that ``markers`` (in text order) take from ``args``; the first misfit raises ExpansionError."""
    names = []
    ids = {}
    batch = None
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
            ids[text] = value
        else:
            if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
                raise ExpansionError(f"[]{index} needs a collection of unique ids, got {value!r}")
            elements = list(value)
            for element in elements:
                if isinstance(element, bool) or not isinstance(element, int):
                    raise ExpansionError(f"[]{index} elements must be unique ids (integers), got {element!r}")
            if batch is not None:
                raise ExpansionError("only one [] marker is supported per query")
            batch = (text, elements)
    return Arguments(tuple(names), ids, batch)


def expand_positional(fmt: str, args) -> tuple[list[Token], tuple[Marker, ...], Arguments]:
    """The tokens of ``fmt`` with its ``$k`` (unique id), ``@k`` (class name) and ``[]k`` (batch) markers bound.

    ``@k`` becomes one name token, and ``$k`` and ``[]k`` `` `$uid`: `` and
    a ``slot`` token.  Also returned: the markers, in text order, and the
    arguments they take (``check_arguments``).
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
            uid = Token("backtick", f"`{UID_KEY}`", tok.offset)
            expanded += (uid, Token("op", ":", tok.offset), Token("slot", tok.text, tok.offset))
    return expanded, markers, arguments


def _marker(text: str) -> Marker:
    sigil = text.rstrip("0123456789")
    digits = text[len(sigil) :]
    return Marker(text, sigil, int(digits) if len(digits) < 10 else 0)


def _paths(clause) -> tuple:
    if isinstance(clause, MergeClause):
        return (clause.pattern,)
    if isinstance(clause, (MatchClause, CreateClause)):
        return clause.patterns
    return ()


def slot_sites(query: Query) -> tuple:
    """The (clause, path, node) indexes of the node patterns of ``query`` that hold a Slot."""
    return tuple(
        (c, p, n)
        for c, clause in enumerate(query.clauses)
        for p, path in enumerate(_paths(clause))
        for n, node in enumerate(path.nodes)
        if any(isinstance(value, Slot) for _, value in node.properties)
    )


def bind(query: Query, sites: tuple, arguments: Arguments) -> list[Query]:
    """The queries a call runs: ``query`` with its ``$k`` ids bound, once or for each id of its ``[]k`` batch.

    ``sites`` are the ``slot_sites`` of ``query``.  Only the node patterns
    there are rebuilt, with the paths and clauses that hold them.
    """
    if arguments.batch is None:
        return [_bind(query, sites, arguments.ids)]
    marker, uids = arguments.batch
    return [_bind(query, sites, {**arguments.ids, marker: uid}) for uid in uids]


def _bind(query: Query, sites: tuple, ids: dict) -> Query:
    if not sites:
        return query
    clauses = list(query.clauses)
    for c, p, n in sites:
        clause = clauses[c]
        paths = list(_paths(clause))
        nodes = list(paths[p].nodes)
        node = nodes[n]
        properties = tuple((key, Literal(ids[v.marker]) if isinstance(v, Slot) else v) for key, v in node.properties)
        nodes[n] = NodePattern(node.var, node.label, properties)
        paths[p] = PathPattern(tuple(nodes), paths[p].rels)
        if isinstance(clause, MergeClause):
            clauses[c] = MergeClause(paths[0])
        elif isinstance(clause, MatchClause):
            clauses[c] = MatchClause(tuple(paths), clause.optional)
        else:
            clauses[c] = CreateClause(tuple(paths))
    return Query(tuple(clauses))
