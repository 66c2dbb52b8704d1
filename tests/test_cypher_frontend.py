from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heapquery.cypher_ast import (
    And,
    Count,
    Hops,
    Literal,
    MatchClause,
    NodePattern,
    Or,
    PathPattern,
    Query,
    RelPattern,
    ReturnClause,
    ReturnItem,
    Slot,
    Variable,
    WhereClause,
    expression_text,
)
from heapquery.cypher_frontend import (
    Diagnostic,
    Token,
    expand_positional,
    lint,
    parse,
    tokenize,
    validate,
)
from heapquery.errors import ExpansionError, QuerySyntaxError, UnsupportedFeatureError

from . import oracles
from .printer import query_text
from .strategies import queries


def kinds_and_texts(tokens) -> list[tuple[str, str]]:
    return [(tok.kind, tok.text) for tok in tokens]


def assert_expands_to(fmt: str, args, text: str, ids=None):
    """``fmt`` with ``args`` gives the tokens of ``text``, in which a ``$k`` marker stands for a slot, and no batch.

    ``ids`` are the ``$k`` ids the arguments pass, by marker text.
    """
    tokens, _, arguments = expand_positional(fmt, args)
    assert arguments.batch is None
    assert arguments.params == {Slot(marker): uid for marker, uid in (ids or {}).items()}
    expected = [("slot" if kind == "marker" else kind, word) for kind, word in kinds_and_texts(tokenize(text))]
    assert kinds_and_texts(tokens) == expected


def template(fmt: str, args) -> Query:
    """The parsed query of ``fmt``, whose ``$k`` and ``[]k`` markers are slots."""
    return parse(expand_positional(fmt, args)[0], fmt)


class TestExpandPositional:
    def test_uid_marker(self):
        fmt = "MATCH (n {$1})-[*]-(m) RETURN m"
        assert_expands_to(fmt, [42], fmt, {"$1": 42})
        assert template(fmt, [42]).clauses[0].patterns[0].nodes[0] == NodePattern("n", None, (("$uid", Slot("$1")),))

    def test_class_marker(self):
        assert_expands_to("CREATE (a:@1 {value:1})", ["BinaryTree$Node"], "CREATE (a:`BinaryTree$Node` {value:1})")

    def test_collection_marker_builds_batch(self):
        fmt = "MATCH (n {[]1})-[*]->(m) RETURN m"
        assert expand_positional(fmt, [[1, 2]])[2].batch == [{Slot("[]1"): 1}, {Slot("[]1"): 2}]
        assert template(fmt, [[1, 2]]).clauses[0].patterns[0].nodes[0].properties == (("$uid", Slot("[]1")),)

    def test_empty_collection(self):
        fmt = "MATCH (n {[]1}) RETURN n"
        tokens, _, arguments = expand_positional(fmt, [[]])
        assert arguments.batch == []
        assert parse(tokens, fmt).clauses[0].patterns[0].nodes[0].properties == (("$uid", Slot("[]1")),)

    def test_uid_and_collection_markers_bind_together(self):
        fmt = "MATCH (n {[]2})-[]->(m {$1}), (k {$1}) MERGE (m)-[:r]->(o:A {$1}) RETURN n"
        tokens, _, arguments = expand_positional(fmt, [7, [3, 4]])
        assert arguments.batch == [{Slot("$1"): 7, Slot("[]2"): 3}, {Slot("$1"): 7, Slot("[]2"): 4}]
        assert query_text(parse(tokens, fmt)) == fmt

    def test_index_out_of_range(self):
        with pytest.raises(ExpansionError):
            expand_positional("MATCH (n {$2}) RETURN n", [42])

    def test_kind_mismatch(self):
        with pytest.raises(ExpansionError):
            expand_positional("MATCH (n:@1) RETURN n", [42])
        with pytest.raises(ExpansionError):
            expand_positional("MATCH (n {$1}) RETURN n", ["BinaryTree"])

    def test_markers_inside_quotes_untouched(self):
        fmt = "MATCH (n {`$uid`: 1}) WHERE n.s = '$1 @2 []3' RETURN n"
        assert_expands_to(fmt, [], fmt)

    def test_escaped_backslash_before_closing_quote(self):
        # the string literal ends at the quote after \\; $1 outside expands
        fmt = "MATCH (n) WHERE n.s = 'a\\\\' RETURN n, $1"
        assert_expands_to(fmt, [4], fmt, {"$1": 4})

    def test_text_outside_markers_is_byte_identical(self):
        fmt = "MATCH\t(n {$1}) RETURN  n  // c $x"
        tokens, _, _ = expand_positional(fmt, [5])
        kept = [tok for tok in tokens if tok.offset != fmt.index("$1")]
        assert [fmt[tok.offset : tok.offset + len(tok.text)] for tok in kept] == [tok.text for tok in kept]
        assert_expands_to(fmt, [5], fmt, {"$1": 5})

    def test_only_one_collection_marker(self):
        with pytest.raises(ExpansionError):
            expand_positional("MATCH (n {[]1})-[]->(m {[]2}) RETURN n", [[1], [2]])

    def test_mixed_markers(self):
        assert_expands_to("MATCH (n:@2 {$1}) RETURN n", [7, "A"], "MATCH (n:`A` {$1}) RETURN n", {"$1": 7})

    def test_uid_marker_combines_with_other_properties(self):
        node = template("MATCH (n {$1, value: 3}) RETURN n", [9]).clauses[0].patterns[0].nodes[0]
        assert node.properties == (("$uid", Slot("$1")), ("value", Literal(3)))

    def test_negative_uid_is_a_negative_parameter(self):
        assert_expands_to("MATCH (n {$1}) RETURN n", [-3], "MATCH (n {$1}) RETURN n", {"$1": -3})

    def test_marker_in_a_comment_is_not_bound(self):
        fmt = "MATCH (n) // see $3 and []1\nRETURN n"
        assert_expands_to(fmt, [], fmt)

    @pytest.mark.parametrize(
        "fmt, args, text",
        [
            ("RETURN @1`x`", ["A"], "RETURN `A` `x`"),  # as text, one name "A`x"
            ("RETURN @1@2", ["A", "B"], "RETURN `A` `B`"),
            ("RETURN $1.5", [4], "RETURN $1 .5"),  # as text, the float 4.5
            ("RETURN $1e3", [4], "RETURN $1 e3"),
        ],
    )
    def test_marker_does_not_merge_with_adjacent_text(self, fmt, args, text):
        ids = {"$1": args[0]} if "$1" in fmt else {}
        assert_expands_to(fmt, args, text, ids)
        text = text.replace("$1", f"`$uid`: {args[0]}")
        assert kinds_and_texts(tokenize(oracles.expand_positional(fmt, args).text)) != kinds_and_texts(tokenize(text))

    @settings(max_examples=80, deadline=None)
    @given(st.text(alphabet="MATCH(n) RETUoqa{}:`'.x\\-$@[]0/\n", max_size=30))
    def test_marker_free_text_is_untouched(self, fmt):
        import re

        if re.search(r"\$\d|@\d|\[\]\d", fmt):
            return  # only marker-free inputs assert identity
        assert_expands_to(fmt, [], fmt)


class TestTokenize:
    @pytest.mark.parametrize(
        "text, bad",
        [
            ("RETURN 1 # 2", "#"),
            ("RETURN 'ab", "'ab"),
            ("RETURN 'a\\\nb' = 1", "'a\\\nb'"),
            ("RETURN `a $1", "`a $1"),
        ],
    )
    def test_bad_tokens(self, text, bad):
        assert [tok.text for tok in tokenize(text) if tok.kind == "bad"] == [bad]
        with pytest.raises(QuerySyntaxError) as exc:
            parse(text)
        assert str(exc.value).endswith(f"unexpected character {bad[0]!r}")

    def test_markers_are_tokens(self):
        assert [tok for tok in tokenize("$1 @22 []3") if tok.kind == "marker"] == [
            Token("marker", "$1", 0),
            Token("marker", "@22", 3),
            Token("marker", "[]3", 7),
        ]

    def test_unexpanded_marker_is_a_syntax_error(self):
        with pytest.raises(QuerySyntaxError) as exc:
            parse("MATCH (n {$1}) RETURN n")
        assert (exc.value.line, exc.value.column) == (1, 11)


class TestParse:
    def test_two_hop_pattern(self):
        query = parse("MATCH (n {`$uid`: 42})-[:left|right*2]->(m {value:1}) RETURN m")
        match = query.clauses[0]
        assert isinstance(match, MatchClause)
        path = match.patterns[0]
        assert path.nodes[0] == NodePattern("n", None, (("$uid", Literal(42)),))
        assert path.rels[0] == RelPattern(None, ("left", "right"), "out", Hops("exact", 2, 2))
        assert path.nodes[1] == NodePattern("m", None, (("value", Literal(1)),))

    def test_minimal_return(self):
        assert parse("RETURN 1") == Query((ReturnClause((ReturnItem(Literal(1), None),), False),))

    def test_delete_is_unsupported(self):
        with pytest.raises(UnsupportedFeatureError) as exc:
            parse("MATCH (n) DELETE n")
        assert exc.value.feature == "DELETE"

    def test_with_is_unsupported(self):
        with pytest.raises(UnsupportedFeatureError):
            parse("MATCH (n) WITH n RETURN n")

    def test_unknown_function_is_unsupported(self):
        with pytest.raises(UnsupportedFeatureError) as exc:
            parse("MATCH (n) RETURN size(n)")
        assert "size" in exc.value.feature

    def test_syntax_error_position(self):
        with pytest.raises(QuerySyntaxError) as exc:
            parse("MATCH (n RETURN n")
        assert exc.value.line == 1
        assert exc.value.column > 1

    @pytest.mark.parametrize(
        "text, position",
        [
            ("MATCH (n)\nWHERE n.v >\nRETURN n", (3, 1)),
            ("MATCH (n)\n  RETURN n\n  )", (3, 3)),
            ("MATCH (n)\nRETURN n ; 1", (2, 10)),
            ("MATCH (n)\nRETURN\n", (3, 1)),
            ("// first line\nMATCH (n\nRETURN n", (3, 1)),
            ("MATCH (n)\r\nRETURN n ]", (2, 10)),
            ("MATCH (n)\nWHERE n.s = 'a\nb' AND\n\tRETURN n", (4, 2)),
            ("MATCH (n:`A\nB`)-[:f*1..]->\n  (m RETURN m", (3, 6)),
        ],
    )
    def test_syntax_error_line_and_column(self, text, position):
        with pytest.raises(QuerySyntaxError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.column) == position

    @pytest.mark.parametrize(
        "text, line, column, message",
        [
            ("MATCH (n:``) RETURN n", 1, 10, "empty label"),
            ("RETURN n AS MATCH", 1, 13, "expected alias, got keyword 'MATCH'"),
            ("OPTIONAL (n) RETURN n", 1, 10, "expected MATCH after OPTIONAL"),
            ("MATCH (n {a: 1 b: 2}) RETURN n", 1, 16, "expected ',' or '}' in property map"),
            ("MATCH (a)<-[:x]- >(b) RETURN a", 1, 18, "relationship pattern cannot point both ways"),
        ],
    )
    def test_syntax_error_message(self, text, line, column, message):
        with pytest.raises(QuerySyntaxError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value) == f"{line}:{column}: {message}"

    @pytest.mark.parametrize(
        "text, column, message",
        [
            ("MATCH (n {value: 1,}) RETURN n", 20, "expected property key, got '}'"),
            ("MATCH (a), RETURN a", 12, "expected '(', got 'RETURN'"),
            ("RETURN 1,", 10, "expected an expression, got 'end of query'"),
        ],
    )
    def test_no_comma_after_the_last_item(self, text, column, message):
        with pytest.raises(QuerySyntaxError) as exc:
            parse(text)
        assert str(exc.value) == f"1:{column}: {message}"

    def test_comma_separated_map_and_lists_parse(self):
        query = parse("MATCH (a {v: 1, w: 'x'}), (b {}) RETURN a, b")
        assert [p.nodes[0].properties for p in query.clauses[0].patterns] == [
            (("v", Literal(1)), ("w", Literal("x"))),
            (),
        ]
        assert len(query.clauses[1].items) == 2

    @pytest.mark.parametrize(
        "text, feature",
        [
            ("RETURN n AS WITH", "WITH"),
            ("RETURN NULL", "NULL literals"),
            ("MATCH (n {v: NULL}) RETURN n", "NULL property values"),
        ],
    )
    def test_unsupported_feature_message(self, text, feature):
        with pytest.raises(UnsupportedFeatureError) as exc:
            parse(text)
        assert exc.value.feature == feature
        assert str(exc.value) == f"openCypher feature not supported by this engine: {feature}"

    @pytest.mark.parametrize(
        "text, rel",
        [
            ("MATCH (a)-[:x|:y]->(b) RETURN a", RelPattern(None, ("x", "y"), "out")),
            ("MATCH (a)-[:x]- >(b) RETURN a", RelPattern(None, ("x",), "out")),
        ],
    )
    def test_repeated_type_colon_and_split_arrow(self, text, rel):
        assert parse(text).clauses[0].patterns[0].rels == (rel,)

    def test_backtick_names_preserved(self):
        query = parse("MATCH (n:`BinaryTree$Node`) RETURN n.`odd name`")
        match = query.clauses[0]
        assert match.patterns[0].nodes[0].label == "BinaryTree$Node"
        item = query.clauses[1].items[0]
        assert item.expr.key == "odd name"

    def test_undirected_unbounded(self):
        query = parse("MATCH (n)-[*]-(m) RETURN m")
        rel = query.clauses[0].patterns[0].rels[0]
        assert rel.direction == "both"
        assert rel.hops == Hops("unbounded")

    def test_zero_length_range(self):
        query = parse("MATCH (n)-[:next*0..]->(m) RETURN m")
        assert query.clauses[0].patterns[0].rels[0].hops == Hops("range", 0, None)

    def test_incoming_and_bare_arrows(self):
        query = parse("MATCH (a)<-[:left]-(b), (c)-->(d), (e)--(f) RETURN a")
        rels = [p.rels[0] for p in query.clauses[0].patterns]
        assert [r.direction for r in rels] == ["in", "out", "both"]

    def test_case_insensitive_keywords(self):
        query = parse("match (n) return distinct n")
        assert isinstance(query.clauses[0], MatchClause)
        assert query.clauses[1].distinct

    def test_count_distinct(self):
        query = parse("MATCH (n) RETURN count(DISTINCT n)")
        count = query.clauses[1].items[0].expr
        assert count == Count(Variable("n"), True)

    def test_rel_property_maps_unsupported(self):
        with pytest.raises(UnsupportedFeatureError):
            parse("MATCH (a)-[r:f {w: 1}]->(b) RETURN a")

    def test_comparison_chain(self):
        query = parse("MATCH (n) WHERE 1 < n.value AND n.value <= 5 RETURN n")
        where = query.clauses[1]
        assert isinstance(where, WhereClause)

    @pytest.mark.parametrize(
        "text, tree, printed",
        [
            ("a AND b AND c", And((Variable("a"), Variable("b"), Variable("c"))), "a AND b AND c"),
            ("(a AND b) AND c", And((Variable("a"), Variable("b"), Variable("c"))), "a AND b AND c"),
            ("a AND (b AND c)", And((Variable("a"), And((Variable("b"), Variable("c"))))), "a AND (b AND c)"),
            ("(a OR b) OR c OR d", Or(tuple(map(Variable, "abcd"))), "a OR b OR c OR d"),
            ("(a OR b) AND c", And((Or((Variable("a"), Variable("b"))), Variable("c"))), "(a OR b) AND c"),
            ("a OR b AND c", Or((Variable("a"), And((Variable("b"), Variable("c"))))), "a OR b AND c"),
        ],
    )
    def test_and_or_chains_are_n_ary(self, text, tree, printed):
        expr = parse(f"RETURN {text}").clauses[0].items[0].expr
        assert expr == tree
        assert expression_text(expr) == printed

    def test_trailing_garbage(self):
        with pytest.raises(QuerySyntaxError):
            parse("RETURN 1 )")


class TestValidate:
    def test_contains_key_shape_is_valid(self):
        text = (
            "MATCH (h {`$uid`: 1})-[:table]->(t)-[:element]->(e)-[:next*0..]->(x)-[:key]->(n) "
            "MATCH (m {`$uid`: 2}) WHERE equals(n, m) RETURN count(n) > 0"
        )
        assert validate(parse(text)) == []

    def test_where_needs_preceding_match(self):
        query = Query((WhereClause(Literal(True)), ReturnClause((ReturnItem(Literal(1), None),), False)))
        assert any("WHERE" in d.message for d in validate(query))

    def test_unbound_return_variable(self):
        diagnostics = validate(parse("MATCH (n) RETURN z"))
        assert any("unbound" in d.message for d in diagnostics)

    def test_missing_return(self):
        diagnostics = validate(Query((MatchClause((PathPattern((NodePattern("n"),), ()),)),)))
        assert any("RETURN" in d.message for d in diagnostics)

    def test_return_not_last(self):
        diagnostics = validate(parse("RETURN 1 MATCH (n) RETURN n")) if True else []
        assert diagnostics

    def test_create_needs_label(self):
        assert any("label" in d.message for d in validate(parse("CREATE (n) RETURN n")))

    def test_create_reserved_label(self):
        assert any("reserved" in d.message for d in validate(parse("CREATE (n:Local) RETURN n")))

    def test_write_uid_rejected(self):
        diagnostics = validate(parse("CREATE (n:A {`$uid`: 1}) RETURN n"))
        assert any("$uid" in d.message for d in diagnostics)

    def test_merge_mixed_bound_unbound(self):
        diagnostics = validate(parse("MATCH (a:A) MERGE (a)-[:f]->(b:B) RETURN a"))
        assert any("MERGE" in d.message for d in diagnostics)

    def test_merge_all_bound_is_fine(self):
        text = "MATCH (a:A), (b:B) MERGE (a)-[:f]->(b) RETURN a"
        assert validate(parse(text)) == []

    def test_exact_zero_hops(self):
        diagnostics = validate(parse("MATCH (a)-[:f*0]->(b) RETURN a"))
        assert any("hop" in d.message for d in diagnostics)

    def test_empty_range(self):
        diagnostics = validate(parse("MATCH (a)-[:f*3..1]->(b) RETURN a"))
        assert any("3..1" in d.message for d in diagnostics)

    def test_count_in_where(self):
        diagnostics = validate(parse("MATCH (n) WHERE count(n) > 0 RETURN n"))
        assert any("RETURN" in d.message for d in diagnostics)

    def test_mixed_plain_and_aggregate_items(self):
        diagnostics = validate(parse("MATCH (n) RETURN n, count(n)"))
        assert any("aggregat" in d.message for d in diagnostics)

    def test_variable_kind_conflict(self):
        diagnostics = validate(parse("MATCH (n)-[x:f]->(m), (x)-[:g]->(y) RETURN n"))
        assert any("both" in d.message for d in diagnostics)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("MATCH (a:A) CREATE (a:A)-[:f]->(b:B) RETURN a", "CREATE may not restate label/properties of bound variable 'a'"),
            ("MATCH (a)-[r:f]->(b) CREATE (a)-[r:g]->(b) RETURN a", "CREATE cannot reuse bound relationship variable 'r'"),
            ("MATCH (a:A) CREATE (a)-[:T|U]->(b:B) RETURN b", "CREATE relationships need exactly one type"),
            ("MATCH (a:A) CREATE (a)-[:T]-(b:B) RETURN b", "CREATE relationships must be directed"),
            ("MATCH (a:A) CREATE (a)-[:T*2]->(b:B) RETURN b", "CREATE relationships cannot be variable-length"),
            ("MATCH (a) RETURN a MATCH (b)", "RETURN must be the last clause"),
            ("MATCH (a) RETURN count(count(a))", "nested count(...) is not allowed"),
        ],
    )
    def test_diagnostic(self, text, message):
        assert [d.message for d in validate(parse(text))] == [message]

    def test_variable_length_cannot_bind(self):
        diagnostics = validate(parse("MATCH (a)-[r:f*2]->(b) RETURN a"))
        assert any("variable-length" in d.message for d in diagnostics)


class TestLint:
    def test_warns_on_unreturned_creations(self):
        warnings = lint(parse("CREATE (a:A) RETURN 1"))
        assert warnings and isinstance(warnings[0], Diagnostic)

    def test_silent_when_created_variable_returned(self):
        assert lint(parse("CREATE (a:A) RETURN a")) == []

    def test_silent_without_writes(self):
        assert lint(parse("MATCH (n) RETURN n")) == []


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(queries())
    def test_parse_after_print_is_identity(self, query):
        assert parse(query_text(query)) == query

    def test_canonical_text_example(self):
        text = "MATCH (n:`BinaryTree$Node` {value: 1})-[:left|right*1..3]-(m) WHERE n.value < 5 RETURN DISTINCT m AS out"
        assert query_text(parse(text)) == text
