"""Positional markers through the query pipeline, against the textual expander.

The pipeline expands a format string into tokens, parses and validates it
once per context and tuple of ``@k`` values, and runs the parsed query with
the ``$k`` ids, or each id of a ``[]k`` collection, as its parameters.  The reference
(``oracles.expand_positional``) substitutes text and parses one query per
id.  The two agree except where ``TestPinnedDifferences`` below, or
``test_marker_does_not_merge_with_adjacent_text`` in ``test_cypher_frontend``,
pins a difference.
"""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

from heapquery import api, query_long, query_unbounded
from heapquery.api import QueryContext
from heapquery.cypher_ast import expression_text
from heapquery.cypher_frontend import parse, validate
from heapquery.errors import ExpansionError, PipelineError, QuerySyntaxError, QueryValidationError
from heapquery.query_engine import execute
from heapquery.subgraph import extract

from . import oracles
from .conftest import UID


@pytest.fixture
def ctx(tree_snapshot) -> QueryContext:
    return QueryContext(tree_snapshot)


def cause_of(call):
    with pytest.raises(PipelineError) as exc:
        call()
    return exc.value.stage, exc.value.cause


def error_outcome(stage: str, error: Exception) -> tuple:
    message = str(error) if isinstance(error, ExpansionError) else None
    return stage, type(error).__name__, message


def token_outcome(ctx: QueryContext, fmt: str, args: list) -> tuple:
    """(columns, rows) of the pipeline, or (stage, error class, ExpansionError message)."""
    try:
        table = query_unbounded(ctx, fmt, *args).table
    except PipelineError as exc:
        return error_outcome(exc.stage, exc.cause)
    return table.columns, table.rows


def textual_outcome(snapshot, fmt: str, args: list) -> tuple:
    """``token_outcome`` through the textual expander, with one parse and one validation per query text.

    An empty ``[]`` collection gives no query text.  The template is then
    checked with a stand-in id, because the pipeline checks it too, and
    its RETURN names the columns of the empty table.
    """
    stage = "expand"
    try:
        expansion = oracles.expand_positional(fmt, args)
        texts = expansion.queries()
        if expansion.is_batch and not texts:
            texts = oracles.expand_positional(fmt, [[0] if arg == [] else arg for arg in args]).queries()[:1]
        stage = "parse"
        queries = [parse(text) for text in texts]
        stage = "validate"
        for query in queries:
            diagnostics = validate(query)
            if diagnostics:
                raise QueryValidationError(diagnostics)
        if expansion.is_batch and not expansion.queries():
            return [item.alias or expression_text(item.expr) for item in queries[0].clauses[-1].items], []
        stage = "execute"
        graph = extract(snapshot)
        rows = []
        for query in queries:
            table, graph = execute(query, graph)
            rows += table.rows
    except Exception as exc:
        return error_outcome(stage, exc)
    return table.columns, rows


# Template parts.  Markers sit between braces, parentheses, colons or
# whitespace, never against other text, which a textual substitution would
# merge with.  Comments hold no marker, quote or backtick.
LABELS = ["", ":@2", ":@3", ":`BinaryTree$Node`"]
PROPERTIES = ["", " {$1}", " {$2}", " {[]1}", " {[]2}", " {$1, value: 4}", " {value: 1}"]
PATHS = ["", "-[:left|right]->(m)", "-[:left|right*0..]->(m {[]2})", "<-[*1..2]-(m:@2)", "-->(m {$2})"]
WHERES = ["", "WHERE n.value = '$1 @2'", "WHERE n.value < 3", 'WHERE n.value <> "[]1"', "WHERE n.value < '@1'"]
RETURNS = ["RETURN n", "RETURN count(n)", "RETURN n.value AS `$1 @1`", "RETURN m", "RETURN DISTINCT n.value, m"]
NOISE = [
    "'$1 [] @2'",
    "`$2`",
    "#",
    "'unterminated $1",
    "`unterminated @1",
    "'a\\\n$1'",
    '"\\"$1"',
    "$3",
    "@1",
    "[]1",
    "// a comment\n",
    "RETURN",
    ")",
    "{$1}",
]
# Arguments that fit each kind of marker, and others.
FITTING = {"$": [11, 13, 16, 99, -1], "@": ["BinaryTree$Node", "BinaryTree", "X`y"], "[]": [[11, 12, 13], [], [13, 13], [15]]}
ARGS = [13, "BinaryTree", "", [], [11, "x"], True, None, 2.5]


def random_case(rng: random.Random) -> tuple[str, list]:
    words = [
        f"MATCH (n{rng.choice(LABELS)}{rng.choice(PROPERTIES)}){rng.choice(PATHS)}",
        rng.choice(WHERES),
        rng.choice(RETURNS),
    ]
    for _ in range(rng.choice([0, 0, 1, 2])):
        words.insert(rng.randint(0, len(words)), rng.choice(NOISE))
    fmt = "".join(word + rng.choice([" ", "\n", "\t "]) for word in words if word)
    kinds = {}
    for sigil, index in re.findall(r"(\$|@|\[\])(\d+)", fmt):
        kinds.setdefault(int(index), sigil)
    count = max(0, max(kinds, default=0) + rng.choice([-1, 0, 0, 0, 1]))
    args = [
        rng.choice(FITTING[kinds[k]]) if k in kinds and rng.random() < 0.9 else rng.choice(ARGS)
        for k in range(1, count + 1)
    ]
    return fmt, args


class TestAgainstTextualExpansion:
    def test_random_templates_give_the_same_outcome(self, ctx, tree_snapshot):
        rng = random.Random(12)
        kinds = Counter()
        for _ in range(3000):
            fmt, args = random_case(rng)
            outcome = token_outcome(ctx, fmt, args)
            assert outcome == textual_outcome(tree_snapshot, fmt, args), (fmt, args)
            assert token_outcome(ctx, fmt, args) == outcome, (fmt, args)  # a kept template, if it parsed
            kinds[outcome[0] if isinstance(outcome[0], str) else "rows" if outcome[1] else "empty"] += 1
        assert set(kinds) == {"expand", "parse", "validate", "execute", "rows", "empty"}, kinds


class TestPinnedDifferences:
    """The results that differ from the textual expander's, each on purpose."""

    def test_marker_in_a_comment_is_not_bound(self, ctx):
        fmt = "MATCH (n) // see $3\nRETURN count(n)"
        assert query_long(ctx, fmt, 1) == 9
        with pytest.raises(ExpansionError):
            oracles.expand_positional(fmt, [1])

    def test_syntax_error_position_is_in_the_format_string(self, ctx):
        fmt = "MATCH (n:@1 {$2}) RETURN n ]"
        stage, cause = cause_of(lambda: query_unbounded(ctx, fmt, "BinaryTree$Node", 13))
        assert (stage, type(cause)) == ("parse", QuerySyntaxError)
        assert (cause.line, cause.column) == (1, fmt.index("]") + 1)

    @pytest.mark.parametrize("uid", [5, -5])
    def test_uid_marker_outside_a_property_map_is_named_in_the_syntax_error(self, ctx, uid):
        fmt = "MATCH ($1) RETURN 1"
        stage, cause = cause_of(lambda: query_unbounded(ctx, fmt, uid))
        assert (stage, str(cause)) == ("parse", "1:8: expected ')', got '$1'")
        with pytest.raises(QuerySyntaxError, match=f"expected label, got '{str(uid)[0]}'"):
            parse(oracles.expand_positional(fmt, [uid]).text)

    @pytest.mark.parametrize(
        "fmt, args, message",
        [
            ("MATCH (n {value: $1}) RETURN n", [13], "1:18: expected a number, got '$1'"),
            ("MATCH (n:$1) RETURN n", [13], "1:10: expected label, got '$1'"),
            ("MATCH (n) RETURN []1", [[13]], "1:18: expected an expression, got '[]1'"),
        ],
    )
    def test_a_marker_outside_a_property_map_entry_is_named_in_the_syntax_error(self, ctx, fmt, args, message):
        stage, cause = cause_of(lambda: query_unbounded(ctx, fmt, *args))
        assert (stage, type(cause), str(cause)) == ("parse", QuerySyntaxError, message)

    def test_syntax_error_at_a_marker_is_positioned_at_the_marker(self, ctx):
        fmt = "MATCH (n)\n  RETURN $1"
        stage, cause = cause_of(lambda: query_unbounded(ctx, fmt, 13))
        assert str(cause) == "2:10: expected an expression, got '$1'"

    @pytest.mark.parametrize(
        "fmt, stage",
        [("MATCH (n {[]1}) RETURN", "parse"), ("MATCH (n {[]1}) RETURN z", "validate")],
    )
    def test_an_empty_batch_still_checks_its_template(self, ctx, fmt, stage):
        assert cause_of(lambda: query_unbounded(ctx, fmt, []))[0] == stage
        assert oracles.expand_positional(fmt, [[]]).queries() == []  # nothing was checked

    def test_an_empty_batch_is_linted(self, ctx):
        rs = query_unbounded(ctx, "MATCH (n {[]1}) CREATE (x:Tmp) RETURN 1", [])
        assert rs.row_count() == 0
        assert [w.message for w in rs.warnings] == [
            "query creates entities but returns none of them; they cannot be referenced afterwards"
        ]


class TestPastTheDigitLimit:
    """Integers with more digits than Python converts to or from text (4,300 by default)."""

    def test_long_id_argument_is_an_expansion_error(self, ctx):
        stage, cause = cause_of(lambda: query_unbounded(ctx, "MATCH (n {$1}) RETURN n", 10**5000))
        assert (stage, type(cause)) == ("expand", ExpansionError)
        assert str(cause) == f"$1 is an id of {(10**5000).bit_length()} bits, too long to bind"

    def test_long_marker_index_is_out_of_range(self, ctx):
        digits = "9" * 5000
        stage, cause = cause_of(lambda: query_unbounded(ctx, "MATCH (n {$" + digits + "}) RETURN n", 1))
        assert str(cause) == f"positional argument ${digits} is out of range (got 1 arguments)"

    @pytest.mark.parametrize("fmt", ["RETURN {}", "RETURN -{}", "MATCH (n)-[*1..{}]->(m) RETURN m"])
    def test_long_integer_literal_is_a_positioned_syntax_error(self, ctx, fmt):
        fmt = fmt.format("9" * 5000)
        stage, cause = cause_of(lambda: query_unbounded(ctx, fmt))
        assert (stage, type(cause)) == ("parse", QuerySyntaxError)
        assert (cause.line, cause.column) == (1, fmt.index("9") + 1)
        assert str(cause).endswith("integer literal of 5000 digits is too long")


class TestBatchIsParsedOnce:
    def test_fifty_ids_one_parse_and_one_validation(self, ctx, monkeypatch):
        calls = Counter()
        for name in ("parse", "validate"):
            original = getattr(api, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(api, name, counting)
        uids = [UID[key] for key in "abcde"] * 10
        rs = query_unbounded(ctx, "MATCH (n {[]1})-[:left|right]->(m) RETURN m.value", uids)
        assert calls == {"parse": 1, "validate": 1}
        # b has children a and e, c has b and d; a, d and e are leaves
        assert Counter(row[0] for row in rs.table.rows) == {1: 10, 3: 10, 2: 10, 5: 10}

    def test_each_id_is_a_parameter_of_the_parsed_query(self, ctx):
        rs = query_unbounded(ctx, "MATCH (n {[]1}) RETURN n.value", [UID["c"], 999, UID["a"], UID["c"]])
        assert rs.table.rows == [(4,), (1,), (4,)]


def count_calls(monkeypatch, *names: str) -> Counter:
    """Counts the calls the pipeline makes to each of the ``api`` functions ``names``."""
    calls = Counter()
    for name in names:
        original = getattr(api, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(api, name, counting)
    return calls


def values(rs) -> list:
    return [row[0] for row in rs.table.rows]


class TestTemplateCache:
    def test_new_ids_reuse_the_parse_and_new_class_names_parse_once(self, ctx, monkeypatch):
        calls = count_calls(monkeypatch, "expand_positional", "parse", "validate", "lint")
        fmt = "MATCH (n:@2 {$1})-[:left|right]->(m) RETURN m.value"
        assert values(query_unbounded(ctx, fmt, UID["b"], "BinaryTree$Node")) == [1, 3]
        assert calls == {"expand_positional": 1, "parse": 1, "validate": 1, "lint": 1}
        assert values(query_unbounded(ctx, fmt, UID["c"], "BinaryTree$Node")) == [2, 5]
        assert calls == {"expand_positional": 1, "parse": 1, "validate": 1, "lint": 1}
        assert values(query_unbounded(ctx, fmt, UID["c"], "BinaryTree")) == []
        assert values(query_unbounded(ctx, fmt, UID["b"], "BinaryTree")) == []
        assert calls == {"expand_positional": 2, "parse": 2, "validate": 2, "lint": 2}
        assert values(query_unbounded(ctx, fmt, UID["a"], "BinaryTree$Node")) == []
        assert calls["parse"] == 2

    def test_a_batch_and_its_ids_reuse_the_parse(self, ctx, monkeypatch):
        calls = count_calls(monkeypatch, "parse")
        fmt = "MATCH (n {[]2})-[:left|right]->(m {$1}) RETURN n.value"
        assert values(query_unbounded(ctx, fmt, UID["e"], [UID["a"], UID["b"], UID["b"]])) == [2, 2]
        assert values(query_unbounded(ctx, fmt, UID["b"], iter([UID["c"], UID["a"]]))) == [4]
        assert values(query_unbounded(ctx, fmt, UID["b"], [])) == []
        assert calls["parse"] == 1

    def test_a_one_shot_batch_with_new_class_names_is_read_once(self, ctx):
        fmt = "MATCH (n:@1 {[]2}) RETURN count(n)"
        assert values(query_unbounded(ctx, fmt, "BinaryTree$Node", iter([UID["a"], UID["f"]]))) == [1, 0]
        assert values(query_unbounded(ctx, fmt, "BinaryTree", iter([UID["a"], UID["f"]]))) == [0, 1]

    def test_contexts_do_not_share_templates(self, tree_snapshot, monkeypatch):
        calls = count_calls(monkeypatch, "parse")
        first, second = QueryContext(tree_snapshot), QueryContext(tree_snapshot)
        for context in (first, second, first, second):
            assert query_long(context, "MATCH (n {$1}) RETURN count(n)", UID["a"]) == 1
        assert calls["parse"] == 2

    def test_one_template_past_the_bound_drops_the_least_recently_used(self, ctx, monkeypatch):
        calls = count_calls(monkeypatch, "parse")
        fmts = [f"MATCH (n {{$1}}) RETURN n.value AS v{i}" for i in range(api.TEMPLATE_CACHE_SIZE + 1)]
        for fmt in fmts[:-1]:
            query_unbounded(ctx, fmt, UID["a"])
        query_unbounded(ctx, fmts[0], UID["b"])  # now the most recently used
        assert calls["parse"] == api.TEMPLATE_CACHE_SIZE
        query_unbounded(ctx, fmts[-1], UID["a"])  # drops fmts[1]
        for fmt in [fmts[0], *fmts[2:]]:
            query_unbounded(ctx, fmt, UID["c"])
        assert calls["parse"] == api.TEMPLATE_CACHE_SIZE + 1
        assert values(query_unbounded(ctx, fmts[1], UID["c"])) == [4]
        assert calls["parse"] == api.TEMPLATE_CACHE_SIZE + 2

    def test_one_class_name_past_the_bound_drops_the_oldest(self, ctx, monkeypatch):
        calls = count_calls(monkeypatch, "parse")
        fmt = "MATCH (n:@1) RETURN count(n)"
        names = [f"C{i}" for i in range(api.TEMPLATE_CACHE_SIZE + 1)]
        for name in names:
            assert query_long(ctx, fmt, name) == 0
        for name in names[1:]:
            query_long(ctx, fmt, name)
        assert calls["parse"] == api.TEMPLATE_CACHE_SIZE + 1
        assert query_long(ctx, fmt, names[0]) == 0
        assert calls["parse"] == api.TEMPLATE_CACHE_SIZE + 2

    @pytest.mark.parametrize(
        "fmt, args",
        [
            ("MATCH (n {$1}) RETURN n ]", [UID["a"]]),  # parse
            ("MATCH (n {$1}) RETURN m", [UID["a"]]),  # validate
            ("CREATE (n:@1 {$2}) RETURN n", ["A", UID["a"]]),  # validate: $uid is not writable
            ("MATCH (n:@1) RETURN n", [7]),  # expand
            ("MATCH (n {$1}) RETURN n LIMIT 1", [UID["a"]]),  # parse: unsupported
        ],
    )
    def test_a_failing_template_fails_the_same_way_each_time(self, ctx, fmt, args):
        def outcome():
            stage, cause = cause_of(lambda: query_unbounded(ctx, fmt, *args))
            return stage, type(cause), str(cause)

        first = outcome()
        assert [outcome(), outcome()] == [first, first]
        assert outcome() == cause_of_in_a_new_context(ctx, fmt, args)

    @pytest.mark.parametrize(
        "args, stage",
        [(["A"], None), (["Class"], "validate"), ([""], "expand"), ([5], "expand"), (["A", 2], None)],
    )
    def test_a_kept_template_checks_each_call_like_a_new_one(self, ctx, args, stage):
        fmt = "CREATE (n:@1) RETURN count(n)"
        query_unbounded(ctx, fmt, "A")
        if stage is None:
            assert query_long(ctx, fmt, *args) == 1
        else:
            stage_and_cause = cause_of(lambda: query_unbounded(ctx, fmt, *args))
            first = stage_and_cause[0], type(stage_and_cause[1]), str(stage_and_cause[1])
            assert first[0] == stage
            assert first == cause_of_in_a_new_context(ctx, fmt, args)


def cause_of_in_a_new_context(ctx: QueryContext, fmt: str, args: list) -> tuple:
    stage, cause = cause_of(lambda: query_unbounded(QueryContext(ctx.snapshot), fmt, *args))
    return stage, type(cause), str(cause)
