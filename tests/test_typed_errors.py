"""Drawn query templates and CSV files fail with heapquery's own errors only.

Whatever a caller passes to ``query_unbounded`` or ``import_csv``, what
escapes is a ``HeapQueryError``, never a Python error that only shows a
fault in the engine: no ``RecursionError``, ``UnicodeDecodeError``,
``KeyError``, ``TypeError`` or ``AttributeError``, raised or named as the
cause of a pipeline error.
"""

from __future__ import annotations

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from heapquery import CsvBundle, QueryContext, export_csv, import_csv, load_snapshot, query_unbounded
from heapquery.errors import HeapQueryError

from .conftest import DATA, UID, build_tree_graph

ENGINE_FAULTS = (RecursionError, UnicodeDecodeError, KeyError, TypeError, AttributeError)

SNAPSHOT = load_snapshot((DATA / "tree_snapshot.json").read_bytes())

# Words of query templates: clause and expression syntax, markers (some out
# of range or inside quotes), and text the lexer or the parser rejects.
QUERY_WORDS = (
    "MATCH OPTIONAL CREATE MERGE WHERE RETURN DISTINCT AS AND OR NOT count( equals( LIMIT WITH null true "
    "( ) [ ] { } - -> <- : , . .. * | = <> < >= n m value size `$uid` `BinaryTree$Node` 1 -2 0.5 2..3 "
    "'s' \"t\" # ' ` // \n $1 $2 $3 @1 @2 []1 []2 $0 @99999999999 '$1' `@1` ($1) {$1} {[]2} :@1 {value: "
).split(" ")


@st.composite
def templates(draw) -> str:
    """Mostly ``MATCH (n<label> <map>)<path> RETURN <item>`` with drawn words spliced in; else words alone.

    The parts use ``$1`` for ids, ``@2`` for class names and ``[]3`` for a batch; the words use any marker.
    """
    if draw(st.integers(0, 3)) == 0:
        return " ".join(draw(st.lists(st.sampled_from(QUERY_WORDS), max_size=12)))
    label = draw(st.sampled_from(["", ":@2", ":`BinaryTree$Node`", ":$1"]))
    properties = draw(st.sampled_from(["", " {$1}", " {[]3}", " {$1, value: 1}", " {value: $1}", " {[]3, $1}"]))
    path = draw(st.sampled_from(["", "-[:left|right]->(m)", "-[*0..]->(m {$1})", "<-[:@2]-(m)", "-[$1]->(m)"]))
    item = draw(st.sampled_from(["n", "count(n)", "n.value", "m", "$1", "@2"]))
    template = [f"MATCH (n{label}{properties}){path}", f"RETURN {item}"]
    for word in draw(st.lists(st.sampled_from(QUERY_WORDS), max_size=1)):
        template.insert(draw(st.integers(0, len(template))), word)
    return " ".join(template)


ids = st.sampled_from(list(UID.values()))
any_argument = st.one_of(
    ids,
    st.integers(-(2**70), 2**70),
    st.sampled_from(["BinaryTree$Node", "BinaryTree", "Class", "$uid", "`", ""]),
    st.text(max_size=3),
    st.lists(st.one_of(ids, st.integers(), st.text(max_size=1), st.none()), max_size=3),
    st.tuples(ids),
    st.dictionaries(st.integers(0, 20), st.integers(), max_size=2),
    st.binary(max_size=2),
    st.none(),
    st.booleans(),
    st.floats(),
)
# Arguments that fit each kind of marker.
FITTING = {
    "$": ids,
    "@": st.sampled_from(["BinaryTree$Node", "BinaryTree", "X`y"]),
    "[]": st.lists(ids, max_size=3),
}


@st.composite
def calls(draw) -> tuple[str, list]:
    """A template and its arguments, mostly one for each marker index and fitting the index's first marker."""
    fmt = draw(templates())
    kinds = {}
    for sigil, index in re.findall(r"(\$|@|\[\])(\d)\b", fmt):
        kinds.setdefault(int(index), sigil)
    count = max(0, max(kinds, default=0) + draw(st.sampled_from([0, 0, 0, -1, 1])))
    fitting = [k in kinds and draw(st.integers(0, 9)) > 0 for k in range(1, count + 1)]
    return fmt, [draw(FITTING[kinds[k]] if fits else any_argument) for k, fits in enumerate(fitting, 1)]


def outcome(ctx: QueryContext, fmt: str, args: list) -> tuple:
    """The result table of one call, or its error; fails the test on an engine fault."""
    try:
        table = query_unbounded(ctx, fmt, *args).table
    except HeapQueryError as exc:
        cause = getattr(exc, "cause", exc)
        assert not isinstance(cause, ENGINE_FAULTS), (fmt, args, exc)
        return type(exc), getattr(exc, "stage", None), type(cause), str(cause)
    return table.columns, table.rows


class TestQueryTemplates:
    @settings(max_examples=400, deadline=None)
    @given(calls())
    @example(("MATCH (n {$1}) RETURN n", [10**5000]))
    @example(("MATCH (n:@1 {[]2}) RETURN count(n)", ["BinaryTree$Node", [UID["a"], "x"]]))
    def test_only_heapquery_errors_escape_twice(self, call):
        fmt, args = call
        ctx = QueryContext(SNAPSHOT)
        first = outcome(ctx, fmt, args)
        assert outcome(ctx, fmt, args) == first  # a kept template, if it parsed


# Bytes a CSV file can be broken with: quoting, line ends (a bare \r too),
# JSON syntax, values of the wrong type, and bytes that are not UTF-8.
CSV_BYTES = [b"\r", b"\n", b'"', b",", b"{", b"}", b"[", b"\\", b"\x00", b"\xff", b"\xc3", b"-", b"9", b"1e999", b"null",
             b"NaN", b'""$uid""', b'""', b":", b"Class", b"Local"]


@st.composite
def broken(draw, data: bytes) -> bytes:
    """``data`` with up to three bytes spans inserted, deleted or replaced."""
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        end = draw(st.integers(at, min(len(data), at + 4)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        piece = b"" if kind == "delete" else draw(st.sampled_from(CSV_BYTES))
        data = data[:at] + piece + data[end if kind != "insert" else at :]
    return data


TREE_CSV = export_csv(build_tree_graph())


class TestCsvFiles:
    @settings(max_examples=400, deadline=None)
    @given(broken(TREE_CSV.nodes), broken(TREE_CSV.relationships))
    @example(b"nodeId:ID,label:LABEL,props:JSON\n0,A,{}\r1,B,{}\n", b":START_ID,:END_ID,:TYPE,props:JSON\n")
    @example(b'nodeId:ID,label:LABEL,props:JSON\n0,A,"{""a"":' + b"1" * 5000 + b'}"\n', b":START_ID,:END_ID,:TYPE,props:JSON\n")
    def test_only_heapquery_errors_escape(self, nodes, relationships):
        try:
            import_csv(CsvBundle(nodes, relationships))
        except HeapQueryError as exc:
            assert not isinstance(exc.__cause__, ENGINE_FAULTS), exc
