"""Drawn query templates, CSV files and hand-built snapshots fail with heapquery's own errors only.

Whatever a caller passes to ``query_unbounded``, ``import_csv``,
``HeapSnapshot.validate`` or ``QueryContext``, what escapes is a
``HeapQueryError``, never a Python error that only shows a fault in the
engine: no ``RecursionError``, ``UnicodeDecodeError``, ``KeyError``,
``TypeError`` or ``AttributeError``, raised or named as the cause of a
pipeline error.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heapquery import CsvBundle, QueryContext, export_csv, import_csv, load_snapshot, query_unbounded
from heapquery.errors import HeapQueryError
from heapquery.subgraph import ClassInfo, FieldDecl, HeapObject, HeapSnapshot, Ref, RefArray

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


# Parts of hand-built snapshots: each of the right type or of a wrong one.
FIELDS = (
    FieldDecl("r", "reference", "A"),
    FieldDecl("rs", "reference-array", "A"),
    FieldDecl("p", "primitive", "int"),
    FieldDecl("xs", "primitive-array", "int"),
)
WRONG = [None, True, 1.5, "x", b"x", (1,), {1}, {}, {"ref": 1}, [1, "a"], [[1]], [None], object(), Ref([1]), Ref("x"),
         Ref(True), Ref(None), RefArray([1, [2]]), RefArray(["x"]), RefArray([False]), RefArray([None, 9])]
values = st.one_of(
    st.integers(0, 3).map(Ref),
    st.lists(st.one_of(st.none(), st.integers(0, 4)), max_size=2).map(RefArray),
    st.integers(),
    st.lists(st.integers(), max_size=2),
    st.sampled_from(WRONG),
)
objects = st.builds(
    HeapObject,
    st.one_of(st.integers(0, 3), st.sampled_from([True, "1", 1.0, None, (1,), [1]])),
    st.sampled_from(["A", "B", "Z", "", None, 5, ["A"], ("A",)]),
    st.one_of(
        st.dictionaries(st.sampled_from(["r", "rs", "p", "xs", "q", 5]), values, max_size=3),
        st.sampled_from([None, [("p", 1)], "p", 5, ()]),
    ),
)
snapshot_parts = st.tuples(
    st.tuples(
        st.one_of(st.just(FIELDS), st.sampled_from([None, 5, "f", ("f",), [FIELDS[0], None]])),
        st.one_of(
            st.dictionaries(st.sampled_from(["s", "t", "", 5]), values, max_size=2),
            st.sampled_from([None, [("s", 1)], 5]),
        ),
    ).map(lambda parts: [ClassInfo("A", None, *parts), ClassInfo("B", "A")]),
    st.lists(objects, max_size=4),
    st.dictionaries(
        st.sampled_from(["r", "", 5]), st.one_of(st.integers(0, 3), st.sampled_from([True, "1", None, [1], (1,)])), max_size=2
    ),
)
CLASS_A = [ClassInfo("A", None, FIELDS)]


class TestHandBuiltSnapshots:
    @settings(max_examples=400, deadline=None)
    @given(snapshot_parts)
    @example((CLASS_A, [HeapObject(1, ["A"], {})], {}))
    @example((CLASS_A, [HeapObject(1, "A", None)], {}))
    @example((CLASS_A, [HeapObject(1, "A", [("p", 1)])], {}))
    @example((CLASS_A, [HeapObject(1, "A", {})], {"r": [1]}))
    @example(([ClassInfo("A", None, (), None)], [], {}))
    @example(([ClassInfo("A", None, ("f",))], [], {}))
    @example(([ClassInfo("A", None, 5)], [], {}))
    @example(([], [HeapObject([1], "A")], {}))
    def test_only_heapquery_errors_escape(self, parts):
        try:
            HeapSnapshot(*parts).validate()
        except HeapQueryError as exc:
            with pytest.raises(HeapQueryError) as again:
                QueryContext(HeapSnapshot(*parts))
            assert str(again.value) == str(exc)
            return
        query_unbounded(QueryContext(HeapSnapshot(*parts)), "MATCH (n)-[r]->(m) RETURN count(r)")

    @pytest.mark.parametrize(
        "objects, roots, message",
        [
            ([HeapObject(1, ["A"], {})], {}, "objects[0]: unknown class ['A']"),
            ([HeapObject(1, "A", None)], {}, "objects[0].fields: fields must be an object"),
            ([HeapObject(1, "A", [("p", 1)])], {}, "objects[0].fields: fields must be an object"),
            ([HeapObject(1, "A", {})], {"r": [1]}, "root object id [1] not present in snapshot"),
            ([HeapObject(1, "A", {"r": Ref(True)})], {}, "objects[0].fields.r: reference to unknown object id True"),
            ([HeapObject(1, "A", {"rs": RefArray([1, [2]])})], {}, "objects[0].fields.rs: reference to unknown object id [2]"),
        ],
    )
    def test_typed_error(self, objects, roots, message):
        with pytest.raises(HeapQueryError) as exc:
            HeapSnapshot(CLASS_A, objects, roots).validate()
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "classes, objects, message",
        [
            ([ClassInfo("A", None, (), None)], [], "classes[0].statics: statics must be an object"),
            ([ClassInfo("A", None, ("f",))], [], "classes[0].fields[0]: field declarations need name/kind/type"),
            ([ClassInfo("A", None, 5)], [], "classes[0].fields: fields must be a list"),
            ([], [HeapObject([1], "A")], "objects[0]: object id must be an integer, got [1]"),
        ],
    )
    def test_part_of_the_wrong_shape(self, classes, objects, message):
        with pytest.raises(HeapQueryError) as exc:
            HeapSnapshot(classes, objects, {}).validate()
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", [["A"], 5, ""])
    def test_class_name_of_the_wrong_type(self, name):
        with pytest.raises(HeapQueryError) as exc:
            HeapSnapshot([ClassInfo(name)], [HeapObject(1, "A")], {}).validate()
        assert str(exc.value) == f"classes[0]: class name must be a non-empty string, got {name!r}"
