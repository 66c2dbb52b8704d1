from __future__ import annotations

import copy
import csv
import io
import json
import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from heapquery.errors import (
    DanglingReferenceError,
    DuplicateObjectIdError,
    HeapQueryError,
    InvalidPropertyError,
    NodeNotFoundError,
    NotSnapshotShapedError,
    SnapshotSchemaError,
)
from heapquery.heap_model import run_to_point
from heapquery.property_graph import PropertyGraph
from heapquery.snapshot_io import (
    NODES_HEADER,
    RELS_HEADER,
    CsvBundle,
    export_csv,
    graph_to_snapshot,
    import_csv,
    load_snapshot,
    save_snapshot,
)
from heapquery.subgraph import ClassInfo, ExtractionConfig, FieldDecl, HeapObject, HeapSnapshot, extract

from .conftest import DATA
from .generators import random_snapshot
from .oracles import reference_load_snapshot, structurally_equal
from .strategies import declared_kinds, graphs, snapshot_documents


class TestLoadSnapshot:
    def test_shipped_tree_snapshot(self):
        snapshot = load_snapshot((DATA / "tree_snapshot.json").read_bytes())
        assert len(snapshot.objects) == 6
        assert len(snapshot.classes) == 2
        assert snapshot.roots == {"f": 16}

    @pytest.mark.parametrize("ref", [7, 99])  # a load that passes, and one that names a dangling reference
    def test_classes_are_checked_once_per_load(self, monkeypatch, ref):
        calls = []
        original = HeapSnapshot._check_classes
        monkeypatch.setattr(HeapSnapshot, "_check_classes", lambda self: calls.append(self) or original(self))
        doc = _one_object_doc('{"name":"r","kind":"reference","type":"A"}', f'"r":{{"ref":{ref}}}')
        try:
            load_snapshot(doc)
        except DanglingReferenceError:
            assert ref == 99
        assert len(calls) == 1

    def test_objects_of_a_class_share_its_name(self):
        doc = '{"classes":[{"name":"A","fields":[]}],"objects":[{"id":1,"class":"A"},{"id":2,"class":"A"}],"roots":{}}'
        first, second = load_snapshot(doc).objects
        assert first.cls == "A" and first.cls is second.cls

    def test_empty_document(self):
        snapshot = load_snapshot(b'{"classes":[],"objects":[],"roots":{}}')
        assert snapshot.objects == []

    def test_dangling_reference_is_path_addressed(self):
        doc = (
            '{"classes":[{"name":"A","fields":[{"name":"f","kind":"reference","type":"A"}]}],'
            '"objects":[{"id":1,"class":"A","fields":{"f":{"ref":99}}}],"roots":{}}'
        )
        with pytest.raises(DanglingReferenceError) as exc:
            load_snapshot(doc)
        assert "fields.f" in str(exc.value)

    def test_duplicate_object_id(self):
        doc = '{"classes":[{"name":"A","fields":[]}],"objects":[{"id":1,"class":"A"},{"id":1,"class":"A"}],"roots":{}}'
        with pytest.raises(DuplicateObjectIdError):
            load_snapshot(doc)

    def test_invalid_json(self):
        with pytest.raises(SnapshotSchemaError):
            load_snapshot(b"{nope")

    def test_bytes_not_utf8(self):
        with pytest.raises(SnapshotSchemaError) as exc:
            load_snapshot(b'{"classes": "\xff"}')
        assert str(exc.value).startswith("not valid JSON: 'utf-8' codec can't decode byte 0xff")

    def test_json_nested_too_deeply(self):
        with pytest.raises(SnapshotSchemaError) as exc:
            load_snapshot("[" * 100_000 + "]" * 100_000)
        assert str(exc.value).startswith("not valid JSON: maximum recursion depth exceeded")

    def test_unknown_value_object(self):
        doc = '{"classes":[{"name":"A","fields":[]}],"objects":[{"id":1,"class":"A","fields":{"x":{"wat":1}}}],"roots":{}}'
        with pytest.raises(SnapshotSchemaError):
            load_snapshot(doc)

    def test_superclass_cycle_is_path_addressed(self):
        doc = (
            '{"classes":[{"name":"A","superclass":"B","fields":[]},{"name":"B","superclass":"A","fields":[]}],'
            '"objects":[{"id":1,"class":"A"}],"roots":{}}'
        )
        with pytest.raises(SnapshotSchemaError) as exc:
            load_snapshot(doc)
        assert exc.value.path == "classes[0]"


    @pytest.mark.parametrize(
        "edit, path, message",
        [
            (lambda d: d.update(classes=5), "classes", "classes must be a list"),
            (lambda d: d.update(objects=5), "objects", "objects must be a list"),
            (lambda d: d["classes"][0].update(fields=5), "classes[0].fields", "fields must be a list"),
            (lambda d: d["classes"][0].update(statics=[1]), "classes[0].statics", "statics must be an object"),
            (lambda d: d["objects"][0].update(fields=[1]), "objects[0].fields", "fields must be an object"),
            (lambda d: d["objects"][0].update({"class": [1]}), "objects[0]", "unknown class [1]"),
            (lambda d: d["classes"][0].update(superclass=["x"]), "classes[0]", "unknown superclass ['x']"),
            (lambda d: d["classes"][0].update(name={}), "classes[0]", "class name must be a non-empty string, got {}"),
        ],
    )
    def test_malformed_shape_is_a_schema_error(self, edit, path, message):
        doc = {"classes": [{"name": "A", "fields": []}], "objects": [{"id": 1, "class": "A", "fields": {}}], "roots": {}}
        edit(doc)
        with pytest.raises(SnapshotSchemaError) as exc:
            load_snapshot(json.dumps(doc))
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: {message}"


# --- the one-pass loader against the two-pass reference ------------------------------
#
# Each mutation makes one fault in a valid document, drawing its choices from
# ``data``.  It returns the path of a section it gave a JSON type that the
# section may not have, or None.  Such a section is rejected at its own path,
# where the reference iterated a string or a map as if it were a list, and
# crashed on other types.

_OTHER_JSON = [5, 1.5, True, None, "x", [1], {}, {"k": 1}]
_SECTIONS = {"classes": list, "objects": list, "fields": list, "statics": dict}


def _missing_id(doc: dict) -> int:
    return max((o["id"] for o in doc["objects"]), default=0) + 1


def _an_id(doc: dict, data) -> int:
    return data.draw(st.sampled_from([o["id"] for o in doc["objects"]]))


def _declared_field(doc: dict, data, kinds: tuple):
    """An (object, field name, kind) whose kind is one of ``kinds``, or None."""
    declared = declared_kinds(doc)
    choices = [
        (obj, name, kind) for obj in doc["objects"] for name, kind in declared[obj["class"]].items() if kind in kinds
    ]
    return data.draw(st.sampled_from(choices)) if choices else None


def _drop_key(doc, data):
    places = [(doc, key) for key in ("classes", "objects", "roots")]
    places += [(c, "name") for c in doc["classes"]]
    places += [(f, key) for c in doc["classes"] for f in c["fields"] for key in ("name", "kind", "type")]
    places += [(o, key) for o in doc["objects"] for key in ("id", "class")]
    entry, key = data.draw(st.sampled_from(places))
    del entry[key]


def _retype(doc, data):
    value = data.draw(st.sampled_from(_OTHER_JSON))
    places = [(doc, "classes", "classes"), (doc, "objects", "objects"), (doc, "roots", "roots")]
    for i, c in enumerate(doc["classes"]):
        places += [(c, key, f"classes[{i}].{key}") for key in ("name", "superclass", "fields", "statics")]
        places += [(f, key, None) for f in c["fields"] for key in ("name", "kind", "type")]
        places += [(c["statics"], name, None) for name in c.get("statics", {})]
    for i, o in enumerate(doc["objects"]):
        places += [(o, key, f"objects[{i}].{key}") for key in ("id", "class", "fields")]
        places += [(o["fields"], name, None) for name in o.get("fields", {})]
    places += [(doc["roots"], name, None) for name in doc["roots"]]
    entry, key, path = data.draw(st.sampled_from(places))
    entry[key] = value
    section = _SECTIONS.get(key)
    if key == "fields" and path.startswith("objects"):
        section = dict
    return path if section is not None and type(value) is not section else None


def _dangling(doc, data):
    missing = _missing_id(doc)
    found = _declared_field(doc, data, ("reference", "reference-array"))
    if found is None or data.draw(st.booleans()):
        holders = [c.setdefault("statics", {}) for c in doc["classes"]]
        data.draw(st.sampled_from(holders))["cached"] = {"ref": missing}
        return
    obj, name, kind = found
    obj.setdefault("fields", {})[name] = {"ref": missing} if kind == "reference" else {"refs": [None, missing]}


def _duplicate_id(doc, data):
    copied = copy.deepcopy(data.draw(st.sampled_from(doc["objects"])))
    doc["objects"].insert(data.draw(st.integers(0, len(doc["objects"]))), copied)


def _undeclared_field(doc, data):
    data.draw(st.sampled_from(doc["objects"])).setdefault("fields", {})["undeclared"] = 1


def _kind_mismatch(doc, data):
    found = _declared_field(doc, data, ("reference", "reference-array", "primitive", "primitive-array"))
    if found is None:
        data.draw(st.sampled_from(doc["objects"]))["class"] = "demo.Undeclared"
        return
    obj, name, kind = found
    target = _an_id(doc, data)
    wrong = {
        "reference": [5, [1], {"refs": [target]}],
        "reference-array": [5, "x", {"ref": target}],
        "primitive": [{"ref": target}, {"refs": [target]}],
        "primitive-array": [{"ref": target}, {"refs": []}],
    }[kind]
    obj.setdefault("fields", {})[name] = data.draw(st.sampled_from(wrong))


def _bool_id(doc, data):
    choice = data.draw(st.integers(0, 3))
    found = _declared_field(doc, data, ("reference", "reference-array"))
    if choice == 0 or found is None:
        data.draw(st.sampled_from(doc["objects"]))["id"] = data.draw(st.booleans())
    elif choice == 1:
        doc["roots"]["flag"] = True
    else:
        obj, name, kind = found
        obj.setdefault("fields", {})[name] = {"ref": True} if kind == "reference" else {"refs": [False]}


def _mixed_list(doc, data):
    mixed = data.draw(st.sampled_from([[1, "a"], [1, True], [None, 1], [None], [1, [2]], [1.5, 2]]))
    found = _declared_field(doc, data, ("primitive", "primitive-array"))
    if found is None or data.draw(st.booleans()):
        data.draw(st.sampled_from(doc["classes"])).setdefault("statics", {})["mixed"] = mixed
    else:
        obj, name, _ = found
        obj.setdefault("fields", {})[name] = mixed


def _empty_root_name(doc, data):
    doc["roots"][""] = _an_id(doc, data)


MUTATIONS = [
    _drop_key,
    _retype,
    _dangling,
    _duplicate_id,
    _undeclared_field,
    _kind_mismatch,
    _bool_id,
    _mixed_list,
    _empty_root_name,
]


def _outcome(load, text: str):
    try:
        snapshot = load(text)
    except Exception as exc:  # the reference also raises Python errors
        return exc
    return snapshot.classes, snapshot.objects, snapshot.roots


class TestLoaderMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(snapshot_documents())
    def test_valid_documents_load_equal(self, doc):
        text = json.dumps(doc)
        assert _outcome(load_snapshot, text) == _outcome(reference_load_snapshot, text)

    @settings(max_examples=300, deadline=None)
    @given(snapshot_documents(), st.sampled_from(MUTATIONS), st.data())
    def test_one_fault_gives_the_reference_error(self, doc, mutation, data):
        section = mutation(doc, data)
        text = json.dumps(doc)
        got = _outcome(load_snapshot, text)
        if section is not None:
            assert isinstance(got, SnapshotSchemaError) and got.path == section
            return
        expected = _outcome(reference_load_snapshot, text)
        if isinstance(expected, HeapQueryError):
            assert (type(got), str(got), getattr(got, "path", None)) == (
                type(expected),
                str(expected),
                getattr(expected, "path", None),
            )
        elif isinstance(expected, Exception):  # a crash of the reference
            assert isinstance(got, HeapQueryError), repr(got)
        else:  # the mutation left the document valid
            assert got == expected

    @settings(max_examples=300, deadline=None)
    @given(snapshot_documents(), st.lists(st.sampled_from(MUTATIONS), min_size=2, max_size=3), st.data())
    def test_first_of_several_faults_is_the_reference_one(self, doc, mutations, data):
        sections = []
        for mutation in sorted(mutations, key=lambda m: m in (_drop_key, _retype)):  # these break the others
            try:
                sections.append(mutation(doc, data))
            except (KeyError, IndexError, TypeError, AttributeError):  # an earlier fault took what it edits
                reject()
        text = json.dumps(doc)
        got = _outcome(load_snapshot, text)
        expected = _outcome(reference_load_snapshot, text)
        if any(sections):  # the reference crashes on a section of the wrong type
            assert isinstance(got, HeapQueryError) or got == expected, repr(got)
        elif isinstance(expected, HeapQueryError):
            assert _named(got) == _named(expected)
        elif isinstance(expected, Exception):  # a crash of the reference
            assert isinstance(got, HeapQueryError), repr(got)
        else:
            assert got == expected

    @pytest.mark.parametrize("name", ['"A"', "5", '""'])
    def test_object_shape_faults_come_before_class_faults(self, name):
        """As in the reference, every entry is decoded before any rule is checked."""
        text = '{"classes":[{"name":' + name + ',"superclass":"Z"}],"objects":[5],"roots":{}}'
        assert str(_outcome(load_snapshot, text)) == "objects[0]: object entries need id and class"
        assert _named(_outcome(load_snapshot, text)) == _named(_outcome(reference_load_snapshot, text))

    @pytest.mark.parametrize(
        "objects, message",
        [
            (
                '[{"id":1,"class":"A","fields":{"r":{"ref":9}}},{"id":2,"class":"B"}]',
                "objects[0].fields.r: reference to unknown object id 9",
            ),
            (
                '[{"id":1,"class":"A","fields":{"p":{"ref":1}}},{"id":2,"class":"A","fields":{"p":{"x":1}}}]',
                "objects[1].fields.p: unrecognized value object with keys ['x']",
            ),
        ],
    )
    def test_two_faults(self, objects, message):
        text = (
            '{"classes":[{"name":"A","fields":[{"name":"r","kind":"reference","type":"A"},'
            '{"name":"p","kind":"primitive","type":"int"}]}],"objects":' + objects + ',"roots":{}}'
        )
        got = _outcome(load_snapshot, text)
        assert str(got) == message
        assert _named(got) == _named(_outcome(reference_load_snapshot, text))


def _named(error) -> tuple:
    return type(error), str(error), getattr(error, "path", None)


def _one_object_doc(fields_decl: str, fields: str, statics: str = "") -> str:
    return (
        '{"classes":[{"name":"A","fields":[' + fields_decl + "]" + statics + "}],"
        '"objects":[{"id":7,"class":"A","fields":{' + fields + "}}],\"roots\":{}}"
    )


class TestErrorLocations:
    """Messages and paths of malformed inputs, pinned exactly."""

    @pytest.mark.parametrize(
        "fields_decl, fields, path, message",
        [
            (
                '{"name":"xs","kind":"primitive-array","type":"int"}',
                '"xs":[1,2,{"v":1}]',
                "objects[0].fields.xs[2]",
                "primitive arrays may only hold JSON literals",
            ),
            (
                '{"name":"rs","kind":"reference-array","type":"A"}',
                '"rs":{"refs":[7,null,"x"]}',
                "objects[0].fields.rs[2]",
                "refs elements must be object ids or null",
            ),
            (
                '{"name":"r","kind":"reference","type":"A"}',
                '"r":{"ref":true}',
                "objects[0].fields.r",
                "ref must be an integer object id",
            ),
            (
                '{"name":"r","kind":"reference","type":"A"}',
                '"r":{"ref":1,"x":2}',
                "objects[0].fields.r",
                "unrecognized value object with keys ['ref', 'x']",
            ),
        ],
    )
    def test_bad_nested_field_value(self, fields_decl, fields, path, message):
        with pytest.raises(SnapshotSchemaError) as exc:
            load_snapshot(_one_object_doc(fields_decl, fields))
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("type_", [5, "", None])
    def test_field_type_must_be_a_non_empty_string(self, type_):
        message = f"classes[0].fields.rs: field type must be a non-empty string, got {type_!r}"
        doc = _one_object_doc(json.dumps({"name": "rs", "kind": "reference-array", "type": type_}), "")
        with pytest.raises(SnapshotSchemaError) as exc:
            load_snapshot(doc)
        assert str(exc.value) == message
        info = ClassInfo("A", None, (FieldDecl("rs", "reference-array", type_),), {})
        with pytest.raises(SnapshotSchemaError) as exc:
            extract(HeapSnapshot([info], [HeapObject(7, "A", {})], {}))
        assert str(exc.value) == message

    def test_bad_static_value(self):
        doc = _one_object_doc("", "", ',"statics":{"s":{"refs":"x"}}')
        with pytest.raises(SnapshotSchemaError) as exc:
            load_snapshot(doc)
        assert str(exc.value) == "classes[0].statics.s: refs must be a list"

    def test_validation_errors_name_the_field(self):
        doc = _one_object_doc('{"name":"r","kind":"reference","type":"A"}', '"r":{"ref":99}')
        with pytest.raises(DanglingReferenceError) as exc:
            load_snapshot(doc)
        assert str(exc.value) == "objects[0].fields.r: reference to unknown object id 99"
        doc = _one_object_doc('{"name":"r","kind":"reference","type":"A"}', '"r":5')
        with pytest.raises(SnapshotSchemaError) as exc:
            load_snapshot(doc)
        assert str(exc.value) == "objects[0].fields.r: reference field holds a primitive"
        doc = _one_object_doc("", '"q":5')
        with pytest.raises(SnapshotSchemaError) as exc:
            load_snapshot(doc)
        assert str(exc.value) == "objects[0].fields.q: field 'q' not declared by 'A'"
        with pytest.raises(SnapshotSchemaError) as exc:
            load_snapshot(_one_object_doc("", "").replace('"class":"A"', '"class":"B"'))
        assert str(exc.value) == "objects[0]: unknown class 'B'"
        doc = _one_object_doc('{"name":"xs","kind":"primitive-array","type":"int"}', '"xs":[1,"a"]')
        with pytest.raises(InvalidPropertyError) as exc:
            load_snapshot(doc)
        assert str(exc.value) == "list value for key 'objects[0].fields.xs' must be homogeneous, got ['int', 'str']"
        doc = _one_object_doc("", "", ',"statics":{"s":{"ref":99}}')
        with pytest.raises(DanglingReferenceError) as exc:
            load_snapshot(doc)
        assert str(exc.value) == "classes[0].statics.s: reference to unknown object id 99"

    def _bundle(self, nodes: str, rels: str = "") -> CsvBundle:
        return CsvBundle(
            (",".join(NODES_HEADER) + "\n" + nodes).encode(),
            (",".join(RELS_HEADER) + "\n" + rels).encode(),
        )

    def test_bad_relationship_props_cell(self):
        with pytest.raises(SnapshotSchemaError) as exc:
            import_csv(self._bundle("0,A,{}\n1,A,{}\n", '0,1,f,"{""w"":"\n'))
        row = ["0", "1", "f", '{"w":']
        assert str(exc.value).startswith(f"bad props JSON in relationship {row!r}: Expecting value")
        with pytest.raises(SnapshotSchemaError) as exc:
            import_csv(self._bundle("0,A,{}\n1,A,{}\n", "0,1,f,[1]\n"))
        assert str(exc.value) == "props in relationship ['0', '1', 'f', '[1]'] must be a JSON object"

    def test_non_integer_end_id(self):
        with pytest.raises(SnapshotSchemaError) as exc:
            import_csv(self._bundle("0,A,{}\n", "0,z,f,{}\n"))
        assert str(exc.value) == "expected an integer id in relationships row ['0', 'z', 'f', '{}'], got 'z'"
        with pytest.raises(SnapshotSchemaError) as exc:
            import_csv(self._bundle("0,A,{}\n", "q,0,f,{}\n"))
        assert str(exc.value) == "expected an integer id in relationships row ['q', '0', 'f', '{}'], got 'q'"

    def test_bad_node_rows(self):
        with pytest.raises(SnapshotSchemaError) as exc:
            import_csv(self._bundle("x,A,{}\n"))
        assert str(exc.value) == "expected an integer id in nodes row ['x', 'A', '{}'], got 'x'"
        with pytest.raises(SnapshotSchemaError) as exc:
            import_csv(self._bundle("3,A,nope\n"))
        assert str(exc.value).startswith("bad props JSON in node 3: Expecting value")
        with pytest.raises(SnapshotSchemaError) as exc:
            import_csv(self._bundle('3,A,"""s"""\n'))
        assert str(exc.value) == "props in node 3 must be a JSON object"
        with pytest.raises(SnapshotSchemaError) as exc:
            import_csv(self._bundle("3,A\n"))
        assert str(exc.value) == "malformed nodes row ['3', 'A']"

    def test_empty_props_cell_is_an_empty_map(self):
        graph = import_csv(self._bundle("0,A,{}\n1,B,{}\n", "0,1,f,{}\n1,0,g,{}\n"))
        assert [n.properties for n in graph.nodes()] == [{}, {}]
        assert [r.properties for r in graph.relationships()] == [{}, {}]
        # Each map is its own dict.
        props = [n.properties for n in graph.nodes()] + [r.properties for r in graph.relationships()]
        assert len({id(p) for p in props}) == 4


class TestSaveSnapshot:
    def test_round_trip_is_value_identity(self):
        snapshot = load_snapshot((DATA / "tree_snapshot.json").read_bytes())
        assert load_snapshot(save_snapshot(snapshot)) == snapshot

    def test_random_snapshots_round_trip(self):
        rng = random.Random(5)
        for _ in range(50):
            snapshot = random_snapshot(rng)
            assert load_snapshot(save_snapshot(snapshot)) == snapshot

    def test_bytes_are_deterministic(self):
        snapshot = load_snapshot((DATA / "tree_snapshot.json").read_bytes())
        assert save_snapshot(snapshot) == save_snapshot(snapshot)


def _instances(g: PropertyGraph, n: int) -> list[int]:
    return [g.add_node("A") for _ in range(n)]


def _array(g: PropertyGraph, *elements) -> int:
    """An ``A[]`` node owned by a new ``A`` node, with one ``element`` edge per (index, target)."""
    owner, array = g.add_node("A"), g.add_node("A[]")
    g.add_relationship("arr", owner, array)
    for index, target in elements:
        g.add_relationship("element", array, target, {} if index is None else {"index": index})
    return array


def _two_instanceof(g):
    a, cls = g.add_node("A"), g.add_node("Class", {"name": "A"})
    g.add_relationship("instanceof", a, cls)
    g.add_relationship("instanceof", a, cls)


def _shared_array(g):
    array = _array(g)
    g.add_relationship("arr", g.add_node("A"), array)


def _duplicate_root(g):
    for a in _instances(g, 2):
        g.add_relationship("r", g.add_node("Local"), a)


# One graph per refusal of ``graph_to_snapshot`` and ``_fold_edges``/``_collect_array``: (build, message).
MALFORMED = {
    "field of two kinds": (
        lambda g: g.add_relationship("x", g.add_node("A"), g.add_node("A", {"x": 1})),
        "field 'x' of 'A' is both",
    ),
    "class without a name": (lambda g: g.add_node("Class"), "has no name property"),
    "class with an empty name": (lambda g: g.add_node("Class", {"name": ""}), "has no name property"),
    "two classes of one name": (
        lambda g: [g.add_node("Class", {"name": "A"}) for _ in range(2)],
        "two Class nodes for 'A'",
    ),
    "two instanceof edges": (_two_instanceof, "has 2 instanceof edges"),
    "instanceof another class": (
        lambda g: g.add_relationship("instanceof", g.add_node("A"), g.add_node("Class", {"name": "B"})),
        "instanceof edge does not match its label",
    ),
    "array without an owner": (lambda g: g.add_node("A[]"), "has no owner"),
    "binding to a class": (
        lambda g: g.add_relationship("r", g.add_node("Local"), g.add_node("Class", {"name": "A"})),
        "binding 'r' points at non-instance node",
    ),
    "two roots of one name": (_duplicate_root, "duplicate root name 'r'"),
    "shared array": (_shared_array, "is shared"),
    "field edge to a class": (
        lambda g: g.add_relationship("f", g.add_node("A"), g.add_node("Class", {"name": "B"})),
        "field edge 'f' points at non-instance node",
    ),
    "array edge that is no element": (
        lambda g: g.add_relationship("next", _array(g), g.add_node("A")),
        "has a non-element edge 'next'",
    ),
    "element without an index": (lambda g: _array(g, (None, g.add_node("A"))), "has a bad index"),
    "element with a negative index": (lambda g: _array(g, (-1, g.add_node("A"))), "has a bad index"),
    "element with a boolean index": (lambda g: _array(g, (True, g.add_node("A"))), "has a bad index"),
    "repeated element index": (lambda g: _array(g, *[(0, a) for a in _instances(g, 2)]), "repeats index 0"),
    "element that is no instance": (
        lambda g: _array(g, (0, g.add_node("Class", {"name": "B"}))),
        "array element points at non-instance node",
    ),
}


class TestGraphToSnapshot:
    def test_point_graph_round_trips_through_extraction(self, point_program, point_graph):
        graph = run_to_point(point_program)
        rebuilt = extract(graph_to_snapshot(graph), ExtractionConfig())
        assert structurally_equal(rebuilt, point_graph)

    def test_double_field_edge_rejected(self):
        g = PropertyGraph()
        a, b = g.add_node("A"), g.add_node("A")
        g.add_relationship("left", a, b)
        g.add_relationship("left", a, b)
        with pytest.raises(NotSnapshotShapedError):
            graph_to_snapshot(g)

    @pytest.mark.parametrize(
        "edges, label",
        [([("x", 0)], "x"), ([("y", 0), ("y", 1)], "y"), ([("x", 0), ("y", 0), ("y", 1)], "x")],
        ids=["named-like-a-static-property", "repeated", "both"],
    )
    def test_static_edge_that_would_lose_a_value_rejected(self, edges, label):
        g = PropertyGraph()
        cls = g.add_node("Class", {"name": "A", "x": 1})
        instances = [g.add_node("A"), g.add_node("A")]
        for name, i in edges:
            g.add_relationship(name, cls, instances[i])
        with pytest.raises(NotSnapshotShapedError, match=f"node {cls} has more than one value for '{label}'"):
            graph_to_snapshot(g)

    def test_field_edge_named_like_a_property_rejected(self):
        g = PropertyGraph()
        a = g.add_node("A", {"x": 1})
        g.add_relationship("x", a, a)
        with pytest.raises(NotSnapshotShapedError, match=f"node {a} has more than one value for 'x'"):
            graph_to_snapshot(g)

    def test_duplicate_uid_rejected(self):
        g = PropertyGraph()
        g.add_node("A", {"$uid": 1})
        g.add_node("A", {"$uid": 1})
        with pytest.raises(NotSnapshotShapedError):
            graph_to_snapshot(g)

    def test_extraction_output_inverts(self):
        rng = random.Random(11)
        for _ in range(30):
            snapshot = random_snapshot(rng)
            graph = extract(snapshot, ExtractionConfig())
            again = extract(graph_to_snapshot(graph), ExtractionConfig())
            assert structurally_equal(graph, again)

    def test_local_binder_needs_single_binding(self):
        g = PropertyGraph()
        binder = g.add_node("Local")
        with pytest.raises(NotSnapshotShapedError):
            graph_to_snapshot(g)

    @pytest.mark.parametrize("shape", sorted(MALFORMED), ids=str)
    def test_malformed_graphs_are_refused(self, shape):
        build, message = MALFORMED[shape]
        g = PropertyGraph()
        build(g)
        with pytest.raises(NotSnapshotShapedError, match=message):
            graph_to_snapshot(g)

    def test_primitive_field_types_are_inferred_and_saved(self):
        program = """
            class Cell {
              boolean live;
              double weight;
              String name;
              int n;
              Cell(boolean live, double weight, String name, int n) {
                this.live = live;
                this.weight = weight;
                this.name = name;
                this.n = n;
              }
            }
            Cell c = new Cell(true, 2.5, "a \\"b\\"", 3);
            return c;
        """
        snapshot = load_snapshot(save_snapshot(graph_to_snapshot(run_to_point(program))))
        types = {name: (decl.kind, decl.type) for name, decl in snapshot.field_decls("Cell").items()}
        assert types == {
            "live": ("primitive", "boolean"),
            "weight": ("primitive", "double"),
            "name": ("primitive", "String"),
            "n": ("primitive", "int"),
        }
        (cell,) = [obj for obj in snapshot.objects if obj.cls == "Cell"]
        assert cell.fields == {"live": True, "weight": 2.5, "name": 'a "b"', "n": 3}
        assert [type(cell.fields[name]) for name in ("live", "weight", "n")] == [bool, float, int]



class TestCsv:
    def test_point_graph_record_counts(self, point_program):
        graph = run_to_point(point_program)
        bundle = export_csv(graph)
        node_lines = bundle.nodes.decode().strip().split("\n")
        rel_lines = bundle.relationships.decode().strip().split("\n")
        assert node_lines[0] == ",".join(NODES_HEADER)
        assert rel_lines[0] == ",".join(RELS_HEADER)
        assert len(node_lines) == 1 + 7
        assert len(rel_lines) == 1 + 7

    def test_empty_graph_header_only(self):
        bundle = export_csv(PropertyGraph())
        assert bundle.nodes.decode() == ",".join(NODES_HEADER) + "\n"
        assert bundle.relationships.decode() == ",".join(RELS_HEADER) + "\n"

    def test_byte_determinism(self, point_program):
        graph = run_to_point(point_program)
        assert export_csv(graph) == export_csv(graph)

    def test_round_trip_preserves_ids_exactly(self, point_program):
        graph = run_to_point(point_program)
        back = import_csv(export_csv(graph))
        assert {n.id: (n.label, n.properties) for n in back.nodes()} == {
            n.id: (n.label, n.properties) for n in graph.nodes()
        }
        assert {(r.start, r.end, r.label) for r in back.relationships()} == {
            (r.start, r.end, r.label) for r in graph.relationships()
        }

    def test_relationship_ids_are_renumbered_densely(self):
        # Relationship rows carry no id: after a removal the survivors come
        # back numbered 0, 1, ... in their old order.
        g = PropertyGraph()
        a, b = g.add_node("A"), g.add_node("B")
        for label, start, end, props in [("f", a, b, {}), ("g", b, a, {"w": 1}), ("f", a, a, {}), ("h", b, b, {"s": "x"})]:
            g.add_relationship(label, start, end, props)
        g.remove_relationship(1)
        back = import_csv(export_csv(g))
        assert [r.id for r in g.relationships()] == [0, 2, 3]
        assert [r.id for r in back.relationships()] == [0, 1, 2]
        assert [(r.start, r.end, r.label, r.properties) for r in back.relationships()] == [
            (r.start, r.end, r.label, r.properties) for r in g.relationships()
        ]
        assert [n.id for n in back.nodes()] == [a, b]
        assert back.audit() == []

    def test_props_column_is_the_canonical_json_dumps_form(self):
        maps = [
            {},
            {"xs": [3, 1, 2], "bs": [True, False], "e": [], "ss": ["b", "a"]},
            {"s": "\u00e9 \u96ea \U0001f600 \"q\" \\", "k\u00e9": "\n"},
            {"f": 0.1, "g": -0.0, "h": 1e300, "i": float("inf"), "j": 2.0},
        ]
        g = PropertyGraph()
        for props in maps:
            node_id = g.add_node("A", props)
            g.add_relationship("r", node_id, node_id, props)
        bundle = export_csv(g)
        expected = [json.dumps(props, sort_keys=True, separators=(",", ":")) for props in maps]
        for data, column in ((bundle.nodes, 2), (bundle.relationships, 3)):
            rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]
            assert [row[column] for row in rows] == expected

    def test_quoting_survives_awkward_strings(self):
        g = PropertyGraph()
        g.add_node("A", {"s": 'comma, "quote" and \n newline'})
        back = import_csv(export_csv(g))
        assert structurally_equal(g, back)

    def test_dangling_endpoint_rejected(self):
        nodes = (",".join(NODES_HEADER) + "\n0,A,{}\n").encode()
        rels = (",".join(RELS_HEADER) + "\n0,99,f,{}\n").encode()
        with pytest.raises(NodeNotFoundError):
            import_csv(CsvBundle(nodes, rels))

    @pytest.mark.parametrize("table", ["nodes", "relationships"])
    def test_csv_not_utf8_rejected(self, table):
        files = {"nodes": (",".join(NODES_HEADER) + "\n").encode(), "relationships": (",".join(RELS_HEADER) + "\n").encode()}
        files[table] += b"0,\xff,{}\n"
        with pytest.raises(SnapshotSchemaError) as exc:
            import_csv(CsvBundle(files["nodes"], files["relationships"]))
        assert str(exc.value).startswith("CSV file is not UTF-8")

    def test_unknown_header_rejected(self):
        bundle = CsvBundle(b"wrong,header\n", b"also,wrong\n")
        with pytest.raises(SnapshotSchemaError):
            import_csv(bundle)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_nodes=20, max_edges=30))
    def test_round_trip_random_graphs(self, g):
        assert structurally_equal(import_csv(export_csv(g)), g, max_nodes=64)
