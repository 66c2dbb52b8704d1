from __future__ import annotations

import random

import pytest

from heapquery.errors import (
    SnapshotSchemaError,
    ExtractionConfigError,
    UnknownRootError,
)
from heapquery.snapshot_io import load_snapshot
from heapquery.subgraph import (
    ClassInfo,
    ExtractionConfig,
    FieldDecl,
    HeapObject,
    HeapSnapshot,
    Ref,
    RefArray,
    collect,
    extract,
    follow_references,
    kept_keys,
)

from .conftest import UID, build_tree_graph
from .generators import build_large_snapshot, random_snapshot
from .oracles import reachable_from, structurally_equal


def simple_class(name: str, refs=(), prims=(), ref_arrays=(), statics=None) -> ClassInfo:
    fields = [FieldDecl(f, "reference", name) for f in refs]
    fields += [FieldDecl(f, "primitive", "int") for f in prims]
    fields += [FieldDecl(f, "reference-array", name) for f in ref_arrays]
    return ClassInfo(name, None, tuple(fields), statics or {})


class TestFollowReferences:
    def test_tree_closure_from_owner(self, tree_snapshot):
        expected = reachable_from(tree_snapshot, [UID["f"]])
        assert follow_references(tree_snapshot, [UID["f"]]) == expected
        assert expected == set(UID.values())

    def test_leaf_has_no_out_references(self, tree_snapshot):
        assert follow_references(tree_snapshot, [UID["a"]]) == {UID["a"]}

    def test_interior_node(self, tree_snapshot):
        expected = reachable_from(tree_snapshot, [UID["b"]])
        assert follow_references(tree_snapshot, [UID["b"]]) == expected
        assert expected == {UID["b"], UID["a"], UID["e"]}

    def test_unknown_start(self, tree_snapshot):
        with pytest.raises(UnknownRootError):
            follow_references(tree_snapshot, [999])

    def test_static_references_are_followed(self):
        snap = HeapSnapshot(
            [
                simple_class("A", statics={"shared": Ref(2)}),
                simple_class("B"),
            ],
            [HeapObject(1, "A"), HeapObject(2, "B")],
            {},
        )
        assert follow_references(snap, [1]) == {1, 2}


class TestCollect:
    def test_removes_unrooted(self, tree_snapshot):
        extra = [HeapObject(100 + i, "BinaryTree$Node", {"value": 9}) for i in range(3)]
        snap = HeapSnapshot(tree_snapshot.classes, tree_snapshot.objects + extra, tree_snapshot.roots)
        live = reachable_from(snap, snap.roots.values())
        collected = collect(snap)
        assert {o.id for o in collected.objects} == live
        assert len(collected.objects) == 6

    def test_identity_when_everything_rooted(self, tree_snapshot):
        collected = collect(tree_snapshot)
        assert collected == tree_snapshot

    def test_no_roots_collects_everything(self, tree_snapshot):
        snap = HeapSnapshot(tree_snapshot.classes, tree_snapshot.objects, {})
        assert collect(snap).objects == []


class TestExtract:
    def test_root_restricted_matches_fixture(self, tree_snapshot):
        graph = extract(tree_snapshot, ExtractionConfig(root=UID["f"]))
        expected = build_tree_graph(with_binder=True)
        assert graph.node_count == 9
        assert graph.relationship_count == 12
        assert structurally_equal(graph, expected)

    def test_blacklist_excludes_instances_and_edges(self, tree_snapshot):
        graph = extract(tree_snapshot, ExtractionConfig(root=UID["f"], blacklist=frozenset({"BinaryTree"})))
        labels = sorted(n.label for n in graph.nodes())
        assert labels == ["BinaryTree$Node"] * 5 + ["Class"]
        # no edge touches an excluded instance, and the binder disappeared
        assert all(rel.label in ("left", "right", "instanceof") for rel in graph.relationships())

    def test_root_at_interior_node(self, tree_snapshot):
        graph = extract(tree_snapshot, ExtractionConfig(root=UID["b"]))
        uids = sorted(n.properties["$uid"] for n in graph.nodes() if n.label != "Class")
        assert uids == sorted(reachable_from(tree_snapshot, [UID["b"]]))
        assert graph.node_count == 4  # b, a, e + one class node

    def test_overlapping_lists_rejected(self, tree_snapshot):
        config = ExtractionConfig(whitelist=frozenset({"X"}), blacklist=frozenset({"X"}))
        with pytest.raises(ExtractionConfigError):
            extract(tree_snapshot, config)

    @pytest.mark.parametrize("field", ["whitelist", "blacklist"])
    @pytest.mark.parametrize("classes", ["app.Items", b"app.Items", ""])
    def test_a_string_class_list_is_refused(self, field, classes):
        """``in`` on a string is a substring test: blacklist "app.Items" would exclude every app.Item."""
        snapshot, *_ = build_large_snapshot()
        config = ExtractionConfig(**{field: classes})
        for call in (config.validate, config.key, lambda: extract(snapshot, config)):
            with pytest.raises(ExtractionConfigError, match="collection of class names"):
                call()
        assert list(kept_keys(snapshot)) == []
        listed = extract(snapshot, ExtractionConfig(**{field: frozenset({classes})}))
        assert len(listed.node_ids_with_label("app.Item")) == (0 if field == "whitelist" else 1000)

    def test_unknown_root_rejected(self, tree_snapshot):
        with pytest.raises(UnknownRootError):
            extract(tree_snapshot, ExtractionConfig(root=404))

    @pytest.mark.parametrize("root", [True, 1.0, "1", [[1]], [1, False], (1, 2.0)])
    def test_root_ids_must_be_integers(self, root):
        snapshot, *_ = build_large_snapshot()  # holds an object with id 1
        with pytest.raises(ExtractionConfigError, match="root ids must be integers"):
            extract(snapshot, ExtractionConfig(root=root))
        assert list(kept_keys(snapshot)) == []

    def test_force_collect_drops_garbage(self, tree_snapshot):
        extra = [HeapObject(200, "BinaryTree$Node", {"value": 9})]
        snap = HeapSnapshot(tree_snapshot.classes, tree_snapshot.objects + extra, tree_snapshot.roots)
        assert extract(snap, ExtractionConfig()).node_count == 10
        assert extract(snap, ExtractionConfig(force_collect=True)).node_count == 9

    def test_whitelist_pulls_in_closure(self, tree_snapshot):
        snap = HeapSnapshot(
            tree_snapshot.classes + [simple_class("Other")],
            tree_snapshot.objects + [HeapObject(300, "Other")],
            tree_snapshot.roots,
        )
        graph = extract(snap, ExtractionConfig(whitelist=frozenset({"BinaryTree"})))
        uids = {n.properties["$uid"] for n in graph.nodes() if "$uid" in n.properties}
        assert uids == set(UID.values())  # tree closure, not Other

    def test_whitelist_monotone(self, tree_snapshot):
        snap = HeapSnapshot(
            tree_snapshot.classes + [simple_class("Other")],
            tree_snapshot.objects + [HeapObject(300, "Other")],
            tree_snapshot.roots,
        )
        small = extract(snap, ExtractionConfig(whitelist=frozenset({"BinaryTree"})))
        large = extract(snap, ExtractionConfig(whitelist=frozenset({"BinaryTree", "Other"})))
        small_uids = {n.properties["$uid"] for n in small.nodes() if "$uid" in n.properties}
        large_uids = {n.properties["$uid"] for n in large.nodes() if "$uid" in n.properties}
        assert small_uids <= large_uids

    def test_node_count_bounded_by_objects(self, tree_snapshot):
        graph = extract(tree_snapshot, ExtractionConfig())
        instances = [n for n in graph.nodes() if n.label not in ("Class", "Local")]
        assert len(instances) <= len(tree_snapshot.objects)

    def test_deterministic(self, tree_snapshot):
        first = extract(tree_snapshot, ExtractionConfig(root=UID["f"]))
        second = extract(tree_snapshot, ExtractionConfig(root=UID["f"]))
        assert structurally_equal(first, second)

    def test_directed_reachability_from_root_node(self, tree_snapshot):
        graph = extract(tree_snapshot, ExtractionConfig(root=UID["f"]))
        start = next(n for n in graph.nodes() if n.properties.get("$uid") == UID["f"])
        seen = set()
        stack = [start.id]
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            for rel, other in graph.neighbors(node_id, "out"):
                if rel.label != "instanceof":
                    stack.append(other.id)
        plain = {n.id for n in graph.nodes() if n.label not in ("Class", "Local")}
        assert plain <= seen


class TestReferenceArrays:
    def build_array_snapshot(self) -> HeapSnapshot:
        classes = [
            ClassInfo(
                "Box",
                None,
                (FieldDecl("items", "reference-array", "Item"), FieldDecl("tag", "primitive", "int")),
            ),
            ClassInfo("Item", None, (FieldDecl("score", "primitive", "int"),)),
        ]
        objects = [
            HeapObject(1, "Box", {"items": RefArray((2, None, 3)), "tag": 9}),
            HeapObject(2, "Item", {"score": 10}),
            HeapObject(3, "Item", {"score": 20}),
        ]
        return HeapSnapshot(classes, objects, {"box": 1})

    def test_array_becomes_labeled_node_with_element_edges(self):
        graph = extract(self.build_array_snapshot(), ExtractionConfig())
        array = next(n for n in graph.nodes() if n.label == "Item[]")
        elements = [(rel.properties["index"], other.properties["score"]) for rel, other in graph.neighbors(array.id, "out")]
        assert sorted(elements) == [(0, 10), (2, 20)]
        owner_edges = [rel.label for rel, _ in graph.neighbors(array.id, "in")]
        assert owner_edges == ["items"]

    def test_primitive_array_rides_as_property(self):
        classes = [ClassInfo("Buf", None, (FieldDecl("data", "primitive-array", "int"),))]
        snap = HeapSnapshot(classes, [HeapObject(1, "Buf", {"data": [3, 1, 4]})], {})
        graph = extract(snap, ExtractionConfig())
        node = next(n for n in graph.nodes() if n.label == "Buf")
        assert node.properties["data"] == [3, 1, 4]


class TestReservedNames:
    def test_uid_field_name_rejected(self):
        snap = HeapSnapshot(
            [ClassInfo("A", None, (FieldDecl("$uid", "primitive", "int"),))],
            [HeapObject(1, "A")],
            {},
        )
        with pytest.raises(SnapshotSchemaError):
            snap.validate()

    def test_instanceof_field_name_rejected(self):
        snap = HeapSnapshot(
            [ClassInfo("A", None, (FieldDecl("instanceof", "reference", "A"),))],
            [HeapObject(1, "A")],
            {},
        )
        with pytest.raises(SnapshotSchemaError):
            snap.validate()

    def test_static_named_name_rejected(self):
        snap = HeapSnapshot([ClassInfo("A", None, (), {"name": "x"})], [], {})
        with pytest.raises(SnapshotSchemaError):
            snap.validate()


class TestNamesAndIds:
    """Names and ids that would make a graph label, key or ``$uid`` invalid."""

    def _doc(self, cls='"A"', field='"f"', object_id="1", static='"s"'):
        return (
            f'{{"classes":[{{"name":{cls},"fields":[{{"name":{field},"kind":"primitive","type":"int"}}],'
            f'"statics":{{{static}:1}}}}],"objects":[{{"id":{object_id},"class":{cls},"fields":{{}}}}],"roots":{{}}}}'
        )

    @pytest.mark.parametrize(
        "changes, path, message",
        [
            ({"cls": '""'}, "classes[0]", "class name must be a non-empty string, got ''"),
            ({"field": '""'}, "classes[0].fields[0]", "field name must be a non-empty string, got ''"),
            ({"field": "7"}, "classes[0].fields[0]", "field name must be a non-empty string, got 7"),
            ({"static": '""'}, "classes[0].statics", "static name must be a non-empty string, got ''"),
            ({"static": '"$uid"'}, "classes[0].statics.$uid", "static name '$uid' is reserved"),
            ({"object_id": '"x"'}, "objects[0]", "object id must be an integer"),
        ],
    )
    def test_load_snapshot_rejects(self, changes, path, message):
        load_snapshot(self._doc())  # the unchanged document loads
        with pytest.raises(SnapshotSchemaError) as exc:
            load_snapshot(self._doc(**changes))
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "classes, objects, path, message",
        [
            ([ClassInfo("", None, ())], [], "classes[0]", "class name must be a non-empty string, got ''"),
            ([ClassInfo(None, None, ())], [], "classes[0]", "class name must be a non-empty string, got None"),
            (
                [ClassInfo("A", None, (FieldDecl("", "primitive", "int"),))],
                [],
                "classes[0].fields[0]",
                "field name must be a non-empty string, got ''",
            ),
            ([ClassInfo("A", None, (), {"": 1})], [], "classes[0].statics", "static name must be a non-empty string, got ''"),
            ([ClassInfo("A", None, (), {"$uid": 1})], [], "classes[0].statics.$uid", "static name '$uid' is reserved"),
            ([ClassInfo("A")], [HeapObject(1, "A"), HeapObject("x", "A")], "objects[1]", "object id must be an integer, got 'x'"),
            ([ClassInfo("A")], [HeapObject(True, "A")], "objects[0]", "object id must be an integer, got True"),
        ],
    )
    def test_validate_rejects(self, classes, objects, path, message):
        snap = HeapSnapshot(classes, objects, {})
        with pytest.raises(SnapshotSchemaError) as exc:
            snap.validate()
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: {message}"
        with pytest.raises(SnapshotSchemaError):
            extract(HeapSnapshot(classes, objects, {}))


class TestStatics:
    def test_null_static_is_left_off_the_class_node(self):
        classes = [ClassInfo("Registry", None, (), {"count": 2, "head": None}), simple_class("Entry")]
        graph = extract(HeapSnapshot(classes, [HeapObject(1, "Registry")], {}), ExtractionConfig())
        assert graph.node(1).properties == {"name": "Registry", "count": 2}
        assert graph.neighbors(1) == []

    def test_static_primitives_on_class_node_and_static_ref_edges(self):
        classes = [
            ClassInfo("Registry", None, (), {"count": 2, "head": Ref(2)}),
            simple_class("Entry"),
        ]
        objects = [HeapObject(1, "Registry"), HeapObject(2, "Entry")]
        graph = extract(HeapSnapshot(classes, objects, {}), ExtractionConfig())
        class_node = next(n for n in graph.nodes() if n.label == "Class" and n.properties["name"] == "Registry")
        assert class_node.properties["count"] == 2
        static_edges = [
            (rel.label, other.label) for rel, other in graph.neighbors(class_node.id, "out")
        ]
        assert static_edges == [("head", "Entry")]


class TestSuperclassCycles:
    @pytest.mark.parametrize(
        "classes, path",
        [
            ([ClassInfo("Z"), ClassInfo("A", "B"), ClassInfo("B", "A")], "classes[1]"),
            ([ClassInfo("A", "A")], "classes[0]"),
            ([ClassInfo("C", "A"), ClassInfo("A", "B"), ClassInfo("B", "A")], "classes[0]"),
        ],
    )
    def test_validate_reports_cycle(self, classes, path):
        snap = HeapSnapshot(classes, [HeapObject(1, "A")], {})
        with pytest.raises(SnapshotSchemaError) as exc:
            snap.validate()
        assert exc.value.path == path

    def test_extract_of_unvalidated_snapshot_reports_cycle(self):
        snap = HeapSnapshot([ClassInfo("A", "B"), ClassInfo("B", "A")], [HeapObject(1, "A")], {})
        with pytest.raises(SnapshotSchemaError):
            extract(snap, ExtractionConfig(root=1))


class TestFieldDecls:
    def test_inherited_first_and_read_only(self):
        snap = HeapSnapshot(
            [
                ClassInfo("Base", None, (FieldDecl("x", "primitive", "int"), FieldDecl("y", "primitive", "int"))),
                ClassInfo("Sub", "Base", (FieldDecl("z", "primitive", "int"), FieldDecl("x", "reference", "Sub"))),
            ],
            [],
            {},
        ).validate()
        decls = snap.field_decls("Sub")
        assert list(decls) == ["x", "y", "z"]
        assert decls["x"].kind == "reference"
        assert snap.field_decls("Sub") is decls
        with pytest.raises(TypeError):
            decls["w"] = FieldDecl("w", "primitive", "int")


def _with_superclasses(rng: random.Random, snapshot: HeapSnapshot) -> HeapSnapshot:
    """The same snapshot with some classes extending an earlier one."""
    classes = []
    for i, info in enumerate(snapshot.classes):
        parent = rng.choice(snapshot.classes[:i]).name if i and rng.random() < 0.5 else None
        classes.append(ClassInfo(info.name, parent, info.fields, info.statics))
    return HeapSnapshot(classes, snapshot.objects, snapshot.roots)


def _restrict(snapshot: HeapSnapshot, keep: set[int]) -> HeapSnapshot:
    """The sub-snapshot of the objects in ``keep``, a set closed under references.

    Roots and static references that point outside ``keep`` are dropped.  A
    class holding such a static has no instance in ``keep``, so neither
    extraction gives it a class node.
    """

    def inside(value) -> bool:
        if isinstance(value, Ref):
            return value.id in keep
        if isinstance(value, RefArray):
            return all(e is None or e in keep for e in value.ids)
        return True

    classes = [
        ClassInfo(c.name, c.superclass, c.fields, {k: v for k, v in c.statics.items() if inside(v)})
        for c in snapshot.classes
    ]
    objects = [o for o in snapshot.objects if o.id in keep]
    roots = {name: target for name, target in snapshot.roots.items() if target in keep}
    return HeapSnapshot(classes, objects, roots)


class TestBoundedAgreesWithSubSnapshot:
    """Bounded extraction visits only the reachable objects; extracting every
    object of the sub-snapshot of those objects must give the same graph."""

    def test_random_snapshots(self):
        rng = random.Random(2402)
        for _ in range(300):
            snap = _with_superclasses(rng, random_snapshot(rng))
            ids = [o.id for o in snap.objects]
            starts = rng.sample(ids, k=rng.randint(1, min(2, len(ids))))
            root = starts[0] if len(starts) == 1 and rng.random() < 0.5 else starts
            names = [c.name for c in snap.classes]
            blacklist = frozenset(rng.sample(names, k=rng.randint(0, len(names))))
            keep = reachable_from(snap, starts)

            fast = extract(snap, ExtractionConfig(root=root, blacklist=blacklist))
            slow = extract(_restrict(snap, keep), ExtractionConfig(blacklist=blacklist))

            assert structurally_equal(fast, slow)
            uids = {n.properties["$uid"] for n in fast.nodes() if "$uid" in n.properties}
            assert uids == {o.id for o in snap.objects if o.id in keep and o.cls not in blacklist}


class _NotIterable(dict):
    """A root map that fails the test when a caller walks it."""

    def _walked(self, *args):
        raise AssertionError("snapshot.roots was iterated")

    __iter__ = keys = values = items = _walked


class TestBinderNumbering:
    def test_bounded_extract_does_not_walk_every_root(self):
        objects = [HeapObject(i, "app.Item", {"n": i}) for i in range(1, 1001)]
        roots = {f"r{i:06d}": 2 + i % 999 for i in range(100_000)}
        roots.update(z=1, a=1)
        snapshot = HeapSnapshot([simple_class("app.Item", prims=("n",))], objects, roots).validate()
        snapshot.roots = _NotIterable(snapshot.roots)
        graph = extract(snapshot, ExtractionConfig(root=1))
        assert graph.node_count == 4  # the object, its class node and two binders
        binders = [rel.label for rel in graph.fill().relationships() if rel.label != "instanceof"]
        assert binders == ["a", "z"]
