"""External formats: JSON heap snapshots and CSV graph bundles.

Snapshot JSON layout::

    {"classes": [{"name", "superclass"?, "fields": [{"name","kind","type"}],
                  "statics"?: {...}}],
     "objects": [{"id", "class", "fields": {...}}],
     "roots": {name: id}}

Field values encode as JSON literals for primitives, ``{"ref": id}`` for
references, ``{"refs": [...]}`` for reference arrays (null = empty slot),
plain JSON arrays for primitive arrays, and null for a null reference.

CSV bundles use one nodes file (``nodeId:ID,label:LABEL,props:JSON``) and
one relationships file (``:START_ID,:END_ID,:TYPE,props:JSON``).  Property
maps ride in a canonical-JSON column (sorted keys, no whitespace), quoting
per RFC 4180, LF newlines.  Export is byte-deterministic.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .errors import NotSnapshotShapedError, SnapshotSchemaError
from .property_graph import (
    ARRAY_SUFFIX,
    CLASS_LABEL,
    CLASS_NAME_KEY,
    ELEMENT_INDEX_KEY,
    ELEMENT_LABEL,
    INSTANCEOF_LABEL,
    LOCAL_LABEL,
    SCALAR_TYPES,
    UID_KEY,
    PropertyGraph,
    collector_paused,
)
from .subgraph import (
    ClassInfo,
    FieldDecl,
    HeapObject,
    HeapSnapshot,
    Ref,
    RefArray,
)

NODES_HEADER = ["nodeId:ID", "label:LABEL", "props:JSON"]
RELS_HEADER = [":START_ID", ":END_ID", ":TYPE", "props:JSON"]


# --- snapshot JSON ---------------------------------------------------------------


class _BadValue(Exception):
    """A value ``_decode_value`` refuses; its caller adds the value's location."""

    def __init__(self, message: str, suffix: str = ""):
        self.message = message
        self.suffix = suffix  # the element index within the value, if any


def _decode_values(raw: dict, section: str, index: int, part: str) -> dict:
    """A copy of the name -> value map at ``{section}[{index}].{part}``, each
    value decoded by its JSON shape alone; the location is formatted only when
    a value is refused.

    A copy: the document's own map would keep the freed document's memory in
    use around it, and queries over the scattered objects ran slower.
    """
    values = dict(raw)
    try:
        for name, value in values.items():
            if type(value) is dict or type(value) is list:  # JSON's other values are literals
                values[name] = _decode_value(value)
    except _BadValue as exc:
        raise SnapshotSchemaError(exc.message, f"{section}[{index}].{part}.{name}{exc.suffix}") from None
    return values


def _decode_value(value):
    """A JSON array or object field or static value: a primitive array, ``Ref`` or ``RefArray``."""
    if type(value) is list:
        for i, element in enumerate(value):
            if not (element is None or isinstance(element, SCALAR_TYPES)):
                raise _BadValue("primitive arrays may only hold JSON literals", f"[{i}]")
        return value
    if len(value) == 1 and "ref" in value:
        if type(value["ref"]) is not int:  # a bool is not an id
            raise _BadValue("ref must be an integer object id")
        return Ref(value["ref"])
    if len(value) == 1 and "refs" in value:
        ids = value["refs"]
        if not isinstance(ids, list):
            raise _BadValue("refs must be a list")
        for i, element in enumerate(ids):
            if element is not None and type(element) is not int:
                raise _BadValue("refs elements must be object ids or null", f"[{i}]")
        return RefArray(ids)
    raise _BadValue(f"unrecognized value object with keys {sorted(value)}")


def _encode_value(value):
    if isinstance(value, Ref):
        return {"ref": value.id}
    if isinstance(value, RefArray):
        return {"refs": list(value.ids)}
    return value


def _member(entry: dict, key: str, kind: type, at: str = ""):
    """``entry[key]``, empty when absent, which must be a JSON array (``list``) or object (``dict``)."""
    value = entry[key] if key in entry else kind()
    if type(value) is not kind:
        shape = "a list" if kind is list else "an object"
        raise SnapshotSchemaError(f"{key} must be {shape}", f"{at}.{key}" if at else key)
    return value


def _load_class(raw, i: int) -> ClassInfo:
    """A class entry decoded by its JSON shape alone, for ``validate``."""
    path = f"classes[{i}]"
    if type(raw) is not dict or "name" not in raw:
        raise SnapshotSchemaError("class entries need a name", path)
    fields = []
    for j, f in enumerate(_member(raw, "fields", list, path)):
        if type(f) is not dict or not {"name", "kind", "type"} <= f.keys():
            raise SnapshotSchemaError("field declarations need name/kind/type", f"{path}.fields[{j}]")
        fields.append(FieldDecl(f["name"], f["kind"], f["type"]))
    statics = _decode_values(_member(raw, "statics", dict, path), "classes", i, "statics")
    return ClassInfo(raw["name"], raw.get("superclass"), tuple(fields), statics)


# HeapObject and Ref built without the frozen dataclass __init__, which sets each field through ``object.__setattr__``.
_new, _set_ref_id = object.__new__, Ref.id.__set__
_set_id, _set_cls, _set_fields = HeapObject.id.__set__, HeapObject.cls.__set__, HeapObject.fields.__set__
_NO_FIELDS: dict = {}


def _decode_objects(entries: list) -> list:
    """Each object entry decoded by its JSON shape alone, for ``validate``.

    The objects of a class share one class-name string, where the document
    has one per object: on a 100,000-object snapshot that is about 6 MB less.
    Field values decode as in ``_decode_values``, the common ``{"ref": id}`` in line.
    """
    objects = []
    names: dict[str, str] = {}
    try:
        for i, raw in enumerate(entries):
            try:
                object_id, cls = raw["id"], raw["class"]
            except (KeyError, TypeError):  # not a JSON object, or one without both keys
                raise SnapshotSchemaError("object entries need id and class", f"objects[{i}]") from None
            if type(object_id) is not int:  # a bool is not an id
                raise SnapshotSchemaError("object id must be an integer", f"objects[{i}]")
            fields = raw.get("fields", _NO_FIELDS)
            if type(fields) is not dict:
                raise SnapshotSchemaError("fields must be an object", f"objects[{i}].fields")
            values = fields.copy()  # the object's own map, as in ``_decode_values``
            for name, value in fields.items():
                if type(value) is dict and len(value) == 1 and type(target := value.get("ref")) is int:
                    values[name] = ref = _new(Ref)
                    _set_ref_id(ref, target)
                elif type(value) is dict or type(value) is list:
                    values[name] = _decode_value(value)
            if type(cls) is str:  # any other type fails ``validate``
                cls = names.setdefault(cls, cls)
            objects.append(obj := _new(HeapObject))
            _set_id(obj, object_id)
            _set_cls(obj, cls)
            _set_fields(obj, values)
    except _BadValue as exc:
        raise SnapshotSchemaError(exc.message, f"objects[{i}].fields.{name}{exc.suffix}") from None
    return objects


@collector_paused()
def load_snapshot(data: bytes | str) -> HeapSnapshot:
    """Parse a snapshot document and return it validated.

    Each class and object entry is decoded by its JSON shape alone, then the
    snapshot is checked by ``validate``, the checks a hand-built snapshot
    gets.  A fault raises a ``HeapQueryError`` (a ``SnapshotError`` for
    most) whose path names the offending element, such as
    ``objects[3].fields.next``.
    """
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or JSON nested too deeply
        raise SnapshotSchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SnapshotSchemaError("top level must be an object")
    for key in ("classes", "objects", "roots"):
        if key not in doc:
            raise SnapshotSchemaError(f"missing top-level key {key!r}")

    classes = [_load_class(raw, i) for i, raw in enumerate(_member(doc, "classes", list))]
    objects = _decode_objects(_member(doc, "objects", list))
    roots = _member(doc, "roots", dict)
    for name, target in roots.items():
        if type(target) is not int:
            raise SnapshotSchemaError("root targets must be object ids", f"roots.{name}")
    return HeapSnapshot(classes, objects, roots).validate()


@collector_paused()
def save_snapshot(snapshot: HeapSnapshot) -> bytes:
    """Serialize a snapshot canonically: sorted keys, compact."""
    doc = {
        "classes": [
            {
                "name": info.name,
                **({"superclass": info.superclass} if info.superclass else {}),
                "fields": [{"name": f.name, "kind": f.kind, "type": f.type} for f in info.fields],
                **(
                    {"statics": {k: _encode_value(v) for k, v in sorted(info.statics.items())}}
                    if info.statics
                    else {}
                ),
            }
            for info in snapshot.classes
        ],
        "objects": [
            {
                "id": obj.id,
                "class": obj.cls,
                "fields": {k: _encode_value(v) for k, v in sorted(obj.fields.items())},
            }
            for obj in snapshot.objects
        ],
        "roots": dict(sorted(snapshot.roots.items())),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


# --- graph -> snapshot ----------------------------------------------------------


def _primitive_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "double"
    return "String"


@collector_paused()
def graph_to_snapshot(graph: PropertyGraph) -> HeapSnapshot:
    """Invert extraction for heap-shaped graphs.

    Instance nodes become objects (object id = ``$uid`` when present,
    otherwise the node id), ``Class`` nodes become class declarations with
    statics, ``Local`` binders become named roots, and array nodes are
    folded back into reference-array fields.  Graphs that cannot be
    expressed this way (duplicate field edges, shared arrays, dangling
    binders) raise NotSnapshotShapedError.
    """
    instance_nodes = []
    class_nodes = []
    local_nodes = []
    array_nodes = {}
    for node in graph.nodes():
        if node.label == CLASS_LABEL:
            class_nodes.append(node)
        elif node.label == LOCAL_LABEL:
            local_nodes.append(node)
        elif node.label.endswith(ARRAY_SUFFIX):
            array_nodes[node.id] = node
        else:
            instance_nodes.append(node)

    object_ids: dict[int, int] = {}
    assigned: set[int] = set()
    for node in instance_nodes:
        uid = node.properties.get(UID_KEY)
        object_id = uid if uid is not None else node.id
        if object_id in assigned:
            raise NotSnapshotShapedError(f"object id {object_id} assigned twice")
        assigned.add(object_id)
        object_ids[node.id] = object_id

    class_decls: dict[str, dict[str, FieldDecl]] = {}
    class_statics: dict[str, dict] = {}
    declared_class_names = set()

    def declare_field(cls: str, decl: FieldDecl):
        fields = class_decls.setdefault(cls, {})
        existing = fields.get(decl.name)
        if existing is None:
            fields[decl.name] = decl
        elif existing.kind != decl.kind:
            raise NotSnapshotShapedError(
                f"field {decl.name!r} of {cls!r} is both {existing.kind} and {decl.kind}"
            )

    for node in class_nodes:
        name = node.properties.get(CLASS_NAME_KEY)
        if not isinstance(name, str) or not name:
            raise NotSnapshotShapedError(f"Class node {node.id} has no name property")
        if name in declared_class_names:
            raise NotSnapshotShapedError(f"two Class nodes for {name!r}")
        declared_class_names.add(name)
        class_decls.setdefault(name, {})
        statics = {key: value for key, value in node.properties.items() if key != CLASS_NAME_KEY}
        class_statics[name] = statics

    objects = []
    array_owned: dict[int, int] = {}
    for node in instance_nodes:
        fields: dict = {}
        cls = node.label
        class_decls.setdefault(cls, {})
        for key, value in node.properties.items():
            if key == UID_KEY:
                continue
            kind = "primitive-array" if isinstance(value, list) else "primitive"
            element_type = _primitive_type(value[0]) if isinstance(value, list) and value else "java.lang.Object"
            declare_field(cls, FieldDecl(key, kind, element_type if kind == "primitive-array" else _primitive_type(value)))
            fields[key] = list(value) if isinstance(value, list) else value
        instanceof = []
        for rel, target in _fold_edges(graph, node.id, fields, array_nodes, array_owned, object_ids):
            if rel.label == INSTANCEOF_LABEL:
                instanceof.append(target)
            elif target.id in array_nodes:
                declare_field(cls, FieldDecl(rel.label, "reference-array", target.label[: -len(ARRAY_SUFFIX)]))
            else:
                declare_field(cls, FieldDecl(rel.label, "reference", target.label))
        if len(instanceof) > 1:
            raise NotSnapshotShapedError(f"node {node.id} has {len(instanceof)} instanceof edges")
        if instanceof:
            target = instanceof[0]
            if target.label != CLASS_LABEL or target.properties.get(CLASS_NAME_KEY) != cls:
                raise NotSnapshotShapedError(f"node {node.id} instanceof edge does not match its label")
        objects.append(HeapObject(object_ids[node.id], cls, fields))

    # Static reference edges leave Class nodes.
    for node in class_nodes:
        statics = class_statics[node.properties[CLASS_NAME_KEY]]
        _fold_edges(graph, node.id, statics, array_nodes, array_owned, object_ids, skip=None)

    for array_id in array_nodes:
        if array_id not in array_owned:
            raise NotSnapshotShapedError(f"array node {array_id} has no owner")

    roots = {}
    for node in local_nodes:
        bindings = graph.neighbors(node.id, "out")
        if len(bindings) != 1:
            raise NotSnapshotShapedError(f"Local node {node.id} must have exactly one binding edge")
        rel, target = bindings[0]
        if target.id not in object_ids:
            raise NotSnapshotShapedError(f"binding {rel.label!r} points at non-instance node {target.id}")
        if rel.label in roots:
            raise NotSnapshotShapedError(f"duplicate root name {rel.label!r}")
        roots[rel.label] = object_ids[target.id]

    classes = []
    for cls in sorted(class_decls):
        classes.append(
            ClassInfo(
                cls,
                None,
                tuple(class_decls[cls][name] for name in sorted(class_decls[cls])),
                class_statics.get(cls, {}),
            )
        )
    objects.sort(key=lambda o: o.id)
    snapshot = HeapSnapshot(classes, objects, roots)
    snapshot.validate()
    return snapshot


def _fold_edges(graph, node_id, fields, array_nodes, array_owned, object_ids, skip=INSTANCEOF_LABEL) -> list:
    """Put each edge leaving ``node_id`` but those labeled ``skip`` into ``fields``
    (a ``Ref``, or the ``RefArray`` of an array node it then owns) and return the
    ``(relationship, target)`` pairs; a label already in ``fields`` would lose a value."""
    edges = graph.neighbors(node_id, "out")
    for rel, target in edges:
        label = rel.label
        if label == skip:
            continue
        if label in fields:
            raise NotSnapshotShapedError(f"node {node_id} has more than one value for {label!r}")
        if target.id in array_nodes:
            if target.id in array_owned:
                raise NotSnapshotShapedError(f"array node {target.id} is shared")
            array_owned[target.id] = node_id
            fields[label] = _collect_array(graph, target.id, object_ids)
        elif target.id in object_ids:
            fields[label] = Ref(object_ids[target.id])
        else:
            raise NotSnapshotShapedError(f"field edge {label!r} points at non-instance node {target.id}")
    return edges


def _collect_array(graph: PropertyGraph, array_id: int, object_ids: dict[int, int]) -> RefArray:
    elements: dict[int, int] = {}
    for rel, target in graph.neighbors(array_id, "out"):
        if rel.label != ELEMENT_LABEL:
            raise NotSnapshotShapedError(f"array node {array_id} has a non-element edge {rel.label!r}")
        index = rel.properties.get(ELEMENT_INDEX_KEY)
        if not isinstance(index, int) or isinstance(index, bool) or index < 0:
            raise NotSnapshotShapedError(f"element edge {rel.id} has a bad index")
        if index in elements:
            raise NotSnapshotShapedError(f"array node {array_id} repeats index {index}")
        if target.id not in object_ids:
            raise NotSnapshotShapedError(f"array element points at non-instance node {target.id}")
        elements[index] = object_ids[target.id]
    length = max(elements) + 1 if elements else 0
    return RefArray(tuple(elements.get(i) for i in range(length)))


# --- CSV bundles -----------------------------------------------------------------


@dataclass(frozen=True)
class CsvBundle:
    nodes: bytes
    relationships: bytes


# ``json.dumps(props, sort_keys=True, separators=(",", ":"))``, without building an encoder per call.
_PROPS_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _props_json(props: dict) -> str:
    return _PROPS_ENCODER.encode(props) if props else "{}"  # most maps are empty


def export_csv(graph: PropertyGraph) -> CsvBundle:
    """Nodes and relationships as two CSV files, each in ascending id order.

    Node rows carry the node id; relationship rows do not, so
    ``import_csv`` numbers relationships afresh (see there).
    """
    nodes_buf = io.StringIO()
    writer = csv.writer(nodes_buf, lineterminator="\n")
    writer.writerow(NODES_HEADER)
    for node in graph.nodes():
        writer.writerow([node.id, node.label, _props_json(node.properties)])
    rels_buf = io.StringIO()
    writer = csv.writer(rels_buf, lineterminator="\n")
    writer.writerow(RELS_HEADER)
    for rel in graph.relationships():
        writer.writerow([rel.start, rel.end, rel.label, _props_json(rel.properties)])
    return CsvBundle(nodes_buf.getvalue().encode("utf-8"), rels_buf.getvalue().encode("utf-8"))


def _read_csv(data: bytes, expected_header: list) -> list[list]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotSchemaError(f"CSV file is not UTF-8: {exc}") from None
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:  # such as a carriage return inside an unquoted field
        raise SnapshotSchemaError(f"malformed CSV file: {exc}") from None
    if not rows:
        raise SnapshotSchemaError("empty CSV file")
    if rows[0] != expected_header:
        raise SnapshotSchemaError(f"unknown CSV header {rows[0]!r}, expected {expected_header!r}")
    return rows[1:]


# Error locations below are formatted only on the raise paths, because an
# import reads every row.


def _parse_props(text: str, kind: str, key) -> dict:
    """The property map in a props cell of the ``kind`` row named by ``key``."""
    if text == "{}":
        return {}
    try:
        props = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, an integer past the digit limit, or nesting too deep
        raise SnapshotSchemaError(f"bad props JSON in {kind} {key!r}: {exc}") from None
    if not isinstance(props, dict):
        raise SnapshotSchemaError(f"props in {kind} {key!r} must be a JSON object")
    return props


def _csv_int(text: str, table: str, row: list) -> int:
    try:
        return int(text)
    except ValueError:
        raise SnapshotSchemaError(f"expected an integer id in {table} row {row!r}, got {text!r}") from None


@collector_paused()
def import_csv(bundle: CsvBundle) -> PropertyGraph:
    """Rebuild a graph from ``export_csv`` output.

    Node ids are the ones in the nodes file.  Relationships get ids 0, 1,
    2, ... in row order, so ``import_csv(export_csv(g))`` keeps each
    relationship's order, endpoints, label and properties but not its id
    once ``g`` has had a relationship removed.
    """
    graph = PropertyGraph()
    for row in _read_csv(bundle.nodes, NODES_HEADER):
        if len(row) != 3:
            raise SnapshotSchemaError(f"malformed nodes row {row!r}")
        node_id = _csv_int(row[0], "nodes", row)
        graph.add_node(row[1], _parse_props(row[2], "node", node_id), node_id=node_id)
    for row in _read_csv(bundle.relationships, RELS_HEADER):
        if len(row) != 4:
            raise SnapshotSchemaError(f"malformed relationships row {row!r}")
        start = _csv_int(row[0], "relationships", row)
        end = _csv_int(row[1], "relationships", row)
        graph.add_relationship(row[2], start, end, _parse_props(row[3], "relationship", row))
    return graph
