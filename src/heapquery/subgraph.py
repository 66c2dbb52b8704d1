"""Heap snapshots and their translation into property graphs.

A HeapSnapshot is a self-contained description of classes, objects,
reference fields and named roots.  ``extract`` turns a snapshot into a
PropertyGraph, optionally restricted by a reachability root, a whitelist
(classes whose instances are always included, together with everything
reachable from them), a blacklist (classes whose instances are excluded
everywhere) and a force-collect pass that drops unreachable objects first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import (
    DanglingReferenceError,
    DuplicateObjectIdError,
    ExtractionConfigError,
    ReservedLabelError,
    SnapshotSchemaError,
    UnknownRootError,
)
from .property_graph import (
    CLASS_LABEL,
    ELEMENT_LABEL,
    INSTANCEOF_LABEL,
    LOCAL_LABEL,
    RESERVED_LABELS,
    UID_KEY,
    PropertyGraph,
    check_property_value,
    collector_paused,
)

FIELD_KINDS = ("reference", "primitive", "primitive-array", "reference-array")


@dataclass(frozen=True)
class Ref:
    """A reference-field value pointing at another object."""

    id: int


@dataclass(frozen=True)
class RefArray:
    """A reference-array value: an ordered tuple of object ids (None = null slot)."""

    ids: tuple

    def __init__(self, ids):
        object.__setattr__(self, "ids", tuple(ids))


@dataclass(frozen=True)
class FieldDecl:
    name: str
    kind: str  # one of FIELD_KINDS
    type: str


@dataclass(frozen=True)
class ClassInfo:
    name: str
    superclass: str | None = None
    fields: tuple = ()
    statics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class HeapObject:
    id: int
    cls: str
    fields: dict = field(default_factory=dict)


@dataclass
class HeapSnapshot:
    """Classes, objects and named roots of one heap.

    A snapshot is validated once: by ``load_snapshot``, by an explicit
    ``validate()``, or at its first ``QueryContext`` or ``extract``.  It must
    not be changed after it is built, because the object and class maps, the
    validation result and the per-class caches are computed only once.
    """

    classes: list
    objects: list
    roots: dict

    def __post_init__(self):
        self._class_map = {c.name: c for c in self.classes}
        self._object_map = {o.id: o for o in self.objects}
        self._validated = False
        self._decls_cache: dict[str, MappingProxyType] = {}
        self._statics_cache: dict[str, tuple] = {}

    def class_info(self, name: str) -> ClassInfo:
        return self._class_map[name]

    def object(self, object_id: int) -> HeapObject:
        return self._object_map[object_id]

    def has_object(self, object_id: int) -> bool:
        return object_id in self._object_map

    def field_decls(self, cls: str) -> MappingProxyType:
        """Declared fields of a class including inherited ones (read-only, cached)."""
        decls = self._decls_cache.get(cls)
        if decls is None:
            merged: dict[str, FieldDecl] = {}
            for name in reversed(self._superclass_chain(cls)):
                for f in self._class_map[name].fields:
                    merged[f.name] = f
            decls = self._decls_cache[cls] = MappingProxyType(merged)
        return decls

    def _superclass_chain(self, cls: str, path: str = "") -> list[str]:
        """``cls`` followed by its superclasses, nearest first."""
        chain = [cls]
        seen = {cls}
        while (parent := self._class_map[chain[-1]].superclass) is not None:
            if parent in seen:
                raise SnapshotSchemaError(f"superclass chain of {cls!r} cycles through {parent!r}", path)
            chain.append(parent)
            seen.add(parent)
        return chain

    def _static_targets(self, cls: str) -> tuple:
        """Objects referenced by the statics of ``cls`` and its superclasses (cached)."""
        targets = self._statics_cache.get(cls)
        if targets is None:
            found = []
            for name in self._superclass_chain(cls):
                statics = self._class_map[name].statics
                found += _referenced_ids(statics[key] for key in sorted(statics))
            targets = self._statics_cache[cls] = tuple(found)
        return targets

    def _ensure_valid(self):
        if not self._validated:
            self.validate()

    def validate(self) -> "HeapSnapshot":
        seen_classes = set()
        for i, info in enumerate(self.classes):
            path = f"classes[{i}]"
            if info.name in RESERVED_LABELS:
                raise ReservedLabelError(info.name)
            if info.name in seen_classes:
                raise SnapshotSchemaError(f"class {info.name!r} declared twice", path)
            seen_classes.add(info.name)
            if info.superclass is not None and info.superclass not in self._class_map:
                raise SnapshotSchemaError(f"unknown superclass {info.superclass!r}", path)
            for f in info.fields:
                if f.kind not in FIELD_KINDS:
                    raise SnapshotSchemaError(f"unknown field kind {f.kind!r}", f"{path}.fields.{f.name}")
                if f.name in (UID_KEY, INSTANCEOF_LABEL):
                    raise SnapshotSchemaError(f"field name {f.name!r} is reserved", f"{path}.fields.{f.name}")
        for i, info in enumerate(self.classes):
            self._superclass_chain(info.name, f"classes[{i}]")
        for i, info in enumerate(self.classes):
            for name, value in info.statics.items():
                if name == "name":
                    raise SnapshotSchemaError(
                        "static field 'name' collides with the class-metadata name property",
                        f"classes[{i}].statics.name",
                    )
                self._check_value(value, None, ("classes", i, "statics", name))

        seen = set()
        for obj in self.objects:
            if obj.id in seen:
                raise DuplicateObjectIdError(obj.id)
            seen.add(obj.id)
        for obj in self.objects:
            if obj.cls not in self._class_map:
                raise SnapshotSchemaError(f"unknown class {obj.cls!r}", f"objects[{obj.id}]")
            decls = self.field_decls(obj.cls)
            for name, value in obj.fields.items():
                decl = decls.get(name)
                if decl is None:
                    raise SnapshotSchemaError(
                        f"field {name!r} not declared by {obj.cls!r}", f"objects[{obj.id}].fields.{name}"
                    )
                self._check_value(value, decl, ("objects", obj.id, "fields", name))
        for name, target in self.roots.items():
            if target not in self._object_map:
                raise UnknownRootError(target)
            if not isinstance(name, str) or not name:
                raise SnapshotSchemaError(f"bad root name {name!r}", "roots")
        self._validated = True
        return self

    def _check_value(self, value, decl: FieldDecl | None, where: tuple):
        """Check one field or static value against its declaration.

        ``where`` is the value's (section, index, part, name); it is formatted
        into a path such as ``objects[7].fields.next`` only on the raise paths,
        because a load checks every field.
        """
        if value is None:
            return
        if isinstance(value, Ref):
            if value.id not in self._object_map:
                raise DanglingReferenceError(value.id, _path(where))
            if decl is not None and decl.kind != "reference":
                raise SnapshotSchemaError(f"{decl.kind} field holds a reference", _path(where))
            return
        if isinstance(value, RefArray):
            for element in value.ids:
                if element is not None and element not in self._object_map:
                    raise DanglingReferenceError(element, _path(where))
            if decl is not None and decl.kind != "reference-array":
                raise SnapshotSchemaError(f"{decl.kind} field holds a reference array", _path(where))
            return
        if not isinstance(value, (bool, int, float, str)):  # the check below passes scalars without a path
            check_property_value(value, key=_path(where))
        if decl is not None and decl.kind not in ("primitive", "primitive-array"):
            raise SnapshotSchemaError(f"{decl.kind} field holds a primitive", _path(where))


def _path(where: tuple) -> str:
    section, index, part, name = where
    return f"{section}[{index}].{part}.{name}"


@dataclass(frozen=True)
class ExtractionConfig:
    """Subgraph selection controls.

    ``whitelist`` empty means no type restriction; a non-empty whitelist
    guarantees inclusion of its instances plus their reachable closure.
    ``root`` (an object id or list of ids) restricts candidates to the
    reachable closure of the roots.  ``force_collect`` drops objects
    unreachable from the snapshot's named roots before anything else.
    """

    whitelist: frozenset = frozenset()
    blacklist: frozenset = frozenset()
    root: int | list | tuple | None = None
    force_collect: bool = False

    def root_ids(self) -> list[int] | None:
        if self.root is None:
            return None
        if isinstance(self.root, (list, tuple)):
            return list(self.root)
        return [self.root]

    def validate(self) -> "ExtractionConfig":
        overlap = set(self.whitelist) & set(self.blacklist)
        if overlap:
            raise ExtractionConfigError(f"classes in both whitelist and blacklist: {sorted(overlap)}")
        return self


def _referenced_ids(values) -> list[int]:
    """Object ids held by the reference and reference-array values, in order."""
    ids = []
    for value in values:
        if isinstance(value, Ref):
            ids.append(value.id)
        elif isinstance(value, RefArray):
            ids.extend(e for e in value.ids if e is not None)
    return ids


def _reference_targets(snapshot: HeapSnapshot, obj: HeapObject) -> list[int]:
    """Objects directly referenced by ``obj``, including via its class statics."""
    targets = _referenced_ids(obj.fields[name] for name in sorted(obj.fields))
    targets.extend(snapshot._static_targets(obj.cls))
    return targets


def follow_references(snapshot: HeapSnapshot, start_ids) -> set[int]:
    """Transitive closure over reference, reference-array and static edges."""
    worklist = []
    for object_id in start_ids:
        if not snapshot.has_object(object_id):
            raise UnknownRootError(object_id)
        worklist.append(object_id)
    reached: set[int] = set()
    while worklist:
        object_id = worklist.pop()
        if object_id in reached:
            continue
        reached.add(object_id)
        for target in _reference_targets(snapshot, snapshot.object(object_id)):
            if target not in reached:
                worklist.append(target)
    return reached


def collect(snapshot: HeapSnapshot) -> HeapSnapshot:
    """Drop objects unreachable from the snapshot's named roots.

    Static references count as additional roots, mirroring a garbage
    collection over the snapshot.
    """
    seeds = set(snapshot.roots.values())
    for info in snapshot.classes:
        seeds.update(_referenced_ids(info.statics.values()))
    live = follow_references(snapshot, seeds) if seeds else set()
    return HeapSnapshot(
        classes=list(snapshot.classes),
        objects=[o for o in snapshot.objects if o.id in live],
        roots=dict(snapshot.roots),
    )


@collector_paused()
def extract(snapshot: HeapSnapshot, config: ExtractionConfig | None = None) -> PropertyGraph:
    """Translate a snapshot into a PropertyGraph under the given config.

    Per included object: one node (label = class name, properties = primitive
    and primitive-array fields plus ``$uid``), one ``instanceof`` edge to a
    per-class metadata node, one edge per non-null reference field, and one
    synthetic array node (label ``<type>[]``) per reference-array field with
    ``element`` edges carrying an ``index`` property.  Named snapshot roots
    that point at included objects become ``Local`` binder nodes.  With a
    root, and neither a whitelist nor force-collect, only the objects
    reachable from the root are visited.
    """
    config = (config or ExtractionConfig()).validate()
    snapshot._ensure_valid()
    if config.force_collect:
        snapshot = collect(snapshot)

    root_ids = config.root_ids()
    if root_ids is not None:
        for object_id in root_ids:
            if not snapshot.has_object(object_id):
                raise UnknownRootError(object_id)
        candidates = follow_references(snapshot, root_ids)
    elif config.whitelist:
        candidates = set()
    else:
        candidates = {obj.id for obj in snapshot.objects}
    if config.whitelist:
        seeds = [o.id for o in snapshot.objects if o.cls in config.whitelist]
        candidates |= follow_references(snapshot, seeds)

    included = [obj for obj in map(snapshot.object, sorted(candidates)) if obj.cls not in config.blacklist]
    included_ids = {o.id for o in included}

    graph = PropertyGraph()
    node_of: dict[int, int] = {}
    class_nodes: dict[str, int] = {}

    def class_node(cls: str) -> int:
        if cls not in class_nodes:
            info = snapshot.class_info(cls)
            props = {"name": cls}
            for name in sorted(info.statics):
                value = info.statics[name]
                if not isinstance(value, (Ref, RefArray)):
                    props[name] = value
            class_nodes[cls] = graph.add_node(CLASS_LABEL, props)
        return class_nodes[cls]

    for obj in included:
        props = {UID_KEY: obj.id}
        for name, value in obj.fields.items():
            if value is None or isinstance(value, (Ref, RefArray)):
                continue
            props[name] = value
        node_of[obj.id] = graph.add_node(obj.cls, props)
        graph.add_relationship(INSTANCEOF_LABEL, node_of[obj.id], class_node(obj.cls))

    for obj in included:
        for name, decl in snapshot.field_decls(obj.cls).items():
            value = obj.fields.get(name)
            if isinstance(value, Ref):
                if value.id in included_ids:
                    graph.add_relationship(name, node_of[obj.id], node_of[value.id])
            elif isinstance(value, RefArray):
                array_node = graph.add_node(f"{decl.type}[]")
                graph.add_relationship(name, node_of[obj.id], array_node)
                for index, element in enumerate(value.ids):
                    if element is not None and element in included_ids:
                        graph.add_relationship(ELEMENT_LABEL, array_node, node_of[element], {"index": index})

    # Static reference fields hang off the class-metadata node.
    for cls, cnode in sorted(class_nodes.items()):
        info = snapshot.class_info(cls)
        for name in sorted(info.statics):
            value = info.statics[name]
            if isinstance(value, Ref):
                if value.id in included_ids:
                    graph.add_relationship(name, cnode, node_of[value.id])
            elif isinstance(value, RefArray):
                array_node = graph.add_node("java.lang.Object[]")
                graph.add_relationship(name, cnode, array_node)
                for index, element in enumerate(value.ids):
                    if element is not None and element in included_ids:
                        graph.add_relationship(ELEMENT_LABEL, array_node, node_of[element], {"index": index})

    for name in sorted(snapshot.roots):
        target = snapshot.roots[name]
        if target in included_ids:
            binder = graph.add_node(LOCAL_LABEL)
            graph.add_relationship(name, binder, node_of[target])

    return graph
