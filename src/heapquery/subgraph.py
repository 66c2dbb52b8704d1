"""Heap snapshots and the graphs extracted from them.

A HeapSnapshot is a self-contained description of classes, objects,
reference fields and named roots.  ``extract`` selects objects by a
reachability root, a whitelist (classes whose instances are always included,
together with everything reachable from them), a blacklist (classes whose
instances are excluded everywhere) and a force-collect pass that drops
unreachable objects first.  It returns a SnapshotGraph, a PropertyGraph that
queries the snapshot in place: ``extract`` computes the selected objects and
the id of every node and relationship, which costs O(reachable objects) for a
bounded extraction, and a node or relationship is built only when a caller
first touches it.  The snapshot keeps that numbering per extraction key, and
the graph reads share (``shared_graph``), so the same roots share them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import wraps
from itertools import chain
from types import MappingProxyType
from typing import Iterator, NamedTuple

from .errors import (
    DanglingReferenceError,
    DuplicateObjectIdError,
    ExtractionConfigError,
    NodeNotFoundError,
    RelationshipNotFoundError,
    ReservedLabelError,
    SnapshotSchemaError,
    UnknownRootError,
)
from .property_graph import (
    ARRAY_SUFFIX,
    CLASS_LABEL,
    CLASS_NAME_KEY,
    ELEMENT_INDEX_KEY,
    ELEMENT_LABEL,
    INSTANCEOF_LABEL,
    LOCAL_LABEL,
    RESERVED_LABELS,
    SCALAR_TYPES,
    UID_KEY,
    Node,
    PropertyGraph,
    Relationship,
    check_property_value,
    collector_paused,
)

FIELD_KINDS = ("reference", "primitive", "primitive-array", "reference-array")


@dataclass(frozen=True, slots=True)
class Ref:
    """A reference-field value pointing at another object."""

    id: int


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
    validation result, the per-class caches and the numberings and shared
    graphs kept per root set (see ``extract``) are computed only once.
    """

    classes: list
    objects: list
    roots: dict

    def __post_init__(self):
        # validate refuses the classes and objects these maps leave out
        self._class_map = {c.name: c for c in self.classes if _is_name(c.name)}
        self._object_map = {o.id: o for o in self.objects if _is_id(o.id)}
        self._validated = False
        self._decls_cache: dict[str, MappingProxyType] = {}
        self._plans: dict[str, _ClassPlan] = {}
        self._roots_of: dict[int, list[str]] | None = None
        self._kept: dict[tuple, list] = {}  # ExtractionConfig.key() -> ``_numbered`` entry, least recently used first

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

    def _plan(self, cls: str) -> "_ClassPlan":
        """What extraction reads of the instances of ``cls`` (cached)."""
        plan = self._plans.get(cls)
        if plan is None:
            refs = tuple(
                (decl.name, decl.type + ARRAY_SUFFIX if decl.kind == "reference-array" else None)
                for decl in self.field_decls(cls).values()
                if decl.kind in ("reference", "reference-array")
            )
            statics = []
            for name in self._superclass_chain(cls):
                statics += _referenced_ids(self._class_map[name].statics.values())
            plan = self._plans[cls] = _ClassPlan(refs, tuple(statics))
        return plan

    def _root_names(self) -> dict[int, list[str]]:
        """Object id -> the names of the roots that point at it (cached)."""
        if self._roots_of is None:
            roots_of: dict[int, list[str]] = {}
            for name, target in self.roots.items():
                roots_of.setdefault(target, []).append(name)
            self._roots_of = roots_of
        return self._roots_of

    def _ensure_valid(self):
        if not self._validated:
            self.validate()

    def validate(self) -> "HeapSnapshot":
        """Check the snapshot and raise its first fault, a ``HeapQueryError``.

        ``load_snapshot`` calls this on the snapshot it decodes, so a loaded
        and a hand-built snapshot are checked alike.
        """
        self._check_classes()
        self._check_values()
        for name, target in self.roots.items():
            if not _is_id(target) or target not in self._object_map:
                raise UnknownRootError(target)
            if not isinstance(name, str) or not name:
                raise SnapshotSchemaError(f"bad root name {name!r}", "roots")
        self._root_names()
        self._validated = True
        return self

    def _check_values(self):
        """Each static value, the object ids, then the class and each field value of every object."""
        for i, info in enumerate(self.classes):
            for name, value in info.statics.items():
                self._check_value(value, None, ("classes", i, "statics", name))

        objects = self._object_map
        # The map holds integer ids only, each once: it is shorter when an id is not one or repeats.
        if len(objects) != len(self.objects):
            seen = set()
            for i, obj in enumerate(self.objects):
                if not _is_id(obj.id):
                    raise SnapshotSchemaError(f"object id must be an integer, got {obj.id!r}", f"objects[{i}]")
                if obj.id in seen:
                    raise DuplicateObjectIdError(obj.id)
                seen.add(obj.id)
        kinds_of = {cls: {name: decl.kind for name, decl in self.field_decls(cls).items()} for cls in self._class_map}
        for i, obj in enumerate(self.objects):
            kinds = kinds_of.get(obj.cls) if isinstance(obj.cls, str) else None
            if kinds is None:
                raise SnapshotSchemaError(f"unknown class {obj.cls!r}", f"objects[{i}]")
            if not isinstance(obj.fields, dict):
                raise SnapshotSchemaError("fields must be an object", f"objects[{i}].fields")
            for name, value in obj.fields.items():
                kind = kinds.get(name)
                # The most common values pass here; ``_check_value`` checks the others.
                if kind == "reference":
                    if value is None or type(value) is Ref and type(value.id) is int and value.id in objects:
                        continue
                elif kind == "primitive":
                    if isinstance(value, SCALAR_TYPES):
                        continue
                elif kind is None:
                    raise SnapshotSchemaError(
                        f"field {name!r} not declared by {obj.cls!r}", f"objects[{i}].fields.{name}"
                    )
                self._check_value(value, kind, ("objects", i, "fields", name))

    def _check_classes(self):
        """The checks of ``validate`` that read nothing but the classes: names,
        field declarations, superclass chains and static names."""
        seen_classes = set()
        for i, info in enumerate(self.classes):
            path = f"classes[{i}]"
            if not _is_name(info.name):
                raise SnapshotSchemaError(f"class name must be a non-empty string, got {info.name!r}", path)
            if info.name in RESERVED_LABELS:
                raise ReservedLabelError(info.name)
            if info.name in seen_classes:
                raise SnapshotSchemaError(f"class {info.name!r} declared twice", path)
            seen_classes.add(info.name)
            superclass = info.superclass
            if superclass is not None and (not isinstance(superclass, str) or superclass not in self._class_map):
                raise SnapshotSchemaError(f"unknown superclass {superclass!r}", path)
            if not isinstance(info.fields, (list, tuple)):
                raise SnapshotSchemaError("fields must be a list", f"{path}.fields")
            if not isinstance(info.statics, dict):
                raise SnapshotSchemaError("statics must be an object", f"{path}.statics")
            for j, f in enumerate(info.fields):
                if not isinstance(f, FieldDecl):
                    raise SnapshotSchemaError("field declarations need name/kind/type", f"{path}.fields[{j}]")
                if not _is_name(f.name):
                    raise SnapshotSchemaError(f"field name must be a non-empty string, got {f.name!r}", f"{path}.fields[{j}]")
                if f.kind not in FIELD_KINDS:
                    raise SnapshotSchemaError(f"unknown field kind {f.kind!r}", f"{path}.fields.{f.name}")
                if not _is_name(f.type):
                    raise SnapshotSchemaError(f"field type must be a non-empty string, got {f.type!r}", f"{path}.fields.{f.name}")
                if f.name in (UID_KEY, INSTANCEOF_LABEL):
                    raise SnapshotSchemaError(f"field name {f.name!r} is reserved", f"{path}.fields.{f.name}")
        for i, info in enumerate(self.classes):
            self._superclass_chain(info.name, f"classes[{i}]")
        for i, info in enumerate(self.classes):
            for name in info.statics:
                if not _is_name(name):
                    raise SnapshotSchemaError(f"static name must be a non-empty string, got {name!r}", f"classes[{i}].statics")
                if name == UID_KEY:
                    raise SnapshotSchemaError(f"static name {name!r} is reserved", f"classes[{i}].statics.{name}")
                if name == CLASS_NAME_KEY:
                    raise SnapshotSchemaError(
                        "static field 'name' collides with the class-metadata name property",
                        f"classes[{i}].statics.name",
                    )

    def _check_value(self, value, kind: str | None, where: tuple):
        """Check one field or static value against the kind of its field (None for a static).

        ``where`` is the value's (section, position in it, part, name); it is formatted
        into a path such as ``objects[7].fields.next`` only on the raise paths,
        because ``validate`` checks every field of a hand-built snapshot.
        """
        if value is None:
            return
        if isinstance(value, Ref):
            if not _is_id(value.id) or value.id not in self._object_map:
                raise DanglingReferenceError(value.id, _path(where))
            if kind is not None and kind != "reference":
                raise SnapshotSchemaError(f"{kind} field holds a reference", _path(where))
            return
        if isinstance(value, RefArray):
            for element in value.ids:
                if element is not None and (not _is_id(element) or element not in self._object_map):
                    raise DanglingReferenceError(element, _path(where))
            if kind is not None and kind != "reference-array":
                raise SnapshotSchemaError(f"{kind} field holds a reference array", _path(where))
            return
        if not isinstance(value, SCALAR_TYPES):  # the check below passes scalars without a path
            check_property_value(value, key=_path(where))
        if kind is not None and kind not in ("primitive", "primitive-array"):
            raise SnapshotSchemaError(f"{kind} field holds a primitive", _path(where))


def _is_name(name) -> bool:
    """True for a usable class, field, type or static name: a non-empty string.

    These names become node labels, relationship labels and property keys.
    """
    return isinstance(name, str) and name != ""


def _is_id(value) -> bool:
    """True for an object id: an integer, and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _path(where: tuple) -> str:
    section, index, part, name = where
    return f"{section}[{index}].{part}.{name}"


@dataclass(frozen=True)
class ExtractionConfig:
    """Subgraph selection controls.

    ``whitelist`` empty means no type restriction; a non-empty whitelist
    guarantees inclusion of its instances plus their reachable closure.
    ``root`` (an integer object id or a list or tuple of them) restricts
    candidates to the reachable closure of the roots.  ``force_collect``
    drops objects unreachable from the snapshot's named roots before
    anything else.
    """

    whitelist: frozenset = frozenset()
    blacklist: frozenset = frozenset()
    root: int | list | tuple | None = None
    force_collect: bool = False

    def validate(self) -> "ExtractionConfig":
        if isinstance(self.whitelist, (str, bytes)) or isinstance(self.blacklist, (str, bytes)):  # ``in`` tests substrings
            raise ExtractionConfigError("whitelist and blacklist take a collection of class names, not a string")
        with_root((), self.root)  # checks the root ids
        overlap = set(self.whitelist) & set(self.blacklist)
        if overlap:
            raise ExtractionConfigError(f"classes in both whitelist and blacklist: {sorted(overlap)}")
        return self

    def key(self) -> tuple:
        """(root ids as a frozenset or None, whitelist, blacklist, force_collect) of a valid config.

        Configs with equal keys extract the same graph: the order and
        repetition of root ids do not matter.  Raises ExtractionConfigError
        for an invalid config.
        """
        self.validate()
        settings = (None, frozenset(self.whitelist), frozenset(self.blacklist), bool(self.force_collect))
        return with_root(settings, self.root)


def with_root(key: tuple, root) -> tuple:
    """``key``, an ``ExtractionConfig.key()``, with the ids of ``root`` (as ``ExtractionConfig.root`` takes them);
    raises ExtractionConfigError for a root id that is not an integer."""
    if root is None:
        return (None, *key[1:])
    roots = root if isinstance(root, (list, tuple)) else (root,)
    for object_id in roots:
        if not _is_id(object_id):
            raise ExtractionConfigError(f"root ids must be integers, got {object_id!r}")
    return (frozenset(roots), *key[1:])


class _ClassPlan(NamedTuple):
    """The reference fields of a class and the objects its statics reference.

    ``refs`` holds ``(name, array_label)`` per reference and reference-array
    field, in declaration order (inherited fields first); ``array_label`` is
    ``<type>[]`` for a reference array and None for a reference.  ``statics``
    are the ids held by the statics of the class and its superclasses.
    """

    refs: tuple
    statics: tuple


def _referenced_ids(values) -> list[int]:
    """Object ids held by the reference and reference-array values, in order."""
    ids = []
    for value in values:
        if isinstance(value, Ref):
            ids.append(value.id)
        elif isinstance(value, RefArray):
            ids.extend(e for e in value.ids if e is not None)
    return ids


def follow_references(snapshot: HeapSnapshot, start_ids) -> set[int]:
    """Transitive closure over reference, reference-array and static edges."""
    objects = snapshot._object_map
    worklist = []
    for object_id in start_ids:
        if object_id not in objects:
            raise UnknownRootError(object_id)
        worklist.append(object_id)
    reached: set[int] = set()
    classes: set[str] = set()  # statics are shared by every instance of a class
    plans = snapshot._plans
    while worklist:
        object_id = worklist.pop()
        if object_id in reached:
            continue
        reached.add(object_id)
        obj = objects[object_id]
        fields = obj.fields
        refs, statics = plans.get(obj.cls) or snapshot._plan(obj.cls)
        for name, _ in refs:
            value = fields.get(name)
            if isinstance(value, Ref):
                worklist.append(value.id)
            elif isinstance(value, RefArray):
                worklist.extend(e for e in value.ids if e is not None)
        if obj.cls not in classes:
            classes.add(obj.cls)
            worklist.extend(statics)
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
def extract(snapshot: HeapSnapshot, config: ExtractionConfig | None = None) -> "SnapshotGraph":
    """Translate a snapshot into a property graph under the given config.

    Per included object: one node (label = class name, properties = primitive
    and primitive-array fields plus ``$uid``), one ``instanceof`` edge to a
    per-class metadata node, one edge per non-null reference field, and one
    synthetic array node (label ``<type>[]``) per reference-array field with
    ``element`` edges carrying an ``index`` property.  Named snapshot roots
    that point at included objects become ``Local`` binder nodes.  With a
    root, and neither a whitelist nor force-collect, only the objects
    reachable from the root are visited.

    The graph is a SnapshotGraph: nodes and relationships are built when
    first touched.  What this call computes, the included objects and the id
    of every node and relationship, is kept on the snapshot under
    ``config.key()``, so a later call with the same key (the same root set,
    in any order) reuses it instead of visiting the objects again.  Every
    call returns a new graph, so writes on one graph are not seen by
    another.  The kept numberings hold at most ``len(snapshot.objects)``
    included objects, plus the one used last, which stays; the others are
    dropped least recently used first.
    """
    return SnapshotGraph(_entry(snapshot, (config or ExtractionConfig()).key())[0])


def shared_graph(snapshot: HeapSnapshot, key: tuple, fill: bool = False) -> "SnapshotGraph":
    """The graph that reads of ``key`` (an ``ExtractionConfig.key()``) share, made on first use and kept
    with its numbering; ``fill`` fills it.  The query pipeline calls this with the collector paused."""
    entry = _entry(snapshot, key)
    if entry[1] is None:
        entry[1] = SnapshotGraph(entry[0])
    return entry[1].fill() if fill and not entry[1]._filled else entry[1]


def _entry(snapshot: HeapSnapshot, key: tuple) -> list:
    """The kept entry ``[numbering, shared graph or None]`` of ``key``, now the most recently used.

    A missing one is numbered, and the least recently used are dropped first.
    """
    kept = snapshot._kept
    entry = kept.pop(key, None)
    if entry is None:
        snapshot._ensure_valid()
        entry = [_number(snapshot, _select(snapshot, key)), None]
        held = sum(len(numbering.included) for numbering, _ in kept.values()) + len(entry[0].included)
        while held > len(snapshot.objects) and len(kept) > 1:  # the last, used before this one, stays
            held -= len(kept.pop(next(iter(kept)))[0].included)
    kept[key] = entry  # the most recently used come last
    return entry


def _select(snapshot: HeapSnapshot, key: tuple) -> list[HeapObject]:
    """The objects the extraction of ``key`` (an ``ExtractionConfig.key()``) includes, ascending by id."""
    roots, whitelist, blacklist, force_collect = key
    if force_collect:
        snapshot = collect(snapshot)
    if roots is not None:
        candidates = follow_references(snapshot, roots)
    elif whitelist:
        candidates = set()
    else:
        candidates = {obj.id for obj in snapshot.objects}
    if whitelist:
        seeds = [o.id for o in snapshot.objects if o.cls in whitelist]
        candidates |= follow_references(snapshot, seeds)
    return [obj for obj in map(snapshot.object, sorted(candidates)) if obj.cls not in blacklist]


class _Numbering(NamedTuple):
    """The ids of one extraction, shared by every graph extracted with its key.

    Nothing here changes after ``_number`` returns.  It holds no reference
    to the snapshot that keeps it, so a dropped snapshot leaves no cycle.
    ``slots`` maps an object or class node id to a position in ``included``
    (an object) or a class name (its node); ``by_class`` lists the object
    node ids of each class, ascending.  Object i owns the field edges
    numbered from ``len(included) + rel_starts[i]`` and the array nodes
    from ``first_array + array_starts[i]`` up to the next object's.
    ``tail_nodes`` are the labels of the static array and binder nodes, and
    ``tail_rels`` the ``(label, start, end, properties)`` of their edges;
    each graph builds its own copy of those property maps.  ``refs`` and
    ``statics`` map each class to its ``_ClassPlan.refs`` and statics.
    """

    included: list
    node_of: dict
    slots: list
    class_nodes: dict
    by_class: dict
    rel_starts: list
    array_starts: list
    first_array: int
    first_tail_node: int
    first_tail_rel: int
    tail_nodes: list
    tail_rels: list
    refs: dict
    statics: dict


def _number(snapshot: HeapSnapshot, included: list[HeapObject]) -> _Numbering:
    """Number the nodes and relationships of the graph of ``included`` (see SnapshotGraph).

    A collected snapshot has the classes and roots of the one it came from,
    so ``snapshot`` is the one ``extract`` was given also under force-collect.
    """
    # Object and class nodes come first.
    node_of: dict[int, int] = {}
    slots: list = []
    class_nodes: dict[str, int] = {}
    by_class: dict[str, list[int]] = {}
    for i, obj in enumerate(included):
        node_id = node_of[obj.id] = len(slots)
        slots.append(i)
        if obj.cls not in class_nodes:
            class_nodes[obj.cls] = len(slots)
            slots.append(obj.cls)
            by_class[obj.cls] = []
        by_class[obj.cls].append(node_id)
    refs = {cls: snapshot._plan(cls).refs for cls in class_nodes}
    statics = {cls: snapshot.class_info(cls).statics for cls in class_nodes}
    rel_starts = [0]
    array_starts = [0]
    rels = arrays = 0
    for obj in included:
        fields = obj.fields
        for name, array_label in refs[obj.cls]:
            value = fields.get(name)
            if value is None:
                continue
            if array_label is None:
                rels += value.id in node_of
            else:
                arrays += 1
                rels += 1 + sum(1 for element in value.ids if element in node_of)
        rel_starts.append(rels)
        array_starts.append(arrays)

    # Then the static arrays per class by name, and the binders by root name.
    first_tail_node = len(slots) + arrays
    labels: list[str] = []
    edges: list[tuple] = []
    for cls in sorted(class_nodes):
        class_node = class_nodes[cls]
        for name, value in sorted(statics[cls].items()):
            if isinstance(value, Ref):
                if value.id in node_of:
                    edges.append((name, class_node, node_of[value.id], {}))
            elif isinstance(value, RefArray):
                array_node = first_tail_node + len(labels)
                labels.append("java.lang.Object" + ARRAY_SUFFIX)
                edges.append((name, class_node, array_node, {}))
                for index, element in enumerate(value.ids):
                    if element in node_of:
                        edges.append((ELEMENT_LABEL, array_node, node_of[element], {ELEMENT_INDEX_KEY: index}))
    roots_of = snapshot._root_names()
    # The key-view intersection walks the smaller side: O(min(root targets, included)).
    binders = sorted((name, target) for target in roots_of.keys() & node_of.keys() for name in roots_of[target])
    for name, target in binders:
        binder = first_tail_node + len(labels)
        labels.append(LOCAL_LABEL)
        edges.append((name, binder, node_of[target], {}))
    return _Numbering(
        included, node_of, slots, class_nodes, by_class, rel_starts, array_starts,
        len(slots), first_tail_node, len(included) + rels, labels, edges, refs, statics,
    )


def _filled_first(method):
    """``method`` of PropertyGraph, run after the SnapshotGraph is filled."""

    @wraps(method)
    def filled(self, *args, **kwargs):
        if not self._filled:
            self.fill()
        return method(self, *args, **kwargs)

    return filled


class SnapshotGraph(PropertyGraph):
    """The graph ``extract`` returns: numbered up front, built on first touch.

    Ids are those of a graph built in this order: each included object in
    ascending object id, its class-metadata node right after the first
    object of its class, and its ``instanceof`` edge (whose id is the
    object's position in the included list); then per object, its field
    edges and reference-array nodes with their ``element`` edges, in field
    declaration order; then per class (by name), its static reference edges
    and arrays (by static name); then the ``Local`` binders by root name.
    The numbering, all the graph reads of the snapshot, is shared with the
    other graphs of the key; the nodes and relationships are this graph's own.

    Built on demand, without filling the graph: ``node``, ``relationship``,
    ``neighbors(..., "out")`` (a node's outgoing edges, and for a reference
    array field also the array node and its ``element`` edges),
    ``nodes_with_uid``, and ``node_ids_with_label`` (which builds no node),
    ``nodes_with_label`` and ``equal_nodes`` for a label only objects carry.
    ``add_node`` without an explicit id and ``add_relationship`` append above
    the numbered range without filling (building only the new edge's
    endpoints and the start's outgoing edges), and the lookups above find the
    nodes they add.  Every
    other method first fills the graph (``fill``), and from then on the
    graph behaves exactly like a PropertyGraph, with the same ids and
    adjacency as if it had been filled before the writes.  Nodes and
    relationships built before the fill are kept, so their identity does not
    change.  ``node_count``, ``relationship_count``, ``structural_key`` and
    ``traversal_memo`` never fill.

    The snapshot was validated, so nothing built here is checked again.
    ``$uid`` lookups before the fill read the numbering: an in-place change
    of a node's ``$uid`` is not seen by them.
    """

    def __init__(self, numbering: _Numbering):
        super().__init__()
        self._numbering = numbering
        self._filled = False
        self._tail_built = False
        self._next_node_id = numbering.first_tail_node + len(numbering.tail_nodes)
        self._next_rel_id = numbering.first_tail_rel + len(numbering.tail_rels)
        # Until the fill, the label and ``$uid`` indexes hold only the nodes
        # ``add_node`` appended; the numbering finds the others.
        self._by_label = {}
        self._by_uid = {}

    # -- building -------------------------------------------------------------

    def _build_slot(self, node_id: int) -> Node:
        """Build the object or class-metadata node ``node_id``."""
        numbering = self._numbering
        slot = numbering.slots[node_id]
        if slot.__class__ is int:
            obj = numbering.included[slot]
            props = {UID_KEY: obj.id}
            for name, value in obj.fields.items():
                if value is not None and not isinstance(value, (Ref, RefArray)):
                    props[name] = list(value) if value.__class__ is list else value  # the snapshot's stays unchanged
            node = Node(node_id, obj.cls, props)
        else:
            props = {CLASS_NAME_KEY: slot}
            for name, value in sorted(self._numbering.statics[slot].items()):
                if value is not None and not isinstance(value, (Ref, RefArray)):
                    props[name] = list(value) if value.__class__ is list else value
            node = Node(node_id, CLASS_LABEL, props)
        self._nodes[node_id] = node
        return node

    def _build_object(self, i: int) -> None:
        """Build the outgoing edges of object ``i``, its array nodes and their edges."""
        numbering = self._numbering
        obj = numbering.included[i]
        node_of = numbering.node_of
        start = node_of[obj.id]
        nodes, rels, out = self._nodes, self._rels, self._out
        if start in out:
            return
        if start not in nodes:
            self._build_slot(start)
        end = numbering.class_nodes[obj.cls]
        if end not in nodes:
            self._build_slot(end)
        rels[i] = Relationship(i, INSTANCEOF_LABEL, start, end, {})
        own = out[start] = [i]
        rel_id = len(numbering.included) + numbering.rel_starts[i]
        array_id = numbering.first_array + numbering.array_starts[i]
        for name, array_label in numbering.refs[obj.cls]:
            value = obj.fields.get(name)
            if value is None:
                continue
            if array_label is None:
                end = node_of.get(value.id)
                if end is not None:
                    if end not in nodes:
                        self._build_slot(end)
                    rels[rel_id] = Relationship(rel_id, name, start, end, {})
                    own.append(rel_id)
                    rel_id += 1
                continue
            nodes[array_id] = Node(array_id, array_label, {})
            rels[rel_id] = Relationship(rel_id, name, start, array_id, {})
            own.append(rel_id)
            rel_id += 1
            elements = out[array_id] = []
            for index, element in enumerate(value.ids):
                end = node_of.get(element)
                if end is not None:
                    if end not in nodes:
                        self._build_slot(end)
                    rels[rel_id] = Relationship(rel_id, ELEMENT_LABEL, array_id, end, {ELEMENT_INDEX_KEY: index})
                    elements.append(rel_id)
                    rel_id += 1
            array_id += 1

    def _build_tail(self) -> None:
        """Build the static and binder nodes and edges, with the class nodes they leave."""
        if self._tail_built:
            return
        numbering = self._numbering
        nodes, rels, out = self._nodes, self._rels, self._out
        for class_node in numbering.class_nodes.values():
            if class_node not in nodes:
                self._build_slot(class_node)
            out[class_node] = []
        for node_id, label in enumerate(numbering.tail_nodes, numbering.first_tail_node):
            nodes[node_id] = Node(node_id, label, {})
            out[node_id] = []
        for rel_id, (label, start, end, props) in enumerate(numbering.tail_rels, numbering.first_tail_rel):
            if end not in nodes:
                self._build_slot(end)
            rels[rel_id] = Relationship(rel_id, label, start, end, dict(props))
            out[start].append(rel_id)
        self._tail_built = True

    def _build_out(self, node_id: int) -> None:
        """Build the outgoing edges of ``node_id``, with what is built alongside them."""
        numbering = self._numbering
        if node_id < numbering.first_array:
            slot = numbering.slots[node_id]
            if slot.__class__ is int:
                self._build_object(slot)
            else:
                self._build_tail()
        elif node_id < numbering.first_tail_node:
            self._build_object(bisect_right(numbering.array_starts, node_id - numbering.first_array) - 1)
        else:
            self._build_tail()

    def _ensure_out(self, node_id: int) -> None:
        """Build ``node_id`` and its outgoing edges unless they are built; raises for an unknown id."""
        if node_id not in self._out:
            self.node(node_id)
            self._build_out(node_id)

    @collector_paused()
    def fill(self) -> "SnapshotGraph":
        """Build every node and relationship now, in ascending id order.

        Nodes and relationships built or added earlier are kept.  Returns the
        graph; a filled graph is left as it is.
        """
        if self._filled:
            return self
        for i in range(len(self._numbering.included)):  # builds every object and class node too
            self._build_object(i)
        self._build_tail()
        nodes = self._nodes
        self._nodes = {node_id: nodes[node_id] for node_id in range(self._next_node_id)}
        rels = self._rels
        self._rels = {rel_id: rels[rel_id] for rel_id in range(self._next_rel_id)}
        incoming = self._in = {node_id: [] for node_id in self._nodes}
        for rel in self._rels.values():
            incoming[rel.end].append(rel.id)
        self._filled = True
        # A filled graph builds its label and ``$uid`` indexes from every node when first used.
        self._by_label = self._by_uid = None
        return self

    # -- PropertyGraph surface --------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._nodes) if self._filled else self._next_node_id

    @property
    def relationship_count(self) -> int:
        return len(self._rels) if self._filled else self._next_rel_id

    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            if self._filled or not isinstance(node_id, int) or not 0 <= node_id < self._next_node_id:
                raise NodeNotFoundError(node_id) from None
        if node_id < self._numbering.first_array:
            return self._build_slot(node_id)
        self._build_out(node_id)
        return self._nodes[node_id]

    def relationship(self, rel_id: int) -> Relationship:
        rel = self._rels.get(rel_id)
        if rel is None:
            if self._filled or not isinstance(rel_id, int) or not 0 <= rel_id < self._next_rel_id:
                raise RelationshipNotFoundError(rel_id)
            numbering = self._numbering
            objects = len(numbering.included)  # the ids of the ``instanceof`` edges
            if rel_id < objects:
                self._build_object(rel_id)
            elif rel_id < numbering.first_tail_rel:
                self._build_object(bisect_right(numbering.rel_starts, rel_id - objects) - 1)
            else:
                self._build_tail()
            rel = self._rels[rel_id]
        return rel

    def neighbors(self, node_id: int, direction: str = "out", types=None) -> list[tuple[Relationship, Node]]:
        if not self._filled:
            if direction != "out":
                self.fill()
            else:
                self._ensure_out(node_id)
        return PropertyGraph.neighbors(self, node_id, direction, types)

    def nodes_with_uid(self, uid: int) -> Iterator[Node]:
        if self._filled:
            return PropertyGraph.nodes_with_uid(self, uid)
        node_id = self._numbering.node_of.get(uid)
        numbered = () if node_id is None else (node_id,)
        return map(self.node, chain(numbered, tuple(self._by_uid.get(uid, ()))))

    def node_ids_with_label(self, label: str) -> list[int]:
        if not self._filled:
            # Of the numbered nodes, only object nodes carry a label that is
            # not reserved and does not end in "[]" (the array labels); they
            # are listed per class.  Nodes added since are in the label index.
            if isinstance(label, str) and label not in RESERVED_LABELS and not label.endswith(ARRAY_SUFFIX):
                return self._numbering.by_class.get(label, []) + self._by_label.get(label, [])
            self.fill()
        return PropertyGraph.node_ids_with_label(self, label)

    def add_node(self, label: str, properties: dict | None = None, *, node_id: int | None = None) -> int:
        if node_id is not None and not self._filled:
            self.fill()
        return PropertyGraph.add_node(self, label, properties, node_id=node_id)

    def add_relationship(self, label: str, start: int, end: int, properties: dict | None = None) -> int:
        if not self._filled:
            self._ensure_out(start)  # built first, so the new edge goes after its numbered ones
            self.node(end)
            self._in.setdefault(end, [])  # ``fill`` rebuilds the incoming lists; nothing reads them before
        return PropertyGraph.add_relationship(self, label, start, end, properties)

    nodes = _filled_first(PropertyGraph.nodes)
    relationships = _filled_first(PropertyGraph.relationships)
    relationships_with_label = _filled_first(PropertyGraph.relationships_with_label)
    remove_relationship = _filled_first(PropertyGraph.remove_relationship)
    set_field_edge = _filled_first(PropertyGraph.set_field_edge)
    copy = _filled_first(PropertyGraph.copy)
    audit = _filled_first(PropertyGraph.audit)
