"""Directed labeled multigraph with typed property maps.

Nodes and relationships carry a single label and a map from string keys to
typed values (64-bit int, float, bool, str, or a homogeneous list of those).
Parallel edges and self-loops are allowed.  Ids are dense non-negative
integers assigned in creation order, and every iteration surface is ordered
by ascending id so downstream consumers are deterministic without sorting.

Costs: ``nodes()`` sorts only after ``add_node(node_id=...)`` inserted an id
below an existing one; ``relationships()`` never sorts, because relationship
ids only grow and removal keeps the order of the rest; ``neighbors()``
returns the adjacency lists, which are kept in ascending relationship id,
without sorting (``both`` merges the two lists).  ``node_ids_with_label``,
``nodes_with_label``, ``nodes_with_uid`` and ``relationships_with_label``
cost O(matches): each reads an index that is built on its first lookup and
from then on kept up to date by ``add_node`` (node indexes),
``add_relationship`` and ``remove_relationship`` (the relationship label
index) and ``copy``.  The lookups iterate a copy of the index list, so a
caller may add nodes or relationships while it iterates.

For the query planner the graph also keeps an equality index.
``equal_nodes`` reads it; it maps each node's ``structural_key`` (what
``equals`` compares) to ascending ids, is built one label at a time on first
use and is kept by ``add_node`` and ``copy``.  ``structural_key`` computes a
node's key once and keeps it.

The graph also keeps what the query engine learns about its shape, for as
long as its relationships do not change: per pair (direction, relationship
types), each node's ``neighbors`` list and each node's strongly connected
component (``traversal_memo``).  ``add_relationship`` and
``remove_relationship`` drop it, so ``set_field_edge`` and every write of
``subgraph.SnapshotGraph`` do too; ``add_node`` keeps it, since a new node
changes no kept list or component, and ``copy`` starts without it.
``audit()`` compares it with a recomputation.

The ``$uid`` contract: set ``$uid`` through ``add_node``, or in place on
``Node.properties`` before the graph is first queried.  An in-place change
after the index was built is not seen by it (``audit()`` reports it).  The
same holds for other properties and the equality index and kept keys, which
ignore ``$uid``.  The graphs ``extract`` returns read ``$uid`` lookups from
their snapshot until they are filled (see ``subgraph.SnapshotGraph``).
"""

from __future__ import annotations

import functools
import gc
import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Iterator

from .errors import (
    InvalidLabelError,
    InvalidPropertyError,
    NodeNotFoundError,
    RelationshipNotFoundError,
    ReservedLabelError,
)

# Node property key holding an object's unique heap identifier.  The key is
# identity metadata: the query-level equals() builtin ignores it.
UID_KEY = "$uid"

# Labels that may not name user classes.
LOCAL_LABEL = "Local"
CLASS_LABEL = "Class"
RESERVED_LABELS = frozenset({LOCAL_LABEL, CLASS_LABEL})

# Relationship labels of heap graphs: object -> its class node, and
# reference-array node -> element.
INSTANCEOF_LABEL = "instanceof"
ELEMENT_LABEL = "element"

# Property keys of heap graphs: a class node's class name, and an element
# edge's position in its array.  An array node's label is its element type
# followed by ARRAY_SUFFIX.
CLASS_NAME_KEY = "name"
ELEMENT_INDEX_KEY = "index"
ARRAY_SUFFIX = "[]"

# The types of a primitive property value, and of a primitive-array element.
SCALAR_TYPES = (bool, int, float, str)


class collector_paused:
    """Keep CPython's cyclic garbage collector from running inside the block.

    Used as ``@collector_paused()`` on calls that keep objects alive in
    numbers that scale with the heap (snapshot loading and saving, graph to
    snapshot, extraction, CSV import, the query pipeline).  Their objects hold
    no reference cycles, so a collection that runs inside them only rescans
    live objects.  The collector is
    re-enabled on exit only if it was enabled on entry, so nested calls
    restore it once, at the outermost one, and a caller that disabled it
    keeps it disabled.  The switch is process-wide (see README
    "Concurrency").  A plain class, not a generator-based context manager:
    the query pipeline enters it on every call.  A decorated function enters
    a new one on each call, so it may be re-entered.
    """

    __slots__ = ("was_enabled",)

    def __enter__(self):
        self.was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, kind, exc, traceback):
        if self.was_enabled:
            gc.enable()

    def __call__(self, fn):
        @functools.wraps(fn)
        def paused(*args, **kwargs):
            with collector_paused():
                return fn(*args, **kwargs)

        return paused


def check_label(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise InvalidLabelError(f"label must be a non-empty string, got {label!r}")
    return label


def ensure_user_label(label: str) -> str:
    """Validate a label that names a user class (rejects ``Local``/``Class``)."""
    check_label(label)
    if label in RESERVED_LABELS:
        raise ReservedLabelError(label)
    return label


def check_property_value(value, *, key: str = ""):
    """Validate one property value; returns the value unchanged."""
    if isinstance(value, SCALAR_TYPES):
        return value
    where = f" for key {key!r}" if key else ""
    if isinstance(value, list):
        kinds = {type(v) for v in value}
        if len(kinds) > 1:
            raise InvalidPropertyError(f"list value{where} must be homogeneous, got {sorted(k.__name__ for k in kinds)}")
        if kinds and not issubclass(next(iter(kinds)), SCALAR_TYPES):
            raise InvalidPropertyError(f"list value{where} may only hold primitives")
        return value
    raise InvalidPropertyError(f"unsupported property value{where}: {value!r} ({type(value).__name__})")


def check_properties(properties: dict | None) -> dict:
    props = {}
    for key, value in (properties or {}).items():
        if not isinstance(key, str) or not key:
            raise InvalidPropertyError(f"property keys must be non-empty strings, got {key!r}")
        props[key] = check_property_value(value, key=key)
    if UID_KEY in props and (isinstance(props[UID_KEY], bool) or not isinstance(props[UID_KEY], int)):
        raise InvalidPropertyError(f"{UID_KEY} must be an integer, got {props[UID_KEY]!r}")
    return props


def value_tag(value) -> tuple:
    """Hashable, type-sensitive canonical form of a property value.

    bool/int/float are distinct variants, so 1, 1.0 and True all differ.
    """
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, int):
        return ("i", value)
    if isinstance(value, float):
        return ("f", value)
    if isinstance(value, str):
        return ("s", value)
    if isinstance(value, list):
        return ("l", tuple(value_tag(v) for v in value))
    raise InvalidPropertyError(f"unsupported property value: {value!r}")


def values_equal(a, b) -> bool:
    """Type-sensitive equality: integers and floats never compare equal."""
    return value_tag(a) == value_tag(b)


def canon_properties(properties: dict, *, ignore_uid: bool = False) -> tuple:
    items = []
    for key in sorted(properties):
        if ignore_uid and key == UID_KEY:
            continue
        items.append((key, value_tag(properties[key])))
    return tuple(items)


def structural_key(node: "Node") -> tuple:
    """What ``equals`` compares: the label and the property map without ``$uid``."""
    return node.label, canon_properties(node.properties, ignore_uid=True)


@dataclass(slots=True)
class Node:
    id: int
    label: str
    properties: dict = field(default_factory=dict)


@dataclass(slots=True)
class Relationship:
    id: int
    label: str
    start: int
    end: int
    properties: dict = field(default_factory=dict)


class PropertyGraph:
    """Mutable in-memory multigraph; single writer, no internal locking.

    Label, ``$uid``, relationship label and equality lookups are served
    from lazy indexes (see the module docstring).
    """

    def __init__(self):
        self._nodes: dict[int, Node] = {}
        self._rels: dict[int, Relationship] = {}
        self._out: dict[int, list[int]] = {}
        self._in: dict[int, list[int]] = {}
        self._next_node_id = 0
        self._next_rel_id = 0
        # True while ``_nodes`` holds its keys in ascending order.
        self._ids_ascending = True
        # Lazy indexes (key -> ascending node or relationship ids); None
        # until first use.
        self._by_label: dict[str, list[int]] | None = None
        self._by_uid: dict[int, list[int]] | None = None
        self._rels_by_label: dict[str, list[int]] | None = None
        # The equality index, built one label at a time (label -> structural
        # key -> ascending ids), and the structural keys computed so far.
        self._by_structure: dict[str, dict[tuple, list[int]]] = {}
        self._keys: dict[int, tuple] = {}
        # (direction, relationship types) -> (node id -> its ``neighbors``
        # list, node id -> its component's smallest id); see ``traversal_memo``.
        self._memo: dict[tuple, tuple[dict, dict]] = {}

    # -- accessors ----------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def relationship_count(self) -> int:
        return len(self._rels)

    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NodeNotFoundError(node_id) from None

    def relationship(self, rel_id: int) -> Relationship:
        try:
            return self._rels[rel_id]
        except KeyError:
            raise RelationshipNotFoundError(rel_id) from None

    def nodes(self) -> Iterator[Node]:
        # Both branches iterate a copy, so a caller may add nodes while it
        # iterates; it sees the nodes that existed when iteration began.
        if self._ids_ascending:
            return iter(list(self._nodes.values()))
        nodes = self._nodes
        return iter([nodes[node_id] for node_id in sorted(nodes)])

    def relationships(self) -> Iterator[Relationship]:
        # ``_rels`` holds its keys in ascending order: ids come only from
        # ``_next_rel_id``, and removal keeps the order of the rest.  The
        # copy lets a caller add or remove relationships while it iterates.
        return iter(list(self._rels.values()))

    def node_ids_with_label(self, label: str) -> list[int]:
        """Ids of the nodes labeled ``label``, ascending (a copy of the index list)."""
        if self._by_label is None:
            self._by_label = _build_index(self.nodes(), _label_key)
        return list(self._by_label.get(label, ()))

    def nodes_with_label(self, label: str) -> Iterator[Node]:
        return map(self.node, self.node_ids_with_label(label))

    def nodes_with_uid(self, uid: int) -> Iterator[Node]:
        """Nodes whose ``$uid`` property is the integer ``uid``."""
        if self._by_uid is None:
            self._by_uid = _build_index(self.nodes(), _uid_key)
        return map(self.node, list(self._by_uid.get(uid, ())))

    def relationships_with_label(self, label: str) -> Iterator[Relationship]:
        """Relationships labeled ``label``, in ascending id order (from a copy of the index list)."""
        if self._rels_by_label is None:
            self._rels_by_label = _build_index(self.relationships(), _label_key)
        rels = self._rels
        return iter([rels[rel_id] for rel_id in self._rels_by_label.get(label, ())])

    def structural_key(self, node_id: int) -> tuple:
        """The node's ``structural_key``, computed once and then kept."""
        key = self._keys.get(node_id)
        if key is None:
            key = self._keys[node_id] = structural_key(self.node(node_id))
        return key

    def equal_nodes(self, node_id: int) -> list[int]:
        """Ids of the nodes ``equals`` holds for with ``node_id``, ascending.

        Read from the equality index; the first lookup of a label indexes
        every node of that label.  The list includes ``node_id``.
        """
        key = self.structural_key(node_id)
        index = self._by_structure.get(key[0])
        if index is None:
            index = self._by_structure[key[0]] = {}
            for other in self.node_ids_with_label(key[0]):
                index.setdefault(self.structural_key(other), []).append(other)
        return index.get(key, [])

    def traversal_memo(self, direction: str, types: frozenset[str] | None) -> tuple[dict, dict]:
        """The kept adjacency and component maps of ``direction`` and ``types``.

        The adjacency maps a node id to the list ``neighbors(node_id,
        direction, types)`` returned.  The components map a node id to the
        smallest id in its strongly connected component, and hold every node
        their keys reach (``strong_components`` adds to them).  Callers add
        entries and never change one, nor a kept list.  Both are kept until
        a relationship is added or removed.
        """
        return self._memo.setdefault((direction, types), ({}, {}))

    # -- mutation -------------------------------------------------------------

    def add_node(self, label: str, properties: dict | None = None, *, node_id: int | None = None) -> int:
        """Append a fresh node and return its id.

        ``node_id`` forces an explicit id (used by the CSV importer); it must
        not collide with an existing node.
        """
        check_label(label)
        props = check_properties(properties)
        if node_id is None:
            node_id = self._next_node_id
        elif node_id in self._nodes:
            raise InvalidLabelError(f"node id {node_id} already present")
        elif node_id < self._next_node_id:
            self._ids_ascending = False
        node = self._nodes[node_id] = Node(node_id, label, props)
        self._out[node_id] = []
        self._in[node_id] = []
        self._next_node_id = max(self._next_node_id, node_id + 1)
        if self._by_label is not None or self._by_uid is not None or node.label in self._by_structure:
            self._index_node(node)
        return node_id

    def _index_node(self, node: Node) -> None:
        for index, key_of in (
            (self._by_label, _label_key),
            (self._by_uid, _uid_key),
            (self._by_structure.get(node.label), structural_key),
        ):
            key = None if index is None else key_of(node)
            if key is not None:
                insort(index.setdefault(key, []), node.id)  # an explicit id may be lower

    def add_relationship(self, label: str, start: int, end: int, properties: dict | None = None) -> int:
        check_label(label)
        props = check_properties(properties)
        if start not in self._nodes:
            raise NodeNotFoundError(start)
        if end not in self._nodes:
            raise NodeNotFoundError(end)
        rel_id = self._next_rel_id
        self._next_rel_id += 1
        self._rels[rel_id] = Relationship(rel_id, label, start, end, props)
        self._out[start].append(rel_id)
        self._in[end].append(rel_id)
        if self._rels_by_label is not None:
            self._rels_by_label.setdefault(label, []).append(rel_id)  # ids only grow
        self._memo.clear()
        return rel_id

    def remove_relationship(self, rel_id: int) -> None:
        rel = self.relationship(rel_id)
        del self._rels[rel_id]
        self._out[rel.start].remove(rel_id)
        self._in[rel.end].remove(rel_id)
        if self._rels_by_label is not None:
            same_label = self._rels_by_label[rel.label]
            del same_label[bisect_left(same_label, rel_id)]
        self._memo.clear()

    def set_field_edge(self, fieldname: str, start: int, end: int) -> int:
        """Install the single outgoing ``fieldname`` edge of ``start``.

        Any previous relationship with that label leaving ``start`` is
        removed first, so the outgoing degree under the label is always 1
        afterwards.
        """
        check_label(fieldname)
        if start not in self._nodes:
            raise NodeNotFoundError(start)
        if end not in self._nodes:
            raise NodeNotFoundError(end)
        for rel_id in list(self._out[start]):
            if self._rels[rel_id].label == fieldname:
                self.remove_relationship(rel_id)
        return self.add_relationship(fieldname, start, end)

    # -- traversal ------------------------------------------------------------

    def neighbors(
        self,
        node_id: int,
        direction: str = "out",
        types: set[str] | frozenset[str] | None = None,
    ) -> list[tuple[Relationship, Node]]:
        """Incident relationships of a node with the node on the other side.

        ``direction`` is ``out``, ``in`` or ``both``; ``types`` optionally
        restricts relationship labels.  Results are ordered by ascending
        relationship id, and a self-loop is reported once under ``both``.
        """
        if node_id not in self._nodes:
            raise NodeNotFoundError(node_id)
        # Adjacency lists are in ascending id order: ids only grow, and
        # removal keeps the order of the rest.
        if direction == "out":
            rel_ids = self._out[node_id]
        elif direction == "in":
            rel_ids = self._in[node_id]
        elif direction == "both":
            rel_ids = []
            for rel_id in heapq.merge(self._out[node_id], self._in[node_id]):
                if not rel_ids or rel_ids[-1] != rel_id:  # a self-loop is in both lists
                    rel_ids.append(rel_id)
        else:
            raise ValueError(f"direction must be out/in/both, got {direction!r}")
        result = []
        for rel_id in rel_ids:
            rel = self._rels[rel_id]
            if types is not None and rel.label not in types:
                continue
            other = rel.end if rel.start == node_id else rel.start
            result.append((rel, self._nodes[other]))
        return result

    # -- maintenance ------------------------------------------------------------

    def copy(self) -> "PropertyGraph":
        dup = PropertyGraph()
        for node in self.nodes():
            dup._nodes[node.id] = Node(node.id, node.label, _copy_props(node.properties))
            dup._out[node.id] = list(self._out[node.id])
            dup._in[node.id] = list(self._in[node.id])
        for rel in self.relationships():
            dup._rels[rel.id] = Relationship(rel.id, rel.label, rel.start, rel.end, _copy_props(rel.properties))
        dup._next_node_id = self._next_node_id
        dup._next_rel_id = self._next_rel_id
        if self._by_label is not None:
            dup._by_label = {key: list(ids) for key, ids in self._by_label.items()}
        if self._by_uid is not None:
            dup._by_uid = {key: list(ids) for key, ids in self._by_uid.items()}
        if self._rels_by_label is not None:
            dup._rels_by_label = {key: list(ids) for key, ids in self._rels_by_label.items()}
        dup._by_structure = {
            label: {key: list(ids) for key, ids in index.items()} for label, index in self._by_structure.items()
        }
        dup._keys = dict(self._keys)
        return dup

    def audit(self) -> list[str]:
        """Consistency check of the adjacency, lazy indexes and memo; empty list means ok.

        Built label, ``$uid``, relationship label and equality indexes, and
        the kept structural keys, are compared with a fresh rebuild, so an
        in-place property change made after the first lookup shows here.
        Each kept ``neighbors`` list is compared with a fresh call, and each
        kept component map with one ``strong_components`` recomputes from
        its keys.
        """
        problems = []
        for (direction, types), (adjacency, comps) in self._memo.items():
            where = f"{direction} {sorted(types) if types else 'any'}"
            for node_id, steps in adjacency.items():
                fresh = self.neighbors(node_id, direction, types)
                if [(rel.id, other.id) for rel, other in steps] != [(rel.id, other.id) for rel, other in fresh]:
                    problems.append(f"kept {where} neighbors of node {node_id} are stale")
            rebuilt: dict[int, int] = {}
            for node_id in comps:
                if node_id not in rebuilt:
                    strong_components(node_id, lambda n, d=direction, t=types: self.neighbors(n, d, t), rebuilt)
            for node_id in sorted(set(comps) | set(rebuilt)):
                if comps.get(node_id) != rebuilt.get(node_id):
                    problems.append(
                        f"kept {where} component of node {node_id} is {comps.get(node_id)}, "
                        f"a rebuild gives {rebuilt.get(node_id)}"
                    )
        indexes = [
            ("label", self._by_label, self.nodes(), _label_key),
            ("$uid", self._by_uid, self.nodes(), _uid_key),
            ("relationship label", self._rels_by_label, self.relationships(), _label_key),
        ]
        for label, index in self._by_structure.items():
            same_label = [node for node in self.nodes() if node.label == label]
            indexes.append((f"{label!r} equality", index, same_label, structural_key))
        for name, index, items, key_of in indexes:
            if index is None:
                continue
            rebuilt = _build_index(items, key_of)
            for key in sorted(set(index) | set(rebuilt), key=repr):
                if index.get(key, []) != rebuilt.get(key, []):
                    problems.append(
                        f"{name} index entry {key!r} is {index.get(key, [])}, a rebuild gives {rebuilt.get(key, [])}"
                    )
        for node_id, key in self._keys.items():
            if node_id not in self._nodes or structural_key(self._nodes[node_id]) != key:
                problems.append(f"kept structural key of node {node_id} is stale")
        rel_ids = list(self._rels)
        if any(a > b for a, b in zip(rel_ids, rel_ids[1:])):
            problems.append("relationships are not stored in ascending id order")
        for direction, adjacency in (("outgoing", self._out), ("incoming", self._in)):
            for node_id, rels in adjacency.items():
                if any(a > b for a, b in zip(rels, rels[1:])):
                    problems.append(f"{direction} index of {node_id} is not in ascending relationship id order")
        indexed_out = {(n, r) for n, rels in self._out.items() for r in rels}
        indexed_in = {(n, r) for n, rels in self._in.items() for r in rels}
        for rel in self._rels.values():
            if (rel.start, rel.id) not in indexed_out:
                problems.append(f"relationship {rel.id} missing from outgoing index of {rel.start}")
            if (rel.end, rel.id) not in indexed_in:
                problems.append(f"relationship {rel.id} missing from incoming index of {rel.end}")
        for node_id, rels in self._out.items():
            if len(rels) != len(set(rels)):
                problems.append(f"duplicate entries in outgoing index of {node_id}")
            for rel_id in rels:
                rel = self._rels.get(rel_id)
                if rel is None or rel.start != node_id:
                    problems.append(f"stale outgoing entry {rel_id} on node {node_id}")
        for node_id, rels in self._in.items():
            if len(rels) != len(set(rels)):
                problems.append(f"duplicate entries in incoming index of {node_id}")
            for rel_id in rels:
                rel = self._rels.get(rel_id)
                if rel is None or rel.end != node_id:
                    problems.append(f"stale incoming entry {rel_id} on node {node_id}")
        return problems


def strong_components(start: int, steps, comps: dict[int, int]) -> None:
    """Enter in ``comps`` the strongly connected components of the nodes ``start`` reaches.

    Tarjan's algorithm over an explicit stack.  ``steps(node_id)`` gives a
    node's ``(relationship, node)`` pairs.  Each reached node missing from
    ``comps`` is entered with the smallest id in its component.  Nodes
    already in ``comps`` are passed over: their components, entered by an
    earlier call, are complete.

    Graph readers may share ``comps`` (README "Concurrency").  So the
    components are collected in a local map and entered with one ``update``:
    a reader sees a component whole or not at all.  Nodes entered by another
    reader meanwhile are left out of it, so an entry never changes; two
    searches that find the same component enter the same smallest id.
    """
    found: dict[int, int] = {}
    index = {start: 0}
    low = {start: 0}
    pending = [start]  # reached nodes whose component is not yet known
    work = [(start, iter(steps(start)))]
    while work:
        node_id, edges = work[-1]
        for _, other in edges:
            nxt = other.id
            if nxt in found or nxt in comps:
                continue
            if nxt not in index:
                index[nxt] = low[nxt] = len(index)
                pending.append(nxt)
                work.append((nxt, iter(steps(nxt))))
                break
            low[node_id] = min(low[node_id], index[nxt])
        else:
            work.pop()
            if low[node_id] == index[node_id]:
                members = [pending.pop()]
                while members[-1] != node_id:
                    members.append(pending.pop())
                smallest = min(members)
                for member in members:
                    found[member] = smallest
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node_id])
    comps.update({node_id: root for node_id, root in found.items() if node_id not in comps})


def _build_index(items, key_of) -> dict[int | str, list[int]]:
    index: dict = {}
    for item in items:
        key = key_of(item)
        if key is not None:
            index.setdefault(key, []).append(item.id)
    return index


def _label_key(item: Node | Relationship) -> str:
    return item.label


def _uid_key(node: Node) -> int | None:
    """The node's ``$uid`` when it is an integer (the only kind a lookup can match)."""
    uid = node.properties.get(UID_KEY)
    return uid if isinstance(uid, int) and not isinstance(uid, bool) else None


def _copy_props(props: dict) -> dict:
    return {k: (list(v) if isinstance(v, list) else v) for k, v in props.items()}
