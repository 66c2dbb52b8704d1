"""Seeded random generators for oracle-equivalence and parity tests."""

from __future__ import annotations

import random

from heapquery.cypher_ast import (
    Comparison,
    Count,
    Hops,
    HOPS_ONE,
    Literal,
    MatchClause,
    NodePattern,
    PathPattern,
    PropertyAccess,
    Query,
    RelPattern,
    ReturnClause,
    ReturnItem,
    Variable,
    WhereClause,
)
from heapquery.property_graph import PropertyGraph
from heapquery.subgraph import ClassInfo, FieldDecl, HeapObject, HeapSnapshot, Ref, RefArray

# --- random graphs + queries for the matching oracle -------------------------------


_STRING_VALUES = [1, 2, 3, "a", "b"]


def random_graph(rng: random.Random, max_nodes: int = 8, max_edges: int = 12, strings: bool = False) -> PropertyGraph:
    """Random labeled multigraph within the stated size bounds.

    Pair multiplicity is capped (2 parallel edges, 1 self-loop) because the
    bag of relationship-distinct walks grows factorially on edge clumps,
    which no enumerator could check in time.  With ``strings`` a node's
    ``v`` may be a string.
    """
    g = PropertyGraph()
    ids = []
    for _ in range(rng.randint(2, max_nodes)):
        props = {}
        if rng.random() < 0.7:
            props["v"] = rng.choice(_STRING_VALUES) if strings else rng.randint(1, 3)
        ids.append(g.add_node(rng.choice("AB"), props))
    pair_count: dict[tuple[int, int], int] = {}
    for _ in range(rng.randint(0, max_edges)):
        for _attempt in range(8):
            start, end = rng.choice(ids), rng.choice(ids)
            cap = 1 if start == end else 2
            if pair_count.get((start, end), 0) < cap:
                pair_count[(start, end)] = pair_count.get((start, end), 0) + 1
                g.add_relationship(rng.choice("fg"), start, end)
                break
    return g


_HOP_CHOICES = [
    HOPS_ONE,
    Hops("exact", 2, 2),
    Hops("range", 1, 3),
    Hops("unbounded"),
    Hops("range", 0, 2),
]


def random_query(rng: random.Random, strings: bool = False) -> Query:
    """A random MATCH of one or two segments, maybe a WHERE on ``v``, and a RETURN of its node variables.

    With ``strings`` the WHERE is always there and orders ``v`` against a
    literal that may be a string, or against another ``v`` (see
    ``random_graph``), so some rows raise TypeMismatchError.
    """
    n_segments = rng.choice([1, 1, 2])
    var_names = ["n", "m", "o"]

    def node_pattern(index: int, named: bool) -> NodePattern:
        label = rng.choice("AB") if rng.random() < 0.4 else None
        props = (("v", Literal(rng.randint(1, 3))),) if rng.random() < 0.3 else ()
        return NodePattern(var_names[index] if named else None, label, props)

    nodes = []
    for i in range(n_segments + 1):
        named = True if i in (0, n_segments) else rng.random() < 0.7
        nodes.append(node_pattern(i, named))
    rels = tuple(
        RelPattern(
            None,
            rng.choice([(), ("f",), ("f", "g")]),
            rng.choice(["out", "in", "both"]),
            rng.choice(_HOP_CHOICES),
        )
        for _ in range(n_segments)
    )
    clauses: list = [MatchClause((PathPattern(tuple(nodes), rels),))]

    named_vars = [p.var for p in nodes if p.var]
    if (strings or rng.random() < 0.3) and named_vars:
        left = PropertyAccess(rng.choice(named_vars), "v")
        op = rng.choice(["<", "<=", ">", ">="] if strings else ["=", "<>", "<", "<=", ">", ">="])
        if rng.random() < 0.5:
            right = Literal(rng.choice(_STRING_VALUES) if strings else rng.randint(1, 3))
        else:
            right = PropertyAccess(rng.choice(named_vars), "v")
        clauses.append(WhereClause(Comparison(op, left, right)))

    items = tuple(ReturnItem(Variable(v), None) for v in named_vars)
    clauses.append(ReturnClause(items, distinct=rng.random() < 0.2))
    return Query(tuple(clauses))


_PATH_HOPS = [
    HOPS_ONE,
    HOPS_ONE,
    HOPS_ONE,
    Hops("range", 0, None),
    Hops("range", 2, None),
    Hops("exact", 2, 2),
    Hops("unbounded"),
    Hops("range", 1, 2),
]


def random_path_query(rng: random.Random) -> Query:
    """One or two MATCH clauses over the path shapes ``random_query`` never draws, and a RETURN.

    A path end may be anonymous.  A node variable (``n``, ``m`` or ``o``)
    may repeat in a path or be bound by an earlier MATCH.  A single hop may
    name a relationship variable (``r`` or ``s``), which may already be
    bound.  Hops include ``*0..``, ``*2..`` and ``*2``, and any MATCH may be
    OPTIONAL.  A WHERE may compare two variables, a variable and a literal,
    or ``v`` and a literal, with ``=``, ``<>`` or ``<`` (which raises
    TypeMismatchError on a node).  The RETURN gives the named variables,
    maybe DISTINCT, or counts rows or one of them.
    """
    clauses: list = []
    named: list[str] = []
    for _ in range(rng.choice([1, 2])):
        nodes, rels = [], []
        for i in range(rng.choice([0, 1, 1, 2, 2]) + 1):
            if i:
                hops = rng.choice(_PATH_HOPS)
                var = rng.choice(["r", "r", "s"]) if hops is HOPS_ONE and rng.random() < 0.7 else None
                direction = rng.choice(["out", "in", "both"])
                rels.append(RelPattern(var, rng.choice([(), ("f",), ("f", "g")]), direction, hops))
            label = rng.choice("AB") if rng.random() < 0.3 else None
            props = (("v", Literal(rng.randint(1, 3))),) if rng.random() < 0.2 else ()
            nodes.append(NodePattern(rng.choice(["n", "m", "o", None, None]), label, props))
        clauses.append(MatchClause((PathPattern(tuple(nodes), tuple(rels)),), optional=rng.random() < 0.3))
        for name in (*(p.var for p in nodes), *(r.var for r in rels)):
            if name and name not in named:
                named.append(name)

    if named and rng.random() < 0.5:
        left = Variable(rng.choice(named))
        right = Variable(rng.choice(named)) if rng.random() < 0.5 else Literal(rng.randint(1, 3))
        if rng.random() < 0.5:
            left, right = PropertyAccess(left.name, "v"), Literal(rng.randint(1, 3))
        clauses.append(WhereClause(Comparison(rng.choice(["=", "<>", "<"]), left, right)))

    if named and rng.random() < 0.6:
        items = tuple(ReturnItem(Variable(v), None) for v in named)
        clauses.append(ReturnClause(items, distinct=rng.random() < 0.2))
    else:
        counted = Variable(rng.choice(named)) if named and rng.random() < 0.6 else None
        distinct = counted is not None and rng.random() < 0.3
        clauses.append(ReturnClause((ReturnItem(Count(counted, distinct), None),)))
    return Query(tuple(clauses))


# --- hash-map snapshots -----------------------------------------------------------

MAP_CLASS = "java.util.HashMap"
ENTRY_CLASS = "java.util.HashMap$Node"
KEY_CLASS = "app.Key"


def build_hashmap_snapshot(rng: random.Random, n_entries: int) -> tuple[HeapSnapshot, int, int, bool]:
    """A bucketed hash-map heap plus a probe key object.

    Returns (snapshot, map id, probe id, probe_present).  Keys are objects
    whose ``val`` payload doubles as the hash; buckets chain through
    ``next``, so collisions exercise chain traversal.
    """
    classes = [
        ClassInfo(MAP_CLASS, None, (FieldDecl("table", "reference-array", ENTRY_CLASS), FieldDecl("size", "primitive", "int"))),
        ClassInfo(
            ENTRY_CLASS,
            None,
            (
                FieldDecl("hash", "primitive", "int"),
                FieldDecl("key", "reference", KEY_CLASS),
                FieldDecl("next", "reference", ENTRY_CLASS),
            ),
        ),
        ClassInfo(KEY_CLASS, None, (FieldDecl("val", "primitive", "int"),)),
    ]
    table_len = max(4, n_entries // 3)
    values = rng.sample(range(n_entries * 10), n_entries)
    objects = []
    next_id = 1
    map_id = next_id
    next_id += 1
    key_ids = {}
    for val in values:
        key_ids[val] = next_id
        objects.append(HeapObject(next_id, KEY_CLASS, {"val": val}))
        next_id += 1
    buckets: dict[int, list[int]] = {}
    for val in values:
        buckets.setdefault(val % table_len, []).append(val)
    table = []
    for slot in range(table_len):
        chain = buckets.get(slot, [])
        head = None
        for val in reversed(chain):
            entry_id = next_id
            next_id += 1
            fields = {"hash": val, "key": Ref(key_ids[val])}
            if head is not None:
                fields["next"] = Ref(head)
            objects.append(HeapObject(entry_id, ENTRY_CLASS, fields))
            head = entry_id
        table.append(head)
    probe_present = rng.random() < 0.5 and values
    if probe_present:
        probe_val = rng.choice(values)
    else:
        probe_val = max(values, default=0) + 1 + rng.randint(0, 5)
    probe_id = next_id
    next_id += 1
    objects.insert(0, HeapObject(map_id, MAP_CLASS, {"table": RefArray(table), "size": n_entries}))
    objects.append(HeapObject(probe_id, KEY_CLASS, {"val": probe_val}))
    snapshot = HeapSnapshot(classes, objects, {"map": map_id, "probe": probe_id})
    return snapshot, map_id, probe_id, bool(probe_present)


# --- random heap snapshots ----------------------------------------------------------


def random_snapshot(rng: random.Random, max_objects: int = 12) -> HeapSnapshot:
    class_names = [f"demo.C{i}" for i in range(rng.randint(1, 3))]
    classes = []
    for name in class_names:
        fields = []
        for i in range(rng.randint(0, 2)):
            fields.append(FieldDecl(f"ref{i}", "reference", rng.choice(class_names)))
        for i in range(rng.randint(0, 2)):
            fields.append(FieldDecl(f"p{i}", "primitive", "int"))
        if rng.random() < 0.3:
            fields.append(FieldDecl("arr", "reference-array", rng.choice(class_names)))
        classes.append(ClassInfo(name, None, tuple(fields)))

    ids = list(range(1, rng.randint(1, max_objects) + 1))
    cls_of = {i: rng.choice(class_names) for i in ids}
    by_name = {c.name: c for c in classes}
    objects = []
    for object_id in ids:
        fields = {}
        for decl in by_name[cls_of[object_id]].fields:
            if decl.kind == "reference":
                if rng.random() < 0.6:
                    fields[decl.name] = Ref(rng.choice(ids))
            elif decl.kind == "primitive":
                fields[decl.name] = rng.randint(0, 9)
            else:
                slots = [rng.choice(ids) if rng.random() < 0.7 else None for _ in range(rng.randint(0, 3))]
                fields[decl.name] = RefArray(slots)
        objects.append(HeapObject(object_id, cls_of[object_id], fields))

    # statics reference real objects so validation holds by construction
    if rng.random() < 0.3 and ids:
        base = classes[0]
        classes[0] = ClassInfo(base.name, None, base.fields, {"cached": Ref(rng.choice(ids)), "limit": 7})

    roots = {}
    for i, object_id in enumerate(rng.sample(ids, k=min(len(ids), rng.randint(0, 2)))):
        roots[f"r{i}"] = object_id
    return HeapSnapshot(classes, objects, roots)


def build_large_snapshot() -> tuple[HeapSnapshot, int, set[int], set[int]]:
    """10,000 objects, the first 1,000 reachable from the chosen root."""
    classes = [
        ClassInfo("app.Item", None, (FieldDecl("next", "reference", "app.Item"), FieldDecl("payload", "primitive", "int"))),
        ClassInfo("app.Junk", None, (FieldDecl("a", "reference", "app.Junk"),)),
    ]
    rng = random.Random(4242)
    objects = []
    item_ids = list(range(1, 1001))
    for i in item_ids:
        fields = {"payload": i}
        if i < 1000:
            fields["next"] = Ref(i + 1)
        objects.append(HeapObject(i, "app.Item", fields))
    junk_ids = list(range(1001, 10001))
    for i in junk_ids:
        fields = {}
        if rng.random() < 0.8:
            fields["a"] = Ref(rng.choice(junk_ids))
        objects.append(HeapObject(i, "app.Junk", fields))
    snapshot = HeapSnapshot(classes, objects, {"r": 1})
    return snapshot, 1, set(item_ids), set(junk_ids)


# --- binary-tree snapshots for the invariant query ----------------------------------

TREE_CLASS = "BinaryTree"
NODE_CLASS = "BinaryTree$Node"


def build_tree_case(rng: random.Random, kind: str) -> tuple[HeapSnapshot, int]:
    """A BinaryTree heap in one of four shapes.

    kind: valid | cyclic | size-mismatch | forest.  The size field counts
    every node object in the snapshot, so detached forests are detected as
    a size inconsistency (exactly like the imperative check).
    """
    classes = [
        ClassInfo(TREE_CLASS, None, (FieldDecl("root", "reference", NODE_CLASS), FieldDecl("size", "primitive", "int"))),
        ClassInfo(
            NODE_CLASS,
            None,
            (
                FieldDecl("left", "reference", NODE_CLASS),
                FieldDecl("right", "reference", NODE_CLASS),
                FieldDecl("value", "primitive", "int"),
            ),
        ),
    ]
    n_nodes = rng.randint(1, 12)
    tree_id = 1
    node_ids = list(range(2, 2 + n_nodes))
    children: dict[int, dict[str, int]] = {i: {} for i in node_ids}
    # random tree shape: attach each node to an earlier one on a free side
    for i, node_id in enumerate(node_ids[1:], start=1):
        while True:
            parent = rng.choice(node_ids[:i])
            free = [s for s in ("left", "right") if s not in children[parent]]
            if free:
                children[parent][rng.choice(free)] = node_id
                break
    size = n_nodes
    if kind == "cyclic":
        source = rng.choice(node_ids)
        target = rng.choice(node_ids)
        side = rng.choice(["left", "right"])
        children[source][side] = target  # may create a cycle or sharing
    elif kind == "size-mismatch":
        size = n_nodes + rng.choice([-1, 1, 2])
    elif kind == "forest":
        detached = 2 + n_nodes
        node_ids.append(detached)
        children[detached] = {}
        size = n_nodes + 1  # counts the unreachable node
    objects = [HeapObject(tree_id, TREE_CLASS, {"root": Ref(node_ids[0]), "size": size})]
    for node_id in node_ids:
        fields: dict = {"value": node_id}
        for side, child in children[node_id].items():
            fields[side] = Ref(child)
        objects.append(HeapObject(node_id, NODE_CLASS, fields))
    return HeapSnapshot(classes, objects, {"tree": tree_id}), tree_id
