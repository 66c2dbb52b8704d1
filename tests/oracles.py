"""Independent oracles the test suite checks the engine against.

Everything here recomputes expected results from first principles without
calling into the code paths under test: reachability by explicit BFS over
snapshot objects, pattern matching by brute-force enumeration over all
relationships, the tree invariant by the classic worklist algorithm, map
membership by an imperative bucket walk, field assignment by replaying
a (node, field) -> target table, graph equality by backtracking isomorphism
search, positional arguments by textual substitution (one query text per
``[]`` element, each parsed on its own), snapshot loading by decoding
every value first and validating the built snapshot afterwards, and
aggregating RETURN items by evaluating every leaf over all bindings and
then the operators on the values, with their own type checks.
"""

from __future__ import annotations

import json
import re
from collections import Counter, deque
from dataclasses import dataclass, replace

from heapquery.cypher_ast import (
    And,
    Comparison,
    Count,
    EqualsCall,
    Literal,
    MatchClause,
    Not,
    NodePattern,
    Or,
    PropertyAccess,
    Query,
    ReturnClause,
    Variable,
    WhereClause,
)
from heapquery.errors import ExecutionError, ExpansionError, SnapshotSchemaError, TypeMismatchError
from heapquery.property_graph import (
    CLASS_LABEL,
    ELEMENT_LABEL,
    INSTANCEOF_LABEL,
    LOCAL_LABEL,
    UID_KEY,
    PropertyGraph,
    canon_properties,
    collector_paused,
    value_tag,
)
from heapquery.subgraph import (
    ClassInfo,
    ExtractionConfig,
    FieldDecl,
    HeapObject,
    HeapSnapshot,
    Ref,
    RefArray,
)


# --- snapshot reachability ------------------------------------------------------


def snapshot_edges(snapshot: HeapSnapshot) -> dict[int, list[int]]:
    """Adjacency (object -> referenced objects) recomputed from raw fields."""
    adjacency: dict[int, list[int]] = {obj.id: [] for obj in snapshot.objects}
    statics_of: dict[str, list[int]] = {}
    for info in snapshot.classes:
        targets = []
        for value in info.statics.values():
            if isinstance(value, Ref):
                targets.append(value.id)
            elif isinstance(value, RefArray):
                targets.extend(e for e in value.ids if e is not None)
        statics_of[info.name] = targets
    super_of = {info.name: info.superclass for info in snapshot.classes}
    for obj in snapshot.objects:
        for value in obj.fields.values():
            if isinstance(value, Ref):
                adjacency[obj.id].append(value.id)
            elif isinstance(value, RefArray):
                adjacency[obj.id].extend(e for e in value.ids if e is not None)
        cls = obj.cls
        while cls is not None:
            adjacency[obj.id].extend(statics_of.get(cls, []))
            cls = super_of.get(cls)
    return adjacency


def reachable_from(snapshot: HeapSnapshot, starts) -> set[int]:
    adjacency = snapshot_edges(snapshot)
    seen: set[int] = set()
    queue = deque(starts)
    while queue:
        obj = queue.popleft()
        if obj in seen:
            continue
        seen.add(obj)
        queue.extend(t for t in adjacency[obj] if t not in seen)
    return seen


# --- eager extraction --------------------------------------------------------------


def reference_extract(snapshot: HeapSnapshot, config: ExtractionConfig | None = None) -> PropertyGraph:
    """The whole extracted graph, built eagerly through the checked ``add_node`` path.

    The eager extraction that ``extract`` used before it returned a
    SnapshotGraph, with reachability recomputed by ``reachable_from``: the
    reference for the ids, contents and adjacency of a filled SnapshotGraph.
    Roots must be objects of the (collected) snapshot.
    """
    config = config or ExtractionConfig()
    objects = snapshot.objects
    if config.force_collect:
        seeds = list(snapshot.roots.values())
        for info in snapshot.classes:
            for value in info.statics.values():
                if isinstance(value, Ref):
                    seeds.append(value.id)
                elif isinstance(value, RefArray):
                    seeds.extend(e for e in value.ids if e is not None)
        live = reachable_from(snapshot, seeds)
        objects = [o for o in objects if o.id in live]
    by_id = {o.id: o for o in objects}

    if config.root is not None:
        candidates = reachable_from(snapshot, config.root if isinstance(config.root, (list, tuple)) else [config.root])
    elif config.whitelist:
        candidates = set()
    else:
        candidates = set(by_id)
    if config.whitelist:
        candidates |= reachable_from(snapshot, [o.id for o in objects if o.cls in config.whitelist])

    included = [by_id[i] for i in sorted(candidates) if by_id[i].cls not in config.blacklist]
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


# --- brute-force pattern enumeration ----------------------------------------------


def _node_ok(graph: PropertyGraph, node_id: int, pattern: NodePattern) -> bool:
    node = graph.node(node_id)
    if pattern.label is not None and node.label != pattern.label:
        return False
    for key, literal in pattern.properties:
        if key not in node.properties:
            return False
        if value_tag(node.properties[key]) != value_tag(literal.value):
            return False
    return True


def _rel_endpoints(rel, direction: str, at: int):
    """Ways a relationship can be walked from node ``at``: list of other-ends."""
    ways = []
    if direction in ("out", "both") and rel.start == at:
        ways.append(rel.end)
    if direction in ("in", "both") and rel.end == at:
        ways.append(rel.start)
    if direction == "both" and rel.start == at and rel.end == at:
        ways = [at]  # self-loop walked once
    return ways


def _all_sequences(graph, start, direction, types, lo, hi, used):
    """All (endpoint, depth, used-relationship set) walks within bounds.

    Enumerates by trying every relationship of the graph at each step; one
    result per distinct relationship sequence.
    """
    rels = [(r.id, r.label, r.start, r.end) for r in graph.relationships()]
    results = []
    used_now = set(used)

    def go(at, depth):
        if depth >= lo:
            results.append((at, depth, frozenset(used_now)))
        if hi is not None and depth >= hi:
            return
        if depth >= len(rels):
            return
        for rel_id, label, rel_start, rel_end in rels:
            if rel_id in used_now:
                continue
            if types and label not in types:
                continue
            ways = []
            if direction in ("out", "both") and rel_start == at:
                ways.append(rel_end)
            if direction in ("in", "both") and rel_end == at:
                ways.append(rel_start)
            if direction == "both" and rel_start == at and rel_end == at:
                ways = [at]
            for other in ways:
                used_now.add(rel_id)
                go(other, depth + 1)
                used_now.discard(rel_id)

    go(start, 0)
    return results


def _match_path_bruteforce(graph: PropertyGraph, path, binding: dict) -> list[dict]:
    out = []

    def node_options(pattern, binding):
        if pattern.var is not None and pattern.var in binding:
            node_id = binding[pattern.var]
            return [node_id] if _node_ok(graph, node_id, pattern) else []
        return [n.id for n in graph.nodes() if _node_ok(graph, n.id, pattern)]

    def assign(binding, pattern, node_id):
        if pattern.var is None:
            return binding
        if pattern.var in binding:
            return binding if binding[pattern.var] == node_id else None
        new = dict(binding)
        new[pattern.var] = node_id
        return new

    def walk(seg, at, binding, used):
        if seg == len(path.rels):
            out.append(binding)
            return
        rel_pattern = path.rels[seg]
        target = path.nodes[seg + 1]
        lo, hi = rel_pattern.hops.bounds()
        types = set(rel_pattern.types)
        pinned = target.var is not None and target.var in binding
        variable_length = rel_pattern.hops.variable_length
        for endpoint, depth, used_now in _all_sequences(graph, at, rel_pattern.direction, types, lo, hi, used):
            if variable_length and depth >= 1 and not pinned and endpoint == at:
                continue
            if not _node_ok(graph, endpoint, target):
                continue
            nxt = assign(binding, target, endpoint)
            if nxt is None:
                continue
            walk(seg + 1, endpoint, nxt, used_now)

    first = path.nodes[0]
    for node_id in node_options(first, binding):
        start = assign(binding, first, node_id)
        if start is not None:
            walk(0, node_id, start, frozenset())
    return out


def _eval_simple(graph: PropertyGraph, binding: dict, expr):
    """Tiny independent expression evaluator (three-valued)."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Variable):
        if expr.name not in binding:
            return None
        return ("node", binding[expr.name])
    if isinstance(expr, PropertyAccess):
        node_id = binding.get(expr.var)
        if node_id is None:
            return None
        props = graph.node(node_id).properties
        if expr.key not in props:
            return None
        return props[expr.key]
    if isinstance(expr, Comparison):
        left = _eval_simple(graph, binding, expr.left)
        right = _eval_simple(graph, binding, expr.right)
        if left is None or right is None:
            return None
        if expr.op == "=":
            return value_tag_like(left) == value_tag_like(right)
        if expr.op == "<>":
            return value_tag_like(left) != value_tag_like(right)
        table = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b, ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}
        return table[expr.op](left, right)
    if isinstance(expr, EqualsCall):
        left = _eval_simple(graph, binding, expr.left)
        right = _eval_simple(graph, binding, expr.right)
        if left is None or right is None:
            return None
        if isinstance(left, tuple) and isinstance(right, tuple) and left[0] == right[0] == "node":
            a = graph.node(left[1])
            b = graph.node(right[1])
            return left[1] == right[1] or (
                a.label == b.label
                and canon_properties(a.properties, ignore_uid=True) == canon_properties(b.properties, ignore_uid=True)
            )
        return value_tag_like(left) == value_tag_like(right)
    if isinstance(expr, And):
        values = [_eval_simple(graph, binding, operand) for operand in expr.operands]
        if any(value is False for value in values):
            return False
        if any(value is None for value in values):
            return None
        return True
    if isinstance(expr, Or):
        values = [_eval_simple(graph, binding, operand) for operand in expr.operands]
        if any(value is True for value in values):
            return True
        if any(value is None for value in values):
            return None
        return False
    if isinstance(expr, Not):
        value = _eval_simple(graph, binding, expr.operand)
        return None if value is None else not value
    raise AssertionError(f"oracle cannot evaluate {expr!r}")


def value_tag_like(value):
    if isinstance(value, tuple):
        return value
    return value_tag(value)


def _cell(value) -> tuple:
    return ("absent",) if value is None else value_tag_like(value)


def _aggregate_leaves(expr) -> list:
    """The counts of ``expr``, and its variable and property reads outside them, in preorder."""
    if isinstance(expr, (Count, Variable, PropertyAccess)):
        return [expr]
    if isinstance(expr, (Comparison, EqualsCall)):
        return _aggregate_leaves(expr.left) + _aggregate_leaves(expr.right)
    if isinstance(expr, (And, Or)):
        return [leaf for operand in expr.operands for leaf in _aggregate_leaves(operand)]
    if isinstance(expr, Not):
        return _aggregate_leaves(expr.operand)
    return []


def _aggregate_item(graph: PropertyGraph, bindings: list[dict], expr):
    """The value of an aggregating RETURN item over ``bindings`` (None for absent).

    Every count and every read outside a count is evaluated first, in
    preorder.  A read must give one value over all bindings, else
    ExecutionError.  The operators then run once on those values, with
    three-valued logic; ordering anything but two numbers or two strings,
    or a boolean operator on a non-boolean, raises TypeMismatchError.
    """
    values = {}
    for leaf in _aggregate_leaves(expr):
        if isinstance(leaf, Count) and leaf.expr is None:
            values[id(leaf)] = len(bindings)
        elif isinstance(leaf, Count):
            cells = [_cell(v) for v in (_eval_simple(graph, b, leaf.expr) for b in bindings) if v is not None]
            values[id(leaf)] = len(set(cells)) if leaf.distinct else len(cells)
        else:
            seen = {_cell(v): v for v in (_eval_simple(graph, b, leaf) for b in bindings)}
            if len(seen) > 1:
                raise ExecutionError(f"{leaf} is not constant over {len(bindings)} bindings")
            values[id(leaf)] = next(iter(seen.values()), None)
    return _operators(graph, expr, values)


def _operators(graph: PropertyGraph, expr, values: dict):
    """``expr`` with the leaf ``values`` (by leaf id), each operator checked for the types it takes."""
    if id(expr) in values:
        return values[id(expr)]
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Not):
        operands = [_operators(graph, expr.operand, values)]
        expr = Not(Literal(operands[0]))
    elif isinstance(expr, (And, Or)):
        operands = [_operators(graph, operand, values) for operand in expr.operands]
        expr = type(expr)(tuple(map(Literal, operands)))
    else:
        operands = [_operators(graph, expr.left, values), _operators(graph, expr.right, values)]
        expr = replace(expr, left=Literal(operands[0]), right=Literal(operands[1]))
    present = [v for v in operands if v is not None]
    if isinstance(expr, (Not, And, Or)) and not all(isinstance(v, bool) for v in present):
        raise TypeMismatchError(f"boolean operator on {present!r}")
    if isinstance(expr, Comparison) and expr.op not in ("=", "<>") and len(present) == 2:
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in present)
        if not numbers and not all(isinstance(v, str) for v in present):
            raise TypeMismatchError(f"cannot order {present!r}")
    return _eval_simple(graph, {}, expr)


def enumerate_rows(graph: PropertyGraph, query: Query) -> Counter:
    """Expected row bag for a read-only MATCH/WHERE/RETURN query.

    Returns a Counter of row tuples; node cells appear as ("node", id),
    primitives as their value tags.
    """
    bindings: list[dict] = [{}]
    for clause in query.clauses:
        if isinstance(clause, MatchClause):
            new: list[dict] = []
            for binding in bindings:
                matched: list[dict] = [binding]
                for path in clause.patterns:
                    step: list[dict] = []
                    for b in matched:
                        step.extend(_match_path_bruteforce(graph, path, b))
                    matched = step
                if matched:
                    new.extend(matched)
                elif clause.optional:
                    new.append(binding)
            bindings = new
        elif isinstance(clause, WhereClause):
            bindings = [b for b in bindings if _eval_simple(graph, b, clause.expr) is True]
        elif isinstance(clause, ReturnClause):
            leaves = [leaf for item in clause.items for leaf in _aggregate_leaves(item.expr)]
            if any(isinstance(leaf, Count) for leaf in leaves):
                if not bindings and leaves != [leaf for leaf in leaves if isinstance(leaf, Count)]:
                    return Counter()  # an item reads a row, and there is none
                row = tuple(_cell(_aggregate_item(graph, bindings, item.expr)) for item in clause.items)
                return Counter({row: 1})
            rows = []
            for b in bindings:
                cells = []
                for item in clause.items:
                    value = _eval_simple(graph, b, item.expr)
                    if value is None:
                        cells.append(("absent",))
                    else:
                        cells.append(value_tag_like(value))
                rows.append(tuple(cells))
            if clause.distinct:
                rows = list(dict.fromkeys(rows))
            return Counter(rows)
        else:
            raise AssertionError(f"oracle cannot run clause {clause!r}")
    raise AssertionError("query had no RETURN clause")


# --- tree invariant (worklist) -----------------------------------------------------


def worklist_repok(snapshot: HeapSnapshot, tree_id: int) -> bool:
    """Imperative invariant check for a rooted binary tree.

    Traverses left/right references from the root with a worklist.  Any
    node reached twice (cycle or sharing) fails; otherwise the number of
    visited nodes must equal the tree's size field.
    """
    tree = snapshot.object(tree_id)
    root = tree.fields.get("root")
    size = tree.fields.get("size", 0)
    if root is None:
        return size == 0
    visited = {root.id}
    queue = deque([root.id])
    while queue:
        current = snapshot.object(queue.popleft())
        for fieldname in ("left", "right"):
            child = current.fields.get(fieldname)
            if child is None:
                continue
            if child.id in visited:
                return False
            visited.add(child.id)
            queue.append(child.id)
    return len(visited) == size


# --- hash-map membership (imperative bucket walk) -----------------------------------


def hashmap_contains(snapshot: HeapSnapshot, map_id: int, probe_id: int) -> bool:
    """containsKey over the snapshot's bucket structure, the imperative way."""
    table = snapshot.object(map_id).fields.get("table")
    if table is None or not table.ids:
        return False
    probe = snapshot.object(probe_id)
    probe_hash = probe.fields["val"]
    bucket = table.ids[probe_hash % len(table.ids)]
    entry_id = bucket
    while entry_id is not None:
        entry = snapshot.object(entry_id)
        key = snapshot.object(entry.fields["key"].id)
        if key.cls == probe.cls and key.fields.get("val") == probe.fields.get("val"):
            return True
        nxt = entry.fields.get("next")
        entry_id = nxt.id if nxt is not None else None
    return False


# --- variable lookup -----------------------------------------------------------------


def binding_target(graph: PropertyGraph, name: str) -> int | None:
    """The node bound to variable ``name``, or None when it is unbound.

    A linear scan of every relationship in ascending id order: the binding
    is the first one labeled ``name`` that leaves a ``Local`` node.
    """
    for rel in sorted(graph.relationships(), key=lambda r: r.id):
        if rel.label == name and graph.node(rel.start).label == "Local":
            return rel.end
    return None


# --- field assignment replay ---------------------------------------------------------


def replay_field_assignments(
    nodes: list[tuple[int, str, dict]],
    fixed_edges: list[tuple[str, int, int]],
    initial_fields: dict[tuple[int, str], int],
    assignments: list[tuple[int, str, int]],
) -> PropertyGraph:
    """Expected graph after a FieldAssign sequence, built from a field table.

    ``nodes`` are (id, label, properties); ``fixed_edges`` are untouched
    relationships; ``initial_fields`` and ``assignments`` describe the
    mutable (node, field) -> target state.
    """
    fields = dict(initial_fields)
    for node_id, fieldname, target in assignments:
        fields[(node_id, fieldname)] = target
    graph = PropertyGraph()
    remap = {}
    for node_id, label, props in nodes:
        remap[node_id] = graph.add_node(label, props)
    for label, start, end in fixed_edges:
        graph.add_relationship(label, remap[start], remap[end])
    for (node_id, fieldname), target in sorted(fields.items()):
        graph.add_relationship(fieldname, remap[node_id], remap[target])
    return graph


# --- structural comparison -----------------------------------------------------------

ISO_NODE_LIMIT = 64


class SizeLimitExceededError(Exception):
    def __init__(self, size: int, limit: int):
        super().__init__(f"graph has {size} nodes, structural comparison is limited to {limit}")
        self.size = size
        self.limit = limit



def structurally_equal(g1: PropertyGraph, g2: PropertyGraph, *, max_nodes: int = ISO_NODE_LIMIT) -> bool:
    """Id-insensitive isomorphism of labeled, propertied multigraphs.

    True iff some bijection of nodes preserves labels, property maps and
    labeled relationships (with their property maps).  The reserved ``$uid``
    node property is identity metadata and is ignored.  Intended for small
    graphs; raises SizeLimitExceededError beyond ``max_nodes``.
    """
    for g in (g1, g2):
        if g.node_count > max_nodes:
            raise SizeLimitExceededError(g.node_count, max_nodes)
    if g1.node_count != g2.node_count or g1.relationship_count != g2.relationship_count:
        return False

    sig1 = _node_signatures(g1)
    sig2 = _node_signatures(g2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False

    candidates: dict[int, list[int]] = {}
    by_sig: dict[tuple, list[int]] = {}
    for node_id, sig in sig2.items():
        by_sig.setdefault(sig, []).append(node_id)
    for node_id, sig in sig1.items():
        candidates[node_id] = by_sig.get(sig, [])
        if not candidates[node_id]:
            return False

    # Most-constrained-first ordering keeps the backtracking shallow.
    order = sorted(candidates, key=lambda n: (len(candidates[n]), n))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def edges_between(g: PropertyGraph, a: int, b: int):
        out = []
        for rel, other in g.neighbors(a, "out"):
            if other.id == b:
                out.append((rel.label, canon_properties(rel.properties)))
        return sorted(out)

    def consistent(n1: int, n2: int) -> bool:
        for m1, m2 in mapping.items():
            if edges_between(g1, n1, m1) != edges_between(g2, n2, m2):
                return False
            if edges_between(g1, m1, n1) != edges_between(g2, m2, n2):
                return False
        return edges_between(g1, n1, n1) == edges_between(g2, n2, n2)

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        n1 = order[i]
        for n2 in candidates[n1]:
            if n2 in used or not consistent(n1, n2):
                continue
            mapping[n1] = n2
            used.add(n2)
            if extend(i + 1):
                return True
            del mapping[n1]
            used.remove(n2)
        return False

    return extend(0)


def _node_signatures(g: PropertyGraph) -> dict[int, tuple]:
    sigs = {}
    for node in g.nodes():
        out = sorted((rel.label, canon_properties(rel.properties)) for rel, _ in g.neighbors(node.id, "out"))
        inc = sorted((rel.label, canon_properties(rel.properties)) for rel, _ in g.neighbors(node.id, "in"))
        sigs[node.id] = (
            node.label,
            canon_properties(node.properties, ignore_uid=True),
            tuple(out),
            tuple(inc),
        )
    return sigs


# --- positional arguments -----------------------------------------------------------

# The textual expander that ran before the markers became tokens of the lexer,
# kept as the reference for the token path.  Unlike the lexer it binds markers
# inside // comments, and a substituted value can merge with adjacent text.


@dataclass(frozen=True)
class Expansion:
    """Result of positional-argument expansion.

    ``text`` is the expanded query when no ``[]`` marker is present;
    ``batch`` is the per-element expansion list otherwise.
    """

    text: str | None
    batch: tuple | None = None

    @property
    def is_batch(self) -> bool:
        return self.batch is not None

    def queries(self) -> list[str]:
        return list(self.batch) if self.is_batch else [self.text]


_MARKER_RE = re.compile(r"\$(\d+)|@(\d+)|\[\](\d+)")


def _argument(args, index: int, marker: str):
    if index < 1 or index > len(args):
        raise ExpansionError(f"positional argument {marker}{index} is out of range (got {len(args)} arguments)")
    return args[index - 1]


def expand_positional(fmt: str, args) -> Expansion:
    """Expand ``$k`` (unique id), ``@k`` (class name) and ``[]k`` (batch) markers.

    Markers inside string literals or backtick quotes are left alone, and
    text outside markers is preserved byte for byte.  At most one ``[]``
    marker is supported; it produces one query per collection element whose
    results are bag-unioned by the engine.
    """
    args = list(args)
    pieces: list[str] = []
    batch_site: int | None = None
    batch_values: list[int] | None = None
    i = 0
    n = len(fmt)
    while i < n:
        ch = fmt[i]
        if ch == "`":
            end = fmt.find("`", i + 1)
            if end == -1:
                pieces.append(fmt[i:])
                break
            pieces.append(fmt[i : end + 1])
            i = end + 1
            continue
        if ch in ("'", '"'):
            j = i + 1
            while j < n:
                if fmt[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if fmt[j] == ch:
                    break
                j += 1
            pieces.append(fmt[i : j + 1])
            i = j + 1
            continue
        m = _MARKER_RE.match(fmt, i)
        if not m:
            pieces.append(ch)
            i += 1
            continue
        if m.group(1) is not None:
            index = int(m.group(1))
            value = _argument(args, index, "$")
            if isinstance(value, bool) or not isinstance(value, int):
                raise ExpansionError(f"${index} needs a unique id (integer), got {value!r}")
            pieces.append(f"`{UID_KEY}`: {value}")
        elif m.group(2) is not None:
            index = int(m.group(2))
            value = _argument(args, index, "@")
            if not isinstance(value, str) or not value:
                raise ExpansionError(f"@{index} needs a class name (string), got {value!r}")
            pieces.append("`" + value.replace("`", "``") + "`")
        else:
            index = int(m.group(3))
            value = _argument(args, index, "[]")
            if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
                raise ExpansionError(f"[]{index} needs a collection of unique ids, got {value!r}")
            elements = list(value)
            for element in elements:
                if isinstance(element, bool) or not isinstance(element, int):
                    raise ExpansionError(f"[]{index} elements must be unique ids (integers), got {element!r}")
            if batch_site is not None:
                raise ExpansionError("only one [] marker is supported per query")
            batch_site = len(pieces)
            batch_values = elements
            pieces.append("")  # placeholder
        i = m.end()

    if batch_site is None:
        return Expansion("".join(pieces))
    texts = []
    for element in batch_values:
        pieces[batch_site] = f"`{UID_KEY}`: {element}"
        texts.append("".join(pieces))
    return Expansion(None, tuple(texts))


# --- snapshot loading --------------------------------------------------------------

# The two-pass loader that ran before ``load_snapshot`` checked each object while
# decoding it: every value is decoded without its declaration, then
# ``HeapSnapshot.validate`` walks the snapshot again.  Kept as the reference for
# the one-pass loader's results and error messages.


class _BadValue(Exception):
    """A field value ``_decode_value`` rejects; the caller adds the location."""

    def __init__(self, message: str, suffix: str = ""):
        self.message = message
        self.suffix = suffix  # the element index within the value, if any


def _decode_value(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        for i, element in enumerate(value):
            if not (element is None or isinstance(element, (bool, int, float, str))):
                raise _BadValue("primitive arrays may only hold JSON literals", f"[{i}]")
        return value
    if isinstance(value, dict):
        if set(value) == {"ref"}:
            if not isinstance(value["ref"], int) or isinstance(value["ref"], bool):
                raise _BadValue("ref must be an integer object id")
            return Ref(value["ref"])
        if set(value) == {"refs"}:
            ids = value["refs"]
            if not isinstance(ids, list):
                raise _BadValue("refs must be a list")
            for i, element in enumerate(ids):
                if element is not None and (not isinstance(element, int) or isinstance(element, bool)):
                    raise _BadValue("refs elements must be object ids or null", f"[{i}]")
            return RefArray(ids)
        raise _BadValue(f"unrecognized value object with keys {sorted(value)}")
    raise _BadValue(f"unsupported value {value!r}")


def _decode_values(raw: dict, section: str, index: int, part: str) -> dict:
    """Decode the name -> value map at ``{section}[{index}].{part}``.

    The location is formatted only when a value is rejected.
    """
    decoded = {}
    try:
        for name, value in raw.items():
            decoded[name] = _decode_value(value)
    except _BadValue as exc:
        raise SnapshotSchemaError(exc.message, f"{section}[{index}].{part}.{name}{exc.suffix}") from None
    return decoded


@collector_paused()
def reference_load_snapshot(data: bytes | str) -> HeapSnapshot:
    """Parse and eagerly validate a snapshot document."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or JSON nested too deeply
        raise SnapshotSchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SnapshotSchemaError("top level must be an object")
    for key in ("classes", "objects", "roots"):
        if key not in doc:
            raise SnapshotSchemaError(f"missing top-level key {key!r}")

    classes = []
    for i, raw in enumerate(doc["classes"]):
        path = f"classes[{i}]"
        if not isinstance(raw, dict) or "name" not in raw:
            raise SnapshotSchemaError("class entries need a name", path)
        fields = []
        for j, f in enumerate(raw.get("fields", [])):
            fpath = f"{path}.fields[{j}]"
            if not isinstance(f, dict) or not {"name", "kind", "type"} <= set(f):
                raise SnapshotSchemaError("field declarations need name/kind/type", fpath)
            fields.append(FieldDecl(f["name"], f["kind"], f["type"]))
        statics = _decode_values(raw.get("statics", {}), "classes", i, "statics")
        classes.append(ClassInfo(raw["name"], raw.get("superclass"), tuple(fields), statics))

    objects = []
    for i, raw in enumerate(doc["objects"]):
        if not isinstance(raw, dict) or "id" not in raw or "class" not in raw:
            raise SnapshotSchemaError("object entries need id and class", f"objects[{i}]")
        if not isinstance(raw["id"], int) or isinstance(raw["id"], bool):
            raise SnapshotSchemaError("object id must be an integer", f"objects[{i}]")
        fields = _decode_values(raw.get("fields", {}), "objects", i, "fields")
        objects.append(HeapObject(raw["id"], raw["class"], fields))

    roots = doc["roots"]
    if not isinstance(roots, dict):
        raise SnapshotSchemaError("roots must be an object", "roots")
    parsed_roots = {}
    for name, target in roots.items():
        if not isinstance(target, int) or isinstance(target, bool):
            raise SnapshotSchemaError("root targets must be object ids", f"roots.{name}")
        parsed_roots[name] = target

    snapshot = HeapSnapshot(classes, objects, parsed_roots)
    snapshot.validate()
    return snapshot
