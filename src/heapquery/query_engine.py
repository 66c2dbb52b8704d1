"""Evaluation of validated query ASTs against a PropertyGraph.

Matching semantics:

* Patterns in one clause are matched left to right, threading bindings; a
  relationship may not be reused within a single path match.
* Variable-length segments enumerate relationship-distinct paths depth
  first.  They express reachability: when the segment's target variable is
  not already bound, paths of one or more hops that lead back to the
  segment's start node are discarded.  Closed walks are matched only when
  the target is pinned to the start (e.g. ``(m)-[:f*1..]->(m)``), and
  zero-length paths (``*0..``) always stay on the start node.
* Paths have no length limit: the matcher is one loop over an explicit
  stack, not a recursion per hop.
* A closed walk of no upper bound, out or in (``(m)-[:f*]->(m)``), only
  steps inside its start's strongly connected component, found by Tarjan's
  algorithm: a cost cut only, since no pruned branch could return.
* When such a walk opens a path and needs a hop (``*1..``), each start with
  no step into its own component is dropped before it is bound: none closes.
* Each node's ``neighbors`` list and strongly connected component are read
  from the graph's ``traversal_memo``, and entered there when missing, so
  they are kept across paths, rows and queries until a relationship write.
* Reachability consumed only as a set is a breadth-first search instead of
  path enumeration.  That holds for a single non-optional MATCH of one
  variable-length segment (no relationship variable, lower bound 0 or 1)
  into a fresh target variable, followed only by ``RETURN DISTINCT ...`` or
  a RETURN whose every count is ``count(DISTINCT ...)``.  Its rows are the
  distinct rows of the enumeration, ordered by start id, then target id.
  Everything else, ``count(n)`` included, enumerates paths.
* A start node pattern with an integer ``$uid`` or a label is looked up in
  the graph's ``$uid`` or label index, so it costs O(matches), not O(nodes);
  a label alone builds no node.
* A query of non-optional MATCH clauses, at most one WHERE after them and a
  RETURN with a count is planned (``_planned``): single-node clauses pinned
  by ``$uid`` run first; a WHERE that is exactly ``equals(x, y)``, with ``y``
  bound, gives ``x`` its candidates from the graph's equality index; and a
  path whose last node is anchored (bound, ``$uid``, or such candidates) is
  matched backwards (``_match_planned``).  The rows are the same bag; only
  their order changes, which the count hides.  Matching backwards fills a ``SnapshotGraph``.
* OPTIONAL MATCH yields one row with the clause's new variables absent when
  nothing matches.
* Comparisons and boolean operators use three-valued logic; WHERE keeps a
  row only when its expression is strictly true.
* ``equals(a, b)`` is true for the same node, or for nodes with the same
  label and the same user-visible property map (the ``$uid`` identity key
  is ignored); on primitives it is type-sensitive value equality.
* CREATE instantiates its pattern once per row; MERGE binds every match of
  its whole pattern, or atomically creates the whole pattern when absent.
* An aggregating RETURN item is one ``eval_expression`` call on the last row
  plus its counts' values, each keyed by the id of its ``Count`` node (an
  int, never a variable name; ``_aggregate_row``).  Its counts, and its reads
  outside them, which must be constant across rows, come first, in preorder.
  With no rows, a RETURN whose items read a row gives none.

Row order is deterministic: candidates are enumerated by ascending node and
relationship id in clause order (reachability by breadth-first search:
ascending target id).  Planned queries, whose rows only a count reads, are
the exception.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from .cypher_ast import (
    And,
    Comparison,
    Count,
    CreateClause,
    EqualsCall,
    Literal,
    MatchClause,
    MergeClause,
    NodePattern,
    Not,
    Or,
    PathPattern,
    PropertyAccess,
    Query,
    RelPattern,
    ReturnClause,
    Variable,
    WhereClause,
    expression_text,
    find_counts,
    pattern_variables,
    walk,
)
from .errors import ExecutionError, TypeMismatchError
from .property_graph import (
    UID_KEY,
    PropertyGraph,
    ensure_user_label,
    strong_components,
    value_tag,
    values_equal,
)


class _Absent:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "absent"


ABSENT = _Absent()


@dataclass(frozen=True, slots=True)
class NodeRef:
    id: int


@dataclass(frozen=True)
class RelRef:
    id: int


_new_node_ref, _set_node_id = object.__new__, NodeRef.id.__set__  # NodeRef without the frozen __init__


def cell_tag(value) -> tuple:
    """Hashable canonical form of a result cell (for DISTINCT and bags)."""
    if value is ABSENT:
        return ("absent",)
    if isinstance(value, NodeRef):
        return ("node", value.id)
    if isinstance(value, RelRef):
        return ("rel", value.id)
    return value_tag(value)


@dataclass
class ResultTable:
    columns: list
    rows: list

    @property
    def row_count(self) -> int:
        return len(self.rows)


# --- pattern matching ---------------------------------------------------------


def _node_matches(graph: PropertyGraph, node_id: int, pattern: NodePattern) -> bool:
    node = graph.node(node_id)
    if pattern.label is not None and node.label != pattern.label:
        return False
    for key, literal in pattern.properties:
        if key not in node.properties or not values_equal(node.properties[key], literal.value):
            return False
    return True


def _uid_literal(pattern: NodePattern) -> int | None:
    """The pattern's first integer ``$uid`` literal, if any."""
    for key, literal in pattern.properties:
        if key == UID_KEY and isinstance(literal.value, int) and not isinstance(literal.value, bool):
            return literal.value
    return None


def _start_candidates(graph: PropertyGraph, pattern: NodePattern, binding: dict) -> list[int]:
    """Ids of the nodes a path may start from, ascending.

    A bound variable gives its one node; otherwise the ``$uid`` index (for an
    integer ``$uid`` literal), then the label index, then a full scan supply
    the candidates, each checked against the whole pattern.  A pattern of a
    label alone takes the label index's ids as they are, building no node.
    """
    if pattern.var is not None and pattern.var in binding:
        value = binding[pattern.var]
        if value is ABSENT:
            return []
        if not isinstance(value, NodeRef):
            raise ExecutionError(f"variable {pattern.var!r} is not a node")
        return [value.id] if _node_matches(graph, value.id, pattern) else []
    if pattern.label is not None and not pattern.properties:
        return graph.node_ids_with_label(pattern.label)
    uid = _uid_literal(pattern)
    if uid is not None:
        candidates = graph.nodes_with_uid(uid)
    elif pattern.label is not None:
        candidates = graph.nodes_with_label(pattern.label)
    else:
        candidates = graph.nodes()
    return [n.id for n in candidates if _node_matches(graph, n.id, pattern)]


def _bind(graph: PropertyGraph, binding: dict, pattern: NodePattern, node_id: int, checked: bool = False) -> dict | None:
    """``binding`` with the pattern's variable bound to ``node_id``, or None.

    None when the variable is already bound to something else or, with
    ``checked``, when the node does not match the pattern's label and
    properties.  A bound variable is compared first, the cheaper test.  The
    binding is copied only when a new variable is bound.
    """
    var = pattern.var
    pinned = var is not None and var in binding
    if pinned:
        bound = binding[var]
        if bound.__class__ is not NodeRef or bound.id != node_id:
            return None
    if checked and (
        not _node_matches(graph, node_id, pattern) if pattern.properties else graph.node(node_id).label != pattern.label
    ):
        return None
    if var is None or pinned:
        return binding
    new = binding.copy()
    new[var] = ref = _new_node_ref(NodeRef)
    _set_node_id(ref, node_id)
    return new


def _match_path(
    graph: PropertyGraph,
    path: PathPattern,
    binding: dict,
    reach_only: bool = False,
    starts: list[int] | None = None,
    reverse: bool = False,
) -> list[dict]:
    """All extensions of ``binding`` along ``path``, depth first by ascending id.

    One loop over an explicit stack, so the number of hops is not limited by
    Python's recursion depth.  The stack holds search states and, below the
    states entered through a relationship, that relationship's id (an int):
    popping the id releases it for reuse, as returning from a recursive call
    would.  ``reach_only`` (see ``_reach_only``) switches a fresh target to
    set-semantics reachability.  ``starts`` are the ids the match starts
    from, ascending and already checked against the start node's pattern
    (default: ``_start_candidates``).  ``reverse`` matches the path from its
    last node, which gives the same rows in another order when
    ``_reversible`` holds; ``starts`` are then the last node's candidates.
    An unbounded out or in segment that must end where it starts steps only
    inside its start's strongly connected component (``strong_components``),
    and as the first segment, with a hop needed, drops starts with no step
    into theirs: neither could return, so the rows stay the same.  Steps and
    components are read from, and entered in, the graph's ``traversal_memo``.
    """
    if reach_only and path.nodes[-1].var not in binding:
        return _match_reachable(graph, _reversed(path) if reverse else path, binding, starts)
    # Whether a closed walk counts in each segment; None: when the target is bound.
    closes = [None] * len(path.rels)
    if reverse:
        # The forward rule, carried over: where the forward target was bound on entry.
        closes = [node.var in binding for node in reversed(path.nodes[1:])]
        path = _reversed(path)
    first = path.nodes[0]
    last = len(path.rels)
    plan = []
    for seg, rel in enumerate(path.rels):
        node = path.nodes[seg + 1]
        checked = node.label is not None or bool(node.properties)
        lo, hi = rel.hops.bounds()
        types = frozenset(rel.types) if rel.types else None
        adjacency, comps = graph.traversal_memo(rel.direction, types)
        steps = partial(_steps, graph, adjacency, rel.direction, types)
        # Only a segment that must end where it starts reads components.
        returns = hi is None and rel.direction != "both" and node.var is not None and node.var == path.nodes[seg].var
        plan.append((rel, rel.hops.variable_length, lo, hi, node, checked, closes[seg], steps, comps if returns else None))

    results: list[dict] = []
    used: set[int] = set()
    # state: (segment, segment start node, node, hops into segment, binding, relationship entered by)
    stack: list = []
    if starts is None:
        starts = _start_candidates(graph, first, binding)
    if plan and plan[0][8] is not None and plan[0][2] >= 1:
        # A start with no step into its own component has no closed walk.
        steps, comps = plan[0][7:]
        kept = []
        for node_id in starts:
            scc = _component(node_id, steps, comps)
            for _, other in steps(node_id):
                if comps[other.id] == scc:
                    kept.append(node_id)
                    break
        starts = kept
    for node_id in reversed(starts):
        start_binding = _bind(graph, binding, first, node_id)
        if start_binding is not None:
            stack.append((0, node_id, node_id, 0, start_binding, None))
    if not path.rels:
        return [state[4] for state in reversed(stack)]
    while stack:
        item = stack.pop()
        if item.__class__ is int:
            used.discard(item)
            continue
        seg, seg_start, node_id, depth, binding, via = item
        if via is not None:
            used.add(via)
            stack.append(via)
        rel_pattern, variable_length, lo, hi, target, checked, closes, next_steps, comps = plan[seg]
        steps = next_steps(node_id)
        ends = seg + 1 == last
        if not variable_length:
            found = []
            for rel, other in steps:
                if rel.id in used:
                    continue
                nxt = _bind(graph, binding, target, other.id, checked)
                if nxt is None:
                    continue
                if rel_pattern.var is not None:
                    if rel_pattern.var in nxt:
                        bound = nxt[rel_pattern.var]
                        if not isinstance(bound, RelRef) or bound.id != rel.id:
                            continue
                    else:
                        nxt = dict(nxt)
                        nxt[rel_pattern.var] = RelRef(rel.id)
                found.append((seg + 1, other.id, other.id, 0, nxt, rel.id))
            if ends:
                results.extend(state[4] for state in found)
            else:
                stack.extend(reversed(found))
            continue
        if hi is None or depth < hi:
            scc = None if comps is None else _component(seg_start, next_steps, comps)
            for rel, other in reversed(steps):
                if rel.id not in used and (scc is None or comps[other.id] == scc):
                    stack.append((seg, seg_start, other.id, depth + 1, binding, rel.id))
        # A path may end here; it is explored before any longer one.  A
        # closed walk counts only when the target is pinned to a bound node.
        if depth >= lo and (
            depth == 0 or node_id != seg_start or (target.var in binding if closes is None else closes)
        ):
            nxt = _bind(graph, binding, target, node_id, checked)
            if nxt is not None and ends:
                results.append(nxt)
            elif nxt is not None:
                stack.append((seg + 1, node_id, node_id, 0, nxt, None))
    return results


def _steps(graph: PropertyGraph, adjacency: dict, direction: str, types, node_id: int) -> list:
    """``graph.neighbors(node_id, direction, types)``, read from or entered in ``adjacency``.

    ``adjacency`` is the graph's kept map for ``direction`` and ``types``
    (``PropertyGraph.traversal_memo``).
    """
    steps = adjacency.get(node_id)
    if steps is None:
        steps = adjacency[node_id] = graph.neighbors(node_id, direction, types)
    return steps


def _component(node_id: int, steps, comps: dict) -> int:
    """``comps[node_id]``, entered first by ``strong_components`` when missing."""
    if node_id not in comps:
        strong_components(node_id, steps, comps)
    return comps[node_id]


def _reachable(graph: PropertyGraph, start: int, rel_pattern: RelPattern) -> list[int]:
    """Ids of the nodes a variable-length segment with ``lo <= 1`` reaches, ascending.

    Breadth-first search with a visited set, bounded by ``hi`` hops.  A node
    other than ``start`` is reachable by a relationship-distinct path of
    ``lo..hi`` hops exactly when its shortest distance is at most ``hi``,
    because a shortest path never repeats a relationship; ``start`` itself
    counts only at zero hops, i.e. when ``lo`` is 0.
    """
    lo, hi = rel_pattern.hops.bounds()
    direction = rel_pattern.direction
    types = frozenset(rel_pattern.types) if rel_pattern.types else None
    adjacency = graph.traversal_memo(direction, types)[0]
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier and (hi is None or depth < hi):
        depth += 1
        reached = []
        for node_id in frontier:
            for _, other in _steps(graph, adjacency, direction, types, node_id):
                if other.id not in seen:
                    seen.add(other.id)
                    reached.append(other.id)
        frontier = reached
    if lo > 0:
        seen.discard(start)
    return sorted(seen)


def _match_reachable(graph: PropertyGraph, path: PathPattern, binding: dict, starts: list[int] | None) -> list[dict]:
    """One row per (start, reachable target) pair: the path bag with duplicates removed."""
    first, target = path.nodes
    checked = target.label is not None or bool(target.properties)
    rows = []
    for start in _start_candidates(graph, first, binding) if starts is None else starts:
        start_binding = _bind(graph, binding, first, start)
        if start_binding is None:
            continue
        for node_id in _reachable(graph, start, path.rels[0]):
            row = _bind(graph, start_binding, target, node_id, checked)
            if row is not None:
                rows.append(row)
    return rows


def _reach_only(clause, later: tuple) -> bool:
    """True when the MATCH clause may use set-semantics reachability.

    That is when matching by reachability gives the same result as the path
    bag: the clause is one non-optional MATCH of a single variable-length
    segment with no relationship variable, at most one lower hop and a named
    target that is not the start; and the only clause after it is a RETURN
    that is DISTINCT without aggregation, or whose every count is
    ``count(DISTINCT ...)``.  Rows then differ from enumeration only in
    multiplicity and order (ascending start, then target id).  The target
    must also be unbound when matching (checked in ``_match_path``).
    """
    if not isinstance(clause, MatchClause) or clause.optional or len(clause.patterns) != 1:
        return False
    path = clause.patterns[0]
    if len(path.rels) != 1:
        return False
    rel = path.rels[0]
    first, target = path.nodes
    if not rel.hops.variable_length or rel.var is not None or rel.hops.bounds()[0] > 1:
        return False
    if target.var is None or target.var == first.var:
        return False
    if len(later) != 1 or not isinstance(later[0], ReturnClause):
        return False
    counts = [count for item in later[0].items for count in find_counts(item.expr)]
    if counts:
        return all(count.distinct for count in counts)
    return later[0].distinct


def _extensions(
    graph: PropertyGraph, patterns, seed: dict, reach_only: bool = False, probe: dict | None = None
) -> list[dict]:
    """All extensions of ``seed`` satisfying every pattern, left to right.

    With a ``probe`` (see ``_planned``) each path is matched from its
    selective end, and the rows come in no defined order.
    """
    acc = [seed]
    for path in patterns:
        if probe is None:
            acc = [match for binding in acc for match in _match_path(graph, path, binding, reach_only)]
        else:
            acc = [match for binding in acc for match in _match_planned(graph, path, binding, reach_only, probe)]
        if not acc:
            break
    return acc


# --- planning -------------------------------------------------------------------

_FLIPPED = {"out": "in", "in": "out", "both": "both"}


def _planned(query: Query) -> tuple[tuple, dict | None]:
    """The clauses to run, and the equality probe when the planner applies.

    The planner applies to a query of non-optional MATCH clauses, then at
    most one WHERE, then a RETURN that aggregates, so that row order cannot
    show.  It moves the single-node MATCH clauses pinned by an integer
    ``$uid`` to the front, each unless an earlier clause names its variable,
    and reads a WHERE that is exactly ``equals(x, y)`` as the probe
    ``{x: y, y: x}`` (empty otherwise).  The WHERE still runs.  Without the
    planner the probe is None.
    """
    *body, last = query.clauses or (None,)
    where = body.pop() if body and isinstance(body[-1], WhereClause) else None
    if not (isinstance(last, ReturnClause) and any(find_counts(item.expr) for item in last.items)):
        return query.clauses, None
    if not body or not all(isinstance(clause, MatchClause) and not clause.optional for clause in body):
        return query.clauses, None
    pinned, rest, named = [], [], set()
    for clause in body:
        node = clause.patterns[0].nodes[0]
        single = len(clause.patterns) == 1 and not clause.patterns[0].rels
        if single and _uid_literal(node) is not None and node.var not in named:
            pinned.append(clause)
        else:
            rest.append(clause)
        named.update(pattern_variables(clause.patterns))
    probe = {}
    if where is not None:
        sides = (where.expr.left, where.expr.right) if isinstance(where.expr, EqualsCall) else ()
        if all(isinstance(side, Variable) for side in sides):
            probe = {side.name: other.name for side, other in zip(sides, reversed(sides))}
        rest.append(where)
    return (*pinned, *rest, last), probe


def _match_planned(graph: PropertyGraph, path: PathPattern, binding: dict, reach_only: bool, probe: dict) -> list[dict]:
    """``_match_path``, from the last node of ``path`` when ``_reversible`` holds and that end is anchored."""
    if path.rels and _reversible(path, binding):
        ends = _anchor(graph, path.nodes[-1], binding, probe)
        if ends is not None:
            return _match_path(graph, path, binding, reach_only, ends, reverse=True)
    return _match_path(graph, path, binding, reach_only, _anchor(graph, path.nodes[0], binding, probe))


def _anchor(graph: PropertyGraph, pattern: NodePattern, binding: dict, probe: dict) -> list[int] | None:
    """Candidate ids of an anchored end node, ascending; None when it is not anchored.

    An end is anchored by a bound variable, an integer ``$uid`` literal, or a
    probe partner bound to a node: the nodes ``equals`` can hold for are then
    read from the equality index.
    """
    if pattern.var in binding or _uid_literal(pattern) is not None:
        return _start_candidates(graph, pattern, binding)
    other = binding.get(probe.get(pattern.var))
    if isinstance(other, NodeRef):
        return [node_id for node_id in graph.equal_nodes(other.id) if _node_matches(graph, node_id, pattern)]
    return None


def _reversible(path: PathPattern, binding: dict) -> bool:
    """True when matching ``path`` from its last node gives the same rows.

    Every variable occurs once in the path, and none but the last node's is
    bound on entry.  The closed-walk rule then depends only on which nodes
    were bound on entry, which ``_match_path`` carries over to the reversed
    pattern; a repeated variable would make it depend on the direction.
    """
    names = [node.var for node in path.nodes] + [rel.var for rel in path.rels]
    names = [name for name in names if name is not None]
    anchor = path.nodes[-1].var
    return len(names) == len(set(names)) and all(name == anchor or name not in binding for name in names)


def _reversed(path: PathPattern) -> PathPattern:
    """``path`` read from its last node: nodes and relationships reversed, directions flipped."""
    rels = tuple(replace(rel, direction=_FLIPPED[rel.direction]) for rel in reversed(path.rels))
    return PathPattern(tuple(reversed(path.nodes)), rels)


# --- expressions -----------------------------------------------------------------


def _compare_eq(left, right) -> bool:
    if isinstance(left, NodeRef) or isinstance(right, NodeRef):
        return isinstance(left, NodeRef) and isinstance(right, NodeRef) and left.id == right.id
    if isinstance(left, RelRef) or isinstance(right, RelRef):
        return isinstance(left, RelRef) and isinstance(right, RelRef) and left.id == right.id
    return values_equal(left, right)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compare_order(op: str, left, right) -> bool:
    if _is_number(left) and _is_number(right):
        pass
    elif isinstance(left, str) and isinstance(right, str):
        pass
    else:
        raise TypeMismatchError(f"cannot order {left!r} {op} {right!r}")
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def _structural_equals(graph: PropertyGraph, left, right):
    if left is ABSENT or right is ABSENT:
        return ABSENT
    if isinstance(left, NodeRef) and isinstance(right, NodeRef):
        return left.id == right.id or graph.structural_key(left.id) == graph.structural_key(right.id)
    if isinstance(left, (NodeRef, RelRef)) or isinstance(right, (NodeRef, RelRef)):
        return False
    return values_equal(left, right)


def eval_expression(binding: dict, expr, graph: PropertyGraph):
    """Evaluate an expression under a row binding; may yield ABSENT."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Variable):
        if expr.name not in binding:
            raise ExecutionError(f"unbound variable {expr.name!r}")
        return binding[expr.name]
    if isinstance(expr, PropertyAccess):
        if expr.var not in binding:
            raise ExecutionError(f"unbound variable {expr.var!r}")
        value = binding[expr.var]
        if value is ABSENT:
            return ABSENT
        if isinstance(value, NodeRef):
            return graph.node(value.id).properties.get(expr.key, ABSENT)
        if isinstance(value, RelRef):
            return graph.relationship(value.id).properties.get(expr.key, ABSENT)
        raise TypeMismatchError(f"{expr.var!r} has no properties")
    if isinstance(expr, Comparison):
        left = eval_expression(binding, expr.left, graph)
        right = eval_expression(binding, expr.right, graph)
        if left is ABSENT or right is ABSENT:
            return ABSENT
        if expr.op == "=":
            return _compare_eq(left, right)
        if expr.op == "<>":
            return not _compare_eq(left, right)
        return _compare_order(expr.op, left, right)
    if isinstance(expr, EqualsCall):
        left = eval_expression(binding, expr.left, graph)
        right = eval_expression(binding, expr.right, graph)
        return _structural_equals(graph, left, right)
    if isinstance(expr, (And, Or)):
        # Folded left to right; an operand is evaluated only after the one
        # before it is combined, so errors come in the order of a binary chain.
        word, dominant = ("AND", False) if isinstance(expr, And) else ("OR", True)
        first, *rest = expr.operands
        value = eval_expression(binding, first, graph)
        for operand in rest:
            value = _kleene(word, dominant, value, eval_expression(binding, operand, graph))
        return value
    if isinstance(expr, Not):
        value = eval_expression(binding, expr.operand, graph)
        if value is ABSENT:
            return ABSENT
        _require_bool(value, "NOT")
        return not value
    if isinstance(expr, Count):
        if id(expr) in binding:  # an aggregating RETURN item's row (``_aggregate_row``)
            return binding[id(expr)]
        raise ExecutionError("count(...) outside RETURN")
    raise ExecutionError(f"cannot evaluate {expr!r}")


def _require_bool(value, where: str):
    if not isinstance(value, bool):
        raise TypeMismatchError(f"{where} needs a boolean, got {value!r}")


def _kleene(word: str, dominant: bool, left, right):
    """Three-valued AND (``dominant`` False) or OR (``dominant`` True) of two operands."""
    for v in (left, right):
        if v is not ABSENT:
            _require_bool(v, word)
    if left is dominant or right is dominant:
        return dominant
    if left is ABSENT or right is ABSENT:
        return ABSENT
    return not dominant


# --- clause execution ----------------------------------------------------------


def _match_clause(
    graph: PropertyGraph, clause: MatchClause, rows: list[dict], reach_only: bool, probe: dict | None = None
) -> list[dict]:
    absent = dict.fromkeys(pattern_variables(clause.patterns), ABSENT)
    joins = set(absent)
    if probe:
        joins.update(probe[name] for name in absent if name in probe)
    if rows and joins.isdisjoint(rows[0]):
        # no variable joins the incoming rows (they all bind the same names): match once, cross-join
        base = _extensions(graph, clause.patterns, {}, reach_only, probe)
        if not base and clause.optional:
            base = [absent]
        return [{**row, **extension} for row in rows for extension in base]
    out: list[dict] = []
    for row in rows:
        matched = _extensions(graph, clause.patterns, row, reach_only, probe)
        if matched:
            out.extend(matched)
        elif clause.optional:
            out.append({**absent, **row})
    return out


def _where_clause(graph: PropertyGraph, clause: WhereClause, rows: list[dict]) -> list[dict]:
    kept = []
    for row in rows:
        value = eval_expression(row, clause.expr, graph)
        if value is True:
            kept.append(row)
        elif value is not ABSENT:
            _require_bool(value, "WHERE")
    return kept


def _resolve_write_node(graph: PropertyGraph, binding: dict, pattern: NodePattern) -> tuple[int, dict]:
    if pattern.var is not None and pattern.var in binding:
        value = binding[pattern.var]
        if value is ABSENT:
            raise ExecutionError(f"cannot write through absent variable {pattern.var!r}")
        if not isinstance(value, NodeRef):
            raise ExecutionError(f"variable {pattern.var!r} is not a node")
        return value.id, binding
    ensure_user_label(pattern.label)
    props = {key: literal.value for key, literal in pattern.properties}
    node_id = graph.add_node(pattern.label, props)
    if pattern.var is not None:
        binding = dict(binding)
        binding[pattern.var] = NodeRef(node_id)
    return node_id, binding


def _create_path(graph: PropertyGraph, binding: dict, path: PathPattern) -> dict:
    node_ids = []
    for pattern in path.nodes:
        node_id, binding = _resolve_write_node(graph, binding, pattern)
        node_ids.append(node_id)
    for i, rel in enumerate(path.rels):
        start, end = node_ids[i], node_ids[i + 1]
        if rel.direction == "in":
            start, end = end, start
        rel_id = graph.add_relationship(rel.types[0], start, end)
        if rel.var is not None:
            binding = dict(binding)
            binding[rel.var] = RelRef(rel_id)
    return binding


def _create_clause(graph: PropertyGraph, clause: CreateClause, rows: list[dict]) -> list[dict]:
    out = []
    for row in rows:
        for path in clause.patterns:
            row = _create_path(graph, row, path)
        out.append(row)
    return out


def _merge_clause(graph: PropertyGraph, clause: MergeClause, rows: list[dict]) -> list[dict]:
    out = []
    for row in rows:
        matches = _match_path(graph, clause.pattern, row)
        if matches:
            out.extend(matches)
        else:
            out.append(_create_path(graph, row, clause.pattern))
    return out


# --- RETURN projection -----------------------------------------------------------


def _count(count: Count, rows: list[dict], graph: PropertyGraph) -> int:
    """The value of ``count`` over ``rows``."""
    if count.expr is None:
        return len(rows)
    try:  # a variable is read from each row, unless a row lacks it
        values = [row[count.expr.name] for row in rows] if isinstance(count.expr, Variable) else None
    except KeyError:
        values = None
    if values is None:
        values = [eval_expression(row, count.expr, graph) for row in rows]
    values = [value for value in values if value is not ABSENT]
    return len({cell_tag(v) for v in values}) if count.distinct else len(values)


def _check_constant(leaf, rows: list[dict], graph: PropertyGraph) -> None:
    """Raise unless the variable or property read ``leaf`` has one value across ``rows``."""
    # The leaf's value depends only on the variable's value: one row per
    # distinct bound object (by identity, first occurrence first) will do.
    name = leaf.name if isinstance(leaf, Variable) else leaf.var
    firsts: dict[int, dict] = {}
    try:
        for row in rows:
            firsts.setdefault(id(row[name]), row)
        sample = firsts.values()
    except KeyError:
        sample = rows
    if len({cell_tag(eval_expression(row, leaf, graph)) for row in sample}) > 1:
        raise ExecutionError(
            f"{expression_text(leaf)} is not constant across rows; grouped aggregation is not supported"
        )


def _aggregate_row(expr, rows: list[dict], graph: PropertyGraph) -> dict:
    """The last of ``rows`` (``{}`` with none) plus the value of each count in ``expr``, keyed by its id.

    The leaves of ``expr`` are handled first, in preorder: a count is
    computed, and a variable or property read outside a count checked.
    """
    row = {**rows[-1]} if rows else {}
    for leaf in walk(expr, Count):
        if isinstance(leaf, Count):
            row[id(leaf)] = _count(leaf, rows, graph)
        elif isinstance(leaf, (Variable, PropertyAccess)):
            _check_constant(leaf, rows, graph)
    return row


def _return_clause(graph: PropertyGraph, clause: ReturnClause, rows: list[dict]) -> ResultTable:
    columns = [item.alias or expression_text(item.expr) for item in clause.items]
    if any(find_counts(item.expr) for item in clause.items):
        reads = (Variable, PropertyAccess)  # outside a count: they need a row
        if not rows and any(isinstance(leaf, reads) for item in clause.items for leaf in walk(item.expr, Count)):
            return ResultTable(columns, [])
        row = tuple(eval_expression(_aggregate_row(item.expr, rows, graph), item.expr, graph) for item in clause.items)
        table_rows = [row]
    else:
        table_rows = [
            tuple(eval_expression(row, item.expr, graph) for item in clause.items) for row in rows
        ]
    if clause.distinct:
        seen = set()
        deduped = []
        for row in table_rows:
            key = tuple(cell_tag(v) for v in row)
            if key not in seen:
                seen.add(key)
                deduped.append(row)
        table_rows = deduped
    return ResultTable(columns, table_rows)


# --- entry points ------------------------------------------------------------------


def execute(query: Query, graph: PropertyGraph) -> tuple[ResultTable, PropertyGraph]:
    """Run a validated query; returns the result table and the graph.

    Writes are applied in clause order with no rollback: a failing clause
    leaves earlier writes in place.  Callers needing atomicity should copy
    the graph first.
    """
    rows: list[dict] = [{}]
    table: ResultTable | None = None
    clauses, probe = _planned(query)
    for i, clause in enumerate(clauses):
        if isinstance(clause, CreateClause):
            rows = _create_clause(graph, clause, rows)
        elif isinstance(clause, MergeClause):
            rows = _merge_clause(graph, clause, rows)
        elif isinstance(clause, MatchClause):
            rows = _match_clause(graph, clause, rows, _reach_only(clause, clauses[i + 1 :]), probe)
        elif isinstance(clause, WhereClause):
            rows = _where_clause(graph, clause, rows)
        elif isinstance(clause, ReturnClause):
            table = _return_clause(graph, clause, rows)
        else:
            raise ExecutionError(f"cannot execute clause {clause!r}")
    if table is None:
        raise ExecutionError("query has no RETURN clause")
    return table, graph


def execute_batch(queries, graph: PropertyGraph) -> tuple[ResultTable, PropertyGraph]:
    """Run the queries of a batch in order, bag-unioning their rows."""
    columns: list | None = None
    rows: list = []
    for query in queries:
        table, graph = execute(query, graph)
        if columns is None:
            columns = table.columns
        elif columns != table.columns:
            raise ExecutionError(f"batch queries disagree on columns: {columns} vs {table.columns}")
        rows.extend(table.rows)
    return ResultTable(columns or [], rows), graph
