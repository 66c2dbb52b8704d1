"""Evaluation of validated query ASTs against a PropertyGraph.

Matching semantics:

* Patterns in one clause are matched left to right, threading bindings; a
  relationship may not be reused within a single path match.
* Every segment enumerates relationship-distinct paths depth first, a
  single hop being the segment ``1..1``, which may return to its start.
  Variable-length segments express reachability: a path of one or more
  hops back to the segment's start counts only when the target's variable
  is bound on entry or by an earlier node of the path (e.g.
  ``(m)-[:f*1..]->(m)``); an anonymous target never is.  Zero-length
  paths (``*0..``) always stay on the start node.
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
* ``prepare`` makes every decision that depends on neither the graph nor the
  ids a query's parameters give, once per query (``Plan``): the clause order
  and the probe (``_planned``), each MATCH's shortcut (``_shortcut``), the
  RETURN's summary and columns, and each path's matcher fields (``_Path``).
  The variables bound on entry to a clause are known then, since every row
  entering it binds the same names.  ``execute`` runs a query against a plan.
* A ``$k`` or ``[]k`` marker's ``$uid`` entry is a ``Slot``, a parameter:
  ``execute`` starts from the row of the parameters (``params``), so every
  row maps each Slot to its id, and a node pattern reads the id from the row
  it is matched under (``_value``).  A query runs as it was parsed, with no
  copy per call or per id of a ``[]k`` batch (``execute_batch``).
* ``_shortcut`` answers "reach", "count" or None for each MATCH clause.
* "reach": reachability consumed only as a set is a breadth-first search
  instead of path enumeration.  That holds for a single non-optional MATCH
  of one variable-length segment (no relationship variable, lower bound 0
  or 1) into a fresh target variable, followed only by ``RETURN DISTINCT
  ...`` or a RETURN whose every count is ``count(DISTINCT ...)``.  Its rows
  are the distinct rows of the enumeration, ordered by start id, then
  target id.
* "count": a query of one non-optional MATCH of one path and a RETURN whose
  only reads of the rows are ``count(m)``, ``count(DISTINCT m)``,
  ``count(n)`` or ``count(*)``, ``m`` being the path's last node and ``n``
  its start, builds no row: the MATCH gives each target's multiplicity
  instead (``_multiplicities``), whose sum ``count(n)`` is, as every row
  binds the start.  A lone node's candidates count once each.  One
  unbounded out or in segment (no relationship variable, lower bound 0 or
  1, a target that is not the start and has no integer ``$uid``) counts its
  walks by a dynamic program in topological order, when no step of the
  region it reaches stays inside a strongly connected component: there
  every walk is a trail.  A region with a cycle enumerates paths, and so
  does everything else.
* A start node pattern with an integer ``$uid`` or a label is looked up in
  the graph's ``$uid`` or label index, so it costs O(matches), not O(nodes);
  a label alone builds no node.
* A query of non-optional MATCH clauses, at most one WHERE after them and a
  RETURN with a count is planned (``_planned``): single-node clauses pinned
  by ``$uid`` run first; a WHERE that is exactly ``equals(x, y)``, with ``y``
  bound, gives ``x`` its candidates from the graph's equality index; and a
  path whose last node is anchored (bound, ``$uid``, or such candidates) is
  matched backwards, else from its first node's anchor (``_extensions``).
  The rows are the same bag; only their order changes, which the count
  hides.  Matching backwards fills a ``SnapshotGraph``.
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

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

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
    ReturnClause,
    Slot,
    Variable,
    WhereClause,
    expression_text,
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


def _node_matches(graph: PropertyGraph, node_id: int, pattern: NodePattern, binding: dict) -> bool:
    node = graph.node(node_id)
    if pattern.label is not None and node.label != pattern.label:
        return False
    for key, entry in pattern.properties:
        if key not in node.properties or not values_equal(node.properties[key], _value(entry, binding)):
            return False
    return True


def _value(entry, binding: dict):
    """A property map entry's value: a ``Literal``'s own, or the id the row ``binding`` gives a ``Slot``."""
    if entry.__class__ is not Slot:
        return entry.value
    if entry not in binding:
        raise ExecutionError(f"no id was passed for {entry.marker}")
    return binding[entry]


def _uid_literal(pattern: NodePattern, binding: dict) -> int | None:
    """The pattern's first integer ``$uid``, a ``Slot``'s read from ``binding``; None without one."""
    for key, entry in pattern.properties:
        if key == UID_KEY:
            value = _value(entry, binding)
            if isinstance(value, int) and not isinstance(value, bool):
                return value
    return None


def _pinned(pattern: NodePattern) -> bool:
    """Whether the pattern has an integer ``$uid``: a literal, or a ``Slot``, whose parameter is an id."""
    return any(key == UID_KEY and (v.__class__ is Slot or type(v.value) is int) for key, v in pattern.properties)


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
        return [value.id] if _node_matches(graph, value.id, pattern, binding) else []
    if pattern.label is not None and not pattern.properties:
        return graph.node_ids_with_label(pattern.label)
    uid = _uid_literal(pattern, binding)
    if uid is not None:
        candidates = graph.nodes_with_uid(uid)
    elif pattern.label is not None:
        candidates = graph.nodes_with_label(pattern.label)
    else:
        candidates = graph.nodes()
    return [n.id for n in candidates if _node_matches(graph, n.id, pattern, binding)]


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
        not _node_matches(graph, node_id, pattern, binding)
        if pattern.properties
        else graph.node(node_id).label != pattern.label
    ):
        return None
    if var is None or pinned:
        return binding
    new = binding.copy()
    new[var] = ref = _new_node_ref(NodeRef)
    _set_node_id(ref, node_id)
    return new


class _Segment(NamedTuple):
    """A segment's matcher fields, in the order its path is matched (``_Path``)."""

    rel_var: str | None  # a single hop's relationship variable
    lo: int
    hi: int | None
    target: int  # the index in ``path.nodes`` of the node the segment ends at
    checked: bool  # whether that node has a label or properties to check
    closes: bool  # whether a closed walk counts (see ``_match_path``)
    returns: bool  # an unbounded out or in segment that must end where it starts
    direction: str  # as matched: flipped when the path is matched backwards
    types: frozenset | None  # None for any type


class _Path(NamedTuple):
    """How ``_match_path`` matches a path: the node it starts from and its segments in that order."""

    first: int  # the index in ``path.nodes`` of the start: 0, or the last node's when matched backwards
    segments: tuple


def _path_plan(path: PathPattern, bound) -> _Path:
    """``path`` matched forward, with the variables ``bound`` on entry.

    A closed walk counts in a single hop, and where the target's variable is
    bound on entry or by an earlier node (so never an anonymous target).
    """
    segments = []
    for seg, rel in enumerate(path.rels):
        node = path.nodes[seg + 1]
        name = node.var
        lo, hi = rel.hops.bounds()
        closes = not rel.hops.variable_length or (
            name is not None and (name in bound or any(earlier.var == name for earlier in path.nodes[: seg + 1]))
        )
        returns = hi is None and rel.direction != "both" and name is not None and name == path.nodes[seg].var
        types = frozenset(rel.types) if rel.types else None
        segments.append(_Segment(rel.var, lo, hi, seg + 1, _checked(node), closes, returns, rel.direction, types))
    return _Path(0, tuple(segments))


def _backward(forward: _Path, path: PathPattern) -> _Path:
    """``forward`` read from the last node of ``path``: segments reversed, directions flipped, flags kept."""
    segments = []
    for seg in reversed(forward.segments):
        start = seg.target - 1  # where the forward segment starts, and so where this one ends
        segments.append(seg._replace(target=start, checked=_checked(path.nodes[start]), direction=_FLIPPED[seg.direction]))
    return _Path(len(path.rels), tuple(segments))


def _checked(node: NodePattern) -> bool:
    """Whether a node reached by a step must be checked against ``node``: it has a label or properties."""
    return node.label is not None or bool(node.properties)


def _match_path(
    graph: PropertyGraph, path: PathPattern, binding: dict, matcher: _Path, starts: list[int] | None = None
) -> list[dict]:
    """All extensions of ``binding`` along ``path``, depth first by ascending id.

    One loop over an explicit stack steps every segment, a single hop being
    the segment ``1..1``, so the number of hops is not limited by Python's
    recursion depth.  The stack holds search states and, below the states
    entered through a relationship, that relationship's id (an int): popping
    the id releases it for reuse, as returning from a recursive call would.
    ``matcher`` is the path's ``_path_plan``, or its ``_backward`` one, which
    gives the same rows in another order when ``_reversible`` holds.
    ``starts`` are the ids the match starts from, ascending and already
    checked against the start node's pattern (default:
    ``_start_candidates``).  An unbounded out or in segment that must end
    where it starts steps only inside its start's strongly connected
    component (``strong_components``), and as the first segment, with a hop
    needed, drops starts with no step into theirs: neither could return, so
    the rows stay the same.  Steps and components are read from, and
    entered in, the graph's ``traversal_memo``.
    """
    nodes = path.nodes
    first = nodes[matcher.first]
    last = len(matcher.segments)
    segs = []
    for seg in matcher.segments:
        _, comps, steps = _traversal(graph, seg)
        # Only a segment that must end where it starts reads components.
        comps = comps if seg.returns else None
        segs.append((seg.rel_var, seg.lo, seg.hi, nodes[seg.target], seg.checked, seg.closes, steps, comps))

    results: list[dict] = []
    used: set[int] = set()
    # state: (segment, segment start node, node, hops into segment, binding, relationship entered by)
    stack: list = []
    if starts is None:
        starts = _start_candidates(graph, first, binding)
    if segs and segs[0][7] is not None and segs[0][1] >= 1:
        # A start with no step into its own component has no closed walk.
        steps, comps = segs[0][6:]
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
    if not segs:
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
        rel_var, lo, hi, target, checked, closes, next_steps, comps = segs[seg]
        if hi is None or depth < hi:
            scc = None if comps is None else _component(seg_start, next_steps, comps)
            for rel, other in reversed(next_steps(node_id)):
                if rel.id not in used and (scc is None or comps[other.id] == scc):
                    stack.append((seg, seg_start, other.id, depth + 1, binding, rel.id))
        # A path may end here, before any longer one, unless it is a closed walk that does not count.
        if depth < lo or (depth and not closes and node_id == seg_start):
            continue
        nxt = _bind(graph, binding, target, node_id, checked)
        if nxt is None:
            continue
        if rel_var is not None:  # a single hop's: the relationship entered by
            ref = RelRef(via)
            if nxt.get(rel_var, ref) != ref:
                continue
            nxt = {**nxt, rel_var: ref}
        if seg + 1 == last:
            results.append(nxt)
        else:
            stack.append((seg + 1, node_id, node_id, 0, nxt, None))
    return results


def _traversal(graph: PropertyGraph, seg: _Segment) -> tuple:
    """``seg``'s kept adjacency and component map (``PropertyGraph.traversal_memo``), and ``_steps`` on them."""
    adjacency, comps = graph.traversal_memo(seg.direction, seg.types)
    return adjacency, comps, partial(_steps, graph, adjacency, seg.direction, seg.types)


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


def _reachable(graph: PropertyGraph, start: int, seg: _Segment) -> list[int]:
    """Ids of the nodes a variable-length segment with ``lo <= 1`` reaches, ascending.

    Breadth-first search with a visited set, bounded by ``hi`` hops.  A node
    other than ``start`` is reachable by a relationship-distinct path of
    ``lo..hi`` hops exactly when its shortest distance is at most ``hi``,
    because a shortest path never repeats a relationship; ``start`` itself
    counts only at zero hops, i.e. when ``lo`` is 0.
    """
    lo, hi = seg.lo, seg.hi
    steps = _traversal(graph, seg)[2]
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier and (hi is None or depth < hi):
        depth += 1
        reached = []
        for node_id in frontier:
            for _, other in steps(node_id):
                if other.id not in seen:
                    seen.add(other.id)
                    reached.append(other.id)
        frontier = reached
    if lo > 0:
        seen.discard(start)
    return sorted(seen)


def _match_reachable(
    graph: PropertyGraph, path: PathPattern, binding: dict, matcher: _Path, starts: list[int] | None
) -> list[dict]:
    """One row per (start, reachable target) pair: the path bag with duplicates removed."""
    (seg,) = matcher.segments
    first, target = path.nodes[matcher.first], path.nodes[seg.target]
    rows = []
    for start in _start_candidates(graph, first, binding) if starts is None else starts:
        start_binding = _bind(graph, binding, first, start)
        if start_binding is None:
            continue
        for node_id in _reachable(graph, start, seg):
            row = _bind(graph, start_binding, target, node_id, seg.checked)
            if row is not None:
                rows.append(row)
    return rows


def _multiplicities(graph: PropertyGraph, path: PathPattern, matcher: _Path, params: dict) -> dict[int, int] | None:
    """Target id -> the number of rows ``path`` matches with that target, for a "count" ``_shortcut``.

    A lone node's candidates count once each.  A segment counts its walks
    from every start at once; None when the region they reach has a cycle.
    ``params`` is the row the query starts from.
    """
    starts = _start_candidates(graph, path.nodes[0], params)
    if not path.rels:
        return dict.fromkeys(starts, 1)
    (seg,) = matcher.segments
    target = path.nodes[-1]
    walks = _walk_counts(graph, starts, seg)
    if walks is None:
        return None
    if seg.lo:  # no empty walk
        for start in starts:
            walks[start] -= 1
    checked = seg.checked
    return {
        node_id: n for node_id, n in walks.items() if n and (not checked or _node_matches(graph, node_id, target, params))
    }


def _walk_counts(graph: PropertyGraph, starts: list[int], seg: _Segment) -> dict[int, int] | None:
    """Node id -> the number of walks along ``seg``'s steps from ``starts`` to it, a start's empty walk included.

    None when a step of the region the starts reach stays inside one
    strongly connected component.  Without one, the region has no cycle and
    no self-loop, so every walk is a trail, and a dynamic program in
    topological order (Kahn's) counts them: O(nodes + relationships reached)
    for all starts together.  Steps and components come from the graph's
    ``traversal_memo``, as in ``_match_path``.
    """
    adjacency, comps, steps = _traversal(graph, seg)
    for start in starts:
        _component(start, steps, comps)
    waiting = dict.fromkeys(starts, 0)  # reached node -> its incoming steps not yet counted
    reached = list(starts)
    for node_id in reached:  # grows as it goes: breadth first
        scc = comps[node_id]
        out = adjacency.get(node_id)  # ``steps`` without its call, when kept
        for _, other in steps(node_id) if out is None else out:
            nxt = other.id
            if comps[nxt] == scc:
                return None
            if nxt in waiting:
                waiting[nxt] += 1
            else:
                waiting[nxt] = 1
                reached.append(nxt)
    walks = dict.fromkeys(starts, 1)
    ready = [node_id for node_id in starts if not waiting[node_id]]
    while ready:
        node_id = ready.pop()
        n = walks[node_id]
        for _, other in adjacency[node_id]:
            nxt = other.id
            walks[nxt] = walks.get(nxt, 0) + n
            waiting[nxt] -= 1
            if not waiting[nxt]:
                ready.append(nxt)
    return walks


def _shortcut(clauses: tuple, i: int, items: _Items) -> str | None:
    """How the MATCH ``clauses[i]`` may skip building a row per path: "count", "reach" or None.

    The shapes are the module docstring's.  Both need a non-optional MATCH
    of one path, followed only by the RETURN, and "count" the first clause.
    A "reach" target must also be unbound when matched (``_match_plan``);
    a "count" target with an integer ``$uid`` is left to the planner, which
    matches the path from it.
    """
    clause = clauses[i]
    if i + 2 != len(clauses) or clause.optional or len(clause.patterns) != 1:
        return None
    path = clause.patterns[0]
    start, target = path.nodes[0].var, path.nodes[-1].var
    counted = i == 0 and bool(items.counts) and not items.reads
    for count in items.counts if counted else ():
        names = (target,) if count.distinct else (target, start)
        counted &= count.expr is None or isinstance(count.expr, Variable) and count.expr.name in names
    if not path.rels:
        return "count" if counted else None
    rel = path.rels[0]
    lo, hi = rel.hops.bounds()
    if len(path.rels) != 1 or not rel.hops.variable_length or rel.var is not None or lo > 1:
        return None
    if target is not None and target == start:
        return None
    distinct = all(count.distinct for count in items.counts) if items.counts else clauses[-1].distinct
    if counted and not distinct and hi is None and rel.direction != "both" and not _pinned(path.nodes[-1]):
        return "count"
    return "reach" if target is not None and distinct else None


def _extensions(graph: PropertyGraph, patterns, seed: dict, match: _Match, probe: dict | None) -> list[dict]:
    """All extensions of ``seed`` satisfying every pattern, left to right.

    With a ``probe`` (see ``_planned``) a path with a ``_backward`` matcher
    is matched from its last node when that node is anchored (``_anchor``),
    else forward from its first node's anchor, if any; the rows then come in
    no defined order.  A "reach" ``match`` is ``_match_reachable``'s.
    """
    reach = match.shortcut == "reach"
    acc = [seed]
    for path, (forward, backward) in zip(patterns, match.paths):
        out = []
        for binding in acc:
            matcher, starts = forward, None
            if probe is not None:
                if backward is not None:
                    starts = _anchor(graph, path.nodes[-1], binding, probe)
                    if starts is not None:
                        matcher = backward
                if matcher is forward:
                    starts = _anchor(graph, path.nodes[0], binding, probe)
            if reach:
                out += _match_reachable(graph, path, binding, matcher, starts)
            else:
                out += _match_path(graph, path, binding, matcher, starts)
        acc = out
        if not acc:
            break
    return acc


# --- planning -------------------------------------------------------------------

_FLIPPED = {"out": "in", "in": "out", "both": "both"}


class _Match(NamedTuple):
    """A MATCH clause's part of a ``Plan``."""

    shortcut: str | None  # ``_shortcut``'s, but "reach" only into a target not bound on entry
    absent: dict  # each variable of the clause -> ABSENT: an OPTIONAL MATCH's row when nothing matches
    cross: bool  # whether no variable of the clause, nor its probe partner, is bound on entry
    paths: tuple  # per pattern: its ``_path_plan``, and its ``_backward`` one when the planner may use it


class Plan(NamedTuple):
    """What ``execute`` runs a query with: the decisions that depend on neither the graph nor the parameters."""

    steps: tuple  # (clause index, its _Match, a MERGE's _Path, or None) per clause before the RETURN, in run order
    probe: dict | None  # see ``_planned``
    items: _Items  # the RETURN's ``_summary``
    columns: tuple  # the RETURN's column names


def prepare(query: Query) -> Plan:
    """The ``Plan`` of a validated query, for every id its parameters give.

    No decision reads an id, only whether a node pattern has an integer
    ``$uid``: a ``Slot`` counts as one, since its parameter is an integer.
    Every row entering a clause binds the same names, so the variables
    bound on entry are known here: those of the clauses run before, and of
    the clause's earlier patterns.
    """
    last = query.clauses[-1] if query.clauses else None
    if not isinstance(last, ReturnClause):
        raise ExecutionError("query has no RETURN clause")
    items = _summary(last)
    order, probe = _planned(query, items)
    clauses = tuple(query.clauses[i] for i in order)
    bound: set[str] = set()
    steps = []
    for k, clause in enumerate(clauses[:-1]):
        if isinstance(clause, MatchClause):
            step = _match_plan(clauses, k, items, bound, probe)
        elif isinstance(clause, MergeClause):
            step = _path_plan(clause.pattern, bound)
            bound.update(pattern_variables((clause.pattern,)))
        elif isinstance(clause, CreateClause):
            step = None
            bound.update(pattern_variables(clause.patterns))
        elif isinstance(clause, WhereClause):
            step = None
        else:
            raise ExecutionError(f"cannot execute clause {clause!r}")
        steps.append((order[k], step))
    return Plan(tuple(steps), probe, items, tuple(item.alias or expression_text(item.expr) for item in last.items))


def _match_plan(clauses: tuple, k: int, items: _Items, bound: set, probe: dict | None) -> _Match:
    """The ``_Match`` of ``clauses[k]``, entered with ``bound``; adds the clause's variables to ``bound``."""
    clause = clauses[k]
    names = pattern_variables(clause.patterns)
    joins = {*names, *(probe[name] for name in names if name in probe)} if probe else set(names)
    shortcut = _shortcut(clauses, k, items)
    if shortcut == "reach" and clause.patterns[0].nodes[-1].var in bound:
        shortcut = None
    cross = joins.isdisjoint(bound)
    paths = []
    for path in clause.patterns:
        forward = _path_plan(path, bound)
        reversible = probe is not None and path.rels and _reversible(path, bound)
        paths.append((forward, _backward(forward, path) if reversible else None))
        bound.update(pattern_variables((path,)))
    return _Match(shortcut, dict.fromkeys(names, ABSENT), cross, tuple(paths))


def _planned(query: Query, items: _Items) -> tuple[tuple, dict | None]:
    """The indexes of the clauses in the order they run, and the equality probe when the planner applies.

    The planner applies to a query of non-optional MATCH clauses, then at
    most one WHERE, then a RETURN that aggregates, so that row order cannot
    show.  It moves the single-node MATCH clauses pinned by an integer
    ``$uid`` to the front, each unless an earlier clause names its variable,
    and reads a WHERE that is exactly ``equals(x, y)`` as the probe
    ``{x: y, y: x}`` (empty otherwise).  The WHERE still runs.  Without the
    planner the probe is None.
    """
    clauses = query.clauses
    order = tuple(range(len(clauses)))
    *body, last = order
    where = body.pop() if body and isinstance(clauses[body[-1]], WhereClause) else None
    if not items.counts or not body:
        return order, None
    if not all(isinstance(clauses[i], MatchClause) and not clauses[i].optional for i in body):
        return order, None
    pinned, rest, named = [], [], set()
    for i in body:
        patterns = clauses[i].patterns
        node = patterns[0].nodes[0]
        single = len(patterns) == 1 and not patterns[0].rels
        if single and _pinned(node) and node.var not in named:
            pinned.append(i)
        else:
            rest.append(i)
        named.update(pattern_variables(patterns))
    probe = {}
    if where is not None:
        expr = clauses[where].expr
        sides = (expr.left, expr.right) if isinstance(expr, EqualsCall) else ()
        if all(isinstance(side, Variable) for side in sides):
            probe = {side.name: other.name for side, other in zip(sides, reversed(sides))}
        rest.append(where)
    return (*pinned, *rest, last), probe


def _anchor(graph: PropertyGraph, pattern: NodePattern, binding: dict, probe: dict) -> list[int] | None:
    """Candidate ids of an anchored end node, ascending; None when it is not anchored.

    An end is anchored by a bound variable, an integer ``$uid`` literal, or a
    probe partner bound to a node: the nodes ``equals`` can hold for are then
    read from the equality index.
    """
    if pattern.var in binding or _uid_literal(pattern, binding) is not None:
        return _start_candidates(graph, pattern, binding)
    other = binding.get(probe.get(pattern.var))
    if isinstance(other, NodeRef):
        return [node_id for node_id in graph.equal_nodes(other.id) if _node_matches(graph, node_id, pattern, binding)]
    return None


def _reversible(path: PathPattern, bound) -> bool:
    """True when the planner may match ``path`` from its last node.

    Every variable occurs once in the path, and none but the last node's is
    ``bound`` on entry.  The rows are the forward match's in another order:
    ``_backward`` keeps each segment's closed-walk flag of the forward
    pattern.
    """
    names = [node.var for node in path.nodes] + [rel.var for rel in path.rels]
    names = [name for name in names if name is not None]
    anchor = path.nodes[-1].var
    return len(names) == len(set(names)) and all(name == anchor or name not in bound for name in names)


# --- expressions -----------------------------------------------------------------


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
    return cell_tag(left) == cell_tag(right)


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
            return cell_tag(left) == cell_tag(right)
        if expr.op == "<>":
            return cell_tag(left) != cell_tag(right)
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
    graph: PropertyGraph, clause: MatchClause, rows: list[dict], match: _Match, probe: dict | None, params: dict
) -> list[dict]:
    if rows and match.cross:  # no variable joins the incoming rows: match once from ``params``, cross-join
        base = _extensions(graph, clause.patterns, params, match, probe)
        if not base and clause.optional:
            base = [match.absent]
        return [{**row, **extension} for row in rows for extension in base]
    out: list[dict] = []
    for row in rows:
        matched = _extensions(graph, clause.patterns, row, match, probe)
        if matched:
            out.extend(matched)
        elif clause.optional:
            out.append({**match.absent, **row})
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
    props = {key: _value(entry, binding) for key, entry in pattern.properties}
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


def _merge_clause(graph: PropertyGraph, clause: MergeClause, rows: list[dict], matcher: _Path) -> list[dict]:
    out = []
    for row in rows:
        matches = _match_path(graph, clause.pattern, row, matcher)
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


class _Items(NamedTuple):
    """What a RETURN's items read, found in one walk of each item (``_summary``)."""

    leaves: tuple  # per item: its counts, and its variable and property reads outside them, in preorder
    counts: tuple  # the counts of every item, in order
    reads: bool  # whether an item reads a row outside a count


def _summary(clause: ReturnClause) -> _Items:
    leaves = tuple(
        tuple(leaf for leaf in walk(item.expr, Count) if isinstance(leaf, (Count, Variable, PropertyAccess)))
        for item in clause.items
    )
    counts = tuple(leaf for item in leaves for leaf in item if leaf.__class__ is Count)
    return _Items(leaves, counts, len(counts) < sum(map(len, leaves)))


def _aggregate_row(leaves: tuple, rows: list[dict], graph: PropertyGraph, multiplicities: dict | None) -> dict:
    """The last of ``rows`` (``{}`` with none) plus the value of each count in ``leaves``, keyed by its id.

    ``leaves`` are an item's ``_Items.leaves``, handled in preorder: a count
    is computed, and a variable or property read outside a count checked.
    With ``multiplicities`` (see ``_multiplicities``) a count reads them, not
    the rows: their sum for ``count(target)`` and ``count(*)``, their number
    for ``count(DISTINCT target)``.
    """
    row = {**rows[-1]} if rows else {}
    for leaf in leaves:
        if leaf.__class__ is not Count:
            _check_constant(leaf, rows, graph)
        elif multiplicities is None:
            row[id(leaf)] = _count(leaf, rows, graph)
        else:
            row[id(leaf)] = len(multiplicities) if leaf.distinct else sum(multiplicities.values())
    return row


def _return_clause(
    graph: PropertyGraph, clause: ReturnClause, rows: list[dict], plan: Plan, multiplicities: dict | None
) -> ResultTable:
    items, columns = plan.items, list(plan.columns)
    if items.counts:
        if not rows and items.reads:  # an item needs a row
            return ResultTable(columns, [])
        row = tuple(
            eval_expression(_aggregate_row(leaves, rows, graph, multiplicities), item.expr, graph)
            for item, leaves in zip(clause.items, items.leaves)
        )
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


def execute(
    query: Query, graph: PropertyGraph, plan: Plan | None = None, params: dict | None = None
) -> tuple[ResultTable, PropertyGraph]:
    """Run a validated query; returns the result table and the graph.

    ``plan`` is ``prepare(query)`` (made here when not given).  ``params``
    maps each ``Slot`` of ``query`` to its id, and is the row the query
    starts from.  Writes are applied in clause order with no rollback: a
    failing clause leaves earlier writes in place.  Callers needing
    atomicity should copy the graph first.
    """
    if plan is None:
        plan = prepare(query)
    if params is None:
        params = {}
    rows: list[dict] = [params]
    multiplicities = None  # a "count" shortcut's (``_shortcut``), whose MATCH then builds no row
    clauses = query.clauses
    for i, step in plan.steps:
        clause = clauses[i]
        if isinstance(clause, MatchClause):
            if step.shortcut == "count":
                multiplicities = _multiplicities(graph, clause.patterns[0], step.paths[0][0], params)
            if multiplicities is None:  # a cycle falls back to enumeration
                rows = _match_clause(graph, clause, rows, step, plan.probe, params)
        elif isinstance(clause, WhereClause):
            rows = _where_clause(graph, clause, rows)
        elif isinstance(clause, CreateClause):
            rows = _create_clause(graph, clause, rows)
        else:
            rows = _merge_clause(graph, clause, rows, step)
    return _return_clause(graph, clauses[-1], rows, plan, multiplicities), graph


def execute_batch(query: Query, graph: PropertyGraph, plan: Plan, batch) -> tuple[ResultTable, PropertyGraph]:
    """Run ``query`` once per parameter map of ``batch``, in order and seeing earlier writes; the rows' bag union."""
    rows: list = []
    for params in batch:
        table, graph = execute(query, graph, plan, params)
        rows += table.rows
    return ResultTable(list(plan.columns), rows), graph
