from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from heapquery import (
    HeapSnapshot,
    PropertyGraph,
    execute,
    expand_positional,
    load_snapshot,
    parse,
    validate,
)
from heapquery.cypher_ast import Query, Slot
from heapquery.errors import QueryValidationError, Token
from heapquery.query_engine import ResultTable, cell_tag

DATA = Path(__file__).parent / "data"

# Unique ids of the tree snapshot objects (values follow the drawn tree:
# a=1, b=2, c=4, d=5, e=3; c is the root node, f the tree object).
UID = {"a": 11, "b": 12, "c": 13, "d": 14, "e": 15, "f": 16}

# Builds the five-node tree and its owner; returns the owner.
TREE_CREATE_QUERY = (
    "CREATE (a:@1 {value: 1}), (b:@1 {value: 2}), (c:@1 {value: 4}), "
    "(d:@1 {value: 5}), (e:@1 {value: 3}) "
    "CREATE (f:@2 {size: 5}) "
    "MERGE (b)<-[:left]-(c)-[:right]->(d) "
    "MERGE (a)<-[:left]-(b)-[:right]->(e) "
    "MERGE (f)-[:root]->(c) "
    "RETURN f"
)

# Everything reachable from a pinned node, ignoring direction and distance.
REACHABLE_QUERY = "MATCH (n {$1})-[*]-(m) RETURN DISTINCT m"

# Descendants exactly two field hops away holding a given value.
TWO_HOP_QUERY = "MATCH (n {$1})-[:left|right*2]->(m {value: 1}) RETURN m"

# Rooted-binary-tree invariant: every node object is reached from the root
# by exactly one left/right path (rooted, no sharing) and no node reaches
# itself (acyclic).
REPOK_QUERY = (
    "MATCH (t {$1})-[:root]->(rt)-[:left|right*0..]->(n:`BinaryTree$Node`) "
    "OPTIONAL MATCH (m:`BinaryTree$Node`)-[:left|right*1..]->(m) "
    "RETURN count(n) = t.size AND count(DISTINCT n) = t.size AND count(DISTINCT m) = 0"
)

# Key membership over a bucketed hash map: walk table slots and collision
# chains to key objects, filter by structural equality with the probe.
CONTAINS_KEY_QUERY = (
    "MATCH (h {$1})-[:table]->(t)-[:element]->(e)-[:next*0..]->(x)-[:key]->(k) "
    "MATCH (p {$2}) WHERE equals(k, p) "
    "RETURN count(k) > 0"
)


def run_query(graph: PropertyGraph, text: str):
    """Parse, validate and execute; fails the test on diagnostics."""
    query = parse(text)
    diagnostics = validate(query)
    if diagnostics:
        raise QueryValidationError(diagnostics)
    return execute(query, graph)


def as_bag(table: ResultTable) -> Counter:
    """The rows of ``table`` as a bag of cell tags, the form ``oracles.enumerate_rows`` returns."""
    return Counter(tuple(cell_tag(v) for v in row) for row in table.rows)


def expanded_queries(fmt: str, *args) -> list[Query]:
    """The validated queries of a format string with its ids substituted: one, or one per id of its ``[]`` collection.

    Each ``$k`` or ``[]k`` marker becomes the literal tokens `` `$uid`: id ``,
    so no query holds a parameter.  The reference for the pipeline, which
    runs one parsed query with the ids as its parameters.
    """
    tokens, _, arguments = expand_positional(fmt, args)
    queries = []
    for params in [arguments.params] if arguments.batch is None else arguments.batch:
        substituted = []
        for tok in tokens:
            if tok.kind != "slot":
                substituted.append(tok)
                continue
            uid = params[Slot(tok.text)]
            substituted += [Token("backtick", "`$uid`", tok.offset), Token("op", ":", tok.offset)]
            if uid < 0:
                substituted.append(Token("op", "-", tok.offset))
            substituted.append(Token("int", str(abs(uid)), tok.offset))
        query = parse(substituted, fmt)
        diagnostics = validate(query)
        if diagnostics:
            raise QueryValidationError(diagnostics)
        queries.append(query)
    return queries


def build_tree_graph(*, with_uids: bool = True, with_classes: bool = True, with_binder: bool = False) -> PropertyGraph:
    """The five-node binary tree with its BinaryTree owner.

    With classes: 8 nodes / 11 relationships (instance nodes, two Class
    nodes, instanceof edges).  Without: the 6-node / 5-edge instance
    subgraph a creation query produces.  ``with_binder`` adds the Local
    binder for the named root ``f``, matching full extraction output.
    """
    g = PropertyGraph()
    values = {"a": 1, "b": 2, "c": 4, "d": 5, "e": 3}
    node_class = tree_class = None
    if with_classes:
        node_class = g.add_node("Class", {"name": "BinaryTree$Node"})
        tree_class = g.add_node("Class", {"name": "BinaryTree"})
    ids = {}
    for name in "abcde":
        props = {"value": values[name]}
        if with_uids:
            props["$uid"] = UID[name]
        ids[name] = g.add_node("BinaryTree$Node", props)
    f_props = {"size": 5}
    if with_uids:
        f_props["$uid"] = UID["f"]
    ids["f"] = g.add_node("BinaryTree", f_props)
    if with_classes:
        for name in "abcde":
            g.add_relationship("instanceof", ids[name], node_class)
        g.add_relationship("instanceof", ids["f"], tree_class)
    g.add_relationship("left", ids["c"], ids["b"])
    g.add_relationship("right", ids["c"], ids["d"])
    g.add_relationship("left", ids["b"], ids["a"])
    g.add_relationship("right", ids["b"], ids["e"])
    g.add_relationship("root", ids["f"], ids["c"])
    if with_binder:
        binder = g.add_node("Local")
        g.add_relationship("f", binder, ids["f"])
    return g


def build_point_graph() -> PropertyGraph:
    """Expected state at the POINT marker of the two-node tree program.

    7 nodes: two Class nodes, Node instances {value:4} and {value:5}, a
    BinaryTree {size:2}, and Local binders l and b.  7 relationships:
    three instanceof, left, root, and the two bindings.
    """
    g = PropertyGraph()
    node_class = g.add_node("Class", {"name": "BinaryTree$Node"})
    tree_class = g.add_node("Class", {"name": "BinaryTree"})
    n4 = g.add_node("BinaryTree$Node", {"value": 4})
    n5 = g.add_node("BinaryTree$Node", {"value": 5})
    tree = g.add_node("BinaryTree", {"size": 2})
    binder_l = g.add_node("Local")
    binder_b = g.add_node("Local")
    g.add_relationship("instanceof", n4, node_class)
    g.add_relationship("instanceof", n5, node_class)
    g.add_relationship("instanceof", tree, tree_class)
    g.add_relationship("left", n5, n4)
    g.add_relationship("root", tree, n5)
    g.add_relationship("l", binder_l, n4)
    g.add_relationship("b", binder_b, tree)
    return g


@pytest.fixture
def tree_graph() -> PropertyGraph:
    return build_tree_graph()

@pytest.fixture
def tree_instances_graph() -> PropertyGraph:
    return build_tree_graph(with_uids=False, with_classes=False)


@pytest.fixture
def tree_snapshot() -> HeapSnapshot:
    return load_snapshot((DATA / "tree_snapshot.json").read_bytes())


@pytest.fixture
def point_graph() -> PropertyGraph:
    return build_point_graph()


@pytest.fixture
def point_program() -> str:
    return (DATA / "binary_tree_point.mj").read_text()
