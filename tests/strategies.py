"""Hypothesis strategies shared across test modules."""

from __future__ import annotations

import random
import re

from hypothesis import strategies as st

from heapquery.cypher_ast import (
    And,
    Comparison,
    Count,
    EqualsCall,
    Hops,
    HOPS_ONE,
    Literal,
    MatchClause,
    NodePattern,
    Not,
    Or,
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

node_labels = st.sampled_from(["A", "B", "C"])
rel_labels = st.sampled_from(["f", "g"])
prop_keys = st.sampled_from(["p", "q"])
prop_values = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.sampled_from(["x", "y"]),
    st.sampled_from([0.5, 1.5]),
    st.lists(st.integers(0, 2), max_size=2),
)
prop_maps = st.dictionaries(prop_keys, prop_values, max_size=2)


@st.composite
def graphs(draw, max_nodes: int = 10, max_edges: int = 14):
    g = PropertyGraph()
    ids = [g.add_node(draw(node_labels), draw(prop_maps)) for _ in range(draw(st.integers(0, max_nodes)))]
    if ids:
        for _ in range(draw(st.integers(0, max_edges))):
            g.add_relationship(draw(rel_labels), draw(st.sampled_from(ids)), draw(st.sampled_from(ids)))
    return g


def rebuild_permuted(graph: PropertyGraph, seed: int) -> PropertyGraph:
    """Same graph content created in a different id order."""
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    rels = list(graph.relationships())
    rng.shuffle(nodes)
    rng.shuffle(rels)
    out = PropertyGraph()
    remap = {}
    for node in nodes:
        remap[node.id] = out.add_node(node.label, dict(node.properties))
    for rel in rels:
        out.add_relationship(rel.label, remap[rel.start], remap[rel.end], dict(rel.properties))
    return out


# --- query ASTs for the round-trip property -------------------------------------

# Words that only quoting makes names: reserved ("as"), or recognized but unsupported ("with", "ORDER", "In").
_names = st.sampled_from(["n", "m", "x", "fooBar", "a b", "$uid", "left|right", "1st", "Class", "as", "with", "ORDER", "In"])
_plain_names = st.sampled_from(["n", "m", "x", "fooBar"])
_strings = st.text(alphabet="ab'\\`\n\t ", max_size=4)
_literals = st.one_of(
    st.integers(-50, 50).map(Literal),
    st.sampled_from([0.5, 1.25, 2.0]).map(Literal),
    st.booleans().map(Literal),
    _strings.map(Literal),
)


@st.composite
def _atoms(draw):
    choice = draw(st.integers(0, 2))
    if choice == 0:
        return draw(_literals)
    if choice == 1:
        return Variable(draw(_names))
    return PropertyAccess(draw(_names), draw(_names))


@st.composite
def expressions(draw, depth: int = 2, allow_count: bool = False):
    if depth == 0:
        return draw(_atoms())
    inner = expressions(depth=depth - 1, allow_count=allow_count)
    choice = draw(st.integers(0, 6 if allow_count else 5))
    if choice == 0:
        return draw(_atoms())
    if choice == 1:
        return Comparison(draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="])), draw(inner), draw(inner))
    if choice in (2, 3):
        # n-ary, with a first operand of the same kind spliced in, as the parser does
        kind = And if choice == 2 else Or
        first, *rest = draw(st.lists(inner, min_size=2, max_size=3))
        return kind((*(first.operands if isinstance(first, kind) else (first,)), *rest))
    if choice == 4:
        return Not(draw(inner))
    if choice == 5:
        return EqualsCall(draw(inner), draw(inner))
    counted = draw(st.one_of(st.none(), _atoms()))
    return Count(counted, draw(st.booleans()) if counted is not None else False)


_hops = st.one_of(
    st.just(HOPS_ONE),
    st.integers(1, 4).map(lambda n: Hops("exact", n, n)),
    st.just(Hops("unbounded")),
    st.tuples(st.integers(0, 3), st.one_of(st.none(), st.integers(3, 5))).map(lambda t: Hops("range", t[0], t[1])),
)


@st.composite
def node_patterns(draw):
    props = draw(st.lists(st.tuples(_names, _literals), max_size=2))
    return NodePattern(
        draw(st.one_of(st.none(), _names)),
        draw(st.one_of(st.none(), _names)),
        tuple(props),
    )


@st.composite
def rel_patterns(draw):
    hops = draw(_hops)
    return RelPattern(
        draw(st.one_of(st.none(), _plain_names)) if hops.kind == "one" else None,
        tuple(draw(st.lists(_names, max_size=2, unique=True))),
        draw(st.sampled_from(["out", "in", "both"])),
        hops,
    )


@st.composite
def path_patterns(draw, max_rels: int = 2):
    n_rels = draw(st.integers(0, max_rels))
    nodes = tuple(draw(node_patterns()) for _ in range(n_rels + 1))
    rels = tuple(draw(rel_patterns()) for _ in range(n_rels))
    return PathPattern(nodes, rels)


@st.composite
def queries(draw):
    clauses = []
    for _ in range(draw(st.integers(0, 2))):
        paths = tuple(draw(st.lists(path_patterns(), min_size=1, max_size=2)))
        clauses.append(MatchClause(paths, optional=draw(st.booleans())))
        if draw(st.booleans()):
            clauses.append(WhereClause(draw(expressions())))
    items = tuple(
        ReturnItem(draw(expressions(allow_count=True)), draw(st.one_of(st.none(), _plain_names)))
        for _ in range(draw(st.integers(1, 3)))
    )
    clauses.append(ReturnClause(items, draw(st.booleans())))
    return Query(tuple(clauses))


# --- snapshot documents for the loader ------------------------------------------

_KINDS = ("reference", "reference-array", "primitive", "primitive-array")
_json_scalars = st.one_of(
    st.integers(-3, 3), st.booleans(), st.sampled_from(["x", "y", ""]), st.sampled_from([0.5, -1.5])
)
_json_primitives = st.one_of(
    st.none(),
    _json_scalars,
    st.lists(st.integers(0, 2), max_size=2),
    st.lists(st.sampled_from(["x", "y"]), max_size=2),
    st.lists(st.booleans(), max_size=2),
)


def declared_kinds(doc: dict) -> dict[str, dict[str, str]]:
    """Class name -> field name -> kind, inherited fields included, of a valid document."""
    by_name = {c["name"]: c for c in doc["classes"]}
    kinds = {}
    for name in by_name:
        chain = [name]
        while "superclass" in by_name[chain[-1]]:
            chain.append(by_name[chain[-1]]["superclass"])
        kinds[name] = {f["name"]: f["kind"] for c in reversed(chain) for f in by_name[c]["fields"]}
    return kinds


@st.composite
def snapshot_documents(draw, max_objects: int = 6):
    """A valid snapshot document, as ``json.loads`` returns it.

    It has every field kind, null values and slots, classes that inherit
    fields, statics of every value shape, and roots.
    """
    names = [f"demo.C{i}" for i in range(draw(st.integers(1, 3)))]
    ids = draw(st.lists(st.integers(-5, 40), min_size=1, max_size=max_objects, unique=True))
    any_id = st.sampled_from(ids)
    refs = st.fixed_dictionaries({"refs": st.lists(st.one_of(st.none(), any_id), max_size=3)})
    classes = []
    for i, name in enumerate(names):
        entry = {"name": name}
        if i and draw(st.booleans()):
            entry["superclass"] = names[draw(st.integers(0, i - 1))]
        kinds = draw(st.lists(st.sampled_from(_KINDS), max_size=3))
        entry["fields"] = [
            {"name": f"f{i}{j}", "kind": kind, "type": "int" if "primitive" in kind else draw(st.sampled_from(names))}
            for j, kind in enumerate(kinds)
        ]
        statics = draw(
            st.dictionaries(
                st.sampled_from(["s", "t", "cache"]),
                st.one_of(_json_primitives, any_id.map(lambda x: {"ref": x}), refs),
                max_size=2,
            )
        )
        if statics:
            entry["statics"] = statics
        classes.append(entry)
    doc = {"classes": classes, "objects": [], "roots": {}}
    kinds = declared_kinds(doc)
    values = {
        "reference": st.one_of(st.none(), any_id.map(lambda x: {"ref": x})),
        "reference-array": st.one_of(st.none(), refs),
        "primitive": _json_primitives,
        "primitive-array": _json_primitives,
    }
    for object_id in ids:
        cls = draw(st.sampled_from(names))
        fields = {name: draw(values[kind]) for name, kind in kinds[cls].items() if draw(st.booleans())}
        entry = {"id": object_id, "class": cls}
        if fields or draw(st.booleans()):
            entry["fields"] = fields
        doc["objects"].append(entry)
    doc["roots"] = draw(st.dictionaries(st.sampled_from(["r0", "r1", "main"]), any_id, max_size=2))
    return doc


# --- object-language programs -------------------------------------------------

_PROGRAM_CLASSES = """\
class N {{
  N a; N b; int v;
  N(N a, N b, int v) {{ this.a = a; this.b = b; this.v = v; }}
{methods}}}
class M extends N {{
  N c;
  M(N a, N b, int v, N c) {{ super(a, b, v); this.c = c; }}
}}
"""
_PROGRAM_METHODS = 3  # m0, m1 and m2, each ``N mK(N p, N q)``
_PROGRAM_FIELDS = ["a", "b", "c"]


def _pick(draw, items: list):
    # Faster than ``draw(st.sampled_from(items))``, which builds a strategy per list.
    return items[draw(st.integers(0, len(items) - 1))]


def _allocation(draw, names: list, depth: int = 2) -> str:
    """``new N(...)`` or ``new M(...)``; its reference arguments are ``names``, null or nested allocations."""

    def ref() -> str:
        kind = draw(st.integers(0 if names else 1, 2 if depth else 1))
        return _pick(draw, names) if kind == 0 else "null" if kind == 1 else _allocation(draw, names, depth - 1)

    value = draw(st.integers(0, 9))
    if draw(st.booleans()):
        return f"new N({ref()}, {ref()}, {value})"
    return f"new M({ref()}, {ref()}, {value}, {ref()})"


def _commands(draw, names: list, fresh: str, max_commands: int) -> list[str]:
    """Allocations (which add to ``names``), field assignments and method calls.

    Any method may call any other or itself, so calls back into a caller,
    and recursion, are drawn too.
    """
    lines = []
    for k in range(draw(st.integers(1, max_commands))):
        kind = draw(st.sampled_from(["new", "assign", "call"] if names else ["new"]))
        if kind == "new":
            var = f"{fresh}{k}"
            lines.append(f"{draw(st.sampled_from(['N', 'M']))} {var} = {_allocation(draw, names)};")
            names.append(var)
        elif kind == "assign":
            target, value = _pick(draw, names), _pick(draw, names)
            lines.append(f"{target}.{draw(st.sampled_from(_PROGRAM_FIELDS))} = {value};")
        else:
            receiver, p, q = (_pick(draw, names) for _ in range(3))
            lines.append(f"{receiver}.m{draw(st.integers(0, _PROGRAM_METHODS - 1))}({p}, {q});")
    return lines


@st.composite
def object_programs(draw) -> str:
    """A program over the classes ``N`` and ``M extends N``, maybe with a ``/* POINT */`` marker.

    Most draws run; some raise a typed error, such as a method that recurses
    or a method local bound by an earlier call of the same method.
    """
    methods = ""
    for i in range(_PROGRAM_METHODS):
        body = " ".join(_commands(draw, ["this", "p", "q"], f"l{i}_", 3))
        methods += f"  N m{i}(N p, N q) {{ {body} return this; }}\n"
    variables: list[str] = []
    lines = _commands(draw, variables, "v", 12)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "/* POINT */")
    if draw(st.booleans()):
        lines.append(f"return {_pick(draw, variables)};")
    return _PROGRAM_CLASSES.format(methods=methods) + "\n".join(lines) + "\n"


_PROGRAM_TOKEN = re.compile(r"/\*\s*POINT\s*\*/|[A-Za-z_$][A-Za-z0-9_$]*|\d+|\S")
_MUTATION_TOKENS = [
    "", "new", "this", "null", "return", "class", "extends", "super", "int", "N", "M", "m0", "v0", "p", "a",
    "(", ")", "{", "}", ";", ",", ".", "=", "0", "1.5", '"s"', "true", "9" * 5000, "@", "/*", "//", "/* POINT */",
]


@st.composite
def mutated_object_programs(draw) -> str:
    """An ``object_programs`` draw with one token deleted, doubled or replaced."""
    text = draw(object_programs())
    start, end = draw(st.sampled_from([m.span() for m in _PROGRAM_TOKEN.finditer(text)]))
    token = text[start:end]
    replacement = draw(st.one_of(st.just(f"{token} {token}"), st.sampled_from(_MUTATION_TOKENS)))
    return text[:start] + replacement + text[end:]
