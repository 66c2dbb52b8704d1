"""Variable lookup through the relationship label index, checked against a
linear scan of every relationship and by counting the relationships it reads."""

from __future__ import annotations

import random

import pytest

from heapquery.errors import UnboundVariableError
from heapquery.heap_model import parse_program, resolve_variable, run_program, step_command
from heapquery.property_graph import PropertyGraph

from .oracles import binding_target

CELL_CLASS = """
class N {
  N next; N prev;
  N(N next, N prev) { this.next = next; this.prev = prev; }
  N link(N o) { this.next = o; o.prev = this; return this; }
}
"""

# Variable names; the first three are also relationship labels of the heap.
NAMES = ["next", "prev", "instanceof", "a", "b", "c", "d", "e", "f", "g"]


def _random_program(rng: random.Random) -> str:
    declared: list[str] = []
    lines = [CELL_CLASS]
    for _ in range(rng.randint(5, 40)):
        fresh = [name for name in NAMES if name not in declared]
        kind = rng.random()
        if not declared or (fresh and kind < 0.35):
            var = rng.choice(fresh)
            args = [rng.choice(declared + ["null", "new N(null, null)"]) for _ in range(2)]
            lines.append(f"N {var} = new N({args[0]}, {args[1]});")
            declared.append(var)
        elif kind < 0.8:  # reassigning a field removes its previous edge
            lines.append(f"{rng.choice(declared)}.{rng.choice(['next', 'prev'])} = {rng.choice(declared)};")
        else:
            lines.append(f"{rng.choice(declared)}.link({rng.choice(declared)});")
    return "\n".join(lines)


def _lookup(graph: PropertyGraph, name: str) -> int | None:
    try:
        return resolve_variable(graph, name)
    except UnboundVariableError:
        return None


class TestAgainstLinearScan:
    def test_random_programs_with_field_named_variables(self):
        rng = random.Random(4242)
        for case in range(200):
            program = parse_program(_random_program(rng))
            graph = PropertyGraph()
            for cmd in program.main.commands:
                step_command(graph, cmd, program.class_table)
                for name in NAMES:
                    assert _lookup(graph, name) == binding_target(graph, name), (case, name)
            assert graph.audit() == [], case

    def test_field_edge_before_the_binding_is_skipped(self):
        text = CELL_CLASS + "N x = new N(null, null); x.next = x; N next = new N(x, null);"
        graph = run_program(parse_program(text))
        labeled = list(graph.relationships_with_label("next"))
        assert [graph.node(rel.start).label for rel in labeled] == ["N", "N", "Local"]
        assert resolve_variable(graph, "next") == labeled[-1].end != labeled[0].end


def _count_yields(monkeypatch, graph: PropertyGraph, names) -> list:
    """Record every item the named iterator methods of ``graph`` produce."""
    seen = []
    for name in names:
        original = getattr(graph, name)

        def counted(*args, original=original):
            for item in original(*args):
                seen.append(item)
                yield item

        monkeypatch.setattr(graph, name, counted)
    return seen


class _CountedReads(dict):
    """A relationship map that records every relationship read from it by id."""

    def __init__(self, rels: dict, seen: list):
        super().__init__(rels)
        self.seen = seen

    def __getitem__(self, rel_id):
        rel = super().__getitem__(rel_id)
        self.seen.append(rel)
        return rel


class TestLookupCost:
    @pytest.fixture(scope="class")
    def binders(self):
        text = "class A { A() {} }\n" + "\n".join(f"A v{i} = new A();" for i in range(2000))
        return run_program(parse_program(text))

    def test_one_lookup_reads_one_relationship(self, binders, monkeypatch):
        assert binders.relationship_count == 4000  # a binding and an instanceof edge per variable
        # A lookup reads the label index in place (``first_relationship``), so the
        # relationships it reads by id are counted, as are those of the iterators.
        seen = _count_yields(monkeypatch, binders, ["relationships", "relationships_with_label"])
        monkeypatch.setattr(binders, "_rels", _CountedReads(binders._rels, seen))
        target = resolve_variable(binders, "v1500")
        assert binders.node(target).label == "A"
        assert len(seen) == 1
        with pytest.raises(UnboundVariableError):
            resolve_variable(binders, "v2000")
        assert len(seen) == 1
