"""Method calls of the object language: renaming, the call-depth limit, typed
errors on drawn and mutated programs, and the graph's invariants after a run
and after a CSV round trip."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heapquery.errors import MAX_NESTING, EvalError, HeapQueryError
from heapquery.heap_model import parse_program, resolve_variable, run_to_point, step_command
from heapquery.property_graph import CLASS_LABEL, PropertyGraph
from heapquery.snapshot_io import export_csv, import_csv

from .strategies import mutated_object_programs, object_programs


def next_edges(graph, names) -> set[tuple[str, str]]:
    """The ``next`` edges between the objects bound to ``names``, as (from, to) variable names."""
    name_of = {resolve_variable(graph, name): name for name in names}
    return {(name_of[rel.start], name_of[rel.end]) for rel in graph.relationships_with_label("next")}


class TestRenaming:
    def test_parameters_named_like_the_callers_variables(self):
        # ``swap`` takes the caller's ``a`` as ``b`` and ``b`` as ``a``, and
        # passes them on to ``set``, whose parameters have the same names.
        text = """
        class P {
          P next;
          P(P next) { this.next = next; }
          P set(P a, P b) { a.next = b; return this; }
          P swap(P b, P a) { this.set(a, b); a.set(this, b); return this; }
        }
        P a = new P(null);
        P b = new P(null);
        P c = new P(null);
        c.swap(a, b);
        """
        graph = run_to_point(text)
        assert next_edges(graph, "abc") == {("b", "a"), ("c", "a")}

    def test_callee_local_is_bound_under_its_own_name(self):
        text = """
        class P {
          P next;
          P(P next) { this.next = next; }
          P grow(P a) { P t = new P(a); this.next = t; return t; }
        }
        P a = new P(null);
        P b = new P(null);
        b.grow(a);
        """
        graph = run_to_point(text)
        assert next_edges(graph, ["a", "b", "t"]) == {("t", "a"), ("b", "t")}


class TestCallDepth:
    @staticmethod
    def chain(calls: int) -> str:
        """A top-level call that opens ``calls`` nested calls: m0 calls m1, and so on."""
        methods = " ".join(f"A m{i}() {{ this.m{i + 1}(); return this; }}" for i in range(calls - 1))
        return f"class A {{ A() {{}} {methods} A m{calls - 1}() {{ return this; }} }} A a = new A(); a.m0();"

    def test_chain_at_the_limit_runs(self):
        run_to_point(self.chain(MAX_NESTING))

    def test_chain_past_the_limit_is_an_eval_error(self):
        with pytest.raises(EvalError) as exc:
            run_to_point(self.chain(MAX_NESTING + 1))
        assert str(exc.value) == f"call of 'm{MAX_NESTING}' nested deeper than the limit of {MAX_NESTING} calls"

    @pytest.mark.parametrize(
        "text",
        [
            "class A { A() {} A m() { this.m(); return this; } }  A a = new A();  a.m();",
            # Ping-pong: each call passes its receiver to the next.
            "class A { A() {} A m(A x) { x.m(this); return this; } }  A a = new A();  A b = new A();  a.m(b);",
        ],
    )
    def test_recursion_is_an_eval_error_naming_the_method(self, text):
        with pytest.raises(EvalError, match=f"call of 'm' nested deeper than the limit of {MAX_NESTING} calls"):
            run_to_point(text)


class TestOnlyTypedErrorsEscape:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(object_programs(), mutated_object_programs()))
    def test_run_to_point(self, text):
        try:
            graph = run_to_point(text)
        except HeapQueryError as exc:
            assert not isinstance(exc.__cause__, (RecursionError, KeyError, TypeError, AttributeError))
        else:
            assert graph.audit() == []


def build_indexes(graph: PropertyGraph) -> None:
    """Build the graph's lazy indexes: label, ``$uid``, relationship label, and equality of two labels."""
    for label in ("N", CLASS_LABEL):
        ids = graph.node_ids_with_label(label)
        if ids:
            graph.equal_nodes(ids[0])
    list(graph.nodes_with_uid(0))
    list(graph.relationships_with_label("a"))


class TestWritePathInvariants:
    @settings(max_examples=150, deadline=None)
    @given(object_programs(), st.data())
    def test_audit_after_a_run_and_an_import(self, text, data):
        """The indexes built at a drawn command are kept up to date by every write after it."""
        program = parse_program(text)
        commands = program.main.commands[: program.point]
        built_at = data.draw(st.integers(0, len(commands)))
        graph = PropertyGraph()
        try:
            for i, cmd in enumerate(commands):
                if i == built_at:
                    build_indexes(graph)
                step_command(graph, cmd, program.class_table)
        except HeapQueryError:
            pass  # a method that recurses, or a local bound twice: the writes made so far are checked
        assert graph.audit() == []
        imported = import_csv(export_csv(graph))
        assert imported.audit() == []
        build_indexes(imported)
        assert imported.audit() == []
