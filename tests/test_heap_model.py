from __future__ import annotations

import pytest

from heapquery.errors import (
    MAX_NESTING,
    ArityMismatchError,
    EvalError,
    LiteralTypeError,
    NoSuchMethodError,
    ProgramSyntaxError,
    UnboundVariableError,
    UnknownTypeError,
)
from heapquery.heap_model import (
    Body,
    FieldAssign,
    LitArg,
    MethodInvoke,
    New,
    NewArg,
    NullArg,
    VarArg,
    eval_expr,
    mbody,
    mk_fields,
    parse_program,
    resolve_variable,
    run_program,
    run_to_point,
    step_command,
)
from heapquery.property_graph import PropertyGraph

from .conftest import build_point_graph
from .oracles import structurally_equal

TWO_CLASS_PROGRAM = """
class D { D g; D(D g) { this.g = g; } }
class C extends D {
  D f;
  C(D g, D f) { super(g); this.f = f; }
}
D a = new D(null);
D b = new D(null);
C c = new C(a, b);
return c;
"""


class TestParse:
    def test_point_program_shape(self, point_program):
        program = parse_program(point_program)
        assert set(program.class_table.names()) == {"BinaryTree$Node", "BinaryTree"}
        assert [type(c) for c in program.main.commands] == [New, New]
        assert program.main.ret == "b"
        assert program.point == 2

    def test_empty_class_base_constructor(self):
        program = parse_program("class A { A() {} } return;")
        decl = program.class_table["A"]
        assert decl.super_arg_count == 0
        assert decl.fields == ()
        assert decl.ctor_params == ()

    def test_unknown_class_reference(self):
        with pytest.raises(UnknownTypeError):
            parse_program("class A { A() {} } D x = new D(); return x;")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ProgramSyntaxError) as exc:
            parse_program("class A {\n  int value\n}")
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "text, line, column, message",
        [
            # A character no token starts with, on the first line.
            ("class A { A() {} } @ return;", 1, 20, "unexpected character '@'"),
            # The same after a comment that spans two lines.
            ("/* first\n   second */ class A ^", 2, 22, "unexpected character '^'"),
            # A parser error after a POINT marker that spans two lines.
            ("class A { A() {} }\nA x = new A();\n/*\n  POINT */ A y = new A(;", 4, 24, "bad constructor argument ';'"),
            # Input that ends inside a class body: the error is at the end.
            ("class A {\n  A() {}\n  ", 3, 3, "expected type name, got ''"),
            ("class A { A() {} }\nclass A { A() {} }", 2, 19, "class 'A' declared twice"),
            ("class A { A() {} A() {} }", 1, 19, "class 'A' has two constructors"),
            ("class A { A() {} A m() { return this; } A m() { return; } }", 1, 59, "method 'm' declared twice in 'A'"),
            ("class A { A f; } return;", 1, 18, "class 'A' needs a constructor"),
            (
                "class B { B(B p) {} } class A extends B { A(A p, A q) { super(q); } }",
                1,
                67,
                "super(...) must forward the first 1 parameters in order",
            ),
            ("class A { A f; A(A p) { this.f = q; } }", 1, 37, "constructor of 'A' assigns from unknown parameter 'q'"),
            ("class A { A(A p, A p) {} }", 1, 21, "duplicate parameter 'p'"),
            ("class A { A() {} }\nA x = new A();\nnull.f = x;", 3, 1, "unexpected keyword 'null'"),
            ("class A { A f; A(A f) { this.f = f; } }\nA x = new A(null);\nx.f = 1;", 3, 7, "field assignment expects a variable, got '1'"),
            ("class A { A() {} A m(A p) { return p; } }\nA x = new A();\nx.m(1);", 3, 5, "method arguments must be variables, got '1'"),
            ("class A { A() {} }\nA x = new A();\nreturn x; A y = new A();", 3, 11, "unexpected trailing input 'A'"),
        ],
    )
    def test_syntax_error_line_and_column(self, text, line, column, message):
        with pytest.raises(ProgramSyntaxError) as exc:
            parse_program(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value) == f"{line}:{column}: {message}"

    @pytest.mark.parametrize(
        "text, line, column, message",
        [
            ("class A { int a; int b; A(int a, int b) { this.a = a; this.b = b; } }\nA x = new A(1 2);", 2, 15, "expected ',', got '2'"),
            ("class A { A() {} A m(A p, A q) { return p; } }\nA x = new A();\nx.m(x x);", 3, 7, "expected ',', got 'x'"),
            ("class B { B(B p, B q) {} }\nclass A extends B { A(B p, B q) { super(p q); } }", 2, 43, "expected ',', got 'q'"),
            ("class A { A() {} A m(A p A q) { return p; } }", 1, 26, "expected ',', got 'A'"),
            ("class A { A p; A(A p) { this.p = p; } }\nA x = new A(null,);", 2, 18, "bad constructor argument ')'"),
            ("class A { A() {} A m(A p) { return p; } }\nA x = new A();\nx.m(x,);", 3, 7, "method arguments must be variables, got ')'"),
            ("class A { A(A p,) {} }", 1, 17, "expected type name, got ')'"),
        ],
    )
    def test_list_items_are_separated_by_commas(self, text, line, column, message):
        with pytest.raises(ProgramSyntaxError) as exc:
            parse_program(text)
        assert str(exc.value) == f"{line}:{column}: {message}"

    def test_comma_separated_lists_parse(self):
        text = (
            "class B { B(B p, B q) {} }\n"
            "class A extends B { A(B p, B q) { super(p, q); } A m(A p, A q) { return p; } }\n"
            "A x = new A(null, new B(null, null));\nx.m(x, x);"
        )
        program = parse_program(text)
        assert program.main.commands == (
            New("x", "A", (NullArg(), NewArg("B", (NullArg(), NullArg())))),
            MethodInvoke("x", "m", ("x", "x")),
        )
        assert program.class_table["A"].super_arg_count == 2

    def test_point_after_the_final_return(self):
        program = parse_program("class A { A() {} } A x = new A(); return x; /* POINT */")
        assert (program.main.ret, program.point) == ("x", 1)

    def test_false_constructor_argument(self):
        program = parse_program("class A { boolean b; A(boolean b) { this.b = b; } } A x = new A(false); return x;")
        assert program.main.commands == (New("x", "A", (LitArg(False),)),)

    @staticmethod
    def nested_new(depth: int) -> str:
        """One statement of ``depth`` nested ``new C(...)``."""
        return "class C { C c; C(C c) { this.c = c; } }\nC x = " + "new C(" * depth + "null" + ")" * depth + ";"

    def test_nesting_at_the_limit_runs(self):
        graph = run_to_point(self.nested_new(MAX_NESTING))
        assert sum(1 for node in graph.nodes() if node.label == "C") == MAX_NESTING

    def test_nesting_past_the_limit_is_a_positioned_syntax_error(self):
        with pytest.raises(ProgramSyntaxError) as exc:
            run_to_point(self.nested_new(MAX_NESTING + 1))
        column = len("C x = ") + len("new C(") * MAX_NESTING + 1  # of the new that opens one level too many
        assert str(exc.value) == f"2:{column}: new nested deeper than the limit of {MAX_NESTING} levels"

    def test_deep_nesting_is_not_a_recursion_error(self):
        with pytest.raises(ProgramSyntaxError):
            run_to_point(self.nested_new(1_000))

    def test_integer_past_the_digit_limit_is_a_positioned_syntax_error(self):
        text = "class C { int v; C(int v) { this.v = v; } }\nC x = new C(" + "9" * 5000 + ");"
        with pytest.raises(ProgramSyntaxError) as exc:
            run_to_point(text)
        assert str(exc.value) == "2:13: integer literal of 5000 digits is too long"

    def test_shadowing_rejected(self):
        text = "class A { A() {} } A x = new A(); A x = new A(); return x;"
        with pytest.raises(ProgramSyntaxError):
            parse_program(text)

    def test_duplicate_point_rejected(self):
        text = "class A { A() {} } /* POINT */ A x = new A(); /* POINT */ return x;"
        with pytest.raises(ProgramSyntaxError):
            parse_program(text)

    def test_reserved_class_names_rejected(self):
        from heapquery.errors import ReservedLabelError

        with pytest.raises(ReservedLabelError):
            parse_program("class Local { Local() {} } return;")

    def test_constructor_must_assign_own_fields_in_order(self):
        text = "class A { A f; A g; A(A f, A g) { this.g = g; this.f = f; } } return;"
        with pytest.raises(ProgramSyntaxError):
            parse_program(text)

    def test_cyclic_superclass_rejected(self):
        text = "class A extends B { A() { super(); } } class B extends A { B() { super(); } } return;"
        with pytest.raises(UnknownTypeError):
            parse_program(text)


class TestLiteralTypes:
    """A constructor literal must fit its primitive field's declared type, checked before the program runs."""

    @staticmethod
    def program(ftype: str, literal: str) -> str:
        return f"class A {{ {ftype} v; A({ftype} v) {{ this.v = v; }} }}\nA x = new A({literal});\nreturn x;"

    @pytest.mark.parametrize(
        "ftype, literal, got",
        [
            ("int", '"s"', "String"),
            ("int", "2.5", "double"),
            ("int", "true", "boolean"),
            ("double", '"s"', "String"),
            ("double", "false", "boolean"),
            ("boolean", "1", "int"),
            ("boolean", "0.0", "double"),
            ("boolean", '"true"', "String"),
            ("String", "1", "int"),
            ("String", "1.5", "double"),
            ("String", "true", "boolean"),
        ],
    )
    def test_mismatch_is_refused_at_parse_time(self, ftype, literal, got):
        with pytest.raises(LiteralTypeError) as exc:
            parse_program(self.program(ftype, literal))
        assert str(exc.value) == f"field 'v' of 'A' is {ftype}; argument 1 of new A(...) is a literal of type {got}"

    @pytest.mark.parametrize(
        "ftype, literal, value",
        [("int", "7", 7), ("double", "2.5", 2.5), ("boolean", "true", True), ("String", '"s"', "s"), ("int", "null", None)],
    )
    def test_matching_literal_is_stored(self, ftype, literal, value):
        graph = run_to_point(self.program(ftype, literal))
        assert graph.node(resolve_variable(graph, "x")).properties.get("v") == value

    def test_double_widens_an_integer_literal(self):
        graph = run_to_point(self.program("double", "1"))
        stored = graph.node(resolve_variable(graph, "x")).properties["v"]
        assert (type(stored), stored) == (float, 1.0)

    def test_integer_too_large_for_a_double_is_refused(self):
        with pytest.raises(LiteralTypeError, match="is double; argument 1 of new A"):
            parse_program(self.program("double", "1" + "0" * 400))

    def test_the_two_repros_no_longer_run(self):
        text = 'class A { int v; A(int v) { this.v = v; } }\nA x = new A("s");\nA y = new A(2.5);\nreturn x;'
        with pytest.raises(LiteralTypeError, match="is a literal of type String"):
            run_to_point(text)

    def test_inherited_field_and_nested_and_method_allocations_are_checked(self):
        classes = (
            "class B { int v; B(int v) { this.v = v; } }\n"
            "class A extends B { A a; A(int v, A a) { super(v); this.a = a; } }\n"
        )
        for body in ('A x = new A("s", null);', "A x = new A(1, new A(true, null));"):
            with pytest.raises(LiteralTypeError, match="field 'v' of 'B' is int"):
                parse_program(classes + body)
        method = "class C { C() {} C m() { B b = new B(1.5); return this; } }\n"
        with pytest.raises(LiteralTypeError, match="argument 1 of new B"):
            parse_program(classes + method + "return;")

    def test_literal_for_a_reference_field_stays_an_eval_error(self):
        text = "class A { A f; A(A f) { this.f = f; } }\nA x = new A(1);"
        parse_program(text)
        with pytest.raises(EvalError, match="reference field 'f' of 'A' cannot take a literal"):
            run_to_point(text)

    def test_wrong_argument_count_stays_an_arity_error_at_run_time(self):
        text = 'class A { int v; A(int v) { this.v = v; } }\nA x = new A("s", 1);'
        parse_program(text)
        with pytest.raises(ArityMismatchError, match="constructor of 'A' takes 1 argument"):
            run_to_point(text)


class TestSuper:
    def test_super_without_extends_is_a_syntax_error_at_super(self):
        with pytest.raises(ProgramSyntaxError) as exc:
            parse_program("class A { A p;\n  A(A p) { super(p); this.p = p; } }")
        assert str(exc.value) == "2:12: super(...) in class 'A', which extends no class"

    @pytest.mark.parametrize(
        "ctor, got",
        [("A(B p, B q) { super(p); }", 1), ("A(B p, B q) { }", 0), ("A(B p, B q, B r) { super(p, q, r); }", 3)],
    )
    def test_super_arity_is_checked_once_at_parse_time(self, ctor, got):
        text = f"class B {{ B(B p, B q) {{}} }} class A extends B {{ {ctor} }}"
        with pytest.raises(ArityMismatchError) as exc:
            parse_program(text + " return;")
        assert str(exc.value) == f"super(...) of 'A': constructor of 'B' takes 2 argument(s), got {got}"

    def test_super_arity_is_checked_up_the_chain(self):
        text = (
            "class C { C() {} } class B extends C { B(B p) { super(p); } }"
            " class A extends B { A(B p) { super(p); } } return;"
        )
        with pytest.raises(ArityMismatchError, match="super\\(\\.\\.\\.\\) of 'B'"):
            parse_program(text)


class TestLookups:
    def test_mbody_declared(self):
        program = parse_program("class A { A() {} A self() { return this; } } return;")
        params, body = mbody(program.class_table, "self", "A")
        assert params == ()
        assert body == Body((), "this")

    def test_mbody_inherited(self):
        text = """
        class A { A() {} A self() { return this; } }
        class B extends A { B() { super(); } }
        return;
        """
        program = parse_program(text)
        params, body = mbody(program.class_table, "self", "B")
        assert body == Body((), "this")

    def test_mbody_missing(self):
        program = parse_program("class A { A() {} } return;")
        with pytest.raises(NoSuchMethodError):
            mbody(program.class_table, "nope", "A")


class TestClassNodes:
    @staticmethod
    def node_reads(monkeypatch, classes: int) -> int:
        """Nodes read while 2,000 ``new``s run, spread over ``classes`` classes."""
        decls = "".join(f"class C{i} {{ C{i}() {{}} }}\n" for i in range(classes))
        news = "".join(f"C{i % classes} x{i} = new C{i % classes}();\n" for i in range(2000))
        program = parse_program(decls + news + "return x0;")
        reads = []
        real = PropertyGraph.node
        monkeypatch.setattr(PropertyGraph, "node", lambda graph, node_id: reads.append(node_id) or real(graph, node_id))
        graph = run_program(program)
        monkeypatch.undo()
        assert len(list(graph.nodes_with_label("Class"))) == classes
        return len(reads)

    def test_class_lookup_reads_no_class_node(self, monkeypatch):
        # The equality index finds a class node, so the cost of a new does
        # not grow with the number of classes (a scan read 1,000,000 nodes).
        assert self.node_reads(monkeypatch, 1) == self.node_reads(monkeypatch, 1000) == 0

    def test_one_class_node_per_class(self):
        program = parse_program(TWO_CLASS_PROGRAM)
        graph = run_program(program)
        classes = [node.properties["name"] for node in graph.nodes_with_label("Class")]
        assert sorted(classes) == ["C", "D"]
        for node in graph.nodes_with_label("Class"):
            assert graph.nodes_like("Class", node.properties) == [node.id]


class TestMkFields:
    def test_zero_field_class(self):
        program = parse_program("class A { A() {} } return;")
        g = PropertyGraph()
        inst = g.add_node("A")
        edges, props = mk_fields(g, inst, "A", (), program.class_table)
        assert edges == []
        assert props == {}

    def test_superclass_split(self):
        program = parse_program(TWO_CLASS_PROGRAM)
        g = run_program(parse_program("class D { D g; D(D g) { this.g = g; } } D a = new D(null); D b = new D(null); return a;"))
        ct = program.class_table
        inst = g.add_node("C")
        from heapquery.heap_model import resolve_variable

        edges, props = mk_fields(g, inst, "C", (VarArg("a"), VarArg("b")), ct)
        assert props == {}
        assert sorted(edges) == sorted(
            [("g", inst, resolve_variable(g, "a")), ("f", inst, resolve_variable(g, "b"))]
        )

    def test_primitives_fold_into_properties(self, point_program):
        program = parse_program(point_program)
        g = PropertyGraph()
        inst = g.add_node("BinaryTree$Node")
        from heapquery.heap_model import LitArg

        edges, props = mk_fields(
            g, inst, "BinaryTree$Node", (NullArg(), NullArg(), LitArg(7)), program.class_table
        )
        assert edges == []
        assert props == {"value": 7}

    def test_second_allocation_of_point_program(self, point_program):
        # new BinaryTree(<fresh node>, 2): one root edge, size folded
        from heapquery.heap_model import LitArg, NodeRefArg, run_to_point

        program = parse_program(point_program)
        g = run_to_point(point_program.replace("/* POINT */", "").replace(
            "BinaryTree b = new BinaryTree(new BinaryTree$Node(l, null, 5), 2);", ""))
        child = g.add_node("BinaryTree$Node", {"value": 5})
        tree = g.add_node("BinaryTree")
        edges, props = mk_fields(
            g, tree, "BinaryTree", (NodeRefArg(child), LitArg(2)), program.class_table
        )
        assert edges == [("root", tree, child)]
        assert props == {"size": 2}

    def test_arity_mismatch(self):
        program = parse_program("class A { A() {} } return;")
        g = PropertyGraph()
        inst = g.add_node("A")
        with pytest.raises(ArityMismatchError):
            mk_fields(g, inst, "A", (NullArg(),), program.class_table)

    def test_unbound_argument(self):
        program = parse_program("class D { D g; D(D g) { this.g = g; } } return;")
        g = PropertyGraph()
        inst = g.add_node("D")
        with pytest.raises(UnboundVariableError):
            mk_fields(g, inst, "D", (VarArg("ghost"),), program.class_table)


class TestDeepHierarchy:
    TEXT = """
    class A { A link; int tag; A(A link, int tag) { this.link = link; this.tag = tag; } }
    class B extends A {
      A extra;
      B(A link, int tag, A extra) { super(link, tag); this.extra = extra; }
    }
    class C extends B {
      int depth;
      C(A link, int tag, A extra, int depth) { super(link, tag, extra); this.depth = depth; }
    }
    A base = new A(null, 1);
    A other = new A(null, 2);
    C leaf = new C(base, 3, other, 9);
    return leaf;
    """

    def test_field_order_spans_hierarchy(self):
        from heapquery.heap_model import LitArg

        program = parse_program(self.TEXT)
        args = (VarArg("base"), LitArg(3), VarArg("other"), LitArg(9))
        edges, props = mk_fields(run_program(program), None, "C", args, program.class_table)
        assert [name for name, _, _ in edges] + list(props) == ["link", "extra", "tag", "depth"]

    def test_constructor_split_across_three_levels(self):
        from heapquery.heap_model import resolve_variable

        graph = run_program(parse_program(self.TEXT))
        leaf = graph.node(resolve_variable(graph, "leaf"))
        assert leaf.label == "C"
        assert leaf.properties == {"tag": 3, "depth": 9}
        edges = sorted(
            (rel.label, graph.node(other.id).properties.get("tag"))
            for rel, other in graph.neighbors(leaf.id, "out")
            if rel.label != "instanceof"
        )
        assert edges == [("extra", 2), ("link", 1)]

    def test_leaf_instanceof_points_at_concrete_class(self):
        from heapquery.heap_model import resolve_variable

        graph = run_program(parse_program(self.TEXT))
        leaf = resolve_variable(graph, "leaf")
        targets = [
            other.properties["name"]
            for rel, other in graph.neighbors(leaf, "out")
            if rel.label == "instanceof"
        ]
        assert targets == ["C"]


class TestStepCommand:
    def test_field_assign_replaces_edge(self, point_program):
        program = parse_program(point_program)
        graph = run_to_point(point_program)
        # Rebind b.root to the {value:4} node; the old root edge disappears.
        step_command(graph, FieldAssign("b", "root", "l"), program.class_table)
        tree = next(n for n in graph.nodes() if n.label == "BinaryTree")
        roots = [other for rel, other in graph.neighbors(tree.id, "out") if rel.label == "root"]
        assert [n.properties["value"] for n in roots] == [4]

        # Independent replay: same state built directly with the edge swapped.
        expected = build_point_graph()
        tree = next(n for n in expected.nodes() if n.label == "BinaryTree")
        n4 = next(n for n in expected.nodes() if n.properties.get("value") == 4)
        old_root = next(r for r in expected.relationships() if r.label == "root")
        expected.remove_relationship(old_root.id)
        expected.add_relationship("root", tree.id, n4.id)
        assert structurally_equal(graph, expected)

    def test_method_invoke_identity_body(self):
        text = "class A { A() {} A self() { return this; } } A x = new A(); return x;"
        program = parse_program(text)
        graph = run_program(program)
        before = graph.copy()
        step_command(graph, MethodInvoke("x", "self", ()), program.class_table)
        assert structurally_equal(before, graph)

    def test_method_invoke_substitutes_parameters(self):
        text = """
        class P { P next; P(P next) { this.next = next; }
                  P setNext(P other) { this.next = other; return this; } }
        P a = new P(null);
        P b = new P(null);
        a.setNext(b);
        return a;
        """
        graph = run_program(parse_program(text))
        from heapquery.heap_model import resolve_variable

        a = resolve_variable(graph, "a")
        b = resolve_variable(graph, "b")
        nexts = [(rel.label, other.id) for rel, other in graph.neighbors(a, "out") if rel.label == "next"]
        assert nexts == [("next", b)]

    def test_new_growth_bound(self):
        program = parse_program("class A { A() {} } A x = new A(); A y = new A(); return x;")
        graph = PropertyGraph()
        first, second = program.main.commands
        step_command(graph, first, program.class_table)
        assert graph.node_count == 3  # instance + binder + fresh class node
        step_command(graph, second, program.class_table)
        assert graph.node_count == 5  # class node deduplicated

    def test_unbound_variable(self):
        program = parse_program("class A { A() {} } return;")
        with pytest.raises(UnboundVariableError):
            step_command(PropertyGraph(), FieldAssign("x", "f", "y"), program.class_table)

    def test_no_such_method(self):
        program = parse_program("class A { A() {} } A x = new A(); return x;")
        graph = run_program(program)
        with pytest.raises(NoSuchMethodError):
            step_command(graph, MethodInvoke("x", "nope", ()), program.class_table)

    def test_method_arity_mismatch(self):
        text = "class A { A() {} A self() { return this; } } A x = new A(); return x;"
        program = parse_program(text)
        graph = run_program(program)
        with pytest.raises(ArityMismatchError):
            step_command(graph, MethodInvoke("x", "self", ("x",)), program.class_table)

    def test_nested_method_invocation(self):
        text = """
        class P { P next; P(P next) { this.next = next; }
                  P set(P o) { this.next = o; return this; }
                  P chain(P o) { this.set(o); return this; } }
        P a = new P(null);
        P b = new P(null);
        a.chain(b);
        return a;
        """
        graph = run_program(parse_program(text))
        from heapquery.heap_model import resolve_variable

        a = resolve_variable(graph, "a")
        b = resolve_variable(graph, "b")
        assert [(rel.label, other.id) for rel, other in graph.neighbors(a, "out") if rel.label == "next"] == [("next", b)]

    def test_long_method_body(self):
        # A call runs the body's commands in a loop, so the body's length is
        # not bounded by the recursion limit.
        body = " ".join("this.next = o; o.next = this;" for _ in range(2500))
        text = f"class P {{ P next; P(P next) {{ this.next = next; }} P long(P o) {{ {body} return this; }} }}"
        text += " P a = new P(null); P b = new P(null); a.long(b);"
        graph = run_to_point(text)
        from heapquery.heap_model import resolve_variable

        a, b = resolve_variable(graph, "a"), resolve_variable(graph, "b")
        assert [other.id for rel, other in graph.neighbors(a, "out") if rel.label == "next"] == [b]
        assert [other.id for rel, other in graph.neighbors(b, "out") if rel.label == "next"] == [a]
        assert graph.relationship_count == 6  # two bindings, two instanceof, two next

    def test_rebinding_rejected_at_runtime(self):
        text = "class B { B() {} B make() { B t = new B(); return t; } } B x = new B(); x.make(); return x;"
        program = parse_program(text)
        graph = run_program(program)
        with pytest.raises(EvalError):
            step_command(graph, MethodInvoke("x", "make", ()), program.class_table)


class TestEvalExpr:
    def test_return_is_identity(self):
        program = parse_program("class A { A() {} } A x = new A(); return x;")
        graph = run_program(program)
        before = graph.copy()
        eval_expr(graph, Body((), "x"), program.class_table)
        assert structurally_equal(before, graph)

    def test_sequence_composes_steps(self, point_program):
        program = parse_program(point_program)
        stepped = PropertyGraph()
        for cmd in program.main.commands:
            stepped = step_command(stepped, cmd, program.class_table)
        assert structurally_equal(stepped, run_program(program))

    def test_full_program_reaches_point_graph(self, point_program, point_graph):
        assert structurally_equal(run_program(parse_program(point_program)), point_graph)


class TestRunToPoint:
    def test_marker_yields_point_graph(self, point_program, point_graph):
        graph = run_to_point(point_program)
        assert graph.node_count == 7
        assert graph.relationship_count == 7
        assert structurally_equal(graph, point_graph)

    def test_marker_before_first_command(self):
        graph = run_to_point("class A { A() {} } /* POINT */ A x = new A(); return x;")
        assert graph.node_count == 0

    def test_unmarked_program_runs_to_end(self, point_program):
        unmarked = point_program.replace("/* POINT */", "")
        graph = run_to_point(unmarked)
        assert structurally_equal(graph, run_program(parse_program(unmarked)))


class TestInvariants:
    def test_binder_nodes(self, point_program):
        graph = run_to_point(point_program)
        binders = [n for n in graph.nodes() if n.label == "Local"]
        assert len(binders) == 2
        for binder in binders:
            assert binder.properties == {}
            assert len(graph.neighbors(binder.id, "out")) == 1
            assert graph.neighbors(binder.id, "in") == []

    def test_instanceof_degree_and_class_dedup(self, point_program):
        graph = run_to_point(point_program)
        class_nodes = [n for n in graph.nodes() if n.label == "Class"]
        assert sorted(n.properties["name"] for n in class_nodes) == ["BinaryTree", "BinaryTree$Node"]
        for node in graph.nodes():
            if node.label in ("Class", "Local"):
                continue
            targets = [rel for rel, _ in graph.neighbors(node.id, "out") if rel.label == "instanceof"]
            assert len(targets) == 1

    def test_deterministic_up_to_renaming(self, point_program):
        assert structurally_equal(run_to_point(point_program), run_to_point(point_program))
