"""A miniature Java-like object language interpreted as graph rewriting.

Programs are class declarations plus a top-level command sequence in
assignment normal form: every command allocates (``C x = new C(...)``),
assigns a field (``x.f = y``) or invokes a method (``x.m(a, b)``), and every
body ends in a single ``return``.  The interpreter state is a PropertyGraph:

* each allocation adds an instance node labeled with the class name,
* primitive constructor arguments become properties of that node,
* reference fields become relationships labeled with the field name,
* every local variable gets a ``Local`` binder node plus a binding
  relationship named after the variable,
* every instance points at a deduplicated ``Class`` metadata node through an
  ``instanceof`` relationship.

A ``/* POINT */`` comment between top-level commands marks where
``run_to_point`` stops, which is how snapshot fixtures are produced.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import (
    MAX_NESTING,
    ArityMismatchError,
    EvalError,
    LiteralTypeError,
    NoSuchMethodError,
    ProgramSyntaxError,
    ReservedLabelError,
    Token,
    TokenCursor,
    UnboundVariableError,
    UnknownTypeError,
    tokenize,
)
from .property_graph import (
    CLASS_LABEL,
    CLASS_NAME_KEY,
    INSTANCEOF_LABEL,
    LOCAL_LABEL,
    RESERVED_LABELS,
    PropertyGraph,
)

PRIMITIVE_TYPES = frozenset({"int", "double", "boolean", "String"})
# The literals each primitive type takes, by their Python type; an ``int`` given to a
# ``double`` is stored as a float, as Java widens it.
_LITERAL_TYPES = {"int": (int,), "double": (float, int), "boolean": (bool,), "String": (str,)}
_TYPE_NAMES = {int: "int", float: "double", bool: "boolean", str: "String"}
_NO_NAMES = MappingProxyType({})  # the renaming of the top-level commands: none


# --- abstract syntax ---------------------------------------------------------

# Commands and arguments compare by value and hash.  Not frozen: a frozen dataclass sets
# each field through ``object.__setattr__``, three times the cost of a plain slot.
_value = dataclass(slots=True, unsafe_hash=True)


@_value
class VarArg:
    name: str


@_value
class NullArg:
    pass


@_value
class LitArg:
    value: object


@_value
class NewArg:
    """A nested allocation used directly as a constructor argument.

    It creates an instance node (and its fields) but no Local binder.
    """

    cls: str
    args: tuple


@_value
class NodeRefArg:
    """Argument already resolved to a graph node (internal use)."""

    node_id: int


Arg = VarArg | NullArg | LitArg | NewArg | NodeRefArg


@_value
class New:
    var: str
    cls: str
    args: tuple


@_value
class FieldAssign:
    obj: str
    fieldname: str
    value: str


@_value
class MethodInvoke:
    obj: str
    method: str
    args: tuple


Command = New | FieldAssign | MethodInvoke


@_value
class Body:
    """Commands run in order, then ``return ret`` (None for a bare ``return``)."""

    commands: tuple
    ret: str | None


@dataclass(frozen=True)
class MethodDecl:
    name: str
    params: tuple          # of (name, type)
    return_type: str
    body: Body


@dataclass(frozen=True)
class ClassDecl:
    name: str
    superclass: str | None
    fields: tuple          # of (name, type), own fields only
    ctor_params: tuple     # of (name, type)
    super_arg_count: int
    own_assignments: tuple  # of (field, param)
    methods: dict = field(default_factory=dict)


class ClassTable:
    """Class declarations closed under superclass references.

    ``inits`` maps a class to one ``(field, declared type, argument index, declaring class)``
    per field of its chain, the superclass's first: ``super(...)`` forwards the first parameters.
    """

    def __init__(self, classes: dict[str, ClassDecl]):
        self._classes = dict(classes)
        for decl in self._classes.values():
            if decl.superclass is not None and decl.superclass not in self._classes:
                raise UnknownTypeError(f"class {decl.name!r} extends unknown class {decl.superclass!r}")
        self._check_acyclic()
        self.inits: dict[str, tuple] = {}
        for decl in self._classes.values():
            self._add_inits(decl)

    def _add_inits(self, decl: ClassDecl) -> None:
        """Enter the ``inits`` of ``decl`` and of its superclasses, checking each ``super(...)``."""
        chain = []
        while decl.name not in self.inits:
            chain.append(decl)
            if decl.superclass is None:
                break
            decl = self._classes[decl.superclass]
        for decl in reversed(chain):
            inherited = ()
            if decl.superclass is not None:
                superclass = self._classes[decl.superclass]
                if decl.super_arg_count != len(superclass.ctor_params):
                    raise ArityMismatchError(
                        f"super(...) of {decl.name!r}: constructor of {superclass.name!r} takes "
                        f"{len(superclass.ctor_params)} argument(s), got {decl.super_arg_count}"
                    )
                inherited = self.inits[superclass.name]
            types = dict(decl.fields)
            index = {name: i for i, (name, _) in enumerate(decl.ctor_params)}
            own = tuple((f, types[f], index[param], decl.name) for f, param in decl.own_assignments)
            self.inits[decl.name] = inherited + own

    def _check_acyclic(self):
        for name in self._classes:
            seen = set()
            cur = name
            while cur is not None:
                if cur in seen:
                    raise UnknownTypeError(f"cyclic superclass chain through {name!r}")
                seen.add(cur)
                cur = self._classes[cur].superclass

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def __getitem__(self, name: str) -> ClassDecl:
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownTypeError(f"unknown class {name!r}") from None

    def names(self):
        return list(self._classes)


@dataclass
class Program:
    class_table: ClassTable
    main: Body
    point: int | None = None  # index of the top-level command the marker precedes


# --- lookups -----------------------------------------------------------------


def mbody(ct: ClassTable, method: str, cls: str) -> tuple[tuple, Body]:
    """Resolve a method body: the nearest declaration in the chain wins."""
    cur: str | None = cls
    while cur is not None:
        decl = ct[cur]
        if method in decl.methods:
            m = decl.methods[method]
            return m.params, m.body
        cur = decl.superclass
    raise NoSuchMethodError(cls, method)


# --- parsing -----------------------------------------------------------------

# Token kinds: ident/punct/point/float/int/string/bad.  A match takes the
# whitespace after its token, so ``ws`` matches only at the start (a match per
# gap would make half as many again).  ``bad`` takes any other character, so the
# matches cover the text; an open comment or string starts one.  The two most
# common kinds come first; only point and comment, and float and int, share a
# first character, and each pair keeps its order.
_TOKEN_RE = re.compile(
    r"""
    (?:
      (?P<ident>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<punct>[{}();,.=])
    | (?P<point>/\*\s*POINT\s*\*/)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<float>\d+\.\d+)
    | (?P<int>\d+)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<ws>\s+)
    | (?P<bad>.)
    )\s*
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORDS = frozenset({"class", "extends", "new", "return", "null", "true", "false", "super", "this"})


class _Parser(TokenCursor):
    syntax_error = ProgramSyntaxError

    def expect(self, text: str) -> Token:
        tok = self.advance()
        if tok.text != text:
            self.error(f"expected {text!r}, got {tok.text!r}", tok)
        return tok

    def ident(self, what: str = "identifier") -> str:
        tok = self.advance()
        if tok.kind != "ident" or tok.text in _KEYWORDS:
            self.error(f"expected {what}, got {tok.text!r}", tok)
        return tok.text

    def variable(self, what: str) -> str:
        """A variable or ``this``; any other token is the syntax error ``what``."""
        tok = self.advance()
        if tok.kind != "ident" or (tok.text in _KEYWORDS and tok.text != "this"):
            self.error(f"{what}, got {tok.text!r}", tok)
        return tok.text

    def type_name(self) -> str:
        tok = self.advance()
        if tok.kind != "ident" or (tok.text in _KEYWORDS and tok.text not in PRIMITIVE_TYPES):
            self.error(f"expected type name, got {tok.text!r}", tok)
        return tok.text

    def parenthesized(self, parse_item, *args) -> tuple:
        """``( item, ... )``, each item read by ``parse_item(*args)``; no comma after the last."""
        self.expect("(")
        items = []
        while self.peek().text != ")":
            if items:
                self.expect(",")
            items.append(parse_item(*args))
        self.advance()
        return tuple(items)

    # top level ---------------------------------------------------------------

    def parse_program(self) -> Program:
        classes: dict[str, ClassDecl] = {}
        while self.peek().text == "class":
            decl = self.parse_class()
            if decl.name in classes:
                self.error(f"class {decl.name!r} declared twice")
            classes[decl.name] = decl
        ct = ClassTable(classes)

        commands: list[Command] = []
        point: int | None = None
        ret: str | None = None
        declared: set[str] = set()
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind == "point":
                self.advance()
                if point is not None:
                    self.error("duplicate POINT marker", tok)
                point = len(commands)
                continue
            if tok.text == "return":
                ret = self.parse_return()
                break
            commands.append(self.parse_command(declared))
        if self.peek().kind == "point" and point is None:
            self.advance()
            point = len(commands)
        tok = self.peek()
        if tok.kind != "eof":
            self.error(f"unexpected trailing input {tok.text!r}", tok)

        program = Program(ct, Body(tuple(commands), ret), point)
        _check_types(program)
        return program

    def parse_class(self) -> ClassDecl:
        self.expect("class")
        name = self.ident("class name")
        if name in RESERVED_LABELS:
            raise ReservedLabelError(name)
        superclass = None
        if self.peek().text == "extends":
            self.advance()
            superclass = self.ident("superclass name")
        self.expect("{")

        fields: list[tuple[str, str]] = []
        methods: dict[str, MethodDecl] = {}
        ctor = None
        while self.peek().text != "}":
            first = self.type_name()
            if first == name and self.peek().text == "(":
                if ctor is not None:
                    self.error(f"class {name!r} has two constructors")
                ctor = self.parse_constructor(name, superclass)
                continue
            second = self.ident("member name")
            if self.peek().text == ";":
                self.advance()
                fields.append((second, first))
            elif self.peek().text == "(":
                method = self.parse_method(second, first)
                if method.name in methods:
                    self.error(f"method {method.name!r} declared twice in {name!r}")
                methods[method.name] = method
            else:
                self.error("expected ';' or '(' after member declaration")
        self.expect("}")

        if ctor is None:
            if fields or superclass is not None:
                self.error(f"class {name!r} needs a constructor")
            ctor = ((), 0, ())
        params, super_k, assignments = ctor
        own = [f for f, _ in fields]
        if [f for f, _ in assignments] != own:
            self.error(f"constructor of {name!r} must assign exactly its own fields in order: {own}")
        return ClassDecl(name, superclass, tuple(fields), params, super_k, assignments, methods)

    def parse_constructor(self, name: str, superclass: str | None):
        params = self.parenthesized(self.parse_param, set())
        self.expect("{")
        param_names = tuple(p for p, _ in params)
        super_k = 0
        if self.peek().text == "super":
            tok = self.advance()
            if superclass is None:
                self.error(f"super(...) in class {name!r}, which extends no class", tok)
            super_args = self.parenthesized(self.ident, "parameter name")
            self.expect(";")
            super_k = len(super_args)
            if super_args != param_names[:super_k]:
                self.error(f"super(...) must forward the first {super_k} parameters in order")
        assignments = []
        while self.peek().text == "this":
            self.advance()
            self.expect(".")
            fieldname = self.ident("field name")
            self.expect("=")
            param = self.ident("parameter name")
            self.expect(";")
            if param not in param_names:
                self.error(f"constructor of {name!r} assigns from unknown parameter {param!r}")
            assignments.append((fieldname, param))
        self.expect("}")
        return params, super_k, tuple(assignments)

    def parse_method(self, name: str, return_type: str) -> MethodDecl:
        params = self.parenthesized(self.parse_param, set())
        self.expect("{")
        declared = {p for p, _ in params} | {"this"}
        commands = []
        while self.peek().text != "return":
            commands.append(self.parse_command(declared))
        ret = self.parse_return()
        self.expect("}")
        return MethodDecl(name, params, return_type, Body(tuple(commands), ret))

    def parse_param(self, seen: set) -> tuple:
        """One ``(name, type)`` of a parameter list; ``seen`` holds the names before it."""
        ptype = self.type_name()
        pname = self.ident("parameter name")
        if pname in seen:
            self.error(f"duplicate parameter {pname!r}")
        seen.add(pname)
        return pname, ptype

    # commands ------------------------------------------------------------------

    def parse_return(self) -> str | None:
        """The variable a ``return`` names, or None for a bare ``return;``."""
        self.expect("return")
        if self.peek().text == ";":
            self.advance()
            return None
        var = self.variable("expected variable after return")
        self.expect(";")
        return var

    def parse_command(self, declared: set[str]) -> Command:
        tok = self.advance()
        if tok.kind != "ident":
            self.error(f"expected a command, got {tok.text!r}", tok)
        nxt = self.peek()
        if nxt.kind == "ident" and nxt.text not in _KEYWORDS:
            # "<Type> <var> = new C(...);"
            var = self.ident("variable name")
            if var in declared:
                self.error(f"variable {var!r} shadows an earlier binding", nxt)
            declared.add(var)
            self.expect("=")
            new = self.expect("new")
            cls = self.ident("class name")
            args = self.parse_args(new)
            self.expect(";")
            return New(var, cls, args)
        name = tok.text
        if name in _KEYWORDS and name != "this":
            self.error(f"unexpected keyword {name!r}", tok)
        self.expect(".")
        member = self.ident("member name")
        if self.peek().text == "=":
            self.advance()
            value = self.variable("field assignment expects a variable")
            self.expect(";")
            return FieldAssign(name, member, value)
        args = self.parenthesized(self.variable, "method arguments must be variables")
        self.expect(";")
        return MethodInvoke(name, member, args)

    def parse_args(self, new: Token) -> tuple:
        """The arguments after ``new C``; past ``MAX_NESTING`` levels of ``new``, a syntax error."""
        if self.depth == MAX_NESTING:
            self.error(f"new nested deeper than the limit of {MAX_NESTING} levels", new)
        self.depth += 1
        args = self.parenthesized(self.parse_arg)
        self.depth -= 1
        return args

    def parse_arg(self) -> Arg:
        tok = self.advance()
        if tok.text == "null":
            return NullArg()
        if tok.text == "true":
            return LitArg(True)
        if tok.text == "false":
            return LitArg(False)
        if tok.kind == "int":
            return LitArg(self.int_value(tok))
        if tok.kind == "float":
            return LitArg(float(tok.text))
        if tok.kind == "string":
            body = tok.text[1:-1]
            return LitArg(body.replace('\\"', '"').replace("\\\\", "\\"))
        if tok.text == "new":
            cls = self.ident("class name")
            return NewArg(cls, self.parse_args(tok))
        if tok.kind == "ident" and (tok.text not in _KEYWORDS or tok.text == "this"):
            return VarArg(tok.text)
        self.error(f"bad constructor argument {tok.text!r}", tok)


def _check_types(program: Program):
    ct = program.class_table
    for name in ct.names():
        decl = ct[name]
        for _, ftype in decl.fields:
            if ftype not in PRIMITIVE_TYPES and ftype not in ct:
                raise UnknownTypeError(f"class {name!r} field of unknown type {ftype!r}")
        for _, ptype in decl.ctor_params:
            if ptype not in PRIMITIVE_TYPES and ptype not in ct:
                raise UnknownTypeError(f"class {name!r} constructor parameter of unknown type {ptype!r}")
        for method in decl.methods.values():
            for _, ptype in method.params:
                if ptype not in PRIMITIVE_TYPES and ptype not in ct:
                    raise UnknownTypeError(f"method {method.name!r} parameter of unknown type {ptype!r}")
            _check_expr_types(ct, method.body)
    _check_expr_types(ct, program.main)


def _check_expr_types(ct: ClassTable, body: Body):
    for cmd in body.commands:
        if isinstance(cmd, New):
            _check_new_types(ct, cmd.cls, cmd.args)


def _check_new_types(ct: ClassTable, cls: str, args: tuple):
    """Allocated classes exist, and each literal fits its primitive field (the evaluation checks arity)."""
    if cls not in ct:
        raise UnknownTypeError(f"allocation of unknown class {cls!r}")
    for arg in args:
        if isinstance(arg, NewArg):
            _check_new_types(ct, arg.cls, arg.args)
    if len(args) != len(ct[cls].ctor_params):
        return
    for fieldname, ftype, index, owner in ct.inits[cls]:
        arg = args[index]
        # A literal given to a reference field is left to the evaluation's ``EvalError``.
        if isinstance(arg, LitArg) and ftype in PRIMITIVE_TYPES and not _literal_fits(ftype, arg.value):
            raise LiteralTypeError(
                f"field {fieldname!r} of {owner!r} is {ftype}; argument {index + 1} of new {cls}(...) "
                f"is a literal of type {_TYPE_NAMES[type(arg.value)]}"
            )


def _literal_fits(ftype: str, value) -> bool:
    """Whether a primitive field of type ``ftype`` takes the literal ``value``."""
    if type(value) not in _LITERAL_TYPES[ftype]:
        return False
    return ftype != "double" or abs(value) <= sys.float_info.max  # a larger integer has no double


def parse_program(text: str) -> Program:
    return _Parser(tokenize(_TOKEN_RE, text), text).parse_program()


# --- evaluation ----------------------------------------------------------------


def resolve_variable(graph: PropertyGraph, name: str) -> int:
    """The node bound to variable ``name``.

    The lookup (``PropertyGraph.first_relationship``) reads the graph's
    relationship label index in place and inspects the relationships labeled
    ``name`` in ascending id order up to the first one that leaves a
    ``Local`` node.  When no field shares the variable's name that is the
    first one, so a lookup costs O(1) and running a program O(commands);
    otherwise the field edges older than the binding are inspected too.
    """
    rel = graph.first_relationship(name, LOCAL_LABEL)
    if rel is None:
        raise UnboundVariableError(name)
    return rel.end


def _class_node(graph: PropertyGraph, cls: str) -> int:
    for node in graph.nodes_with_label(CLASS_LABEL):
        if node.properties.get(CLASS_NAME_KEY) == cls:
            return node.id
    return graph.add_node(CLASS_LABEL, {CLASS_NAME_KEY: cls})


def mk_fields(graph: PropertyGraph, instance: int | None, cls: str, args: tuple, ct: ClassTable, names=_NO_NAMES):
    """Field initializations for a constructor call.

    Reads the arguments across the superclass chain through ``ct.inits``
    (the first ``k`` go to the superclass), resolves variable arguments
    (renamed by ``names``, see ``eval_expr``) through their binding
    relationships, and returns ``(edges, properties)`` where ``edges`` is a
    list of (field, start, end) relationship specs for reference fields and
    ``properties`` maps primitive fields to values.
    """
    decl = ct[cls]
    if len(args) != len(decl.ctor_params):
        raise ArityMismatchError(
            f"constructor of {cls!r} takes {len(decl.ctor_params)} argument(s), got {len(args)}"
        )
    edges: list[tuple[str, int, int]] = []
    props: dict[str, object] = {}
    for fieldname, ftype, index, owner in ct.inits[cls]:
        arg = args[index]
        if ftype in PRIMITIVE_TYPES:
            if isinstance(arg, LitArg):
                props[fieldname] = float(arg.value) if ftype == "double" else arg.value
            elif not isinstance(arg, NullArg):
                raise EvalError(f"primitive field {fieldname!r} of {owner!r} needs a literal argument")
        elif isinstance(arg, VarArg):
            edges.append((fieldname, instance, resolve_variable(graph, names.get(arg.name, arg.name))))
        elif isinstance(arg, NodeRefArg):
            edges.append((fieldname, instance, arg.node_id))
        elif isinstance(arg, LitArg):
            raise EvalError(f"reference field {fieldname!r} of {owner!r} cannot take a literal")
        elif not isinstance(arg, NullArg):
            raise EvalError(f"unresolved nested allocation for field {fieldname!r}")
    return edges, props


def _allocate(graph: PropertyGraph, cls: str, args: tuple, ct: ClassTable, names=_NO_NAMES) -> int:
    """Create an instance node with fields and instanceof edge; no binder."""
    if cls not in ct:
        raise UnknownTypeError(f"allocation of unknown class {cls!r}")
    resolved = []
    for arg in args:
        if isinstance(arg, NewArg):
            resolved.append(NodeRefArg(_allocate(graph, arg.cls, arg.args, ct, names)))
        else:
            resolved.append(arg)
    # The primitive fields go through add_node, which checks them (a ``$uid``
    # field must hold an integer) and indexes them.  The instance id is not
    # known yet, so the edge specs carry None as their start.
    edges, props = mk_fields(graph, None, cls, tuple(resolved), ct, names)
    instance = graph.add_node(cls, props)
    graph.add_relationship(INSTANCEOF_LABEL, instance, _class_node(graph, cls))
    for fieldname, _, end in edges:
        graph.add_relationship(fieldname, instance, end)
    return instance


def step_command(graph: PropertyGraph, cmd: Command, ct: ClassTable, names=_NO_NAMES) -> PropertyGraph:
    """Apply one command, its variables renamed by ``names`` (see ``eval_expr``),
    to the graph (mutating it) and return the graph."""
    if isinstance(cmd, FieldAssign):
        start = resolve_variable(graph, names.get(cmd.obj, cmd.obj))
        end = resolve_variable(graph, names.get(cmd.value, cmd.value))
        graph.set_field_edge(cmd.fieldname, start, end)
        return graph
    if isinstance(cmd, MethodInvoke):
        return eval_expr(graph, Body((cmd,), None), ct, names)
    if isinstance(cmd, New):
        if graph.first_relationship(cmd.var, LOCAL_LABEL) is not None:
            raise EvalError(f"variable {cmd.var!r} is already bound")
        instance = _allocate(graph, cmd.cls, cmd.args, ct, names)
        binder = graph.add_node(LOCAL_LABEL)
        graph.add_relationship(cmd.var, binder, instance)
        return graph
    raise EvalError(f"unknown command {cmd!r}")


def eval_expr(graph: PropertyGraph, body: Body, ct: ClassTable, names=_NO_NAMES) -> PropertyGraph:
    """Big-step evaluation of ``body.commands``; the return leaves the graph unchanged.

    A call runs the callee's body under a renaming: ``names`` maps each
    parameter and ``this`` of a body to the variable it stands for.  At most
    ``MAX_NESTING`` calls are open at once: with no conditionals, recursion never returns.
    """
    frames = [(iter(body.commands), names)]
    while frames:
        commands, names = frames[-1]
        for cmd in commands:
            if not isinstance(cmd, MethodInvoke):
                step_command(graph, cmd, ct, names)
                continue
            if len(frames) > MAX_NESTING:
                raise EvalError(f"call of {cmd.method!r} nested deeper than the limit of {MAX_NESTING} calls")
            receiver = names.get(cmd.obj, cmd.obj)
            params, callee = mbody(ct, cmd.method, graph.node(resolve_variable(graph, receiver)).label)
            if len(cmd.args) != len(params):
                raise ArityMismatchError(f"method {cmd.method!r} takes {len(params)} argument(s), got {len(cmd.args)}")
            renaming = {pname: names.get(arg, arg) for (pname, _), arg in zip(params, cmd.args)}
            renaming["this"] = receiver
            frames.append((iter(callee.commands), renaming))
            break
        else:
            frames.pop()
    return graph


def run_program(program: Program) -> PropertyGraph:
    return eval_expr(PropertyGraph(), program.main, program.class_table)


def run_to_point(text: str) -> PropertyGraph:
    """Evaluate a program up to its ``/* POINT */`` marker.

    Without a marker the final graph is returned.
    """
    program = parse_program(text)
    commands = program.main.commands[: program.point]
    return eval_expr(PropertyGraph(), Body(commands, None), program.class_table)
