"""Checks on the source of the ``heapquery`` package, read with ``ast``."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heapquery"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")  # that one re-exports


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.AST) -> set[str]:
    """The names the module reads, in its code and in its annotations, quoted ones too."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= used_names(ast.parse(part.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used]
    assert unused == [], f"{path.name} imports names it never uses"


def snapshot_private_reads(tree: ast.AST) -> list[str]:
    """Each ``<...>snapshot._name`` the code reads, other than ``_ensure_valid``, with its line.

    A snapshot is any name or attribute whose name ends in ``snapshot``.
    """
    reads = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_") or node.attr == "_ensure_valid":
            continue
        owner = node.value
        name = owner.id if isinstance(owner, ast.Name) else owner.attr if isinstance(owner, ast.Attribute) else ""
        if name.endswith("snapshot"):
            reads.append(f"{name}.{node.attr} (line {node.lineno})")
    return reads


def test_the_snapshot_private_read_check_finds_reads():
    code = "ctx.snapshot._kept\nsnapshot._plans\nself.snapshot._ensure_valid()\nsnap._x\ngraph._nodes"
    assert snapshot_private_reads(ast.parse(code)) == ["snapshot._kept (line 1)", "snapshot._plans (line 2)"]


@pytest.mark.parametrize("path", [path for path in MODULES if path.name != "subgraph.py"], ids=lambda path: path.name)
def test_only_subgraph_reads_the_private_state_of_a_snapshot(path):
    """The numberings and graphs a snapshot keeps per root set are used, kept and dropped in ``subgraph`` alone."""
    reads = snapshot_private_reads(ast.parse(path.read_text(encoding="utf-8")))
    assert reads == [], f"{path.name} reads private snapshot state"
