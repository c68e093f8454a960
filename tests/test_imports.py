"""No module of the package imports a name it never uses.

No linter ships with the toolchain, so this is the one unused-import rule
(pyflakes F401): a name bound by an import must be read somewhere in the
module, in code or in a string annotation. A name re-exported on purpose
sits on a line marked ``# noqa: F401``.
"""

from __future__ import annotations

import ast

import pytest

from conftest import REPO_ROOT

MODULES = sorted((REPO_ROOT / "src" / "moemeter").glob("*.py"))


def _string_annotation_names(tree: ast.AST) -> set[str]:
    """Names read inside string annotations."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            annotations += [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _read_names(ast.parse(node.value, mode="eval"))
    return names


def _read_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, except on a
    ``# noqa: F401`` line."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append(name)
    used = _read_names(tree) | _string_annotation_names(tree)
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "from typing import TYPE_CHECKING, Mapping, Sequence\n"
        "from .models import fold_passes  # noqa: F401  (re-exported)\n"
        "if TYPE_CHECKING:\n"
        "    from .trace import ForwardPassRecord\n"
        "def f(rec: 'ForwardPassRecord') -> Mapping[str, int]:\n"
        "    return {}\n"
    )
    assert unused_imports(source) == ["os", "os", "Sequence"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_unused_name(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
