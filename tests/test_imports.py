"""No module of the package imports a name it never uses, and no private
module-level definition is left that the package never reads.

No linter ships with the toolchain, so these are the two dead-code rules.
The unused-import rule (pyflakes F401), over the package, its tests, its
scripts and its benchmark harness: a name bound by an import must be read
somewhere in the module, in code or in a string annotation. A name
re-exported on purpose sits on a line marked ``# noqa: F401``. The
unused-definition rule: a module-level ``_private`` function, class or
constant must be read by some module of the package, so neither a helper
left behind by a refactor nor code only a test calls stays in ``src/``.

The same files must also parse as the oldest Python that ``pyproject.toml``
admits, which the host interpreter, being newer, would not check.
"""

from __future__ import annotations

import ast
import re

import pytest

from conftest import REPO_ROOT

MODULES = sorted((REPO_ROOT / "src" / "moemeter").glob("*.py"))
# the package's modules by file name, the tests, scripts and bench files by their path
IMPORTING = {
    **{path.name: path for path in MODULES},
    **{
        str(path.relative_to(REPO_ROOT)): path
        for directory in ("tests", "scripts", "bench")
        for path in sorted((REPO_ROOT / directory).glob("*.py"))
    },
}
PYTHON_FLOOR = (3, 10)


def test_the_floor_is_the_declared_one():
    declared = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (REPO_ROOT / "pyproject.toml").read_text())
    assert tuple(map(int, declared.groups())) == PYTHON_FLOOR


def test_the_floor_check_finds_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=PYTHON_FLOOR)


@pytest.mark.parametrize("name", IMPORTING)
def test_file_parses_at_the_python_floor(name):
    ast.parse(IMPORTING[name].read_text(encoding="utf-8"), feature_version=PYTHON_FLOOR)


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


@pytest.mark.parametrize("name", IMPORTING)
def test_module_imports_no_unused_name(name):
    assert unused_imports(IMPORTING[name].read_text(encoding="utf-8")) == []


def _private_definitions(tree: ast.Module) -> list[str]:
    """The ``_private`` (not dunder) names a module defines at its top level,
    looking into top-level ``if`` and ``try`` blocks."""
    names, body = [], list(tree.body)
    while body:
        node = body.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            body += [*node.body, *node.orelse, *getattr(node, "finalbody", []),
                     *(s for h in getattr(node, "handlers", []) for s in h.body)]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private module-level definition in
    ``sources`` (module name -> source) that no module reads: not by name
    in its own module, not through an import from it, and not as an
    attribute anywhere."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    imported = {
        (node.module, alias.name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    unused = []
    for module, tree in trees.items():
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read = loaded | _string_annotation_names(tree) | attributes
        unused += [
            f"{module}.{name}" for name in _private_definitions(tree)
            if name not in read and (module, name) not in imported
        ]
    return unused


def test_the_check_finds_an_unused_definition():
    sources = {
        "a": (
            "import typing\n"
            "__all__ = []\n"
            "_USED = 1\n"
            "_UNUSED: int = 2\n"
            "_x, (_y, _z) = 1, (2, 3)\n"
            "_x += _z\n"
            "def _dead():\n"
            "    return _USED\n"
            "class _Annotated:\n"
            "    pass\n"
            "if typing.TYPE_CHECKING:\n"
            "    def _checked_only(): ...\n"
            "def _imported(): ...\n"
            "def _as_attribute(): ...\n"
            "def public(arg: '_Annotated') -> None: ...\n"
        ),
        "b": "from . import a\nfrom .a import _imported\n_imported(a._as_attribute)\n",
    }
    assert unused_definitions(sources) == ["a._UNUSED", "a._x", "a._y", "a._dead", "a._checked_only"]


def test_package_defines_no_unused_private_name():
    assert unused_definitions({path.stem: path.read_text(encoding="utf-8") for path in MODULES}) == []
