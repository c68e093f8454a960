"""No module of the package imports a name it never uses, and no
definition is left that nothing runs.

No linter ships with the toolchain, so these are the two dead-code rules.
The unused-import rule (pyflakes F401), over the package, its tests, its
scripts and its benchmark harness: a name bound by an import must be read
somewhere in the module, in code or in a string annotation. A name
re-exported on purpose sits on a line marked ``# noqa: F401``. The
unused-definition rule: a module-level ``_private`` function, class or
constant must be read by some module of the package, and a public one, or a
public method or property, by the package, its scripts, its benchmark
harness or the acceptance tests, so neither a helper left behind by a
refactor nor code only its own unit tests call stays in ``src/``.

The same files must also parse as the oldest Python that ``pyproject.toml``
admits, which the host interpreter, being newer, would not check.

One more rule keeps every record behind its own checks: no module of the
package reads a ``__new__`` attribute, nor a ``__setattr__`` one (such as
``object.__setattr__``) outside a ``__post_init__`` and ``errors.record``,
so no record is built or edited around its ``__init__``.
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


def _definitions(tree: ast.Module) -> list[str]:
    """The names a module defines at its top level, looking into top-level
    ``if`` and ``try`` blocks, and ``Class.name`` for each public method or
    property of a public class defined there; dunder names are left out."""
    names, body = [], list(tree.body)
    while body:
        node = body.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            body += [*node.body, *node.orelse, *getattr(node, "finalbody", []),
                     *(s for h in getattr(node, "handlers", []) for s in h.body)]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                names += [
                    f"{node.name}.{m.name}" for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not m.name.startswith("_")
                ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


# a string that names something: `getattr`'s second argument, or a dotted path
_IDENTIFIER_PATH = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _public_reads(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads: by name, as an attribute, as a name it
    imports, in a string annotation, or as an identifier string (each part
    of a dotted one)."""
    reads = _string_annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _IDENTIFIER_PATH.fullmatch(node.value):
            reads.update(node.value.split("."))
    return reads


def unused_definitions(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``module.name`` for each definition in ``sources`` (module name ->
    source) that nothing reads.

    A private module-level function, class or constant must be read by some
    module of ``sources``: by name in its own module, through an import from
    it, or as an attribute anywhere. A public one, and a public method or
    property (``module.Class.name``), may also be read by ``readers`` (file
    -> source), and in any way :func:`_public_reads` finds. ``__init__``
    only maps the package's names to their modules, so it reads none.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    imported = {
        (node.module, alias.name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    public_reads = set().union(
        *(_public_reads(tree) for module, tree in trees.items() if module != "__init__"),
        *(_public_reads(ast.parse(source)) for source in readers.values()),
    )
    unused = []
    for module, tree in trees.items():
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read = loaded | _string_annotation_names(tree) | attributes
        for name in _definitions(tree):
            if name.startswith("_"):
                if name not in read and (module, name) not in imported:
                    unused.append(f"{module}.{name}")
            elif name.split(".")[-1] not in public_reads:
                unused.append(f"{module}.{name}")
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
            "def _script_only(): ...\n"
            "def public(arg: '_Annotated') -> None: ...\n"
            "PUBLIC_UNREAD = 3\n"
            "class Thing:\n"
            "    def __init__(self): ...\n"
            "    def _helper(self): ...\n"
            "    def used(self): ...\n"
            "    @property\n"
            "    def unread(self): ...\n"
            "def in_a_path(): ...\n"
        ),
        "b": "from . import a\nfrom .a import _imported\n_imported(a._as_attribute)\n",
        "__init__": "_EXPORTS = {'a': ('PUBLIC_UNREAD',)}\n__all__ = list(_EXPORTS)\n",
    }
    readers = {
        "script.py": (
            "from a import Thing, _script_only\n"
            "import a\n"
            "Thing().used(getattr(a, 'public'), _script_only)\n"
            "SPANS = ('a.in_a_path',)\n"
        ),
    }
    assert unused_definitions(sources, readers) == [
        "a._UNUSED", "a._x", "a._y", "a._dead", "a._script_only", "a.PUBLIC_UNREAD", "a.Thing.unread", "a._checked_only",
    ]


def _package_unread() -> list[str]:
    package = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    readers = {
        name: path.read_text(encoding="utf-8") for name, path in IMPORTING.items()
        if name.startswith(("scripts/", "bench/")) or name == "tests/test_acceptance.py"
    }
    return unused_definitions(package, readers)


def test_package_defines_no_unused_private_name():
    assert [name for name in _package_unread() if name.split(".")[-1].startswith("_")] == []


def test_package_defines_no_unread_public_name():
    assert [name for name in _package_unread() if not name.split(".")[-1].startswith("_")] == []


def record_bypasses(sources: dict[str, str]) -> list[str]:
    """``module:line expression`` for each read of a ``__new__`` attribute in
    ``sources`` (module name -> source), and of a ``__setattr__`` one outside
    a ``__post_init__`` and outside ``errors.record``, which builds every
    record's ``__init__`` from ``object.__setattr__``. A read, not only a
    call, so an alias such as ``set_ = object.__setattr__`` is found too."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        exempt = {"__post_init__", "record"} if module == "errors" else {"__post_init__"}
        allowed = {
            id(inner)
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name in exempt
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (
                node.attr == "__new__" or (node.attr == "__setattr__" and id(node) not in allowed)
            ):
                found.append((module, node.lineno, ast.unparse(node)))
    return [f"{module}:{line} {expression}" for module, line, expression in sorted(found)]


def test_the_check_finds_a_record_bypass():
    sources = {
        "a": (
            "class R:\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'x', 1)\n"
            "    @classmethod\n"
            "    def fast(cls):\n"
            "        rec = cls.__new__(cls)\n"
            "        set_ = object.__setattr__\n"
            "        set_(rec, 'x', 1)\n"
            "        return rec\n"
            "def edit(rec):\n"
            "    super(R, rec).__setattr__('x', 2)\n"
            "def record(cls):\n"
            "    return object.__setattr__\n"
        ),
        "errors": "def record(cls):\n    namespace = {'__set': object.__setattr__}\n",
    }
    assert record_bypasses(sources) == [
        "a:6 cls.__new__", "a:7 object.__setattr__", "a:11 super(R, rec).__setattr__", "a:13 object.__setattr__",
    ]


def test_package_builds_records_only_through_their_constructor():
    assert record_bypasses({path.stem: path.read_text(encoding="utf-8") for path in MODULES}) == []
