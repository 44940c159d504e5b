"""No module of the package, its scripts or its tests imports a name it never uses,
and no private name of the package goes unread.

The checks read each module's syntax tree with the stdlib `ast`, so they
need no linter: a name bound by an import must appear as a name somewhere
else in the module, in code or in an annotation.  `from __future__` imports
bind no name and are skipped.  A module-level function, class or assignment
of the package whose name starts with one underscore must be read, as a name
or an attribute, somewhere in the package, its scripts or its tests outside
its own definition.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for folder in ("src/hvectors", "scripts", "tests")
    for path in (ROOT / folder).glob("*.py")
)
PACKAGE = ROOT / "src" / "hvectors"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name an import binds that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # `import a.b` binds a
                imported.append((node.lineno, alias.asname or alias.name.partition(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_the_check_sees_an_unused_name():
    source = "import os\nimport a.b\nfrom x import y as z, w\nfrom __future__ import annotations\n"
    assert unused_imports(source + "w()\n") == [(1, "os"), (2, "a"), (3, "z")]
    assert unused_imports(source + "def f(p: z) -> os.PathLike:\n    return a.b(w)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_import_goes_unused(path):
    assert unused_imports(path.read_text()) == []


def loaded_names(tree: ast.AST) -> Counter:
    """How often each name is read in the tree, as a name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level function, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
    return []


def dead_private_names(package: dict[str, str], readers: list[str]) -> list[tuple[str, int, str]]:
    """(module, line, name) for each single-underscore name the package defines and no reader reads.

    The readers include the package's own sources; a read inside the
    name's own definition, such as a helper calling itself, does not count.
    """
    reads = Counter()
    for source in readers:
        reads += loaded_names(ast.parse(source))
    dead = []
    for module, source in package.items():
        for node in ast.parse(source).body:
            own = loaded_names(node)
            for name in defined_names(node):
                if name.startswith("_") and not name.startswith("__") and reads[name] == own[name]:
                    dead.append((module, node.lineno, name))
    return dead


def test_the_check_sees_an_orphaned_private_name():
    package = {
        "a": "_kept = 1\n_orphan, _also = 2, 3\ndef _recursive(n):\n    return _recursive(n - 1)\n"
             "class _Used:\n    pass\n__dir__ = dir\n",
        "b": "from a import _Used\nprint(a._kept, _Used())\n",
    }
    assert dead_private_names(package, list(package.values())) == [
        ("a", 2, "_orphan"), ("a", 2, "_also"), ("a", 3, "_recursive"),
    ]


def test_no_private_name_goes_unread():
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(package, [path.read_text() for path in MODULES]) == []
