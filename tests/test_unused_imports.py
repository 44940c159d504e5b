"""No module of the package, its scripts or its tests imports a name it never uses.

The check reads each module's syntax tree with the stdlib `ast`, so it needs
no linter: a name bound by an import must appear as a name somewhere else in
the module, in code or in an annotation.  `from __future__` imports bind no
name and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for folder in ("src/hvectors", "scripts", "tests")
    for path in (ROOT / folder).glob("*.py")
)


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
