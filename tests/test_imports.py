"""Every module-level import in src/gridlock is used by its module.

A name bound by an import at the top level of a module counts as used when
the module's code refers to it.  `__init__` re-exports its imports and
`from __future__` binds nothing, so both are exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gridlock"


def _imported_names(tree):
    """(name, line) for each name bound by a top-level import."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name
                yield (bound if isinstance(node, ast.ImportFrom) else bound.split(".")[0],
                       node.lineno)


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in _imported_names(tree)
                   if name not in used]
    assert not unused, f"imported but never used: {unused}"
