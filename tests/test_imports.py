"""Every module-level import in src/gridlock is used by its module, only
`solvers` imports private scipy API, importing the CLI leaves out
`scipy.stats`, no module reads the `Ctmc.labels` or `Ctmc.transitions`
view, and only `solvers` names its uniformization batch policy or its
settling internals.

A name bound by an import at the top level of a module counts as used when
the module's code refers to it.  `__init__` re-exports its imports and
`from __future__` binds nothing, so both are exempt.
"""

import ast
import os
import subprocess
import sys
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


def _private_scipy_imports(tree):
    """Dotted names of private scipy modules or members an import reaches."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        yield from (n for n in names if n.split(".")[0] == "scipy"
                    and any(part.startswith("_") for part in n.split(".")))


def test_only_solvers_imports_private_scipy():
    # scipy may move or change a private module in any release; one
    # importer keeps the breakage in one place, pinned by test_solvers
    importers = {path.name: list(_private_scipy_imports(ast.parse(path.read_text())))
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert {name for name, found in importers.items() if found} == {"solvers.py"}, importers
    assert importers["solvers.py"] == ["scipy.sparse._sparsetools.csr_matvec"]


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs about 1 s and 36 MiB of every CLI call and pool
    # worker; the Poisson window needs only scipy.special
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                                     os.environ.get("PYTHONPATH")])))
    code = "import sys, gridlock.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_module_reads_the_labels_view():
    # the program reads label sets as the sorted int64 arrays of
    # `label_arrays` and rates as the CSR arrays; the frozenset and
    # (source, target) -> rate views are for outside callers only
    readers = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr in ("labels", "transitions")]
    assert not readers, f"reads .labels or .transitions: {readers}"


def _named_outside_solvers(names):
    """file:line of each name, attribute or import of one of names in a
    module other than solvers.py."""
    return [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "solvers.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.alias) and node.name in names)]


def test_only_solvers_names_the_batch_policy():
    # which chains step together, and at what rate, is decided in one
    # place: `solvers.Batches`; a caller hands it chains and nothing else
    leaks = _named_outside_solvers(("BATCH_NNZ", "_UNIF_SLACK", "_slot"))
    assert not leaks, f"names the batch policy outside solvers: {leaks}"


def test_only_solvers_names_the_settling_internals():
    # whether a transient chain is certified settled or collapsed is
    # decided in one place, `solvers.settle`; a caller hands it a chain
    leaks = _named_outside_solvers(("_patterns", "_change_sources", "_settled", "_certify",
                                    "_collapse"))
    assert not leaks, f"names the settling internals outside solvers: {leaks}"
