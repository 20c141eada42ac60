"""Every public name the library defines has a caller in the program.

The test suite is not a caller: a function only tests use belongs in
tests/oracles.py.  Checked are the public top-level functions and classes
of src/gridlock/*.py and the public methods and properties of Ctmc; a
name counts as used when program code (src/gridlock, scripts, perfbench)
refers to it as a name, an attribute or an import outside its own
definition.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gridlock"
PROGRAM = [PACKAGE, ROOT / "scripts", ROOT / "perfbench"]

# public by design though no program code calls them
KEPT = {
    # the parse/format fixpoint of the input files is acceptance criterion 7
    "format_scenario": "scenario_io",
    "format_demand_csv": "scenario_io",
}


def _definitions():
    """(module, name, node) for each public top-level def/class and Ctmc member."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node.name, node
            if isinstance(node, ast.ClassDef) and node.name == "Ctmc":
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield path, member.name, member


def _references():
    """name -> [(path, line)] for every Name, Attribute and imported name."""
    refs = defaultdict(list)
    for root in PROGRAM:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    refs[node.id].append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    refs[node.attr].append((path, node.lineno))
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        refs[alias.name.rsplit(".", 1)[-1]].append((path, node.lineno))
    return refs


def test_every_public_name_has_a_program_caller():
    refs = _references()
    unused = []
    for path, name, node in _definitions():
        if KEPT.get(name) == path.stem:
            continue
        outside = [
            (p, line) for p, line in refs[name]
            if not (p == path and node.lineno <= line <= node.end_lineno)
        ]
        if not outside:
            unused.append(f"{path.stem}.{name}")
    assert not unused, f"public but used only by tests: {unused}"


def test_kept_names_still_exist():
    defined = {(path.stem, name) for path, name, _ in _definitions()}
    assert {(module, name) for name, module in KEPT.items()} <= defined
