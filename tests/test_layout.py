"""The package's layout: `src/phaselab` keeps no public definition that only the
tests read; those are oracles, in `tests/oracles.py`."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "phaselab"

# public definitions whose reader is outside the package, each with that reader
READ_OUTSIDE = {
    "phases.adiabatic_phase": "criterion 8 of tests/test_acceptance.py",
    "spin_model.exact_amplitudes": "criterion 1, the model's exact solution as its oracle",
    "spin_model.mixed_trace": "perfbench's trace error on simulate, sweep and spin-report",
}


def _names(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """Every name `tree` reads, attributes and imported names included, outside
    the subtree `skip`."""
    names, nodes = set(), [tree]
    while nodes:
        node = nodes.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        nodes.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_definition_has_a_caller_in_the_package():
    # an import counts as a use, a re-export in `__init__` does not
    modules = {path.stem: ast.parse(path.read_text(), str(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {"cli", "evolution", "gauge", "linalg", "mixed", "phases", "spin_model"} <= set(modules)
    readers = {name: tree for name, tree in modules.items() if name != "__init__"}
    found, uncalled = set(), []
    for module, tree in readers.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found.add(name := f"{module}.{node.name}")
            if name not in READ_OUTSIDE and not any(
                    node.name in _names(other, node) for other in readers.values()):
                uncalled.append(name)
    assert set(READ_OUTSIDE) <= found
    assert not uncalled, f"public definitions with no caller in the package: {uncalled}"
