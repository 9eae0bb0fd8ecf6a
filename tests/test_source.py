"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ionkerr"
MODULES = sorted(PACKAGE.glob("*.py"))

# The dense Kronecker operators build only the dense reference Hamiltonian and
# charge; the package evolves states on manifold blocks and never builds it.
DENSE_OPERATORS = {"annihilation_op", "number_op"}
DENSE_REFERENCE = {("dynamics.py", "build_hamiltonian"), ("dynamics.py", "conserved_charge")}


def _called(node: ast.Call) -> str | None:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _dense_exponential_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("scipy.linalg")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "scipy.linalg" or node.module.startswith("scipy.linalg."):
                found.append(node.module)
            elif node.module == "scipy":
                found += [f"scipy.{a.name}" for a in node.names if a.name == "linalg"]
        elif isinstance(node, ast.Call):
            if _called(node) == "expm":
                found.append(f"expm() at line {node.lineno}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dense_matrix_exponential(path):
    """Squeezing uses the exact recurrence: no module imports scipy.linalg or calls expm."""
    assert _dense_exponential_uses(ast.parse(path.read_text(), filename=str(path))) == []


def test_detects_dense_exponential():
    source = "\n".join(
        ["import scipy.linalg", "from scipy import linalg", "from scipy.linalg import expm", "expm(x)"]
    )
    assert len(_dense_exponential_uses(ast.parse(source))) == 4


def _dense_operator_calls(tree: ast.Module, module: str) -> list[str]:
    """Calls of build_hamiltonian anywhere, and of the dense operators outside
    fock.py and the dense reference functions, by top-level scope."""
    found = []
    for stmt in tree.body:
        scope = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            name = _called(node)
            dense_op = name in DENSE_OPERATORS and module != "fock.py"
            if name == "build_hamiltonian" or (dense_op and (module, scope) not in DENSE_REFERENCE):
                found.append(f"{name}() in {scope} at line {node.lineno}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_dense_operators_only_in_the_dense_reference(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _dense_operator_calls(tree, path.name) == []


def test_detects_dense_operator_calls():
    source = "\n".join(
        [
            "def build_hamiltonian(p):",
            "    return annihilation_op(c, 'a') @ number_op(c, 'b')",
            "def exchange_trace(p):",
            "    H = build_hamiltonian(p)",
            "    return fock.number_op(c, 'b')",
            "n = annihilation_op(c, 'a')",
        ]
    )
    tree = ast.parse(source)
    assert len(_dense_operator_calls(tree, "dynamics.py")) == 3
    assert len(_dense_operator_calls(tree, "spectra.py")) == 5
    assert len(_dense_operator_calls(tree, "fock.py")) == 1
