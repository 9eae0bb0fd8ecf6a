"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ionkerr"


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
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "expm":
                found.append(f"expm() at line {node.lineno}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_dense_matrix_exponential(path):
    """Squeezing uses the exact recurrence: no module imports scipy.linalg or calls expm."""
    assert _dense_exponential_uses(ast.parse(path.read_text(), filename=str(path))) == []


def test_detects_dense_exponential():
    source = "\n".join(
        ["import scipy.linalg", "from scipy import linalg", "from scipy.linalg import expm", "expm(x)"]
    )
    assert len(_dense_exponential_uses(ast.parse(source))) == 4
