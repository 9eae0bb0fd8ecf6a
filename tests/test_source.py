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


def _solver_and_curve_uses(tree: ast.AST) -> list[str]:
    """Calls of minimize (the free fit is one exact NNLS solve, the parametric
    fit least_squares) and definitions of model_curve (every spectrum is
    g + eta B p from the one response basis)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node) == "minimize":
            found.append(f"minimize() at line {node.lineno}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "model_curve":
            found.append(f"def model_curve at line {node.lineno}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_general_minimizer_or_second_curve(path):
    assert _solver_and_curve_uses(ast.parse(path.read_text(), filename=str(path))) == []


def test_detects_minimizer_and_curve():
    source = "\n".join(
        [
            "from scipy.optimize import minimize",
            "def model_curve(grid, p):",
            "    return minimize(f, x0)",
            "res = scipy.optimize.minimize(f, x0, method='SLSQP')",
            "least_squares(f, x0)",
        ]
    )
    assert len(_solver_and_curve_uses(ast.parse(source))) == 3


def _population_path_breaks(tree: ast.AST, module: str) -> list[str]:
    """A radial state is its populations: measure imports nothing from fock,
    and cli never calls prepare (it reads distribution)."""
    found = []
    for node in ast.walk(tree):
        if module == "measure.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            found += [f"fock import at line {node.lineno}" for n in names if n.split(".")[-1] == "fock"]
        elif module == "cli.py" and isinstance(node, ast.Call) and _called(node) == "prepare":
            found.append(f"prepare() at line {node.lineno}")
    return found


@pytest.mark.parametrize("name", ["measure.py", "cli.py"])
def test_measure_and_cli_read_populations(name):
    path = PACKAGE / name
    assert _population_path_breaks(ast.parse(path.read_text(), filename=str(path)), name) == []


def test_detects_population_path_breaks():
    source = "\n".join(
        [
            "from .fock import FockState",
            "from ionkerr.fock import basis_vector",
            "from . import fock",
            "import ionkerr.fock",
            "from .spectra import lineshape",
            "state, _ = prepare(spec, 12)",
            "states.prepare(spec, 12)",
        ]
    )
    tree = ast.parse(source)
    assert len(_population_path_breaks(tree, "measure.py")) == 4
    assert len(_population_path_breaks(tree, "cli.py")) == 2
    assert _population_path_breaks(tree, "spectra.py") == []


RUN_CONTEXT_CALLS = {"load_config", "paper_trap", "mkdir"}


def _run_context_breaks(tree: ast.Module) -> list[str]:
    """cli.main alone loads the trap, creates --out and writes the manifest:
    no cmd_* calls load_config, paper_trap or mkdir, or names manifest.json,
    itself or through a module-level helper it calls."""
    functions = {s.name: s for s in tree.body if isinstance(s, ast.FunctionDef)}

    def breaks(name: str, seen: set) -> list[str]:
        seen.add(name)
        found = []
        for node in ast.walk(functions[name]):
            called = _called(node) if isinstance(node, ast.Call) else None
            if called in RUN_CONTEXT_CALLS:
                found.append(f"{called}() in {name} at line {node.lineno}")
            elif called in functions and called not in seen:
                found += breaks(called, seen)
            elif isinstance(node, ast.Constant) and node.value == "manifest.json":
                found.append(f"'manifest.json' in {name} at line {node.lineno}")
        return found

    return [hit for name in functions if name.startswith("cmd_") for hit in breaks(name, set())]


def test_only_main_owns_the_run_context():
    path = PACKAGE / "cli.py"
    assert _run_context_breaks(ast.parse(path.read_text(), filename=str(path))) == []


def test_detects_run_context_breaks():
    source = "\n".join(
        [
            "def _load_trap(args):",
            "    return load_config(args.config) if args.config else paper_trap()",
            "def _write_manifest(out):",
            "    (out / 'manifest.json').write_text('{}')",
            "def cmd_a(args):",
            "    cfg = _load_trap(args)",
            "def cmd_b(args, cfg, out):",
            "    Path(args.out).mkdir(parents=True)",
            "    _write_manifest(out)",
            "def cmd_c(args, cfg, out):",
            "    return [out / 'c.csv'], 0",
            "def main(argv):",
            "    cfg = _load_trap(argv)",
            "    Path(argv.out).mkdir()",
            "    _write_manifest(out)",
        ]
    )
    assert len(_run_context_breaks(ast.parse(source))) == 4
