"""The import layering of ``src/qrep``, read from each module's syntax tree.

The library modules sit below the checks and the front end, every
check-only helper lives in ``verify``, only ``grid`` calls the FFT, and every
unit phasor goes through ``grid._cis``.
"""

import ast
from pathlib import Path

import pytest

import qrep

SRC = Path(qrep.__file__).resolve().parent
LIBRARY = ("grid", "states", "kernels", "operators", "transforms")
# Name fragments of the helpers only checks call: the finite-difference
# derivative and eigen-residual, and the conjugation-rule defects.
CHECK_HELPERS = ("fd_derivative", "eigen_residual", "conjugation_defect")


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _imports(tree: ast.Module) -> set[str]:
    """The ``qrep`` modules a syntax tree imports, by bare name, however spelt."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "qrep" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("qrep"):
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # ``from . import verify`` or ``from qrep import verify``
                found.update(alias.name for alias in node.names)
    return found


def _uses_fft(tree: ast.Module) -> bool:
    """Whether a syntax tree reads ``numpy.fft``, as an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name.split(".")[:2] in (["np", "fft"], ["numpy", "fft"]) for name in names):
            return True
    return False


def _imported_modules(module: str) -> set[str]:
    return _imports(_tree(module))


def _defined_functions(module: str) -> set[str]:
    return {
        node.name
        for node in ast.walk(_tree(module))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


@pytest.mark.parametrize("module", LIBRARY)
def test_library_imports_neither_verify_nor_cli(module):
    assert not _imported_modules(module) & {"verify", "cli"}


def test_transforms_imports_nothing_from_operators():
    assert "operators" not in _imported_modules("transforms")


def test_check_helpers_are_defined_only_in_verify():
    modules = sorted(p.stem for p in SRC.glob("*.py"))
    defined = {
        (module, name)
        for module in modules
        for name in _defined_functions(module)
        if any(fragment in name for fragment in CHECK_HELPERS)
    }
    assert {module for module, _ in defined} == {"verify"}, sorted(defined)


def test_only_grid_calls_the_fft():
    modules = sorted(p.stem for p in SRC.glob("*.py"))
    assert {module for module in modules if _uses_fft(_tree(module))} == {"grid"}


@pytest.mark.parametrize(
    "source,uses",
    [
        ("np.fft.fft(x)", True),
        ("numpy.fft.ifft(x)", True),
        ("import numpy.fft", True),
        ("from numpy import fft", True),
        ("from numpy.fft import ifft", True),
        ("np.sum(x); fft = 1", False),
        ("from numpy import sum", False),
        ("from .grid import fourier_sum", False),
    ],
)
def test_fft_reader_sees_every_spelling(source, uses):
    assert _uses_fft(ast.parse(source)) is uses


def test_import_reader_sees_every_spelling():
    source = """
import numpy as np
from numpy import fft
import qrep.verify
from qrep.cli import main
from qrep import kernels
from . import operators
from .grid import Grid
"""
    assert _imports(ast.parse(source)) == {"verify", "cli", "kernels", "operators", "grid"}


def test_conjugation_checks_are_exported_from_verify():
    assert qrep.conjugation_defect is qrep.verify.conjugation_defect
    assert not hasattr(qrep, "windowed_conjugation_defect")
    assert not hasattr(qrep.verify, "windowed_conjugation_defect")


def _imaginary_exps(tree: ast.Module) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of each ``exp`` call, as ``np.exp``,
    ``numpy.exp`` or a bare ``exp``, with an imaginary literal in its arguments."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "exp"
                    and isinstance(f.value, ast.Name) and f.value.id in ("np", "numpy")
                    or isinstance(f, ast.Name) and f.id == "exp"):
                if any(isinstance(c, ast.Constant) and isinstance(c.value, complex)
                       for arg in [*node.args, *node.keywords] for c in ast.walk(arg)):
                    found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "")
    return found


def test_every_unit_phasor_goes_through_cis():
    modules = sorted(p.stem for p in SRC.glob("*.py"))
    found = {module: _imaginary_exps(_tree(module)) for module in modules}
    assert [(m, site) for m, sites in found.items() for site in sites
            if (m, site[0]) != ("grid", "_cis")] == []
    assert {m for m in modules if "_cis" in _defined_functions(m)} == {"grid"}


@pytest.mark.parametrize(
    "source,functions",
    [
        ("np.exp(1j * x)", [""]),
        ("numpy.exp(-0.5j * x**2)", [""]),
        ("from numpy import exp\nexp(x * 2j)", [""]),
        ("np.exp(a=1j)", [""]),
        ("np.exp(-x**2)", []),
        ("np.exp(x) * 1j", []),
        ("np.cos(1j * x)", []),
        ("def _cis(x):\n    return np.exp(1j * x)", ["_cis"]),
        ("def f(x):\n    def g():\n        return np.exp(1j)\n    return np.exp(2j)", ["f", "g"]),
    ],
)
def test_imaginary_exp_reader_sees_every_spelling(source, functions):
    assert sorted(f for f, _ in _imaginary_exps(ast.parse(source))) == functions
