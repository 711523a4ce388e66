"""The import layering of ``src/qrep``, read from each module's syntax tree.

The library modules sit below the checks and the front end, every
check-only helper lives in ``verify``, only ``grid`` calls the FFT or sums
a state's own samples, every unit phasor goes through ``grid._cis``, and
``verify`` takes from ``kernels`` only public names and three named private
helpers, ``cli`` takes nothing from ``kernels``, and one function outside
``kernels`` refuses an unresolved chirp.
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


def _own_sum_calls(tree: ast.Module) -> list[int]:
    """Lines of each call ``fourier_sum(<expr>.samples, ...)``, bare or as an
    attribute: a state's own Fourier sum, which ``Wavefunction._fourier`` keeps."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        first = node.args[0]
        if name == "fourier_sum" and isinstance(first, ast.Attribute) and first.attr == "samples":
            found.append(node.lineno)
    return found


def test_only_grid_sums_a_state_of_its_own():
    # every other module reads the kept sum, so a state pays for it once
    modules = sorted(p.stem for p in SRC.glob("*.py"))
    assert {m: lines for m in modules if m != "grid" and (lines := _own_sum_calls(_tree(m)))} == {}


@pytest.mark.parametrize(
    "source,count",
    [
        ("fourier_sum(psi.samples, g)", 1),
        ("grid.fourier_sum(apply_c(psi).samples, psi.grid)", 1),
        ("fourier_sum(x * psi.samples, g)", 0),
        ("fourier_sum(samples, g)", 0),
        ("_fourier_sum_inplace(psi.samples, g)", 0),
        ("psi._fourier", 0),
    ],
)
def test_own_sum_reader_sees_every_spelling(source, count):
    assert len(_own_sum_calls(ast.parse(source))) == count


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


# The private helpers ``verify`` may take from ``kernels``: the member tuple,
# the Gram check's block and the resolution rule.  The eigen-residuals sample
# through the public samplers, so no span sampler comes back.
VERIFY_KERNEL_PRIVATES = {"_Chirp", "_chirp_block", "_chirp_resolved"}


def _names_from(tree: ast.Module, module: str) -> set[str]:
    """The names a syntax tree takes from the ``qrep`` module ``module``:
    imported from it, or read as attributes of it once imported whole."""
    found, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "qrep":
                continue
            if node.level == 0:
                parts = parts[1:]
            if parts == [module]:
                found.update(alias.name for alias in node.names)
            elif parts in ([], [""]):
                aliases.update(a.asname or a.name for a in node.names if a.name == module)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == f"qrep.{module}":
                    aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in aliases:
            found.add(node.attr)
    return found


def test_verify_takes_only_public_samplers_from_kernels():
    from qrep import kernels

    taken = _names_from(_tree("verify"), "kernels")
    assert taken
    assert taken - set(kernels.__all__) <= VERIFY_KERNEL_PRIVATES, sorted(taken)


@pytest.mark.parametrize(
    "source,names",
    [
        ("from .kernels import plane_wave, _span", {"plane_wave", "_span"}),
        ("from qrep.kernels import _member_samples as m", {"_member_samples"}),
        ("from . import kernels\nkernels._span(g)", {"_span"}),
        ("from . import kernels as k\nk._span(g)", {"_span"}),
        ("import qrep.kernels\nqrep.kernels._span(g)", {"_span"}),
        ("import qrep.kernels as k\nk.plane_wave(g)", {"plane_wave"}),
        ("from .grid import _span\nfrom numpy import kernels", set()),
        ("from .transforms import kernels\nkernels._span", set()),
    ],
)
def test_kernel_name_reader_sees_every_spelling(source, names):
    assert _names_from(ast.parse(source), "kernels") == names


def test_cli_takes_no_name_from_kernels():
    # the CLI reads every family through the table in transforms
    assert _names_from(_tree("cli"), "kernels") == set()
    assert "kernels" not in _imported_modules("cli")


def _callers(tree: ast.Module, name: str) -> list[str]:
    """The enclosing function of each call of ``name``, bare or as an attribute."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "")
    return found


def test_one_function_outside_kernels_refuses_an_unresolved_chirp():
    # the oracle and qrep kernel both read a family's parameter through it
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "kernels")
    callers = [(m, f) for m in modules for f in _callers(_tree(m), "_require_chirp_resolved")]
    assert callers == [("transforms", "_family_value")]


@pytest.mark.parametrize(
    "source,functions",
    [
        ("_require_chirp_resolved(a, b, g)", [""]),
        ("def f():\n    kernels._require_chirp_resolved(a, b, g)", ["f"]),
        ("def f():\n    def g():\n        _require_chirp_resolved(1, 2, h)\n    "
         "_require_chirp_resolved(3, 4, h)", ["f", "g"]),
        ("from .kernels import _require_chirp_resolved", []),
        ("check = _require_chirp_resolved", []),
        ("_require_chirp_resolved_twice(a, b, g)", []),
    ],
)
def test_caller_reader_sees_every_spelling(source, functions):
    assert sorted(_callers(ast.parse(source), "_require_chirp_resolved")) == functions
