"""The benchmark harness traces package functions by name: every name that
``perfbench/tracing.py`` lists must exist, or a traced run fails.  Its hooks
read call arguments by parameter name, so each must stay a parameter; of
``pilot_estimate`` it also forces ``return_info`` and reads ``max_iters``
from ``config`` (the default when the caller passes none).  The package
exports exactly the names its modules list in ``__all__``, and each export
has a caller outside the tests.  Every eigendecomposition goes through
``matrices._eigh``, and the package imports no ``scipy.linalg``."""

import ast
import importlib
import inspect
import importlib.util
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

# exports that no module or benchmark calls, and why each stays
UNCALLED_EXPORTS = {
    "rank_reduce": "a step of the paper's procedure",
    "calibrate_pilot_risk": "the calibration behind test_rank_one_risk_budget",
    "load_constants": "the reader of calibrate's file, for the nuclear set at a certificate stop",
    "word_to_index": "the reference for the Pauli index transform",
}


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_resolve(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    missing = [
        f"{mod}.{fn}" for mod, fns in tracing.LAYERS.items() for fn in fns
        if not callable(getattr(importlib.import_module(f"{tracing.PACKAGE}.{mod}"), fn, None))
    ]
    assert tracing.LAYERS and not missing


def test_hook_arguments_are_parameters(monkeypatch):
    # a hook _after_<module>_<fn> reads the call's arguments as args["name"];
    # each name must stay a parameter of lowrank_uq.<module>.<fn>
    tracing = _load_tracing(monkeypatch)
    hooks = {f"_after_{mod}_{fn}": (mod, fn) for mod, fns in tracing.LAYERS.items() for fn in fns}
    read = []
    for node in ast.walk(ast.parse(TRACING.read_text())):
        if isinstance(node, ast.FunctionDef) and node.name in hooks:
            mod, fn = hooks[node.name]
            read += [(mod, fn, sub.slice.value) for sub in ast.walk(node)
                     if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                     and sub.value.id == "args" and isinstance(sub.slice, ast.Constant)]
    missing = [
        f"{mod}.{fn}({key}=)" for mod, fn, key in read
        if key not in inspect.signature(
            getattr(importlib.import_module(f"{tracing.PACKAGE}.{mod}"), fn)).parameters
    ]
    assert read and not missing


def test_pilot_estimate_keeps_the_traced_parameters():
    from lowrank_uq.recovery import pilot_estimate

    params = inspect.signature(pilot_estimate).parameters
    assert "return_info" in params
    assert isinstance(params["config"].default.max_iters, int)


def _exports():
    import lowrank_uq

    return {name for name, value in vars(lowrank_uq).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def test_exports_match_module_all():
    import lowrank_uq

    listed = set()
    for info in pkgutil.iter_modules(lowrank_uq.__path__):
        listed.update(getattr(importlib.import_module(f"lowrank_uq.{info.name}"), "__all__", ()))
    assert _exports() == listed


def test_every_export_is_referenced():
    sources = [p for p in (ROOT / "src" / "lowrank_uq").glob("*.py") if p.name != "__init__.py"]
    loaded = set()
    for path in sources + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert sorted(_exports() - loaded - set(UNCALLED_EXPORTS)) == []


EIGEN_CALLS = {"eigh", "eigvalsh", "eig", "eigvals"}


def _dotted(node):
    return f"{_dotted(node.value)}.{node.attr}" if isinstance(node, ast.Attribute) else (
        node.id if isinstance(node, ast.Name) else "")


def _imported(node):
    """Dotted names an import statement binds, such as ``scipy.linalg`` for
    ``from scipy import linalg``."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    return [f"{node.module or ''}.{a.name}" for a in node.names]


def test_one_eigensolver_entry_point():
    # numpy's eigensolvers, and the _umath_linalg gufuncs behind them, are
    # called in matrices._eigh only, so every decomposition shares its
    # routine, its triangle and its error; scipy.linalg is imported nowhere,
    # so every decomposition and product runs in numpy's one BLAS library
    found = []
    for path in sorted((ROOT / "src" / "lowrank_uq").glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "matrices.py":
            entry = next(node for node in tree.body
                         if isinstance(node, ast.FunctionDef) and node.name == "_eigh")
            allowed = {id(node) for node in ast.walk(entry)}
            allowed |= {id(node) for node in tree.body if isinstance(node, ast.ImportFrom)
                        and _imported(node) == ["numpy.linalg._umath_linalg"]}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = _imported(node)
                found += [f"{where} import {name}" for name in names
                          if name.startswith("scipy.linalg")
                          or (name.rpartition(".")[2] in EIGEN_CALLS and "linalg" in name)
                          or ("_umath_linalg" in name and id(node) not in allowed)]
            elif isinstance(node, ast.Attribute) and _dotted(node).startswith("scipy.linalg"):
                found.append(f"{where} {_dotted(node)}")
            elif id(node) in allowed:
                continue
            elif isinstance(node, (ast.Name, ast.Attribute)) and "_umath_linalg" in (
                    getattr(node, "id", None) or node.attr):
                found.append(f"{where} {_dotted(node)}")
            elif isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name.rpartition(".")[2] in EIGEN_CALLS and "linalg" in name:
                    found.append(f"{where} {name}")
    assert found == []


def test_package_imports_no_scipy_linalg():
    # scipy bundles its own OpenBLAS beside numpy's, and scipy.linalg is the
    # way into it: a LAPACK call there wakes that library's thread pool, which
    # then competes with numpy's (a d = 32 certificate took 20-40 x as long
    # under the default thread count).  scipy.special maps the same library,
    # but chdtri and ndtri call none of it.  A fresh interpreter keeps the
    # other tests' imports out.
    code = (
        "import sys\n"
        "import lowrank_uq as lq\n"
        "cfg = lq.CertificateConfig(epsilon=0.5, delta=0.1, ensemble=lq.pauli_design(2),\n"
        "                           noise=lq.GaussianNoise(0.05))\n"
        "lq.run_certificate(lq.random_rank_k_state(4, 1, 1), cfg, 1)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
    )
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=ROOT, env={**os.environ, "PYTHONPATH": pythonpath})
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
