"""The benchmark harness traces package functions by name: every name that
``perfbench/tracing.py`` lists must exist, or a traced run fails.  It also
reads two parameters of ``pilot_estimate``: it forces ``return_info`` and
reads ``max_iters`` from ``config`` (the default when the caller passes
none).  The package exports exactly the names its modules list in
``__all__``."""

import importlib
import inspect
import importlib.util
import pkgutil
import sys
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    missing = [
        f"{mod}.{fn}" for mod, fns in tracing.LAYERS.items() for fn in fns
        if not callable(getattr(importlib.import_module(f"{tracing.PACKAGE}.{mod}"), fn, None))
    ]
    assert tracing.LAYERS and not missing


def test_pilot_estimate_keeps_the_traced_parameters():
    from lowrank_uq.recovery import pilot_estimate

    params = inspect.signature(pilot_estimate).parameters
    assert "return_info" in params
    assert isinstance(params["config"].default.max_iters, int)


def test_exports_match_module_all():
    import lowrank_uq

    listed = set()
    for info in pkgutil.iter_modules(lowrank_uq.__path__):
        listed.update(getattr(importlib.import_module(f"lowrank_uq.{info.name}"), "__all__", ()))
    exported = {name for name, value in vars(lowrank_uq).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == listed
