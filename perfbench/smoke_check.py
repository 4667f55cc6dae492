"""Smoke test of the benchmark itself.

Runs every workload at the shortest run length, untraced and traced, and
checks that each prints every metric of BENCHMARK.json with its unit and
passes its output checks.  Its name keeps it out of a bare `pytest` run of
the package's tests; give the file explicitly.  Takes about a minute:

    python3 -m pytest perfbench/smoke_check.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in wanted}
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_wraps_every_binding_and_restores_it():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import lowrank_uq as lq
        from tracing import Tracer

        original = lq.sensing.apply_sampling
        holders = [m for m in (lq, lq.sensing, lq.measurement, lq.recovery,
                               lq.frobenius_sets, lq.nuclear_sets)
                   if getattr(m, "apply_sampling", None) is original]
        assert len(holders) == 6
        tracer = Tracer()
        tracer.install()
        try:
            assert all(m.apply_sampling is not original for m in holders)
            plan = lq.draw_plan(lq.pauli_design(1), 4, 0)
            lq.measure_gaussian(plan, lq.random_rank_k_state(2, 1, 0), 0.1, 0)
        finally:
            leftover = tracer.uninstall()
        assert leftover == []
        assert all(m.apply_sampling is original for m in holders)
        # the call made through measurement reached the sensing layer's span
        assert tracer.stats["sensing.apply_sampling"].calls == 1
        assert tracer.stats["measurement.measure_gaussian"].calls == 1
    finally:
        sys.path.remove(str(ROOT / "src"))
        sys.path.remove(str(HERE))
