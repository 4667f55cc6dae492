"""One benchmark process: set-up, warm-up, then the timed closed loop.

Started by ``run.py`` with BLAS pinned to one thread.  Prints one JSON object
as its last stdout line.  ``--setup-only`` stops after the warm-up op, so the
caller can sample set-up time several times.

Set-up time runs from the moment the parent started this process (passed as
a CLOCK_MONOTONIC reading, which all processes of the machine share) to the
end of the warm-up op: interpreter start, ``import lowrank_uq``, building the
shared inputs and one op.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import lowrank_uq as lq  # noqa: E402
from tracing import WRAPPED, Tracer  # noqa: E402
from workloads import WARMUP_INDEX, WORKLOADS  # noqa: E402


WINDOW_NS = 1_000_000_000  # throughput is taken over windows of whole rounds this long
TAIL_PERCENTILE = 90


def _timed_rounds(workload, seconds=math.inf, rounds=math.inf, tracer=None):
    """Run whole rounds of op classes until ``seconds`` have passed or
    ``rounds`` rounds are done.

    Whole rounds keep every class equally represented whatever the speed.
    Returns the op results, per-op latencies (ns), the loop's wall time and
    the (ops, ns) of each window of whole rounds lasting at least WINDOW_NS.
    """
    results, latencies, windows = [], [], []
    per_round = len(workload.classes)
    start = window_start = time.perf_counter_ns()
    window_ops = 0
    deadline = start + seconds * 1e9
    index = 0
    while True:
        for _ in range(per_round):
            if tracer is not None:
                tracer.label = workload.label(index)
            t0 = time.perf_counter_ns()
            try:
                res = workload.run_op(index)
            except Exception as exc:  # a raising op is counted as failed
                if not any(r.values is None for r in results):
                    traceback.print_exc()  # the first one's traceback
                res = workload.failed_op(index, exc)
            latencies.append(time.perf_counter_ns() - t0)
            results.append(res)
            index += 1
        now = time.perf_counter_ns()
        window_ops += per_round
        if now - window_start >= WINDOW_NS:
            windows.append((window_ops, now - window_start))
            window_start, window_ops = now, 0
        if now >= deadline or index >= rounds * per_round:
            break
    return results, latencies, time.perf_counter_ns() - start, windows


def _summary(workload, results, latencies, wall_ns, windows):
    """End-to-end figures and checks of one timed loop."""
    ms = [x / 1e6 for x in latencies]
    by_class = {}
    for res, x in zip(results, ms):
        by_class.setdefault(res.label, []).append(x)
    class_medians = {label: statistics.median(xs) for label, xs in by_class.items()}
    tail = statistics.quantiles(ms, n=100)[TAIL_PERCENTILE - 1] if len(ms) > 1 else ms[0]
    rates = [ops / (ns / 1e9) for ops, ns in windows] or [len(results) / (wall_ns / 1e9)]
    failed = {i for i, r in enumerate(results) if r.problems}
    agg_failed, agg_problems, quality = workload.aggregate(results)
    failed |= agg_failed
    problems = [p for r in results for p in r.problems] + agg_problems
    return {
        "ops": len(results),
        "failed": len(failed),
        "problems": problems[:20],
        # median over one-second windows, so a short slow spell of the host
        # does not move it
        "throughput_ops_s": statistics.median(rates),
        "throughput_windows": len(windows),
        # median over op classes of each class's median: every round holds
        # each class once, so the plain median of a multi-class run would sit
        # between two classes and be set by their extreme samples
        "op_p50_ms": statistics.median(class_medians.values()),
        "op_tail_ms": tail,
        "tail_percentile": TAIL_PERCENTILE,
        "tail_samples_beyond": sum(x > tail for x in ms),
        "class_median_ms": class_medians,
        "quality": quality,
    }


def _blas_record():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {"library": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
              "threads": None}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    record["threads"] = getter()
                    return record
    return record


def _source_record():
    digest = hashlib.sha256()
    for path in sorted((SRC / "lowrank_uq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha or "unavailable (not a git checkout)",
            "source_sha256": digest.hexdigest()}


def run_record(args):
    return {
        **_source_record(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_record(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "workers": 1,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def _per_layer(tracer, summary, ops, wall_ns, untraced_tput, calibrate_ns):
    """Per-layer metrics of the traced pass; 0 where a workload makes no
    such call."""
    metrics = {}
    for qualname in WRAPPED:
        st = tracer.stats[qualname]
        metrics[f"{qualname}.calls_per_op"] = st.calls / ops
        metrics[f"{qualname}.self_ms_per_op"] = st.self_ns / 1e6 / ops
    c = tracer.counters
    calls = {name: st.calls for name, st in tracer.stats.items()}
    quality = summary["quality"]
    metrics.update({
        "sensing.pauli_coefficients.bytes_per_call":
            _ratio(c.get("pauli_coefficients_bytes", 0), calls["sensing.pauli_coefficients"]),
        "sensing.plan_bytes_per_op": c.get("plan_bytes", 0) / ops,
        "experiments.replication_statistic.shortcut_frac":
            _ratio(c.get("replication_shortcuts", 0), calls["experiments.replication_statistic"]),
        "recovery.pilot_estimate.iters_mean":
            _ratio(c.get("pilot_iterations", 0), calls["recovery.pilot_estimate"]),
        "recovery.pilot_estimate.cap_hit_frac":
            _ratio(c.get("pilot_cap_hits", 0), calls["recovery.pilot_estimate"]),
        "nuclear_sets.select_k_hat.rank_scans_per_call":
            _ratio(c.get("select_k_hat_rank_scans", 0), calls["nuclear_sets.select_k_hat"]),
        "certificates.run_certificate.epochs_per_op": c.get("certificate_epochs", 0) / ops,
        "calibration.calibrate_nuclear.total_ms": calibrate_ns / 1e6,
        "experiments.run_experiment.coverage_min": quality.get("table_coverage_min") or 0.0,
        "certificates.run_certificate.coverage": quality.get("certificate_coverage", 0.0),
        "certificates.run_certificate.n_hat_median": quality.get("n_hat_median", 0.0),
        "nuclear_sets.nuclear_confidence_set.coverage": quality.get("set_coverage", 0.0),
        "trace.self_sum_frac": sum(st.self_ns for st in tracer.stats.values()) / wall_ns,
        "trace.overhead_frac": 1.0 - summary["throughput_ops_s"] / untraced_tput,
    })
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC reading when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if Path(lq.__file__).resolve().parent != SRC / "lowrank_uq":
        raise SystemExit(f"lowrank_uq imported from {lq.__file__}, not from {SRC}")

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer()
    calibrate_ns = 0
    if args.trace:  # set-up is traced only to time calibrate_nuclear
        tracer.install()
    workload.setup()
    if args.trace:
        leftover = tracer.uninstall()
        if leftover:
            raise SystemExit(f"wrapped names left after set-up: {leftover}")
        calibrate_ns = tracer.stats["calibration.calibrate_nuclear"].total_ns
        tracer.reset()
    warm = workload.run_op(WARMUP_INDEX)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = {"setup_s": setup_s, "record": run_record(args)}
    if not args.trace:
        summary = _summary(workload, *_timed_rounds(workload, args.seconds))
    else:
        # A fixed number of rounds, sized to take about half of --seconds on a
        # 2-core box, so the counts repeat exactly at a fixed seed.  They run
        # untraced, then traced: the untraced pass gives the overhead and the
        # outputs every traced op must reproduce.
        rounds = max(1, round(workload.rounds_per_s * args.seconds / 2))
        plain, *plain_timing = _timed_rounds(workload, rounds=rounds)
        plain_summary = _summary(workload, plain, *plain_timing)
        tracer.install()
        try:
            traced, *traced_timing = _timed_rounds(workload, rounds=rounds, tracer=tracer)
        finally:
            leftover = tracer.uninstall()
        summary = _summary(workload, traced, *traced_timing)
        mismatched = [i for i, (a, b) in enumerate(zip(plain, traced)) if a.outputs != b.outputs]
        if mismatched:
            summary["problems"].append(f"traced outputs differ from untraced at ops {mismatched[:10]}")
        if leftover:
            summary["problems"].append(f"wrapped names not restored: {leftover}")
        summary["ops"] += plain_summary["ops"]
        summary["failed"] += plain_summary["failed"] + len(mismatched) + bool(leftover)
        summary["problems"] += plain_summary["problems"]
        summary["identity_checked_ops"] = len(traced)
        summary["untraced_throughput_ops_s"] = plain_summary["throughput_ops_s"]
        summary["total_ms_per_call"] = {
            name: st.total_ns / 1e6 / st.calls for name, st in tracer.stats.items() if st.calls}
        summary["pilot_by_class"] = {
            label: {"solves": s, "iters_mean": it / s, "cap_hit_frac": cap / s}
            for label, (s, it, cap) in tracer.pilot_by_label.items()}
        summary["per_layer"] = _per_layer(tracer, summary, len(traced), traced_timing[1],
                                          plain_summary["throughput_ops_s"], calibrate_ns)
    if warm.problems:  # the warm-up op is checked like any other
        summary["ops"] += 1
        summary["failed"] += 1
        summary["problems"] += warm.problems
    out["summary"] = summary
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
