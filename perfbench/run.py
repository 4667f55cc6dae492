"""Benchmark of the lowrank_uq pipeline: one command per workload.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last stdout line is one JSON object holding
every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it holds every
per-layer metric instead.  Earlier lines carry the run record and details
(latency percentile and sample count, per-class medians, quality figures).

This parent process uses the standard library only.  It samples set-up time
in fresh worker processes and runs the timed loop in one more, each with
BLAS pinned to one thread, and reports the median set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # set-up timings per run, the median is reported
TIME_LIMIT_S = 170.0
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fail(message: str, code: int = 1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _worker(args, deadline, setup_only=False) -> dict:
    env = {**os.environ, **{var: "1" for var in THREAD_PINS}, "PYTHONHASHSEED": "0"}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _fail(f"worker did not finish within {TIME_LIMIT_S:g} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        _fail(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}", 2)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        _fail(f"unknown workload {args.workload!r}", 2)
    if not 0 < args.seconds <= 60 or args.seed < 0:
        _fail("need 0 < --seconds <= 60 and --seed >= 0", 2)
    if not (ROOT / "src" / "lowrank_uq" / "__init__.py").is_file():
        _fail(f"no package source at {ROOT / 'src' / 'lowrank_uq'}", 2)

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(args, deadline, setup_only=True)["setup_s"])
    out = _worker(args, deadline)
    setups.append(out["setup_s"])
    summary = out["summary"]

    if args.trace:
        values = summary.pop("per_layer")
        wanted = bench["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "throughput_ops_s": summary["throughput_ops_s"],
            "op_p50_ms": summary["op_p50_ms"],
            "op_tail_ms": summary["op_tail_ms"],
            "peak_rss_mb": out["peak_rss_mb"],
        }
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        _fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    details = {**summary, "setup_samples_s": setups, "peak_rss_mb": out["peak_rss_mb"]}
    print(json.dumps({"run_record": out["record"]}))
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": summary["failed"] == 0, "attempted": summary["ops"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
