"""Command line interface: simulate, calibrate, certify."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .calibration import run_calibration
from .certificates import CertificateConfig, run_certificate
from .experiments import ExperimentSpec, merged_table_rows, result_rows_csv, run_experiment
from .matrices import frobenius_norm, random_rank_k_state
from .measurement import BernoulliPauliNoise, GaussianNoise
from .sensing import _num_qubits, gaussian_design, pauli_design

SEED_ENV_VAR = "LOWRANK_UQ_SEED"


def _parse_config(path) -> dict:
    cfg = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"malformed config line {raw!r}")
            cfg[key.strip()] = value.strip()
    return cfg


def _split_list(value: str) -> list:
    return [tok.strip() for tok in value.split(",") if tok.strip()]


# keys of a ``simulate`` config; ``constants`` may only name the simulation
# regime, the one the table harness implements
SIMULATE_KEYS = ("seed", "design", "eta", "R", "n_grid", "reps", "d", "constants")


def _cmd_simulate(args) -> int:
    cfg = _parse_config(args.config)
    for key in cfg:
        if key not in SIMULATE_KEYS:
            raise ValueError(f"unknown config key {key!r}")
    if cfg.get("constants", "simulation") != "simulation":
        raise ValueError(f"config key 'constants' must be simulation, got {cfg['constants']!r}")
    seed = int(os.environ.get(SEED_ENV_VAR, cfg.get("seed", "1")))
    designs = _split_list(cfg.get("design", "gaussian"))
    error_kinds = _split_list(cfg.get("eta", "dirac"))
    norms = [float(v) for v in _split_list(cfg.get("R", "0.1"))]
    n_grid = tuple(int(v) for v in _split_list(cfg.get("n_grid", "100,200,500")))
    reps = int(cfg.get("reps", "1000"))
    d = int(cfg.get("d", "32"))
    # every spec is checked before anything is written
    specs = [
        ExperimentSpec(design=design, error_kind=kind, error_norm_sq=norm_sq,
                       n_grid=n_grid, reps=reps, d=d, seed=seed)
        for design in designs for kind in error_kinds for norm_sq in norms
    ]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    merged = []
    for spec in specs:
        rows = run_experiment(spec)
        name = f"results_{spec.design}_{spec.error_kind}_R{spec.error_norm_sq:g}.csv"
        (outdir / name).write_text(result_rows_csv(rows))
        print(f"wrote {outdir / name}")
        merged.extend(merged_table_rows(spec, rows))
    header = "design,eta,R,row," + ",".join(f"n{n}" for n in n_grid)
    lines = [header]
    for design, kind, norm_sq, label, cells in merged:
        cells_txt = ",".join(f"{c:.17g}" for c in cells)
        lines.append(f"{design},{kind},{norm_sq:g},{label},{cells_txt}")
    (outdir / "tables.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {outdir / 'tables.csv'}")
    return 0


def _cmd_calibrate(args) -> int:
    constants = run_calibration(
        seed=args.seed, out_path=args.out, targets=tuple(_split_list(args.targets)),
        reps=args.reps, coverage_target=args.coverage_target, delta=args.delta,
    )
    for key in sorted(constants):
        print(f"{key} = {constants[key]:.6g}")
    print(f"wrote {args.out}")
    return 0


def _parse_noise(token: str, sigma: float):
    head, _, value = token.partition(":")
    if head == "gaussian":
        return GaussianNoise(sigma)
    if head == "bernoulli":
        if not value:
            raise ValueError("bernoulli noise needs a preparation count, e.g. bernoulli:64")
        return BernoulliPauliNoise(int(value))
    raise ValueError(f"unknown noise {token!r}")


def _cmd_certify(args) -> int:
    seed = args.seed if args.seed is not None else int(os.environ.get(SEED_ENV_VAR, "1"))
    if args.design == "pauli":
        ensemble = pauli_design(_num_qubits(args.d))
    else:
        ensemble = gaussian_design(args.d, hermitian=True)
    noise = _parse_noise(args.noise, args.sigma)
    cfg = CertificateConfig(
        epsilon=args.eps, delta=args.delta, ensemble=ensemble, noise=noise,
        constants_regime=args.constants,
    )
    root = np.random.default_rng(np.random.SeedSequence((seed, 0xCE27)))
    state = random_rank_k_state(args.d, args.rank, root)
    cert = run_certificate(state, cfg, root)
    print(cert.to_json())

    log = Path(args.epoch_log)
    new_file = not log.exists()
    with open(log, "a") as fh:
        if new_file:
            fh.write("seed,d,rank,m,budget,n_half,method,alpha,statistic,radius_sq,diameter\n")
        for e in cert.epochs:
            fh.write(
                f"{seed},{args.d},{args.rank},{e.m},{e.budget},{e.n_half},{e.method},"
                f"{e.alpha:.17g},{e.statistic:.17g},{e.radius_sq:.17g},{e.diameter:.17g}\n"
            )
    err = frobenius_norm(cert.theta_hat - state)
    print(f"# recovery error {err:.6g}, target {args.eps:g}", file=sys.stderr)
    return 0 if cert.stopped else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lowrank-uq",
        description="Low-rank trace-regression recovery with honest confidence sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the coverage/diameter experiments")
    p_sim.add_argument("--config", required=True, help="key=value experiment config")
    p_sim.add_argument("--out", required=True, help="output directory for CSV files")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cal = sub.add_parser("calibrate", help="calibrate empirical constants")
    p_cal.add_argument("--out", required=True)
    p_cal.add_argument("--seed", type=int, default=1)
    p_cal.add_argument("--targets", default="rss,ustat,nuclear")
    p_cal.add_argument("--reps", type=int, default=300)
    p_cal.add_argument("--coverage-target", type=float, default=0.95)
    p_cal.add_argument("--delta", type=float, default=0.1)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_cert = sub.add_parser("certify", help="run the sequential stopping certificate")
    p_cert.add_argument("--d", type=int, required=True)
    p_cert.add_argument("--rank", type=int, default=1)
    p_cert.add_argument("--sigma", type=float, default=0.05)
    p_cert.add_argument("--eps", type=float, required=True)
    p_cert.add_argument("--delta", type=float, default=0.1)
    p_cert.add_argument("--design", choices=("gaussian", "pauli"), default="pauli")
    p_cert.add_argument("--noise", default="gaussian",
                        help="gaussian (uses --sigma) or bernoulli:T")
    p_cert.add_argument("--constants", choices=("theory", "simulation"),
                        default="simulation")
    p_cert.add_argument("--seed", type=int, default=None)
    p_cert.add_argument("--epoch-log", default="certify_epochs.csv")
    p_cert.set_defaults(func=_cmd_certify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a clean error, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
