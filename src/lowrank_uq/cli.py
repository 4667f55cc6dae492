"""Command line interface: simulate, calibrate, certify."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .calibration import run_calibration
from .certificates import CertificateConfig, EpochRecord, run_certificate
from .constants_io import _read_key_values
from .experiments import ExperimentSpec, merged_table_rows, result_rows_csv, run_experiment
from .matrices import frobenius_norm, random_rank_k_state
from .measurement import BernoulliPauliNoise, GaussianNoise
from .reports import _record_csv_lines
from .sensing import _num_qubits, gaussian_design, pauli_design


def _split_list(value: str) -> list:
    return [tok.strip() for tok in value.split(",") if tok.strip()]


def _number(kind, name: str, text: str):
    try:
        return kind(text)
    except ValueError:  # name the option or key the text came from
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {noun}, got {text!r}") from None


# keys of a ``simulate`` config; ``constants`` may only name the simulation
# regime, the one the table harness implements
SIMULATE_KEYS = ("seed", "design", "eta", "R", "n_grid", "reps", "d", "constants")


def _cmd_simulate(args) -> int:
    cfg = _read_key_values(args.config)
    for key in cfg:
        if key not in SIMULATE_KEYS:
            raise ValueError(f"unknown config key {key!r}")
    if cfg.get("constants", "simulation") != "simulation":
        raise ValueError(f"config key 'constants' must be simulation, got {cfg['constants']!r}")
    seed = _number(int, "config key 'seed'", cfg.get("seed", "1"))
    designs = _split_list(cfg.get("design", "gaussian"))
    error_kinds = _split_list(cfg.get("eta", "dirac"))
    norms = [_number(float, "config key 'R'", v) for v in _split_list(cfg.get("R", "0.1"))]
    n_grid = tuple(_number(int, "config key 'n_grid'", v)
                   for v in _split_list(cfg.get("n_grid", "100,200,500")))
    reps = _number(int, "config key 'reps'", cfg.get("reps", "1000"))
    d = _number(int, "config key 'd'", cfg.get("d", "32"))
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
    constants = run_calibration(seed=args.seed, out_path=args.out, reps=args.reps,
                                delta=args.delta)
    for key in sorted(constants):
        print(f"{key} = {constants[key]:.6g}")
    print(f"wrote {args.out}")
    return 0


def _parse_noise(token: str, sigma: float):
    if token == "gaussian":
        return GaussianNoise(sigma)
    head, _, value = token.partition(":")
    if head == "gaussian":
        raise ValueError(f"gaussian noise takes no suffix (sigma is --sigma), got {token!r}")
    if head == "bernoulli":
        if not value:
            raise ValueError("bernoulli noise needs a preparation count, e.g. bernoulli:64")
        return BernoulliPauliNoise(_number(int, "the --noise preparation count", value))
    raise ValueError(f"unknown noise {token!r}")


def _cmd_certify(args) -> int:
    if args.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {args.seed}")
    if args.design == "pauli":
        ensemble = pauli_design(_num_qubits(args.d))
    else:
        ensemble = gaussian_design(args.d, hermitian=True)
    noise = _parse_noise(args.noise, args.sigma)
    cfg = CertificateConfig(
        epsilon=args.eps, delta=args.delta, ensemble=ensemble, noise=noise,
        constants_regime=args.constants,
    )
    # the log is appended to, so an existing one must have this header
    header = "seed,d,rank," + _record_csv_lines(EpochRecord, ())[0]
    log = Path(args.epoch_log)
    existing = log.read_text() if log.exists() else ""
    if existing and existing.partition("\n")[0] != header:
        raise ValueError(f"epoch log {log} has another header than {header!r}")

    root = np.random.default_rng(np.random.SeedSequence((args.seed, 0xCE27)))
    state = random_rank_k_state(args.d, args.rank, root)
    cert = run_certificate(state, cfg, root)
    print(cert.to_json())

    with open(log, "a") as fh:
        if not existing:
            fh.write(header + "\n")
        for row in _record_csv_lines(EpochRecord, cert.epochs)[1:]:
            fh.write(f"{args.seed},{args.d},{args.rank},{row}\n")
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

    p_cal = sub.add_parser("calibrate", help="calibrate the nuclear-norm set's constants")
    p_cal.add_argument("--out", required=True)
    p_cal.add_argument("--seed", type=int, default=1)
    p_cal.add_argument("--reps", type=int, default=150)
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
    p_cert.add_argument("--seed", type=int, default=1)
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
