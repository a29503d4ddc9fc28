"""Command-line harness: seeded experiment execution and CSV reporting.

Commands
--------
``equivalence``   closed-form rule equivalence, fixed-point sharing,
                  integration-by-parts identity, empirical convergence rates
``frame-check``   frame bounds, kernel structure, restricted inverse,
                  coefficient and cancellation identities, fourth-moment
                  consistency, expansion rate, derivation chain
``train``         integrate one rule and record its trajectory
``report``        aggregate previously written CSVs into a pass/fail table

Exit codes: 0 all checks passed, 1 some check failed, 2 configuration or
input error, 3 numerical divergence during training. Each command builds its
one covariance before any check or training step, so a degenerate or
out-of-window covariance exits 2 whatever ``--checks`` selects. A learning
rate that steps W onto dependent rows (``RankDeficientError``) is an input
error.
``SkewDomainError`` is left unmapped: every vector the commands hand to the
restricted inverse is symmetric to far within its domain tolerance.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .checks import run_checks
from .config import (
    CHECK_GROUPS,
    EQUIVALENCE_CHECKS,
    FRAME_CHECKS,
    ConfigError,
    RunConfig,
    load_config,
)
from .errors import (
    DegenerateCovarianceError,
    DimensionError,
    DivergenceError,
    RankDeficientError,
    SampleSizeError,
)
from .linalg import EIGENVALUE_FLOOR_REL, CovarianceModel, build_covariance
from .records import (
    ExperimentRecord,
    CSV_SCHEMA_VERSION,
    make_record,
    read_records_csv,
    write_records_csv,
)
from .rules import Trajectory, TrainerConfig, train

TRAJECTORY_SCHEMA_VERSION = "frame-hebb-trajectory v1"

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_DIVERGED = 3


def _print_records(records: list[ExperimentRecord]) -> None:
    for r in records:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"[{status}] {r.check_name:<28} value={r.value:.6e} "
            f"tolerance={r.tolerance:.6e} ({r.metric})"
        )


def cmd_checks(config: RunConfig, cov: CovarianceModel, command: str,
               command_checks: list[str], csv_name: str) -> int:
    """Run the command's checks that the config selects on the run's
    covariance; write them to csv_name. Selecting any name that is not one of
    the command's checks is a config error."""
    foreign = [c for c in config.checks or () if c not in command_checks]
    if foreign:
        print(f"config error: {', '.join(foreign)} not among the {command} "
              f"checks ({', '.join(command_checks)})", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    names = [c for c in command_checks if config.checks is None or c in config.checks]
    records = run_checks(config, cov, names)
    write_records_csv(Path(config.output_dir) / csv_name, records)
    _print_records(records)
    return EXIT_PASS if all(r.passed for r in records) else EXIT_CHECK_FAILED


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(path, trajectory: Trajectory) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# {TRAJECTORY_SCHEMA_VERSION}\n")
        fh.write("step,subspace_error,orthonormality_residual,update_norm\n")
        for p in trajectory.points:
            fh.write(
                f"{p.step},{_fmt_float(p.subspace_error)},"
                f"{_fmt_float(p.orthonormality_residual)},"
                f"{_fmt_float(p.update_norm)}\n"
            )


def cmd_train(config: RunConfig, cov: CovarianceModel) -> int:
    gap = cov.spectral_gap_at(config.nu)  # inf when nu >= nx: no cut
    if gap <= EIGENVALUE_FLOOR_REL:
        raise ConfigError(
            f"relative spectral gap {gap:.3e} at the subspace cut nu={config.nu} "
            f"is at or below {EIGENVALUE_FLOOR_REL:.1e}: the principal subspace "
            "is not unique, so subspace_error is ill-posed"
        )
    rng = np.random.default_rng(config.seed)
    w0 = rng.standard_normal((config.nu, config.nx)) / np.sqrt(config.nx)
    trainer = TrainerConfig(
        learning_rate=config.resolved_learning_rate(),
        steps=config.steps,
        batch_size=config.resolved_batch_size(),
        record_every=config.record_every,
        seed=config.seed,
    )
    trajectory = train(config.rule, config.mode, w0, cov, trainer)
    write_trajectory_csv(Path(config.output_dir) / "train_trajectory.csv", trajectory)

    final = trajectory.final
    record = make_record(
        check_name="train-final",
        value=final.subspace_error,
        tolerance=config.threshold,
        seed=config.seed,
        inputs_digest="",
        group=CHECK_GROUPS["train-final"],
    )
    write_records_csv(Path(config.output_dir) / "train.csv", [record])
    _print_records([record])
    print(
        f"final step {final.step}: subspace_error={final.subspace_error:.3e} "
        f"orthonormality_residual={final.orthonormality_residual:.3e} "
        f"update_norm={final.update_norm:.3e}"
    )
    return EXIT_PASS if record.passed else EXIT_CHECK_FAILED


def cmd_report(output_dir) -> int:
    out = Path(output_dir)
    if not out.is_dir():
        print(f"error: output directory not found: {out}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    records: list[ExperimentRecord] = []
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as fh:
            first = fh.readline().strip()
        if first == f"# {TRAJECTORY_SCHEMA_VERSION}":
            continue  # trajectories carry curves, not pass/fail records
        if first != f"# {CSV_SCHEMA_VERSION}":
            print(f"error: unrecognized CSV schema in {path}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        try:
            records.extend(read_records_csv(path))
        except (ValueError, KeyError) as exc:
            print(f"error: corrupt records CSV {path}: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
    if not records:
        print(f"error: no check records found in {out}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    groups: dict[str, list[ExperimentRecord]] = {}
    for r in records:
        groups.setdefault(r.group or "ungrouped", []).append(r)
    print(f"{'group':<26} {'check':<28} {'status':<6} value")
    print("-" * 78)
    for group in sorted(groups):
        for r in sorted(groups[group], key=lambda r: r.check_name):
            status = "PASS" if r.passed else "FAIL"
            print(f"{group:<26} {r.check_name:<28} {status:<6} {r.value:.6e}")
    n_fail = sum(not r.passed for r in records)
    overall = "PASS" if n_fail == 0 else "FAIL"
    print("-" * 78)
    print(f"overall: {overall} ({len(records) - n_fail}/{len(records)} checks passed)")
    return EXIT_PASS if n_fail == 0 else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frame-hebb",
        description="Seeded verification harness for the subspace and "
        "error-gated learning rules and their frame machinery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, default=None, help="config file (INI)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--nx", type=int, default=None)
        p.add_argument("--nu", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--sigma", type=str, default=None,
                       help="identity | diagonal:<v1,..> | random-spd[:<lo,hi>]")
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--checks", type=str, default=None,
                       help="comma-separated check names (default: all)")

    for name in ("equivalence", "frame-check"):
        add_common(sub.add_parser(name))

    p_train = sub.add_parser("train")
    add_common(p_train)
    p_train.add_argument("--rule", choices=("oja", "eghr"), default=None)
    p_train.add_argument("--mode", choices=("closed", "empirical"), default=None)
    p_train.add_argument("--learning-rate", type=float, default=None)
    p_train.add_argument("--steps", type=int, default=None)
    p_train.add_argument("--batch-size", type=int, default=None)
    p_train.add_argument("--record-every", type=int, default=None)
    p_train.add_argument("--threshold", type=float, default=None)

    p_report = sub.add_parser("report")
    p_report.add_argument("--out", type=Path, default=Path("results"))
    return parser


def _config_from_args(args) -> RunConfig:
    """Load the config with every parsed flag as an override; the parser's
    flag names are the config-file keys."""
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "report":
        return cmd_report(args.out)
    try:
        config = _config_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        cov = build_covariance(config.build_sigma())  # the run's one covariance
        if args.command == "equivalence":
            return cmd_checks(config, cov, "equivalence", EQUIVALENCE_CHECKS, "equivalence.csv")
        if args.command == "frame-check":
            return cmd_checks(config, cov, "frame-check", FRAME_CHECKS, "frame_check.csv")
        if args.command == "train":
            return cmd_train(config, cov)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigError, DegenerateCovarianceError, DimensionError,
            RankDeficientError, SampleSizeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
