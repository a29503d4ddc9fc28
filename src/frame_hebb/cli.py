"""Command-line harness: argument parsing, dispatch and exit codes.

Commands
--------
``equivalence``   the checks of ``checks.COMMANDS["equivalence"]``
``frame-check``   the checks of ``checks.COMMANDS["frame-check"]``
``train``         integrate one rule and record its trajectory
``report``        aggregate previously written CSVs into a pass/fail table

Exit codes: 0 all checks passed, 1 some check failed, 2 configuration or
input error, 3 numerical divergence during training. ``--checks`` may name
only the command's own checks, and ``train`` runs none. Each command builds
its one covariance before any check or training step, so a degenerate or
out-of-window covariance exits 2 whatever ``--checks`` selects. A learning
rate that steps W onto dependent rows (``RankDeficientError``) is an input
error, and so are too few ``--samples`` for a selected Monte-Carlo check
(``SampleSizeError``; ``stein-identity`` samples nothing) and an nx at which
a selected check's operator, dense or in half form, would not fit in physical
memory (``DimensionError``). After the covariance build, and before any check
or step, a command makes ``--out`` and its CSVs' temporary files; whatever the
OS refuses there exits 2. Each CSV replaces its old self only when the run
ends with exit 0 or 1, so a CSV is never half written.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from pathlib import Path

import numpy as np

from .checks import COMMANDS, run_checks
from .config import SETTINGS, ConfigError, RunConfig, load_config
from .errors import (
    DegenerateCovarianceError,
    DimensionError,
    DivergenceError,
    OutputError,
    RankDeficientError,
    SampleSizeError,
)
from .linalg import EIGENVALUE_FLOOR_REL, CovarianceModel, build_covariance
from .records import (
    TRAJECTORY_SCHEMA_VERSION,
    ExperimentRecord,
    read_records_csv,
    write_records_csv,
    write_trajectory_csv,
)
from .rules import MAX_BATCH_SIZE, MODES, RULES, train

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


def _selected_checks(command: str, requested) -> list[str]:
    """The command's checks that ``requested`` (None: all) names, in CSV
    order. A name outside them is a config error; train runs no named check."""
    own = COMMANDS[command].checks if command in COMMANDS else []
    foreign = [c for c in requested or () if c not in own]
    if foreign:
        raise ConfigError(f"{', '.join(foreign)} not among the {command} checks "
                          f"({', '.join(own) or 'none'})")
    return [c for c in own if requested is None or c in requested]


@contextlib.contextmanager
def _outputs(out: Path, csv_names: list[str]):
    """Make ``out`` and an empty temporary file per CSV name in it; yield
    their paths. A normal exit moves each onto its CSV; any exception removes
    every file and directory made here. What the OS refuses on the way in is
    an OutputError."""
    made = [p for p in (out, *out.parents) if not os.path.lexists(p)]
    partial = [out / f"{name}.partial" for name in csv_names]  # not *.csv, which report reads
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
            for path in partial:
                path.touch()
        except (OSError, ValueError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else exc
            raise OutputError(f"output directory {os.fspath(out)!r}: {reason}") from exc
        yield partial
        for path, name in zip(partial, csv_names):
            os.replace(path, out / name)
    except BaseException:
        for path in partial:
            with contextlib.suppress(OSError, ValueError):
                path.unlink()
        for path in made:  # deepest first; a directory that is not empty stays
            with contextlib.suppress(OSError, ValueError):
                path.rmdir()
        raise


def cmd_checks(config: RunConfig, cov: CovarianceModel, names: list[str], csv_path) -> int:
    """Run the selected checks on the run's covariance and write their CSV."""
    records = run_checks(config, cov, names)
    write_records_csv(csv_path, records)
    _print_records(records)
    return EXIT_PASS if all(r.passed for r in records) else EXIT_CHECK_FAILED


def cmd_train(config: RunConfig, cov: CovarianceModel, trajectory_path, csv_path) -> int:
    gap = cov.spectral_gap_at(config.nu)  # inf when nu >= nx: no cut
    if gap <= EIGENVALUE_FLOOR_REL:
        raise ConfigError(
            f"relative spectral gap {gap:.3e} at the subspace cut nu={config.nu} "
            f"is at or below {EIGENVALUE_FLOOR_REL:.1e}: the principal subspace "
            "is not unique, so subspace_error is ill-posed"
        )
    rng = np.random.default_rng(config.seed)
    w0 = rng.standard_normal((config.nu, config.nx)) / np.sqrt(config.nx)
    points = train(w0, cov, config.trainer)
    write_trajectory_csv(trajectory_path, points)

    final = points[-1]
    record = ExperimentRecord("train-final", final.subspace_error, config.threshold,
                              config.seed, group="training")
    write_records_csv(csv_path, [record])
    _print_records([record])
    print(
        f"final step {final.step}: subspace_error={final.subspace_error:.3e} "
        f"orthonormality_residual={final.orthonormality_residual:.3e} "
        f"update_norm={final.update_norm:.3e}"
    )
    return EXIT_PASS if record.passed else EXIT_CHECK_FAILED


def cmd_report(output_dir) -> int:
    out = Path(output_dir)
    try:
        csv_paths = sorted(p for p in out.iterdir() if p.name.endswith(".csv"))
    except OSError as exc:
        print(f"error: output directory {out}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    records: list[ExperimentRecord] = []
    for path in csv_paths:
        try:
            with open(path, newline="") as fh:
                if fh.readline().strip() == f"# {TRAJECTORY_SCHEMA_VERSION}":
                    continue  # trajectories carry curves, not pass/fail records
            records.extend(read_records_csv(path))
        except (OSError, ValueError) as exc:
            print(f"error: unreadable records CSV {path}: {exc}", file=sys.stderr)
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


# Help and choices of the flags that have them; every flag is a SETTINGS key.
_FLAG_OPTIONS = {
    "sigma": {"help": "identity | diagonal:<v1,..> | random-spd[:<lo,hi>]"},
    "checks": {"help": "comma-separated check names (default: all)"},
    "rule": {"choices": RULES},
    "mode": {"choices": MODES},
    "batch_size": {"help": f"rows drawn per empirical step, at most {MAX_BATCH_SIZE:,} "
                           "(default 100)"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frame-hebb",
        description="Seeded verification harness for the subspace and "
        "error-gated learning rules and their frame machinery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in (*COMMANDS, "train"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="config file (INI)")
        for section in SETTINGS if name == "train" else ("run",):
            for key, kind in SETTINGS[section].items():
                p.add_argument("--" + key.replace("_", "-"), type=kind, default=None,
                               **_FLAG_OPTIONS.get(key, {}))

    p_report = sub.add_parser("report")
    p_report.add_argument("--out", type=Path, default=Path("results"))
    return parser


def _config_from_args(args) -> RunConfig:
    """Load the config with every parsed flag as an override; the flags are
    the SETTINGS keys."""
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "report":
        return cmd_report(args.out)
    try:
        config = _config_from_args(args)
        names = _selected_checks(args.command, config.checks)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        cov = build_covariance(config.build_sigma())  # the run's one covariance
        if args.command == "train":
            with _outputs(config.out, ["train_trajectory.csv", "train.csv"]) as paths:
                return cmd_train(config, cov, *paths)
        with _outputs(config.out, [COMMANDS[args.command].csv_name]) as paths:
            return cmd_checks(config, cov, names, *paths)
    except OutputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigError, DegenerateCovarianceError, DimensionError,
            RankDeficientError, SampleSizeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


def run() -> int:
    """The console script: ``main`` after ``gc.freeze()``, so the collection
    at exit skips the imports' objects. Tests call ``main`` in process."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
