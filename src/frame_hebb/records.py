"""Experiment records: one named, re-runnable check with its tolerance.

A record stores the computed value, the reference it was compared against
and both error flavors; the tolerance always applies to the absolute error.
The ``metric`` field names that error and is always ``abs``; it stays a
column of the versioned CSV schema, which deliberately excludes wall time:
identical (config, seed) must produce byte-identical files. Both CSV formats
live here: records, and the trajectory curves that ``train`` writes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

CSV_SCHEMA_VERSION = "frame-hebb-csv v1"
CSV_COLUMNS = [
    "group",
    "check_name",
    "inputs_digest",
    "value",
    "reference",
    "abs_error",
    "rel_error",
    "metric",
    "tolerance",
    "passed",
    "seed",
]
TRAJECTORY_SCHEMA_VERSION = "frame-hebb-trajectory v1"
TRAJECTORY_COLUMNS = ["step", "subspace_error", "orthonormality_residual", "update_norm"]
# The value a check records in place of a NaN or an infinity: finite, with
# room for its errors against a reference, so the record can be written, and
# above every tolerance, so the check fails instead of the run.
NONFINITE_VALUE = 1e300


@dataclass
class ExperimentRecord:
    check_name: str
    inputs_digest: str
    value: float
    reference: float
    abs_error: float
    rel_error: float
    metric: str  # always "abs": the tolerance applies to abs_error
    tolerance: float
    passed: bool
    wall_time_ms: float
    seed: int
    group: str = ""

    def __post_init__(self):
        for name in ("value", "reference", "abs_error", "rel_error", "tolerance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"record field {name} is not finite")
        if self.metric != "abs":
            raise ValueError(f"unknown metric {self.metric!r}, expected 'abs'")
        if self.passed != (self.abs_error <= self.tolerance):
            raise ValueError(
                f"record {self.check_name}: passed={self.passed} inconsistent with "
                f"abs error {self.abs_error:.3e} vs tolerance {self.tolerance:.3e}"
            )


def make_record(
    check_name: str,
    *,
    value: float,
    tolerance: float,
    seed: int,
    reference: float = 0.0,
    inputs_digest: str = "",
    wall_time_ms: float = 0.0,
    group: str = "",
) -> ExperimentRecord:
    """Build a record, deriving errors and pass/fail (abs_error <= tolerance)
    from value vs reference.

    ``rel_error`` falls back to the absolute error when the reference is 0,
    matching the house tolerance convention.
    """
    abs_error = abs(value - reference)
    rel_error = abs_error / abs(reference) if reference != 0.0 else abs_error
    return ExperimentRecord(
        check_name=check_name,
        inputs_digest=inputs_digest,
        value=float(value),
        reference=float(reference),
        abs_error=float(abs_error),
        rel_error=float(rel_error),
        metric="abs",
        tolerance=float(tolerance),
        passed=bool(abs_error <= tolerance),
        wall_time_ms=float(wall_time_ms),
        seed=int(seed),
        group=group,
    )


def digest_inputs(**kwargs) -> str:
    """Short stable hash of the config subset that determines a check."""
    blob = json.dumps(kwargs, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def timed_record(name: str, value: float, tolerance: float, seed: int, t0: float,
                 reference: float = 0.0, **inputs) -> ExperimentRecord:
    """The record of a check started at perf_counter() t0, whose digest covers
    ``inputs`` and the seed. A value that is NaN or infinite is recorded as
    NONFINITE_VALUE: the check fails."""
    value = value if math.isfinite(value) else NONFINITE_VALUE
    return make_record(name, value=value, tolerance=tolerance, seed=seed, reference=reference,
                       inputs_digest=digest_inputs(seed=seed, **inputs),
                       wall_time_ms=(time.perf_counter() - t0) * 1e3)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        # 17 significant digits round-trips any double exactly.
        return format(x, ".17g")
    return str(x)


def _write_csv(path, schema: str, columns: list[str], rows, lineterminator: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# {schema}\n")
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_fmt(getattr(r, c)) for c in columns])


def write_records_csv(path, records: list[ExperimentRecord]) -> None:
    _write_csv(path, CSV_SCHEMA_VERSION, CSV_COLUMNS, records, "\r\n")


def write_trajectory_csv(path, trajectory) -> None:
    """Write a ``rules.Trajectory``, one row per recorded point."""
    _write_csv(path, TRAJECTORY_SCHEMA_VERSION, TRAJECTORY_COLUMNS, trajectory.points, "\n")


def read_records_csv(path) -> list[ExperimentRecord]:
    """Read a records CSV; a wrong schema line, header or field count raises
    ValueError."""
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        if first != f"# {CSV_SCHEMA_VERSION}":
            raise ValueError(f"unrecognized schema line {first!r}")
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(f"unexpected columns {reader.fieldnames}")
        records = []
        for row in reader:
            if None in row or None in row.values():
                raise ValueError(f"line {reader.line_num} does not hold {len(CSV_COLUMNS)} fields")
            records.append(
                ExperimentRecord(
                    check_name=row["check_name"],
                    inputs_digest=row["inputs_digest"],
                    value=float(row["value"]),
                    reference=float(row["reference"]),
                    abs_error=float(row["abs_error"]),
                    rel_error=float(row["rel_error"]),
                    metric=row["metric"],
                    tolerance=float(row["tolerance"]),
                    passed=row["passed"] == "true",
                    wall_time_ms=0.0,
                    seed=int(row["seed"]),
                    group=row["group"],
                )
            )
    return records
