"""Experiment records: one named, re-runnable check with its tolerance.

A record stores the computed value, the reference it was compared against
and both error flavors; the tolerance always applies to the absolute error.
The ``metric`` field names that error and is always ``abs``; it stays a
column of the versioned CSV schema, which deliberately excludes wall time:
identical (config, seed) must produce byte-identical files.
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
    ``inputs`` and the seed."""
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


def write_records_csv(path, records: list[ExperimentRecord]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# {CSV_SCHEMA_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([_fmt(getattr(r, c)) for c in CSV_COLUMNS])


def read_records_csv(path) -> list[ExperimentRecord]:
    """Read a records CSV, validating the schema-version comment line."""
    path = Path(path)
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        if first != f"# {CSV_SCHEMA_VERSION}":
            raise ValueError(f"{path}: unrecognized schema line {first!r}")
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected columns {reader.fieldnames}")
        records = []
        for row in reader:
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
