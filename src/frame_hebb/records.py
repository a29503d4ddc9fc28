"""Experiment records: one named, re-runnable check with its tolerance.

A record stores only what its check measured: the value, the reference it
was compared against, the tolerance and the seed. Both error flavors and
the verdict are derived from them, and the tolerance always applies to the
absolute error. Only ``checks`` (``check_record``) and the CLI's
``train-final`` build records; ``checks.run_checks`` stamps each record's
group and wall time. ``metric`` names that error and is always ``abs``. It
and the derived values stay columns of the versioned CSV schema, which
``read_records_csv`` re-derives and checks. The schema deliberately excludes
wall time: identical (config, seed) must produce byte-identical files. Both
CSV formats live here: records, and the trajectory curves that ``train``
writes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass

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
    """A check's measured value; ``rel_error`` falls back to the absolute
    error when the reference is 0."""

    check_name: str
    value: float
    tolerance: float
    seed: int
    reference: float = 0.0
    inputs_digest: str = ""
    group: str = ""
    wall_time_ms: float = 0.0
    metric = "abs"  # not a field: the tolerance always applies to abs_error

    def __post_init__(self):
        # A NumPy scalar would reach _fmt, which writes an np.bool_ as True.
        self.value, self.reference = float(self.value), float(self.reference)
        self.tolerance, self.seed = float(self.tolerance), int(self.seed)
        for name in ("value", "reference", "tolerance", "abs_error", "rel_error"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"record field {name} is not finite")

    @property
    def abs_error(self) -> float:
        return abs(self.value - self.reference)

    @property
    def rel_error(self) -> float:
        abs_error = self.abs_error
        return abs_error / abs(self.reference) if self.reference != 0.0 else abs_error

    @property
    def passed(self) -> bool:
        return self.abs_error <= self.tolerance


def digest_inputs(**kwargs) -> str:
    """Short stable hash of the config subset that determines a check."""
    blob = json.dumps(kwargs, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def check_record(name: str, value: float, tolerance: float, seed: int,
                 reference: float = 0.0, **inputs) -> ExperimentRecord:
    """The record of a check, whose digest covers ``inputs`` and the seed. A
    value that is NaN or infinite is recorded as NONFINITE_VALUE: the check
    fails."""
    value = value if math.isfinite(value) else NONFINITE_VALUE
    return ExperimentRecord(name, value, tolerance, seed, reference,
                            digest_inputs(seed=seed, **inputs))


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        # 17 significant digits round-trips any double exactly.
        return format(x, ".17g")
    return str(x)


def _write_csv(path, schema: str, columns: list[str], rows, lineterminator: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {schema}\n")
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_fmt(getattr(r, c)) for c in columns])


def write_records_csv(path, records: list[ExperimentRecord]) -> None:
    _write_csv(path, CSV_SCHEMA_VERSION, CSV_COLUMNS, records, "\r\n")


def write_trajectory_csv(path, points) -> None:
    """Write ``rules.train``'s points, one row per recorded point."""
    _write_csv(path, TRAJECTORY_SCHEMA_VERSION, TRAJECTORY_COLUMNS, points, "\n")


def read_records_csv(path) -> list[ExperimentRecord]:
    """Read a records CSV; a wrong schema line, header or field count, or a
    row whose abs_error, rel_error, metric or passed column is not what its
    value, reference and tolerance give, raises ValueError."""
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        if first != f"# {CSV_SCHEMA_VERSION}":
            raise ValueError(f"unrecognized schema line {first!r}")
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(f"unexpected columns {reader.fieldnames}")
        records = []
        for row in reader:
            line = reader.line_num + 1  # of the file, whose schema line the reader skips
            if None in row or None in row.values():
                raise ValueError(f"line {line} does not hold {len(CSV_COLUMNS)} fields")
            record = ExperimentRecord(
                row["check_name"], float(row["value"]), float(row["tolerance"]), int(row["seed"]),
                float(row["reference"]), row["inputs_digest"], row["group"])
            # Exact: the 17 significant digits _fmt writes round-trip.
            for column in ("abs_error", "rel_error", "metric", "passed"):
                derived = _fmt(getattr(record, column))
                if row[column] != derived:
                    raise ValueError(f"line {line}: {column} {row[column]!r}, "
                                     f"but the row's numbers give {derived!r}")
            records.append(record)
    return records
