"""The check registry: each requested check runs only the work it needs."""

import dataclasses

import pytest

from frame_hebb import checks
from frame_hebb.config import RunConfig


def _fields(record):
    # Wall time is measured, not computed, and never reaches the CSV.
    return {k: v for k, v in dataclasses.asdict(record).items() if k != "wall_time_ms"}


def test_isserlis_analytic_alone_skips_empirical_work(monkeypatch):
    config = RunConfig(nx=3, nu=1, n_samples=2000, seed=5)
    both = checks.run_checks(config, ["isserlis-analytic", "isserlis-empirical"])
    assert [r.check_name for r in both] == ["isserlis-analytic", "isserlis-empirical"]

    def forbidden(*args, **kwargs):
        raise AssertionError("isserlis-analytic must not sample or estimate")

    monkeypatch.setattr(checks, "frame_operator_empirical", forbidden)
    monkeypatch.setattr(checks, "sample", forbidden)
    (alone,) = checks.run_checks(config, ["isserlis-analytic"])
    assert _fields(alone) == _fields(both[0])


@pytest.mark.parametrize(
    "names",
    [
        ["coefficient-identity"],
        ["cancellation-identity"],
        ["derivation-mc-target"],
        ["isserlis-empirical"],
    ],
)
def test_paired_checks_return_only_requested_records(names):
    config = RunConfig(nx=2, nu=1, n_samples=500, seed=3)
    records = checks.run_checks(config, names)
    assert [r.check_name for r in records] == names
    assert all(r.group == "frame machinery" for r in records)
