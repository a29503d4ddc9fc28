"""The check registry: each requested check runs only the work it needs."""

import dataclasses
import itertools

import pytest

from frame_hebb import checks
from frame_hebb.config import EQUIVALENCE_CHECKS, FRAME_CHECKS, RunConfig
from frame_hebb.linalg import build_covariance, random_spd


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


_KINDS = ("oja", "eghr", "frame-operator", "frame-expansion")
_SMALL_GRID = dict(ns=(40, 160, 640), replicates=2)


@pytest.fixture(scope="module")
def rate_cov():
    return build_covariance(random_spd(3, (0.5, 2.0), seed=11))


@pytest.fixture(scope="module")
def single_kind_records(rate_cov):
    return {
        kind: checks.mc_rate_check((kind,), rate_cov, nu=2, seed=12, **_SMALL_GRID)[0]
        for kind in _KINDS
    }


@pytest.mark.parametrize(
    "kinds",
    [c for r in range(1, 5) for c in itertools.combinations(_KINDS, r)]
    + [tuple(reversed(_KINDS))],
)
def test_shared_rate_pass_matches_single_kind_calls(kinds, rate_cov, single_kind_records):
    records = checks.mc_rate_check(kinds, rate_cov, nu=2, seed=12, **_SMALL_GRID)
    assert [r.check_name for r in records] == [f"mc-rate-{k}" for k in kinds]
    for kind, record in zip(kinds, records):
        assert _fields(record) == _fields(single_kind_records[kind])


@pytest.mark.parametrize(
    "kinds", [(), ("oja", "oja"), ("oja", "bogus"), "oja"]
)
def test_rate_kinds_rejected(kinds, rate_cov):
    with pytest.raises(ValueError, match="rate kinds"):
        checks.mc_rate_check(kinds, rate_cov, nu=1, seed=0, **_SMALL_GRID)


def test_mc_rate_checks_draw_each_batch_once(monkeypatch):
    config = RunConfig(nx=2, nu=1, seed=13)
    draws = []
    real_sample = checks.sample

    def counting_sample(cov, n, seed):
        draws.append((n, seed))
        return real_sample(cov, n, seed)

    monkeypatch.setattr(checks, "sample", counting_sample)
    names = [f"mc-rate-{k}" for k in _KINDS]
    records = checks.run_checks(config, names)
    assert [r.check_name for r in records] == names
    per_kind = len(checks.RATE_SAMPLE_GRID) * 3
    assert len(draws) == per_kind == len(set(draws))


def test_registry_covers_exactly_the_command_checks():
    assert sorted(checks._RUNNER_BY_CHECK) == sorted(EQUIVALENCE_CHECKS + FRAME_CHECKS)
