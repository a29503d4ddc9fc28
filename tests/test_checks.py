"""The check registry: each requested check runs only the work it needs."""

import dataclasses
import itertools

import numpy as np
import pytest

from frame_hebb import checks
from frame_hebb.config import EQUIVALENCE_CHECKS, FRAME_CHECKS, RunConfig
from frame_hebb.frames import cancellation_coefficient, frame_coefficient
from frame_hebb.gaussian import sample
from frame_hebb.linalg import build_covariance, random_spd, vec
from frame_hebb.records import digest_inputs, make_record
from frame_hebb.rules import eghr_g, eghr_update_closed, oja_update_closed


def _cov(config):
    return build_covariance(config.build_sigma())


def _fields(record):
    # Wall time is measured, not computed, and never reaches the CSV.
    return {k: v for k, v in dataclasses.asdict(record).items() if k != "wall_time_ms"}


def test_isserlis_analytic_alone_skips_empirical_work(monkeypatch):
    config = RunConfig(nx=3, nu=1, n_samples=2000, seed=5)
    both = checks.run_checks(config, _cov(config), ["isserlis-analytic", "isserlis-empirical"])
    assert [r.check_name for r in both] == ["isserlis-analytic", "isserlis-empirical"]

    def forbidden(*args, **kwargs):
        raise AssertionError("isserlis-analytic must not sample or estimate")

    monkeypatch.setattr(checks, "frame_operator_empirical", forbidden)
    monkeypatch.setattr(checks, "sample", forbidden)
    (alone,) = checks.run_checks(config, _cov(config), ["isserlis-analytic"])
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
    records = checks.run_checks(config, _cov(config), names)
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
    records = checks.run_checks(config, _cov(config), names)
    assert [r.check_name for r in records] == names
    per_kind = len(checks.RATE_SAMPLE_GRID) * 3
    assert len(draws) == per_kind == len(set(draws))


def test_registry_covers_exactly_the_command_checks():
    assert sorted(checks._RUNNER_BY_CHECK) == sorted(EQUIVALENCE_CHECKS + FRAME_CHECKS)


# The sweeps before stacking: one covariance per trial, built as it is drawn,
# and the public, validating functions.

def _closed_equivalence_per_trial(seed, dims, trials):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(trials):
        nx, nu = dims[k % len(dims)]
        cov = build_covariance(random_spd(nx, checks.SWEEP_EIG_RANGE, int(rng.integers(2**63))))
        w = rng.uniform(-1.0, 1.0, size=(nu, nx))
        lhs = eghr_update_closed(w, cov)
        rhs = oja_update_closed(w, cov) @ cov.sigma
        ref = float(np.linalg.norm(rhs))
        err = float(np.linalg.norm(lhs - rhs))
        worst = max(worst, err / ref if ref > 0 else err)
    return make_record("closed-equivalence", value=worst, tolerance=checks.EXACT_RTOL, seed=seed,
                       inputs_digest=digest_inputs(dims=dims, trials=trials, seed=seed))


def _fixed_point_sharing_per_trial(seed, nx, nu, trials):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        cov = build_covariance(random_spd(nx, checks.SWEEP_EIG_RANGE, int(rng.integers(2**63))))
        pick = rng.choice(nx, size=nu, replace=False)
        q, _ = np.linalg.qr(rng.standard_normal((nu, nu)))
        w_fp = q @ cov.eigvecs[:, pick].T
        sigma_scale = float(np.linalg.norm(cov.sigma))
        oja_norm = float(np.linalg.norm(oja_update_closed(w_fp, cov)))
        eghr_norm = float(np.linalg.norm(eghr_update_closed(w_fp, cov)))
        worst = max(worst, oja_norm / sigma_scale, eghr_norm / sigma_scale**2)
        w_near = w_fp + 1e-6 * rng.standard_normal((nu, nx))
        oja_n = float(np.linalg.norm(oja_update_closed(w_near, cov)))
        eghr_n = float(np.linalg.norm(eghr_update_closed(w_near, cov)))
        lam_min, lam_max = cov.eigvals[-1], cov.eigvals[0]
        sandwich = max(lam_min * oja_n - eghr_n, eghr_n - lam_max * oja_n, 0.0)
        worst = max(worst, sandwich / (lam_max * oja_n) if oja_n > 0 else sandwich)
    digest = digest_inputs(nx=nx, nu=nu, trials=trials, seed=seed)
    return make_record("fixed-point-sharing", value=worst, tolerance=checks.EXACT_RTOL,
                       seed=seed, inputs_digest=digest)


def _coefficient_identity_per_trial(seed, dims, trials):
    rng = np.random.default_rng(seed)
    coeff_err = cancel_err = scale = 0.0
    for k in range(trials):
        nx, nu = dims[k % len(dims)]
        cov = build_covariance(random_spd(nx, checks.SWEEP_EIG_RANGE, int(rng.integers(2**63))))
        w = rng.uniform(-1.0, 1.0, size=(nu, nx))
        x = sample(cov, 1, int(rng.integers(2**63))).data[0]
        g = eghr_g(x, w, cov)
        v = vec(cov.sigma @ (np.eye(nx) - w.T @ w) @ cov.sigma)
        c = frame_coefficient(v, x, cov)
        cc = cancellation_coefficient(w, x, cov)
        coeff_err = max(coeff_err, abs(c - g))
        cancel_err = max(cancel_err, abs(cc - c))
        scale = max(scale, abs(g))
    digest = digest_inputs(dims=dims, trials=trials, seed=seed)
    return tuple(
        make_record(name, value=err / scale, tolerance=checks.EXACT_RTOL, seed=seed,
                    inputs_digest=digest)
        for name, err in (("coefficient-identity", coeff_err),
                          ("cancellation-identity", cancel_err))
    )


_SWEEP_DIMS = [checks.dim_sweep(max_nx=8), [(32, 4)]]


@pytest.mark.parametrize("trials", [37, 2 * checks.SWEEP_BLOCK])
@pytest.mark.parametrize("dims", _SWEEP_DIMS)
def test_blocked_sweeps_equal_per_trial_loops(dims, trials):
    pairs = [
        (checks.closed_equivalence_check(19, dims, trials),
         _closed_equivalence_per_trial(19, dims, trials)),
        *zip(checks.coefficient_identity_checks(23, dims, trials),
             _coefficient_identity_per_trial(23, dims, trials)),
    ] + [
        (checks.fixed_point_sharing_check(29, nx, nu, trials),
         _fixed_point_sharing_per_trial(29, nx, nu, trials))
        for nx, nu in dims[-2:]
    ]
    for record, want in pairs:
        assert _fields(record) == _fields(want)
        assert record.passed
