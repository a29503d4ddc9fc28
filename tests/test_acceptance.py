"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure) and asserts both the tolerance and the runtime budget.
"""

import time

import numpy as np
import pytest

from frame_hebb.checks import (
    MonteCarloBatches,
    closed_equivalence_check,
    coefficient_identity_checks,
    derivation_checks,
    frame_bounds_check,
    isserlis_checks,
    kernel_annihilation_check,
    mc_rate_check,
    restricted_inverse_check,
    stein_identity_check,
)
from frame_hebb.cli import main
from frame_hebb.linalg import build_covariance, random_spd
from frame_hebb.rules import (
    TrainerConfig,
    eghr_update_closed,
    oja_update_closed,
    train,
)
from sweeps import dim_sweep

SEED = 42


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def coefficient_records():
    t0 = time.perf_counter()
    coeff, cancel = coefficient_identity_checks(
        SEED, dims=dim_sweep(max_nx=8, seed=SEED), trials=1000
    )
    return coeff, cancel, time.perf_counter() - t0


@pytest.fixture(scope="module")
def default_cov():
    return build_covariance(random_spd(4, (0.5, 2.0), seed=SEED))


def test_criterion_1_closed_form_equivalence():
    t0 = time.perf_counter()
    rec = closed_equivalence_check(SEED, dims=dim_sweep(max_nx=8, seed=SEED), trials=1000)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 closed-form equivalence",
        rec.passed and elapsed < 5.0,
        f"worst relative gap {rec.value:.3e} (tol 1e-12), {elapsed:.2f}s",
    )
    assert rec.passed
    assert elapsed < 5.0


def test_criterion_2_coefficient_identity(coefficient_records):
    coeff, _, elapsed = coefficient_records
    _report(
        "criterion 2 coefficient identity",
        coeff.passed and elapsed < 5.0,
        f"worst normalized gap {coeff.value:.3e} (tol 1e-12), {elapsed:.2f}s",
    )
    assert coeff.passed
    assert elapsed < 5.0


def test_criterion_3_cancellation_identity(coefficient_records):
    _, cancel, elapsed = coefficient_records
    _report(
        "criterion 3 cancellation identity",
        cancel.passed and elapsed < 5.0,
        f"worst normalized gap {cancel.value:.3e} (tol 1e-12), {elapsed:.2f}s",
    )
    assert cancel.passed
    assert elapsed < 5.0


def test_criterion_4_frame_structure(default_cov):
    t0 = time.perf_counter()
    kernel = kernel_annihilation_check(default_cov, SEED, trials=100)
    bounds = frame_bounds_check(default_cov, SEED, trials=1000)
    rinv = restricted_inverse_check(default_cov, SEED, trials=100)
    elapsed = time.perf_counter() - t0
    ok = kernel.passed and bounds.passed and rinv.passed and elapsed < 10.0
    _report(
        "criterion 4 frame structure",
        ok,
        f"kernel {kernel.value:.3e}, bounds violation {bounds.value:.3e}, "
        f"inverse residual {rinv.value:.3e}, {elapsed:.2f}s",
    )
    assert kernel.passed
    assert bounds.passed
    assert rinv.passed
    assert elapsed < 10.0


def test_criterion_5_isserlis_consistency():
    t0 = time.perf_counter()
    cov = build_covariance(random_spd(3, (0.5, 2.0), seed=SEED))
    batches = MonteCarloBatches(cov, 2, SEED, 10**6, isserlis=True)
    analytic, empirical = isserlis_checks(cov, SEED, batches)
    elapsed = time.perf_counter() - t0
    ok = analytic.passed and empirical.passed and elapsed < 60.0
    _report(
        "criterion 5 fourth-moment consistency",
        ok,
        f"analytic {analytic.value:.3e} (tol 1e-12), "
        f"empirical {empirical.value:.3e} (tol 5e-2), {elapsed:.2f}s",
    )
    assert analytic.passed
    assert empirical.passed
    assert elapsed < 60.0


def test_criterion_6_stein_identity():
    t0 = time.perf_counter()
    rec = stein_identity_check(SEED, dims=(1, 2, 4))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 6 integration-by-parts identity",
        rec.passed and elapsed < 30.0,
        f"worst discrepancy-to-roundoff ratio {rec.value:.2e} (tol 1), {elapsed:.2f}s",
    )
    assert rec.passed
    assert elapsed < 30.0


def test_criterion_7_monte_carlo_rates():
    t0 = time.perf_counter()
    cov = build_covariance(random_spd(3, (0.5, 2.0), seed=SEED))
    kinds = ("oja", "eghr", "frame-operator", "frame-expansion")
    slopes = dict(zip(kinds, mc_rate_check(MonteCarloBatches(cov, 2, SEED, 10**6, kinds))))
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in slopes.values()) and elapsed < 180.0
    detail = ", ".join(f"{k} {r.value:+.3f}" for k, r in slopes.items())
    _report(
        "criterion 7 Monte-Carlo rates",
        ok,
        f"slopes {detail} (band -0.65..-0.35), {elapsed:.2f}s",
    )
    for kind, rec in slopes.items():
        assert rec.passed, f"{kind} slope {rec.value}"
    assert elapsed < 180.0


def test_criterion_8_fixed_point_and_convergence_equivalence():
    t0 = time.perf_counter()
    cov = build_covariance(np.diag([5.0, 4.0, 3.0, 2.0, 1.0]))
    worst_sub = worst_orth = worst_cross = 0.0
    for i in range(20):
        w0 = np.random.default_rng(SEED + i).standard_normal((2, 5)) / np.sqrt(5)
        for rule, other_update in (
            ("oja", eghr_update_closed),
            ("eghr", oja_update_closed),
        ):
            cfg = TrainerConfig(rule, "closed", learning_rate=0.02, steps=5000,
                                record_every=5000)
            final = train(w0, cov, cfg)[-1]
            worst_sub = max(worst_sub, final.subspace_error)
            worst_orth = max(worst_orth, final.orthonormality_residual)
            worst_cross = max(
                worst_cross, float(np.linalg.norm(other_update(final.w, cov)))
            )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_sub <= 1e-6 and worst_orth <= 1e-6 and worst_cross <= 1e-8
        and elapsed < 60.0
    )
    _report(
        "criterion 8 shared attractors",
        ok,
        f"worst subspace error {worst_sub:.3e}, orthonormality {worst_orth:.3e}, "
        f"cross-rule update {worst_cross:.3e}, {elapsed:.2f}s",
    )
    assert worst_sub <= 1e-6
    assert worst_orth <= 1e-6
    assert worst_cross <= 1e-8
    assert elapsed < 60.0


def test_criterion_9_derivation_end_to_end(default_cov):
    t0 = time.perf_counter()
    batches = MonteCarloBatches(default_cov, 2, SEED, 10**6, derivation=True)
    agreement, mc = derivation_checks(batches)
    elapsed = time.perf_counter() - t0
    ok = agreement.passed and mc.passed and elapsed < 60.0
    _report(
        "criterion 9 derivation end-to-end",
        ok,
        f"route gap {agreement.value:.3e} (tol {agreement.tolerance:.3e}), "
        f"target gap {mc.value:.3e} (tol {mc.tolerance:.3e}), {elapsed:.2f}s",
    )
    assert agreement.passed
    assert mc.passed
    assert elapsed < 60.0


def test_criterion_10_reproducibility(tmp_path):
    def run_suite(out):
        assert main(["equivalence", "--out", str(out)]) == 0
        assert main(["frame-check", "--out", str(out)]) == 0
        assert (
            main(
                ["train", "--out", str(out), "--nx", "5", "--nu", "2",
                 "--sigma", "diagonal:5,4,3,2,1"]
            )
            == 0
        )

    a, b = tmp_path / "a", tmp_path / "b"
    run_suite(a)
    run_suite(b)
    names = sorted(p.name for p in a.glob("*.csv"))
    assert names == sorted(p.name for p in b.glob("*.csv")) and names
    identical = all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
    _report(
        "criterion 10 reproducibility",
        identical,
        f"{len(names)} CSV files byte-identical across reruns",
    )
    assert identical
