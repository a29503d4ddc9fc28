"""The check registry: each requested check runs only the work it needs."""

import dataclasses
import itertools
import sys
import time

import numpy as np
import pytest

from frame_hebb import checks
from frame_hebb.config import RunConfig
from frame_hebb.errors import DimensionError, SampleSizeError
from frame_hebb.frames import (
    cancellation_coefficient,
    frame_coefficient,
    frame_element,
    restricted_inverse_apply,
)
from frame_hebb.gaussian import SampleBatch, derive_seed, monomial_exponents, stein_check
from frame_hebb.linalg import (
    build_covariance,
    random_covariances,
    random_spd,
    skew_part,
    sym_part,
    vecs,
)
from frame_hebb.cli import main
from frame_hebb.records import (
    NONFINITE_VALUE,
    ExperimentRecord,
    digest_inputs,
    read_records_csv,
)
from frame_hebb.rules import eghr_g, eghr_update_closed, oja_update_closed
from sweeps import derive_on_own_pass, dim_sweep


def _cov(config):
    return build_covariance(config.build_sigma())


def _fields(record):
    # Wall time is measured, not computed, and never reaches the CSV.
    return {k: v for k, v in dataclasses.asdict(record).items() if k != "wall_time_ms"}


def test_isserlis_analytic_alone_skips_empirical_work(monkeypatch):
    config = RunConfig(nx=3, nu=1, samples=2000, seed=5)
    both = checks.run_checks(config, _cov(config), ["isserlis-analytic", "isserlis-empirical"])
    assert [r.check_name for r in both] == ["isserlis-analytic", "isserlis-empirical"]

    def forbidden(*args, **kwargs):
        raise AssertionError("isserlis-analytic must not sample or estimate")

    monkeypatch.setattr(checks, "OperatorMean", forbidden)
    monkeypatch.setattr(checks, "sample", forbidden)
    (alone,) = checks.run_checks(config, _cov(config), ["isserlis-analytic"])
    assert _fields(alone) == _fields(both[0])


def test_isserlis_analytic_catches_a_transpose_that_gathers_nothing(monkeypatch):
    # vec_transpose_index mutated to the identity, in every module that holds
    # it: the fourth moment is built from Isserlis' pairings, not from the
    # operator's kron and T gather, so the two no longer agree.
    for name, module in list(sys.modules.items()):
        if name.startswith("frame_hebb") and hasattr(module, "vec_transpose_index"):
            monkeypatch.setattr(module, "vec_transpose_index", lambda n: np.arange(n * n))
    config = RunConfig(nx=3, nu=1, seed=5)
    (record,) = checks.run_checks(config, _cov(config), ["isserlis-analytic"])
    assert not record.passed


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
    config = RunConfig(nx=2, nu=1, samples=500, seed=3)
    records = checks.run_checks(config, _cov(config), names)
    assert [r.check_name for r in records] == names
    assert all(r.group == "frame machinery" for r in records)


def test_run_checks_stamps_each_runner_wall_time_on_its_records():
    config = RunConfig(nx=2, nu=1, samples=500, seed=3)
    bounds, coeff, cancel = checks.run_checks(
        config, _cov(config), ["frame-bounds", "coefficient-identity", "cancellation-identity"])
    assert bounds.wall_time_ms > 0 and coeff.wall_time_ms > 0
    assert cancel.wall_time_ms == coeff.wall_time_ms != bounds.wall_time_ms


def test_runner_wall_times_exclude_the_monte_carlo_passes(monkeypatch):
    # Every pass is drawn before the runners' clocks start: a pass slowed by
    # 0.2 s shows in no record's wall time.
    slow = checks.MonteCarloBatches._pass

    def slowed(self, i):
        time.sleep(0.2)
        return slow(self, i)

    monkeypatch.setattr(checks.MonteCarloBatches, "_pass", slowed)
    config = RunConfig(nx=2, nu=1, samples=checks.RATE_MIN_SAMPLES, seed=3)
    names = checks.COMMANDS["frame-check"].checks
    records = checks.run_checks(config, _cov(config), names)
    assert [r.check_name for r in records] == names
    assert all(r.wall_time_ms < 200 for r in records), {r.check_name: r.wall_time_ms
                                                        for r in records}


def test_derivation_records_hold_the_routes_gaps_to_their_tolerances():
    # Recomputed from a separate ExpansionMean + EghrMean pass over the same
    # batch (derive_on_own_pass), which below RATE_MIN_SAMPLES is one block
    # and one chunk, so its sums are the shared ones to the bit. A tolerance
    # of RTOL / norm fails.
    cov = build_covariance(random_spd(3, (0.5, 2.0), seed=15))
    batches = checks.MonteCarloBatches(cov, 2, 16, 2000, derivation=True)
    records = checks.derivation_checks(batches)
    batch = batches.passes[0][0]
    target, frame_route, direct_route = derive_on_own_pass(batches.w, cov, batch)
    assert [r.check_name for r in records] == ["derivation-chain-agreement",
                                                "derivation-mc-target"]
    for record, ref, rtol in zip(records, (direct_route, target),
                                 (checks.CHAIN_AGREEMENT_RTOL, checks.MC_TARGET_RTOL)):
        assert record.value == np.linalg.norm(frame_route - ref) > 0
        assert record.tolerance == rtol * np.linalg.norm(ref)
        assert record.seed == batch.seed


def test_stein_identity_value_is_the_worst_gap_to_tolerance_ratio():
    # A tolerance of STEIN_RTOL / scale fails.
    ratios = []
    for dim in (1, 2, 4):
        cov = build_covariance(random_spd(dim, checks.SWEEP_EIG_RANGE, seed=derive_seed(42, dim)))
        gap, scale = stein_check(cov, monomial_exponents(dim))
        ratios.append(np.max(gap / (checks.STEIN_RTOL * scale)))
    assert checks.stein_identity_check(42, dims=(1, 2, 4)).value == max(ratios) > 0


_KINDS = ("oja", "eghr", "frame-operator", "frame-expansion")
_RATE_N = checks.RATE_MIN_SAMPLES


@pytest.fixture(scope="module")
def rate_cov():
    return build_covariance(random_spd(3, (0.5, 2.0), seed=11))


def _rate_records(kinds, cov, **selection):
    batches = checks.MonteCarloBatches(cov, 2, 12, _RATE_N, kinds=kinds, **selection)
    return checks.mc_rate_check(batches)


@pytest.fixture(scope="module")
def single_kind_records(rate_cov):
    return {kind: _rate_records((kind,), rate_cov)[0] for kind in _KINDS}


@pytest.mark.parametrize(
    "kinds",
    [c for r in range(1, 5) for c in itertools.combinations(_KINDS, r)]
    + [tuple(reversed(_KINDS))],
)
def test_shared_rate_pass_matches_single_kind_calls(kinds, rate_cov, single_kind_records):
    records = _rate_records(kinds, rate_cov)
    assert [r.check_name for r in records] == [f"mc-rate-{k}" for k in kinds]
    for kind, record in zip(kinds, records):
        assert _fields(record) == _fields(single_kind_records[kind])


def test_rate_records_do_not_depend_on_the_other_mc_checks(rate_cov, single_kind_records):
    records = _rate_records(_KINDS, rate_cov, isserlis=True, derivation=True)
    for kind, record in zip(_KINDS, records):
        assert _fields(record) == _fields(single_kind_records[kind])


def test_mc_checks_read_the_same_sums_whatever_else_runs():
    # isserlis-empirical and derivation-* read batch 0's block sums, merged
    # in an order set by n alone: adding the rate checks moves no bit.
    config = RunConfig(nx=3, nu=2, samples=_RATE_N + 7, seed=14)
    cov = _cov(config)
    names = ["isserlis-empirical", "derivation-chain-agreement", "derivation-mc-target"]
    alone = checks.run_checks(config, cov, names)
    rates = ["mc-rate-frame-operator", "mc-rate-frame-expansion"]
    together = {r.check_name: r for r in checks.run_checks(config, cov, names + rates)}
    assert [_fields(r) for r in alone] == [_fields(together[name]) for name in names]


@pytest.mark.parametrize("command", sorted(checks.COMMANDS))
def test_rate_check_names_are_distinct_rate_sums(command):
    # run_checks passes the mc-rate-<kind> names' kinds to MonteCarloBatches
    # unchecked: each must be one key of _RATE_SUMS, and none repeat
    kinds = [name[len("mc-rate-"):] for name in checks.COMMANDS[command].checks
             if name.startswith("mc-rate-")]
    assert kinds and len(set(kinds)) == len(kinds)
    assert set(kinds) <= set(checks._RATE_SUMS)


@pytest.mark.parametrize("n", [1, checks.RATE_MIN_SAMPLES - 1, checks.RATE_MIN_SAMPLES])
def test_batches_draw_blocks_of_at_least_one_row(rate_cov, n):
    # sample trusts its block, which is this one for any n >= 1 RunConfig allows
    assert checks.MonteCarloBatches(rate_cov, 1, 0, n).block >= 1


@pytest.mark.parametrize("n", [1, 1000, checks.RATE_MIN_SAMPLES - 1])
def test_rate_checks_refuse_too_few_samples(rate_cov, n):
    with pytest.raises(SampleSizeError, match="mc-rate"):
        checks.MonteCarloBatches(rate_cov, 1, 0, n, kinds=("oja",))


@pytest.mark.parametrize("selection", [dict(kinds=("oja",)), dict(isserlis=True),
                                       dict(derivation=True)])
def test_monte_carlo_chunk_beyond_physical_memory_refused(rate_cov, monkeypatch, selection):
    # Above 1000 * CHUNK_ROWS samples a chunk is one block of n / 1000 rows.
    def no_chunks(self):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(SampleBatch, "chunks", no_chunks)
    with pytest.raises(DimensionError, match="a chunk of 1,000,000,000 rows"):
        checks.MonteCarloBatches(rate_cov, 1, 0, 10**12, **selection)
    checks.MonteCarloBatches(rate_cov, 1, 0, 10**12)  # no Monte-Carlo check: nothing drawn


@pytest.mark.parametrize("selection, width", [
    (dict(kinds=("oja",)), 6 * 3), (dict(isserlis=True), 6 * 3 + 2 * 6),
    (dict(kinds=("frame-operator",)), 6 * 3 + 2 * 6), (dict(derivation=True), 6 * 3),
])
def test_monte_carlo_chunk_guard_counts_h_columns(rate_cov, monkeypatch, selection, width):
    # width is what a row of the chunk read holds: six nx = 3 wide arrays,
    # and with the operator summed its h = nx(nx+1)/2 = 6 half coordinates
    # and the factor gathered into them, not nx**2 = 9. The guard also counts
    # the next chunk's z and x, drawn meanwhile: two more nx-wide arrays.
    asked = []
    monkeypatch.setattr(checks, "require_memory", lambda nbytes, what: asked.append(nbytes))
    batches = checks.MonteCarloBatches(rate_cov, 1, 0, _RATE_N, **selection)
    rows = checks.chunk_schedule(_RATE_N, batches.block)[1]
    assert asked == [8 * rows * (width + 2 * 3)]


# The sweeps one trial at a time: the stacks the sweep draws, shape after
# shape from one generator, each taken item by item through the public,
# validating functions.

def _stacks(seed, dims, trials):
    """Yield each stack of a sweep as (covs, rng, nu), trial k at
    dims[k % len(dims)]; the caller draws the stack's other values from rng
    before it takes the next stack."""
    rng = np.random.default_rng(seed)
    for i, (nx, nu) in enumerate(dims):
        count = len(range(i, trials, len(dims)))
        per = checks.sweep_stack_trials(nx)
        for start in range(0, count, per):
            k = min(per, count - start)
            yield random_covariances(rng, k, nx, checks.SWEEP_EIG_RANGE), rng, nu


def _closed_equivalence_per_trial(seed, dims, trials):
    worst = 0.0
    for covs, rng, nu in _stacks(seed, dims, trials):
        ws = rng.uniform(-1.0, 1.0, size=(len(covs.sigma), nu, covs.dim))
        for cov, w in zip(covs, ws):
            lhs = eghr_update_closed(w, cov)
            rhs = oja_update_closed(w, cov) @ cov.sigma
            ref = float(np.linalg.norm(rhs))
            err = float(np.linalg.norm(lhs - rhs))
            worst = max(worst, err / ref if ref > 0 else err)
    return ExperimentRecord("closed-equivalence", value=worst, tolerance=checks.EXACT_RTOL,
                            seed=seed, inputs_digest=digest_inputs(dims=dims, trials=trials,
                                                                   seed=seed))


def _fixed_point_sharing_per_trial(seed, nx, nu, trials):
    worst = 0.0
    for covs, rng, nu in _stacks(seed, [(nx, nu)], trials):
        k = len(covs.sigma)
        keys, mixes = rng.random((k, nx)), rng.standard_normal((k, nu, nu))
        perturbations = rng.standard_normal((k, nu, nx))
        for cov, key, mix, perturbation in zip(covs, keys, mixes, perturbations):
            pick = np.argsort(key)[:nu]  # nu distinct indices, uniformly
            q, _ = np.linalg.qr(mix)
            w_fp = q @ cov.eigvecs[:, pick].T
            sigma_scale = float(np.linalg.norm(cov.sigma))
            oja_norm = float(np.linalg.norm(oja_update_closed(w_fp, cov)))
            eghr_norm = float(np.linalg.norm(eghr_update_closed(w_fp, cov)))
            worst = max(worst, oja_norm / sigma_scale, eghr_norm / sigma_scale**2)
            w_near = w_fp + 1e-6 * perturbation
            oja_n = float(np.linalg.norm(oja_update_closed(w_near, cov)))
            eghr_n = float(np.linalg.norm(eghr_update_closed(w_near, cov)))
            lam_min, lam_max = cov.eigvals[-1], cov.eigvals[0]
            sandwich = max(lam_min * oja_n - eghr_n, eghr_n - lam_max * oja_n, 0.0)
            worst = max(worst, sandwich / (lam_max * oja_n) if oja_n > 0 else sandwich)
    digest = digest_inputs(nx=nx, nu=nu, trials=trials, seed=seed)
    return ExperimentRecord("fixed-point-sharing", value=worst, tolerance=checks.EXACT_RTOL,
                            seed=seed, inputs_digest=digest)


def _coefficient_identity_per_trial(seed, dims, trials):
    coeff_err = cancel_err = scale = 0.0
    for covs, rng, nu in _stacks(seed, dims, trials):
        k, nx = len(covs.sigma), covs.dim
        ws, xs = rng.uniform(-1.0, 1.0, size=(k, nu, nx)), rng.standard_normal((k, nx))
        for cov, w, x in zip(covs, ws, xs):
            g = eghr_g(x, w, cov)
            residual = np.eye(nx) - w.T @ w
            xi = frame_element(x, cov)
            c = frame_coefficient(cov.sigma @ residual @ cov.sigma, xi, cov)
            cc = cancellation_coefficient(residual, xi)
            coeff_err = max(coeff_err, abs(c - g))
            cancel_err = max(cancel_err, abs(cc - c))
            scale = max(scale, abs(g))
    digest = digest_inputs(dims=dims, trials=trials, seed=seed)
    return tuple(
        ExperimentRecord(name, value=err / scale, tolerance=checks.EXACT_RTOL, seed=seed,
                         inputs_digest=digest)
        for name, err in (("coefficient-identity", coeff_err),
                          ("cancellation-identity", cancel_err))
    )


_SWEEP_DIMS = [dim_sweep(max_nx=8), [(32, 4)]]


# Two stacks at nx=32, and one trial past a stack at the sweep's first nx.
@pytest.mark.parametrize("trials", [37, 2 * checks.sweep_stack_trials(32),
                                    len(_SWEEP_DIMS[0]) * checks.sweep_stack_trials(2) + 1])
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


def test_sweeps_run_no_eigendecomposition(monkeypatch):
    # Each sweep and stein-identity covariance is built from its drawn
    # spectrum; only a user-given covariance (build_covariance) is decomposed.
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append(1) or eigh(*a))
    build_covariance(np.eye(2))
    assert calls == [1]
    dims = dim_sweep(max_nx=8)
    checks.closed_equivalence_check(3, dims, 40)
    checks.fixed_point_sharing_check(3, 5, 2, 40)
    checks.coefficient_identity_checks(3, dims, 40)
    checks.stein_identity_check(3)
    assert calls == [1]


def test_each_sweep_builds_one_generator(monkeypatch):
    # Every trial of a sweep draws from the sweep's one generator.
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: calls.append(1) or default_rng(*a))
    dims = dim_sweep(max_nx=8)
    for sweep in (lambda: checks.closed_equivalence_check(3, dims, 40),
                  lambda: checks.fixed_point_sharing_check(3, 5, 2, 40),
                  lambda: checks.coefficient_identity_checks(3, dims, 40)):
        calls.clear()
        sweep()
        assert len(calls) == 1


def _kernel_annihilation_per_trial(cov, s, seed, trials):
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        k = skew_part(rng.standard_normal((cov.dim, cov.dim)))
        ratios.append(np.linalg.norm(s @ vecs(k)) / (np.linalg.norm(s) * np.linalg.norm(k)))
    return max(ratios)


def _restricted_inverse_per_trial(cov, s, seed, trials):
    rng = np.random.default_rng(seed)
    resids = []
    for _ in range(trials):
        m = sym_part(rng.standard_normal((cov.dim, cov.dim)))
        resids.append(np.linalg.norm(s @ vecs(restricted_inverse_apply(cov, m)) - vecs(m))
                      / np.linalg.norm(m))
    return max(resids)


@pytest.mark.parametrize("check,per_trial", [
    (checks.kernel_annihilation_check, _kernel_annihilation_per_trial),
    (checks.restricted_inverse_check, _restricted_inverse_per_trial),
])
def test_batched_s_products_equal_per_trial_loops_on_a_wrong_operator(monkeypatch, check,
                                                                      per_trial):
    # Sigma kron Sigma without (I + T) neither kills skew matrices nor inverts
    # S^-1 on Sym: both checks read O(1), and the one product over all trials
    # reads what the per-trial loop reads, to roundoff.
    cov = build_covariance(random_spd(5, (0.5, 2.0), seed=7))
    wrong = np.kron(cov.sigma, cov.sigma)
    monkeypatch.setattr(checks, "frame_operator_analytic", lambda c: wrong)
    record = check(cov, 13, 37)
    want = per_trial(cov, wrong, 13, 37)
    assert want > 0.1 and not record.passed
    assert record.value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("loosen", [
    lambda b, lam: (float(lam[-1] ** 2), b[1], b[2]),
    lambda b, lam: (b[0], float(3 * lam[0] ** 2), b[2]),
], ids=["lower", "upper"])
def test_frame_bounds_fails_on_bounds_that_are_not_attained(monkeypatch, loosen):
    # lambda_min^2 and 3 lambda_max^2 still bound every random quadratic form
    # and keep the tight bound below the trace bound; only the forms at
    # Sigma's extreme eigenvectors, which attain the true bounds, catch them.
    cov = build_covariance(random_spd(4, (0.5, 2.0), seed=42))
    assert checks.frame_bounds_check(cov, 42).passed
    loose = loosen(checks.frame_bounds(cov), cov.eigvals)
    assert loose[1] <= loose[2]  # upper_tight <= upper_trace
    monkeypatch.setattr(checks, "frame_bounds", lambda c: loose)
    assert not checks.frame_bounds_check(cov, 42).passed


@pytest.mark.parametrize("nx", [4, 32])
def test_frame_bounds_passes_on_a_wide_spectrum(nx):
    # The forms' roundoff grows with lambda_max^2 (about 1e-7 at 2e8 here);
    # the gaps are relative to upper_tight, so a correct S still passes.
    cov = build_covariance(random_spd(nx, (1.0, 1e4), seed=42))
    record = checks.frame_bounds_check(cov, 42)
    assert record.passed and record.value < 1e-13


def test_frame_bounds_pins_the_trace_bound_to_tr_s(monkeypatch):
    # A trace bound that still lies above the tight one, but is not tr S.
    real = checks.frame_bounds

    def loose(cov):
        lower, upper_tight, upper_trace = real(cov)
        return lower, upper_tight, upper_trace + float(np.sum(cov.sigma**2))

    monkeypatch.setattr(checks, "frame_bounds", loose)
    cov = build_covariance(random_spd(4, (0.5, 2.0), seed=42))
    assert not checks.frame_bounds_check(cov, 42).passed


def _nan_at(fn, item):
    """fn with its output for trial ``item`` of every stack (modulo the
    stack's length) set to NaN."""
    def patched(*args):
        out = np.array(fn(*args), dtype=float)
        out[item % len(out)] = np.nan
        return out
    return patched


def _assert_fails_on_nan(record):
    assert not record.passed
    assert record.value == NONFINITE_VALUE


@pytest.mark.parametrize("rule", ["oja_update_closed", "eghr_update_closed"])
def test_fixed_point_sharing_fails_on_a_nan_closed_form(monkeypatch, rule):
    monkeypatch.setattr(checks, rule, _nan_at(getattr(checks, rule), 7))
    _assert_fails_on_nan(checks.fixed_point_sharing_check(3, 5, 2, 50))


def test_closed_equivalence_fails_on_a_nan_closed_form(monkeypatch):
    monkeypatch.setattr(checks, "eghr_update_closed", _nan_at(checks.eghr_update_closed, 3))
    _assert_fails_on_nan(checks.closed_equivalence_check(3, dim_sweep(max_nx=8), 200))


def test_coefficient_and_cancellation_identities_fail_on_a_nan_coefficient(monkeypatch):
    monkeypatch.setattr(checks, "frame_coefficient", _nan_at(checks.frame_coefficient, 3))
    for record in checks.coefficient_identity_checks(3, dim_sweep(max_nx=8), 200):
        _assert_fails_on_nan(record)


def test_coefficient_identities_fail_on_all_nan_gains(monkeypatch):
    # The scale, the largest gain, is NaN too: no division by zero.
    monkeypatch.setattr(checks, "eghr_g", lambda x, w, cov: np.full(len(x), np.nan))
    for record in checks.coefficient_identity_checks(3, dim_sweep(max_nx=8), 200):
        _assert_fails_on_nan(record)


def test_frame_bounds_fails_on_a_nan_operator(monkeypatch):
    cov = build_covariance(random_spd(4, (0.5, 2.0), seed=42))
    nan_s = np.full((16, 16), np.nan)
    monkeypatch.setattr(checks, "frame_operator_analytic", lambda c: nan_s)
    _assert_fails_on_nan(checks.frame_bounds_check(cov, 42))


def test_a_nan_check_exits_1_and_writes_its_record(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(checks, "frame_coefficient", _nan_at(checks.frame_coefficient, 0))
    code = main(["frame-check", "--checks", "coefficient-identity", "--out", str(tmp_path)])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    (record,) = read_records_csv(tmp_path / "frame_check.csv")
    _assert_fails_on_nan(record)
