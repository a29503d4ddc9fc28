"""Named, seeded verification checks.

Each check distills one identity or convergence claim into a single
ExperimentRecord: worst observed violation vs a pinned tolerance. Exact
identities use roundoff-level tolerances. Most Monte-Carlo comparisons use
4-standard-error bands or the fitted 1/sqrt(n) rate; isserlis-empirical
(MC_FROBENIUS_RTOL) and derivation-mc-target (frames.MC_TARGET_RTOL) still
use a fixed 5% relative tolerance, which sampling noise can cross at small n.
stein-identity draws one batch per dimension and checks every built-in test
function on it. It runs at gaussian.STEIN_MIN_SAMPLES rows; run_checks
rejects a smaller --samples before any check runs.

The sweeps over random (Sigma, W[, x]) trials draw each trial's covariance
seed and its other values from one generator, trial after trial, and build
the covariances in stacks of SWEEP_BLOCK trials (``linalg.build_covariances``);
the trials then run through the rules' unchecked kernels and the frames' coefficients.

``COMMANDS`` is the one table of the check commands: each one's records CSV,
report group and runners, in CSV order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .frames import (
    ExpansionMean,
    OperatorMean,
    cancellation_coefficient,
    derive_eghr_from_oja,
    frame_bounds,
    frame_coefficient,
    frame_element,
    frame_operator_analytic,
    frame_operator_empirical,
    restricted_inverse_apply,
)
from .gaussian import (
    STEIN_MIN_SAMPLES,
    derive_seed,
    isserlis_fourth_moment,
    monomial_exponents,
    require_stein_samples,
    sample,
    stein_check,
)
from .linalg import (
    build_covariance,
    build_covariances,
    random_spd,
    random_spds,
    skew_part,
    sym_part,
    vec,
)
from .records import ExperimentRecord, timed_record
from .rules import (
    EghrMean,
    OjaMean,
    _closed_center,
    _eghr_closed,
    _eghr_g,
    _oja_closed,
    eghr_update_closed,
    oja_update_closed,
)

# Eigenvalue range for the random covariances drawn inside sweep checks.
SWEEP_EIG_RANGE = (0.5, 2.0)

EXACT_RTOL = 1e-12
BOUND_ATOL = 1e-10
RESTRICTED_INVERSE_RTOL = 1e-10
MC_FROBENIUS_RTOL = 5e-2
SLOPE_REFERENCE = -0.5
SLOPE_HALF_WIDTH = 0.15
RATE_SAMPLE_GRID = (10**3, 10**4, 10**5, 10**6)


def dim_sweep(max_nx: int = 8, min_nx: int = 2, seed: int = 0) -> list[tuple[int, int]]:
    """(nx, nu) pairs cycling nx through [min_nx, max_nx] with random nu <= nx."""
    rng = np.random.default_rng(seed)
    return [
        (nx, int(rng.integers(1, nx + 1)))
        for nx in range(min_nx, max_nx + 1)
    ]


# Trials per stacked covariance build in a sweep: few enough to keep the
# stacks small, enough to share most of the per-call cost. Built one trial at
# a time, the frame-wide benchmark's frame-check (nx=32) peaked at 72.9 MB;
# one 1000-trial stack took it to 98.5 MB, 64-trial blocks 75.8, 16-trial 73.2.
SWEEP_BLOCK = 16


def _sweep(seed: int, dims: list[tuple[int, int]], trials: int, draw):
    """Yield (cov, drawn) for trials k = 0..trials-1 at (nx, nu) =
    dims[k % len(dims)]: a random covariance, then draw(rng, nx, nu), both from
    one rng = default_rng(seed) in per-trial order. The covariances are built
    SWEEP_BLOCK trials at a time, one stack per nx, as a dim sweep mixes sizes.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, trials, SWEEP_BLOCK):
        block = []
        for k in range(start, min(start + SWEEP_BLOCK, trials)):
            nx, nu = dims[k % len(dims)]
            block.append((nx, int(rng.integers(2**63)), draw(rng, nx, nu)))
        covs = [None] * len(block)
        for nx in dict.fromkeys(t[0] for t in block):
            at = [i for i, t in enumerate(block) if t[0] == nx]
            stack = random_spds(nx, SWEEP_EIG_RANGE, [block[i][1] for i in at])
            for i, cov in zip(at, build_covariances(stack)):
                covs[i] = cov
        yield from zip(covs, (drawn for _, _, drawn in block))


def _draw_weights(rng, nx: int, nu: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=(nu, nx))


def _draw_weights_and_seed(rng, nx: int, nu: int):
    return _draw_weights(rng, nx, nu), int(rng.integers(2**63))


def _draw_fixed_point(rng, nx: int, nu: int):
    """The eigenvector subset, its mixing and the perturbation, in that order."""
    return (rng.choice(nx, size=nu, replace=False), rng.standard_normal((nu, nu)),
            rng.standard_normal((nu, nx)))


def closed_equivalence_check(
    seed: int, dims: list[tuple[int, int]], trials: int = 1000
) -> ExperimentRecord:
    """Worst relative gap between the closed-form error-gated update and the
    Sigma-postmultiplied subspace update over random (W, Sigma) pairs."""
    t0 = time.perf_counter()
    eyes = {nx: np.eye(nx) for nx, _ in dims}
    worst = 0.0
    for cov, w in _sweep(seed, dims, trials, _draw_weights):
        eye = eyes[cov.dim]
        lhs = _eghr_closed(w, cov.sigma, eye)
        rhs = _oja_closed(w, cov.sigma, eye) @ cov.sigma
        ref = float(np.linalg.norm(rhs))
        err = float(np.linalg.norm(lhs - rhs))
        worst = max(worst, err / ref if ref > 0 else err)
    return timed_record("closed-equivalence", worst, EXACT_RTOL, seed, t0,
                        dims=dims, trials=trials)


def fixed_point_sharing_check(
    seed: int, nx: int = 5, nu: int = 2, trials: int = 50
) -> ExperimentRecord:
    """Both rules vanish at constructed fixed points (orthonormally mixed
    eigenvector subsets), and near fixed points the update norms stay inside
    the eigenvalue sandwich |oja| * lambda_min <= |eghr| <= |oja| * lambda_max
    that forces either rule to vanish exactly when the other does."""
    t0 = time.perf_counter()
    eye = np.eye(nx)
    worst = 0.0
    for cov, (pick, mix, perturbation) in _sweep(seed, [(nx, nu)], trials, _draw_fixed_point):
        q, _ = np.linalg.qr(mix)
        w_fp = q @ cov.eigvecs[:, pick].T
        sigma_scale = float(np.linalg.norm(cov.sigma))

        oja_norm = float(np.linalg.norm(_oja_closed(w_fp, cov.sigma, eye)))
        eghr_norm = float(np.linalg.norm(_eghr_closed(w_fp, cov.sigma, eye)))
        worst = max(worst, oja_norm / sigma_scale, eghr_norm / sigma_scale**2)

        w_near = w_fp + 1e-6 * perturbation
        oja_n = float(np.linalg.norm(_oja_closed(w_near, cov.sigma, eye)))
        eghr_n = float(np.linalg.norm(_eghr_closed(w_near, cov.sigma, eye)))
        lam_min, lam_max = cov.eigvals[-1], cov.eigvals[0]
        sandwich = max(lam_min * oja_n - eghr_n, eghr_n - lam_max * oja_n, 0.0)
        worst = max(worst, sandwich / (lam_max * oja_n) if oja_n > 0 else sandwich)
    return timed_record("fixed-point-sharing", worst, EXACT_RTOL, seed, t0,
                        nx=nx, nu=nu, trials=trials)


def stein_identity_check(
    seed: int, n: int, dims: tuple[int, ...] = (1, 2, 4)
) -> ExperimentRecord:
    """Integration-by-parts identity for every built-in test function on a
    random SPD covariance per dimension; value is the worst ratio of observed
    discrepancy to its 4-standard-error band (must stay below 1). All test
    functions of a dimension read one batch, drawn from child seed
    1000 + dim."""
    t0 = time.perf_counter()
    worst = 0.0
    for dim in dims:
        cov = build_covariance(random_spd(dim, SWEEP_EIG_RANGE, seed=derive_seed(seed, dim)))
        for rec in stein_check(cov, monomial_exponents(dim), n, derive_seed(seed, 1000 + dim)):
            worst = max(worst, rec.value / rec.tolerance)
    return timed_record("stein-identity", worst, 1.0, seed, t0, dims=dims, n=n)


def frame_bounds_check(cov, seed: int, trials: int = 1000) -> ExperimentRecord:
    """Two-sided frame condition on random unit vectors in vec(Sym), plus the
    ordering of the tight spectral bound below the trace bound."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    s = frame_operator_analytic(cov)
    b = frame_bounds(cov)
    g = rng.standard_normal((trials, cov.dim, cov.dim))
    # Row k is vec(2 sym_part(g[k])); C and F order agree on a symmetric matrix.
    v = (g + g.transpose(0, 2, 1)).reshape(trials, -1)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    quad = np.einsum("ij,ij->i", v @ s, v)  # all quadratic forms in one GEMM
    worst = max(0.0, b.upper_tight - b.upper_trace,
                float(b.lower - quad.min()), float(quad.max() - b.upper_tight))
    return timed_record("frame-bounds", worst, BOUND_ATOL, seed, t0, nx=cov.dim, trials=trials)


def kernel_annihilation_check(cov, seed: int, trials: int = 100) -> ExperimentRecord:
    """The analytic operator kills vectorized skew matrices: worst of
    |S vec(K)| / (|S| |K|) over random skew K."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    s = frame_operator_analytic(cov)
    s_scale = float(np.linalg.norm(s))
    worst = 0.0
    if cov.dim > 1:  # the skew part of a scalar is identically zero
        for _ in range(trials):
            k = skew_part(rng.standard_normal((cov.dim, cov.dim)))
            ratio = float(np.linalg.norm(s @ vec(k))) / (
                s_scale * float(np.linalg.norm(k))
            )
            worst = max(worst, ratio)
    return timed_record("kernel-annihilation", worst, EXACT_RTOL, seed, t0,
                        nx=cov.dim, trials=trials)


def restricted_inverse_check(cov, seed: int, trials: int = 100) -> ExperimentRecord:
    """S vec(S^-1 M) = vec(M) on Sym: worst relative residual over random
    symmetric directions M."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    s = frame_operator_analytic(cov)
    worst = 0.0
    for _ in range(trials):
        m = sym_part(rng.standard_normal((cov.dim, cov.dim)))
        resid = float(np.linalg.norm(s @ vec(restricted_inverse_apply(cov, m)) - vec(m)))
        worst = max(worst, resid / float(np.linalg.norm(m)))
    return timed_record("restricted-inverse", worst, RESTRICTED_INVERSE_RTOL, seed, t0,
                        nx=cov.dim, trials=trials)


def coefficient_identity_checks(
    seed: int, dims: list[tuple[int, int]], trials: int = 1000
) -> tuple[ExperimentRecord, ExperimentRecord]:
    """Over random (W, Sigma, x) triples: the frame coefficient of
    Sigma (I - W^T W) Sigma equals the error-gated gain, and the S-free
    cancellation form equals the frame coefficient.

    Errors are normalized by the largest gain magnitude over the triple set;
    the gain crosses zero on individual triples, so a per-triple denominator
    would measure cancellation, not implementation error.
    """
    t0 = time.perf_counter()
    coeff_err = 0.0
    cancel_err = 0.0
    scale = 0.0
    eyes = {nx: np.eye(nx) for nx, _ in dims}
    for cov, (w, x_seed) in _sweep(seed, dims, trials, _draw_weights_and_seed):
        x = sample(cov, 1, x_seed).data[0]
        residual = eyes[cov.dim] - w.T @ w
        xi = frame_element(x, cov)
        g = _eghr_g(x, w, _closed_center(w, cov.sigma))
        c = frame_coefficient(cov.sigma @ residual @ cov.sigma, xi, cov)
        cc = cancellation_coefficient(residual, xi)
        coeff_err = max(coeff_err, abs(c - g))
        cancel_err = max(cancel_err, abs(cc - c))
        scale = max(scale, abs(g))
    return tuple(
        timed_record(name, err / scale, EXACT_RTOL, seed, t0, dims=dims, trials=trials)
        for name, err in (("coefficient-identity", coeff_err),
                          ("cancellation-identity", cancel_err))
    )


def isserlis_checks(cov, seed: int, n: int, names=None) -> tuple[ExperimentRecord, ...]:
    """The analytic fourth moment minus its rank-one mean term must equal the
    analytic frame operator to roundoff, and the empirical operator must land
    within 5% relative Frobenius error at large n. The empirical half, with
    its n-sample draw, runs only if ``names`` (default: all) asks for it."""
    t0 = time.perf_counter()
    s = frame_operator_analytic(cov)
    s_scale = float(np.linalg.norm(s))
    m4 = isserlis_fourth_moment(cov)
    vs = vec(cov.sigma)
    analytic_gap = float(np.linalg.norm(m4 - np.outer(vs, vs) - s)) / s_scale
    analytic = timed_record("isserlis-analytic", analytic_gap, EXACT_RTOL, seed, t0,
                            nx=cov.dim, n=n)
    if names is not None and "isserlis-empirical" not in names:
        return (analytic,)
    s_emp = frame_operator_empirical(sample(cov, n, seed))
    gap = float(np.linalg.norm(s_emp - s)) / s_scale
    empirical = timed_record("isserlis-empirical", gap, MC_FROBENIUS_RTOL, seed, t0,
                             nx=cov.dim, n=n)
    return analytic, empirical


_RATE_KINDS = ("oja", "eghr", "frame-operator", "frame-expansion")


def mc_rate_check(
    kinds: tuple[str, ...],
    cov,
    nu: int,
    seed: int,
    ns: tuple[int, ...] = RATE_SAMPLE_GRID,
    replicates: int = 3,
) -> tuple[ExperimentRecord, ...]:
    """Fit, per kind, the log-log slope of empirical-vs-closed-form error
    against sample count; a healthy Monte-Carlo estimator sits near -1/2.

    The kinds share batches: they use one W and one child-seed schedule, and
    each chunk of a batch is drawn once and fed to the running sum of every
    requested kind. Each record equals the one a single-kind call gives,
    except wall_time_ms, which covers the whole pass.
    """
    kinds = tuple(kinds)
    if not kinds or len(set(kinds)) != len(kinds) or not set(kinds) <= set(_RATE_KINDS):
        raise ValueError(f"expected distinct rate kinds from {_RATE_KINDS}, got {kinds!r}")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, size=(nu, cov.dim))
    ref = {}
    if "oja" in kinds:
        ref["oja"] = oja_update_closed(w, cov)
    if "eghr" in kinds:
        ref["eghr"] = eghr_update_closed(w, cov)
    if "frame-operator" in kinds:
        ref["frame-operator"] = frame_operator_analytic(cov)
    if "frame-expansion" in kinds:
        ref["frame-expansion"] = cov.sigma @ (np.eye(cov.dim) - w.T @ w) @ cov.sigma
    running_sum = {
        "oja": lambda: OjaMean(w),
        "eghr": lambda: EghrMean(w),
        "frame-operator": lambda: OperatorMean(cov),
        "frame-expansion": lambda: ExpansionMean(ref["frame-expansion"], cov),
    }

    rmse = {kind: [] for kind in kinds}
    counter = 0
    for n in ns:
        sq = dict.fromkeys(kinds, 0.0)
        for _ in range(replicates):
            batch = sample(cov, n, derive_seed(seed, counter))
            counter += 1
            estimates = batch.feed(*(running_sum[kind]() for kind in kinds))
            for kind, est in zip(kinds, estimates):
                sq[kind] += float(np.linalg.norm(est - ref[kind])) ** 2
        for kind in kinds:
            rmse[kind].append(np.sqrt(sq[kind] / replicates))
    return tuple(
        timed_record(f"mc-rate-{kind}",
                     float(np.polyfit(np.log10(ns), np.log10(rmse[kind]), 1)[0]),
                     SLOPE_HALF_WIDTH, seed, t0, SLOPE_REFERENCE,
                     kind=kind, nx=cov.dim, nu=nu, ns=ns)
        for kind in kinds
    )


def derivation_checks(cov, nu: int, seed: int, n: int) -> tuple[ExperimentRecord, ...]:
    """Run the full numerical derivation chain on one random weight matrix."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, size=(nu, cov.dim))
    batch = sample(cov, n, derive_seed(seed, 7))
    return derive_eghr_from_oja(w, cov, batch).records


# ---------------------------------------------------------------------------
# Command table: each check command's records CSV, report group and runners
# in CSV order. A runner(config, cov, requested names) -> records yields the
# check names listed with it, and reads the run's one covariance.

def _runner_mc(config: RunConfig, cov, names):
    kinds = tuple(n[len("mc-rate-"):] for n in names if n.startswith("mc-rate-"))
    return mc_rate_check(kinds, cov, config.nu, config.seed)


@dataclass(frozen=True)
class CheckCommand:
    csv_name: str
    group: str
    runners: tuple  # (check names, runner) pairs

    @property
    def checks(self) -> list[str]:
        return [name for names, _ in self.runners for name in names]


COMMANDS = {
    "equivalence": CheckCommand("equivalence.csv", "learning-rule identities", (
        (["closed-equivalence"],
         lambda c, cov, names: [closed_equivalence_check(c.seed, dims=[(c.nx, c.nu)])]),
        (["fixed-point-sharing"],
         lambda c, cov, names: [fixed_point_sharing_check(c.seed, nx=c.nx, nu=c.nu)]),
        (["stein-identity"],
         lambda c, cov, names: [stein_identity_check(c.seed, n=STEIN_MIN_SAMPLES)]),
        (["mc-rate-oja", "mc-rate-eghr"], _runner_mc),
    )),
    "frame-check": CheckCommand("frame_check.csv", "frame machinery", (
        (["frame-bounds"], lambda c, cov, names: [frame_bounds_check(cov, c.seed)]),
        (["kernel-annihilation"], lambda c, cov, names: [kernel_annihilation_check(cov, c.seed)]),
        (["restricted-inverse"], lambda c, cov, names: [restricted_inverse_check(cov, c.seed)]),
        (["coefficient-identity", "cancellation-identity"],
         lambda c, cov, names: coefficient_identity_checks(c.seed, dims=[(c.nx, c.nu)])),
        (["isserlis-analytic", "isserlis-empirical"],
         lambda c, cov, names: isserlis_checks(cov, c.seed, c.n_samples, names=names)),
        (["mc-rate-frame-operator", "mc-rate-frame-expansion"], _runner_mc),
        (["derivation-chain-agreement", "derivation-mc-target"],
         lambda c, cov, names: derivation_checks(cov, c.nu, c.seed, c.n_samples)),
    )),
}
# Each check name's runner and group; _runner_mc, shared by both commands,
# runs once for any set of mc-rate-* names, so their kinds share batches.
_BY_CHECK = {name: (runner, command.group) for command in COMMANDS.values()
             for names, runner in command.runners for name in names}


def run_checks(config: RunConfig, cov, names: list[str]) -> list[ExperimentRecord]:
    """Run the runners behind the requested check names (each runner once) on
    the run's covariance ``cov``, keep only the requested records, and stamp
    report groups."""
    if "stein-identity" in names:
        require_stein_samples(config.n_samples)
    records = []
    for runner in dict.fromkeys(_BY_CHECK[name][0] for name in names):
        records.extend(runner(config, cov, names))
    records = [r for r in records if r.check_name in names]
    for r in records:
        r.group = _BY_CHECK[r.check_name][1]
    return records
