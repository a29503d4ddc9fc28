"""Named, seeded verification checks.

Each check distills one identity or convergence claim into a single
ExperimentRecord: worst observed violation vs a pinned tolerance. Every
record and tolerance is made here (``gaussian`` and ``frames`` return
arrays), and ``run_checks`` times each runner. Exact identities use
roundoff-level tolerances. The mc-rate-* checks fit the 1/sqrt(n) rate;
isserlis-empirical (MC_FROBENIUS_RTOL) and derivation-mc-target
(MC_TARGET_RTOL) use a fixed 5% relative tolerance, which sampling noise
can cross at small n. stein-identity draws nothing: it checks every
built-in test function on the exact degree-5 cubature rule of each of its
covariances (``gaussian.cubature``), so it reads no --samples.

Every Monte-Carlo check of a command reads the command's one
``MonteCarloBatches``: RATE_BATCHES batches of --samples rows, each read in
one pass by every estimator the selected checks need. A rate check cuts each
batch into disjoint consecutive blocks of n/1000, n/100, n/10 and n rows
(``BlockSums``) and fits the slope of the RMSE over all blocks of each size
against the block size; mc-rate-frame-operator scores each block on the h x h
half form of S, h = nx(nx+1)/2 (``frames.OperatorMean``). isserlis-empirical
and derivation-* read batch 0, whose operator and expansion sums the rate
checks share. The rate checks need
RATE_MIN_SAMPLES rows; run_checks rejects a smaller --samples before any
check runs.

The sweeps over random (Sigma, W[, x]) trials run shape after shape in
stacks (``sweep_stack_trials``), each drawn as arrays from the sweep's one
generator: its covariances, built from their drawn spectra with no
eigendecomposition and no residual gate (``linalg.random_covariances``, as
stein-identity's are; only the command's one covariance meets the gates, in
``linalg.build_covariance``), then its other values. The rules' closed forms
and the frames' coefficients take the whole stack in one call, which gives
each trial the bits of a call on it alone. Every check takes its worst gap with
``_worst_gap``, which keeps a NaN, and a NaN or infinite value fails its
check (``records.check_record``) instead of passing or ending the run.

``COMMANDS`` is the one table of the check commands: each one's records CSV,
report group and runners, in CSV order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import SampleSizeError
from .frames import (
    ExpansionMean,
    OperatorMean,
    cancellation_coefficient,
    derive_eghr_from_oja,
    frame_bounds,
    frame_coefficient,
    frame_element,
    frame_operator_analytic,
    operator_half,
    restricted_inverse_apply,
)
from .gaussian import (
    RunningSum,
    chunk_schedule,
    derive_seed,
    isserlis_fourth_moment,
    merge_sums,
    monomial_exponents,
    sample,
    stein_check,
)
from .linalg import (
    frobenius,
    matrix_transpose,
    random_covariances,
    require_memory,
    skew_part,
    sym_part,
    vecs,
)
from .records import ExperimentRecord, check_record
from .rules import (
    EghrMean,
    OjaMean,
    closed_center,
    eghr_g,
    eghr_update_closed,
    expansion_target,
    oja_update_closed,
)

# Eigenvalue range for the random covariances drawn inside sweep checks.
SWEEP_EIG_RANGE = (0.5, 2.0)

EXACT_RTOL = 1e-12
STEIN_RTOL = 1e-12
CHAIN_AGREEMENT_RTOL = 1e-12
MC_TARGET_RTOL = 5e-2
BOUND_RTOL = 1e-10
RESTRICTED_INVERSE_RTOL = 1e-10
MC_FROBENIUS_RTOL = 5e-2
SLOPE_REFERENCE = -0.5
SLOPE_HALF_WIDTH = 0.15


# A sweep stack holds as many trials as SWEEP_STACK_BYTES of nx x nx matrices,
# 16 at nx=32, but at most SWEEP_STACK_TRIALS. The frame-wide benchmark's
# frame-check (nx=32) peaked at 72.9 MB built one trial at a time, 75.8 MB
# with 64-trial stacks and 73.2 MB with 16-trial ones. At nx=4 on a 2-CPU
# host, 64-trial stacks ran the sweeps as fast as one 1000-trial stack, which
# raised frame-check's default peak by 1.6 MB.
SWEEP_STACK_BYTES = 16 * 32 * 32 * 8
SWEEP_STACK_TRIALS = 64
# frame-bounds forms its quadratic forms over blocks of about this many bytes
# of unit vectors: 256 at nx=32, every trial at nx <= 16. Each block's product
# packs S again; at nx=32 on one BLAS thread, 16-row blocks cost 60 ms over
# one product, 64-row blocks 13 ms and 256-row blocks 3 ms.
FRAME_BOUNDS_BLOCK_BYTES = 2 << 20


def _worst_gap(*gaps) -> np.float64:
    """The largest entry of the gaps (numbers or arrays of any shape) and 0;
    NaN if any entry is NaN, which Python's max would drop."""
    return np.max([np.max(g, initial=0.0) for g in gaps], initial=0.0)


def sweep_stack_trials(nx: int) -> int:
    """Trials per stack of a sweep at nx."""
    return min(SWEEP_STACK_TRIALS, max(1, SWEEP_STACK_BYTES // (8 * nx**2)))


def _sweep(seed: int, dims: list[tuple[int, int]], trials: int, draw):
    """Yield the trials k = 0..trials-1 at (nx, nu) = dims[k % len(dims)],
    shape after shape, as stacks of ``sweep_stack_trials(nx)`` (covs, drawn):
    the stack's covariance model and then the tuple of arrays draw(rng, k, nx,
    nu) gives for its k trials, both with a leading trial axis and drawn from
    the one rng = default_rng(seed)."""
    rng = np.random.default_rng(seed)
    for i, (nx, nu) in enumerate(dims):
        count, per = len(range(i, trials, len(dims))), sweep_stack_trials(nx)
        for start in range(0, count, per):
            k = min(per, count - start)
            yield random_covariances(rng, k, nx, SWEEP_EIG_RANGE), draw(rng, k, nx, nu)


def _draw_weights(rng, k: int, nx: int, nu: int):
    return (rng.uniform(-1.0, 1.0, size=(k, nu, nx)),)


def _draw_weights_and_x(rng, k: int, nx: int, nu: int):
    return *_draw_weights(rng, k, nx, nu), rng.standard_normal((k, nx))


def _draw_fixed_point(rng, k: int, nx: int, nu: int):
    """The eigenvector subsets (nu distinct indices), mixings and perturbations."""
    return (np.argsort(rng.random((k, nx)), axis=1)[:, :nu], rng.standard_normal((k, nu, nu)),
            rng.standard_normal((k, nu, nx)))


def closed_equivalence_check(
    seed: int, dims: list[tuple[int, int]], trials: int = 1000
) -> ExperimentRecord:
    """Worst relative gap between the closed-form error-gated update and the
    Sigma-postmultiplied subspace update over random (W, Sigma) pairs."""
    gaps = []
    for covs, (w,) in _sweep(seed, dims, trials, _draw_weights):
        lhs = eghr_update_closed(w, covs)
        rhs = oja_update_closed(w, covs) @ covs.sigma
        ref = frobenius(rhs)
        gaps.append(frobenius(lhs - rhs) / np.where(ref > 0, ref, 1.0))
    return check_record("closed-equivalence", _worst_gap(*gaps), EXACT_RTOL, seed,
                        dims=dims, trials=trials)


def fixed_point_sharing_check(
    seed: int, nx: int = 5, nu: int = 2, trials: int = 50
) -> ExperimentRecord:
    """Both rules vanish at constructed fixed points (orthonormally mixed
    eigenvector subsets), and near fixed points the update norms stay inside
    the eigenvalue sandwich |oja| * lambda_min <= |eghr| <= |oja| * lambda_max
    that forces either rule to vanish exactly when the other does. The
    eigenvectors are the columns of each covariance's drawn Q."""
    gaps = []
    for covs, (pick, mix, perturbation) in _sweep(seed, [(nx, nu)], trials, _draw_fixed_point):
        q, _ = np.linalg.qr(mix)
        w_fp = q @ matrix_transpose(np.take_along_axis(covs.eigvecs, pick[:, None, :], axis=2))
        sigma_scale = frobenius(covs.sigma)
        # float_power is libm's pow, as a float's ** is; an array's ** squares,
        # which differs from pow in the last bit on about 1 value in 1000.
        gaps += [frobenius(oja_update_closed(w_fp, covs)) / sigma_scale,
                 frobenius(eghr_update_closed(w_fp, covs)) / np.float_power(sigma_scale, 2)]

        w_near = w_fp + 1e-6 * perturbation
        oja_n = frobenius(oja_update_closed(w_near, covs))
        eghr_n = frobenius(eghr_update_closed(w_near, covs))
        lam_min, lam_max = covs.eigvals[:, -1], covs.eigvals[:, 0]
        sandwich = np.maximum(np.maximum(lam_min * oja_n - eghr_n, eghr_n - lam_max * oja_n), 0.0)
        gaps.append(sandwich / np.where(oja_n > 0, lam_max * oja_n, 1.0))
    return check_record("fixed-point-sharing", _worst_gap(*gaps), EXACT_RTOL, seed,
                        nx=nx, nu=nu, trials=trials)


def stein_identity_check(seed: int, dims: tuple[int, ...] = (1, 2, 4)) -> ExperimentRecord:
    """Integration-by-parts identity for every built-in test function on a
    random SPD covariance per dimension, drawn like a sweep's from child seed
    dim; value is the worst ratio, over every function and component, of the
    gap between both sides to its roundoff tolerance, STEIN_RTOL times the
    terms' scale (must stay below 1). Both sides are exact cubature sums
    (``gaussian.stein_check``), so nothing is sampled."""
    ratios = []
    for dim in dims:
        cov = random_covariances(np.random.default_rng(derive_seed(seed, dim)), 1, dim,
                                 SWEEP_EIG_RANGE)[0]
        gap, scale = stein_check(cov, monomial_exponents(dim))
        ratios.append(gap / (STEIN_RTOL * scale))
    return check_record("stein-identity", _worst_gap(*ratios), 1.0, seed, dims=dims)


def frame_bounds_check(cov, seed: int, trials: int = 1000) -> ExperimentRecord:
    """Two-sided frame condition on random unit vectors in vec(Sym), the
    bounds attained at vec(q q^T) for Sigma's extreme eigenvectors q, the
    ordering of the tight spectral bound below the trace bound, and the trace
    bound's value, tr S. Every gap but the last is relative to ``upper_tight``
    = |S|_2 on Sym, so the roundoff in the forms, which grows with
    lambda_max^2, does not fail a wide correct Sigma; the trace bound's gap is
    relative to itself, as the roundoff of tr S grows with tr S, which is up
    to nx (nx + 1) / 2 times upper_tight.

    The forms are taken block by block (``_unit_forms``), about
    FRAME_BOUNDS_BLOCK_BYTES of vectors at a time, so besides S the check
    holds no trials x nx**2 array. The extremes join the last block, so they
    stay the last rows of a product, as in one product over every vector;
    with OpenBLAS's Haswell kernels the record equalled that product's to
    the bit at every nx from 1 to 48 tried, where a block of their own moved
    it at roundoff for some nx."""
    rng = np.random.default_rng(seed)
    s = frame_operator_analytic(cov)
    lower, upper_tight, upper_trace = frame_bounds(cov)
    # vec(q q^T), q = Sigma's top and bottom eigenvectors: unit vectors on
    # which S attains its bounds.
    extremes = np.array([np.outer(q, q).ravel() for q in cov.eigvecs[:, [0, -1]].T])
    per = max(1, FRAME_BOUNDS_BLOCK_BYTES // (8 * cov.dim**2))
    quad = []
    for start in range(0, trials, per):
        k = min(per, trials - start)
        extra = extremes if start + k == trials else extremes[:0]
        quad.append(_unit_forms(s, rng, k, cov.dim, extra))
    quad = np.concatenate(quad)
    gaps = np.array([upper_tight - upper_trace, lower - quad.min(), quad.max() - upper_tight,
                     abs(quad[-2] - upper_tight), abs(quad[-1] - lower)])
    trace_gap = abs(np.trace(s) - upper_trace) / upper_trace
    return check_record("frame-bounds", _worst_gap(gaps / upper_tight, trace_gap),
                        BOUND_RTOL, seed, nx=cov.dim, trials=trials)


def _unit_forms(s: np.ndarray, rng, k: int, nx: int, extra: np.ndarray) -> np.ndarray:
    """The forms (v, S v), in one product with S, for k random unit vectors
    of vec(Sym) and then for the rows of ``extra``. Vector i is
    vec(G + G^T) / |G + G^T| for the i-th of k nx x nx standard normal G,
    drawn from rng into the vectors' own array; C and F order agree on a
    symmetric matrix. The block peaks at two arrays of its size."""
    v = np.empty((k + len(extra), nx * nx))
    g = v[:k].reshape(k, nx, nx)
    rng.standard_normal(out=g)
    g += g.transpose(0, 2, 1)  # numpy reads an overlapping input from a copy
    v[:k] /= np.linalg.norm(v[:k], axis=1, keepdims=True)
    v[k:] = extra
    return np.einsum("ij,ij->i", v @ s, v)


def _column_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column, without an array-sized temporary."""
    return np.sqrt(np.einsum("ij,ij->j", a, a))


def kernel_annihilation_check(cov, seed: int, trials: int = 100) -> ExperimentRecord:
    """The analytic operator kills vectorized skew matrices: worst of
    |S vec(K)| / (|S| |K|) over random skew K, all in one product with S."""
    s = frame_operator_analytic(cov)
    ratios = 0.0
    if cov.dim > 1:  # the skew part of a scalar is identically zero
        k = skew_part(np.random.default_rng(seed).standard_normal((trials, cov.dim, cov.dim)))
        v = vecs(k).T  # column t is vec(K_t)
        ratios = _column_norms(s @ v) / _column_norms(v) / float(np.linalg.norm(s))
    return check_record("kernel-annihilation", _worst_gap(ratios), EXACT_RTOL, seed,
                        nx=cov.dim, trials=trials)


def restricted_inverse_check(cov, seed: int, trials: int = 100) -> ExperimentRecord:
    """S vec(S^-1 M) = vec(M) on Sym: worst relative residual over random
    symmetric directions M, all in one product with S."""
    s = frame_operator_analytic(cov)
    m = sym_part(np.random.default_rng(seed).standard_normal((trials, cov.dim, cov.dim)))
    d = vecs(restricted_inverse_apply(cov, m)).T  # column t is vec(S^-1 M_t)
    m = vecs(m).T  # column t is vec(M_t)
    resid = s @ d
    resid -= m
    worst = _worst_gap(_column_norms(resid) / _column_norms(m))
    return check_record("restricted-inverse", worst, RESTRICTED_INVERSE_RTOL, seed,
                        nx=cov.dim, trials=trials)


def coefficient_identity_checks(
    seed: int, dims: list[tuple[int, int]], trials: int = 1000
) -> tuple[ExperimentRecord, ExperimentRecord]:
    """Over random (W, Sigma, x) triples: the frame coefficient of
    Sigma (I - W^T W) Sigma equals the error-gated gain, and the S-free
    cancellation form equals the frame coefficient.

    Errors are normalized by the largest gain magnitude over the triple set;
    the gain crosses zero on individual triples, so a per-triple denominator
    would measure cancellation, not implementation error. Each x is standard
    normal, drawn like W: with M = Sigma R Sigma the identity reduces to
    (x^T R x - tr R Sigma) / 2, which holds for every x, not only for a
    sample of Sigma.
    """
    coeff_err, cancel_err, gains = [], [], []
    for covs, (w, x) in _sweep(seed, dims, trials, _draw_weights_and_x):
        residual = np.eye(covs.dim) - matrix_transpose(w) @ w
        xi = frame_element(x, covs)
        g = eghr_g(x, w, covs)
        c = frame_coefficient(covs.sigma @ residual @ covs.sigma, xi, covs)
        cc = cancellation_coefficient(residual, xi)
        coeff_err.append(np.abs(c - g))
        cancel_err.append(np.abs(cc - c))
        gains.append(np.abs(g))
    scale = _worst_gap(*gains)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero or NaN scale
        return tuple(
            check_record(name, _worst_gap(*err) / scale, EXACT_RTOL, seed,
                         dims=dims, trials=trials)
            for name, err in (("coefficient-identity", coeff_err),
                              ("cancellation-identity", cancel_err))
        )


def _isserlis_gap(cov, s: np.ndarray) -> float:
    """|E[(x kron x)(x kron x)^T] - vec(Sigma) vec(Sigma)^T - S|_F, formed in
    the fourth moment's own array, whose rows take the rank-one term nx at a
    time: besides S, the peak is the moment and one block of nx rows, as in
    its build. The norm is taken over the whole gap in one sum: a norm summed
    block by block would move the record at roundoff."""
    nx = cov.dim
    gap = isserlis_fourth_moment(cov)
    vs = vecs(cov.sigma)
    for a in range(0, nx * nx, nx):
        gap[a:a + nx] -= np.outer(vs[a:a + nx], vs)
    gap -= s
    return float(np.linalg.norm(gap))


def isserlis_checks(cov, seed: int,
                    batches: MonteCarloBatches) -> tuple[ExperimentRecord, ...]:
    """The analytic fourth moment minus its rank-one mean term must equal the
    analytic frame operator to roundoff, and the empirical operator must land
    within 5% relative Frobenius error at large n. The empirical half runs
    only when the command's ``batches`` sum the operator for it
    (``isserlis``), and reads batch 0; both records' n is the batches' n.
    Besides S, each half holds one nx**2 x nx**2 array, the fourth moment and
    then the dense estimate, and takes its gap in that array."""
    s = frame_operator_analytic(cov)
    s_scale = float(np.linalg.norm(s))
    analytic = check_record("isserlis-analytic", _isserlis_gap(cov, s) / s_scale,
                            EXACT_RTOL, seed, nx=cov.dim, n=batches.n)
    if not batches.isserlis:
        return (analytic,)
    operator = batches.passes[0][1]["frame-operator"]
    gap = operator.inner.dense(operator.result())
    gap -= s
    empirical = check_record("isserlis-empirical", float(np.linalg.norm(gap)) / s_scale,
                             MC_FROBENIUS_RTOL, seed, nx=cov.dim, n=batches.n)
    return analytic, empirical


# ---------------------------------------------------------------------------
# The Monte-Carlo batches of a check command.

# Batch i of a command draws from derive_seed(seed, MC_SEED_INDEX + i); no
# other check draws from that index range (stein-identity takes 1-4).
MC_SEED_INDEX = 2000
RATE_BATCHES = 2
# A rate check cuts each batch into blocks of n/1000, n/100, n/10 and n rows:
# RATE_LEVELS sizes, each RATE_SPLIT times the one below.
RATE_LEVELS = 4
RATE_SPLIT = 10
# Fewest rows for which the rate checks hold their false-failure rate. The
# finest blocks hold n/1000 rows, and mc-rate-eghr centers each block's gains
# on the block's own mean, which biases a small block. Over seeds 3000-3299
# at the default config, the four rate checks together failed on no seed at
# n=1e4 and 1e5 and on one at 1e6; at n=3e3 mc-rate-eghr's mean slope was
# -0.470 (-0.497 at 1e4) and mc-rate-oja failed once, and at n=1e3 (blocks of
# one row, whose centered gains are all zero) mc-rate-eghr failed on 279.
RATE_MIN_SAMPLES = 10_000

# Each rate kind's running sum, and the closed form its block estimates
# approach, in the estimates' form (S in half form), for MonteCarloBatches b.
_RATE_SUMS = {
    "oja": (lambda b: OjaMean(b.w), lambda b: oja_update_closed(b.w, b.cov)),
    "eghr": (lambda b: EghrMean(b.w), lambda b: eghr_update_closed(b.w, b.cov)),
    "frame-operator": (lambda b: OperatorMean(b.cov), lambda b: operator_half(b.cov)),
    "frame-expansion": (lambda b: ExpansionMean(b.m, b.cov), lambda b: b.m),
}


class BlockSums:
    """Feeds a running sum block by block, and merges the blocks' sums up a
    tree of RATE_LEVELS levels: a block of level k holds RATE_SPLIT**k blocks
    of ``block`` rows, and its sums are those of RATE_SPLIT consecutive blocks
    of the level below.

    The chunks fed must start on multiples of ``block`` rows (a batch drawn
    with ``sample(..., block=block)``); each block is a row-slice view of its
    chunk. Given ``ref``, in the form of the running sum's estimates, the
    squared Frobenius distance of every complete block's estimate from
    ``ref`` (the running sum's ``distance_sq``) is summed per level into
    ``sq``, over ``count`` blocks. ``result`` hands the running sum the sums
    of every row fed, merged in an order set by the row count alone, so the
    running sum's result does not depend on ``ref``. It holds one open block
    per level.
    """

    def __init__(self, inner: RunningSum, block: int, ref=None):
        self.inner = inner
        self.block = block
        self.sizes = [block * RATE_SPLIT**level for level in range(RATE_LEVELS)]
        self.ref = ref
        self.open = [None] * RATE_LEVELS  # sums of the open block of each level >= 1
        self.filled = [0] * RATE_LEVELS  # blocks of the level below in it
        self.tail = None  # (sums, rows) of the rows after the last whole block
        self.sq = [0.0] * RATE_LEVELS
        self.count = [0] * RATE_LEVELS

    def add(self, x: np.ndarray) -> None:
        for start in range(0, x.shape[0], self.block):
            rows = x[start:start + self.block]
            sums = self.inner.sums(rows)
            if rows.shape[0] == self.block:
                self._close(0, sums)
            else:  # only the batch's last chunk ends inside a block
                self.tail = (sums, rows.shape[0])

    def _close(self, level: int, sums: tuple) -> None:
        size = self.sizes[level]
        if self.ref is not None:
            self.sq[level] += self.inner.distance_sq(self.inner.estimate(sums, size), self.ref)
            self.count[level] += 1
        up = level + 1
        if up == RATE_LEVELS:
            self.inner.absorb(sums, size)
            return
        self.open[up] = sums if self.open[up] is None else merge_sums(self.open[up], sums)
        self.filled[up] += 1
        if self.filled[up] == RATE_SPLIT:
            full, self.open[up], self.filled[up] = self.open[up], None, 0
            self._close(up, full)

    def result(self):
        """The estimate over every row fed. The open blocks join the sums in
        row order, the largest level first, then the tail."""
        for level in range(RATE_LEVELS - 1, 0, -1):
            if self.open[level] is not None:
                self.inner.absorb(self.open[level], self.filled[level] * self.sizes[level - 1])
                self.open[level], self.filled[level] = None, 0
        if self.tail is not None:
            self.inner.absorb(*self.tail)
            self.tail = None
        return self.inner.result()


class MonteCarloBatches:
    """The Monte-Carlo batches of one check command, read by the checks that
    ``kinds`` (mc-rate-<kind>), ``isserlis`` (isserlis-empirical) and
    ``derivation`` (derivation-*) name. ``kinds`` are distinct keys of
    ``_RATE_SUMS``: ``run_checks`` takes them from check names the CLI has
    already matched against ``COMMANDS``.

    Batches of n rows on the run's covariance; W is the one uniform(-1, 1)
    nu x nx matrix of ``default_rng(seed)``, and M is Sigma (I - W^T W) Sigma,
    the matrix the frame expansion expands. Batch i is drawn from child seed
    derive_seed(seed, MC_SEED_INDEX + i), and every estimator the checks need
    reads it in one pass, here, so no check's wall time carries a pass:
    RATE_BATCHES batches with a rate kind, else one for isserlis or
    derivation, else none. Batch 0 serves every check; only the rate checks
    read the later ones. The operator and
    the frame expansion are always summed block by block (``BlockSums``,
    blocks of n // 1000 rows, or one block below RATE_MIN_SAMPLES), so
    isserlis-empirical and derivation-* read the same sums whichever rate
    checks run. ``passes[i]`` holds batch i and its running sums by name: a
    kind, or ``direct``, the derivation's gain-weighted Hebbian mean with
    closed-form centering. A chunk that would not fit in physical memory (one
    block, n // 1000 rows, above 1000 * CHUNK_ROWS) raises DimensionError
    here, before any check runs.
    """

    def __init__(self, cov, nu: int, seed: int, n: int, kinds=(),
                 isserlis: bool = False, derivation: bool = False):
        kinds = tuple(kinds)
        if kinds and n < RATE_MIN_SAMPLES:
            raise SampleSizeError(
                f"need >= {RATE_MIN_SAMPLES} samples for the mc-rate checks, got {n}: "
                "below that the fitted slope is biased by the smallest blocks")
        if isserlis and n < 2:
            raise SampleSizeError(f"need >= 2 samples for the frame operator, got {n}")
        self.cov, self.nu, self.seed, self.n = cov, nu, seed, n
        self.kinds, self.isserlis, self.derivation = kinds, isserlis, derivation
        self.w = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(nu, cov.dim))
        self.m = expansion_target(self.w, cov)
        # Below RATE_MIN_SAMPLES no rate check can run: a batch is one block.
        self.block = n // RATE_SPLIT ** (RATE_LEVELS - 1) if n >= RATE_MIN_SAMPLES else n
        if kinds or isserlis or derivation:
            # A pass holds at most six nx-wide arrays per row of a chunk (the
            # draw's z and x, or x with OjaMean's u, u W and x - u W, and the
            # gains), two more for the next chunk's z and x, drawn meanwhile
            # (SampleBatch.chunks), and, when the operator is summed, two
            # h-wide ones: its h = nx(nx+1)/2 half rows and the factor
            # gathered into them. mc-rate-frame-operator's reference, S's h x h
            # half form, stays alive through both passes.
            rows = chunk_schedule(n, self.block)[1]
            h = cov.dim * (cov.dim + 1) // 2
            width = 8 * cov.dim + (isserlis or "frame-operator" in kinds) * 2 * h
            ref = ("frame-operator" in kinds) * h * h
            require_memory(8 * (rows * width + ref), f"a chunk of {rows:,} rows at nx={cov.dim}")
        self.refs = {kind: _RATE_SUMS[kind][1](self) for kind in kinds}
        count = RATE_BATCHES if kinds else int(isserlis or derivation)
        self.passes = [self._pass(i) for i in range(count)]

    def _pass(self, i: int):
        names = list(self.kinds)
        if i == 0:
            names += [kind for kind, wanted in (("frame-operator", self.isserlis),
                                                ("frame-expansion", self.derivation))
                      if wanted and kind not in names]
        sums = {kind: BlockSums(_RATE_SUMS[kind][0](self), self.block, self.refs.get(kind))
                for kind in names}
        if i == 0 and self.derivation:
            sums["direct"] = EghrMean(self.w, closed_center(self.w, self.cov))
        batch = sample(self.cov, self.n, derive_seed(self.seed, MC_SEED_INDEX + i), self.block)
        batch.feed(*sums.values())
        return batch, sums


def mc_rate_check(batches: MonteCarloBatches) -> tuple[ExperimentRecord, ...]:
    """Fit, per kind of ``batches``, the log-log slope of empirical-vs-closed-
    form RMSE against block size; a healthy Monte-Carlo estimator sits near
    -1/2. The RMSE at each size is taken over every block of that size in the
    RATE_BATCHES batches: 2000, 200, 20 and 2 blocks. The kinds share the
    batches, and each record equals the one a single-kind selection gives.
    """
    passes = [sums for _, sums in batches.passes]
    records = []
    for kind in batches.kinds:
        sizes = passes[0][kind].sizes
        sq = np.sum([p[kind].sq for p in passes], axis=0)
        count = np.sum([p[kind].count for p in passes], axis=0)
        slope = float(np.polyfit(np.log10(sizes), np.log10(np.sqrt(sq / count)), 1)[0])
        records.append(check_record(
            f"mc-rate-{kind}", slope, SLOPE_HALF_WIDTH, batches.seed, SLOPE_REFERENCE,
            kind=kind, nx=batches.cov.dim, nu=batches.nu, n=batches.n, batches=RATE_BATCHES))
    return tuple(records)


def derivation_checks(batches: MonteCarloBatches) -> tuple[ExperimentRecord, ...]:
    """Run the full numerical derivation chain on the batches' W and batch 0:
    the frame route must agree with the direct route to roundoff
    (CHAIN_AGREEMENT_RTOL), and approach the closed-form target within
    MC_TARGET_RTOL, each relative to the Frobenius norm of what it is
    compared with. Both records carry batch 0's seed."""
    batch, sums = batches.passes[0]
    target, frame_route, direct_route = derive_eghr_from_oja(
        batches.w, batches.cov, sums["frame-expansion"].inner, sums["direct"])
    return tuple(
        check_record(name, float(np.linalg.norm(frame_route - ref)),
                     rtol * max(float(np.linalg.norm(ref)), 1e-300), batch.seed,
                     nx=batches.cov.dim, nu=batches.nu, n=batch.n, check="derivation")
        for name, ref, rtol in (
            ("derivation-chain-agreement", direct_route, CHAIN_AGREEMENT_RTOL),
            ("derivation-mc-target", target, MC_TARGET_RTOL)))


# ---------------------------------------------------------------------------
# Command table: each check command's records CSV, report group and runners
# in CSV order. A runner(config, cov, batches) -> records yields the check
# names listed with it; it reads the run's one covariance and the command's
# one MonteCarloBatches.

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
         lambda c, cov, mc: [closed_equivalence_check(c.seed, dims=[(c.nx, c.nu)])]),
        (["fixed-point-sharing"],
         lambda c, cov, mc: [fixed_point_sharing_check(c.seed, nx=c.nx, nu=c.nu)]),
        (["stein-identity"],
         lambda c, cov, mc: [stein_identity_check(c.seed)]),
        (["mc-rate-oja", "mc-rate-eghr"], lambda c, cov, mc: mc_rate_check(mc)),
    )),
    "frame-check": CheckCommand("frame_check.csv", "frame machinery", (
        (["frame-bounds"], lambda c, cov, mc: [frame_bounds_check(cov, c.seed)]),
        (["kernel-annihilation"], lambda c, cov, mc: [kernel_annihilation_check(cov, c.seed)]),
        (["restricted-inverse"], lambda c, cov, mc: [restricted_inverse_check(cov, c.seed)]),
        (["coefficient-identity", "cancellation-identity"],
         lambda c, cov, mc: coefficient_identity_checks(c.seed, dims=[(c.nx, c.nu)])),
        (["isserlis-analytic", "isserlis-empirical"],
         lambda c, cov, mc: isserlis_checks(cov, c.seed, mc)),
        (["mc-rate-frame-operator", "mc-rate-frame-expansion"],
         lambda c, cov, mc: mc_rate_check(mc)),
        (["derivation-chain-agreement", "derivation-mc-target"],
         lambda c, cov, mc: derivation_checks(mc)),
    )),
}
# Each check name's runner and group; run_checks calls each runner once, so
# the mc-rate-* names of a command share one mc_rate_check.
_BY_CHECK = {name: (runner, command.group) for command in COMMANDS.values()
             for names, runner in command.runners for name in names}


def run_checks(config: RunConfig, cov, names: list[str]) -> list[ExperimentRecord]:
    """Run the runners behind the requested check names (each runner once) on
    the run's covariance ``cov`` and one MonteCarloBatches, keep only the
    requested records, and stamp each with its report group and the wall
    time of its runner. Too few samples for a requested mc-rate-* check raise
    SampleSizeError before any check runs."""
    batches = MonteCarloBatches(
        cov, config.nu, config.seed, config.samples,
        kinds=[name[len("mc-rate-"):] for name in names if name.startswith("mc-rate-")],
        isserlis="isserlis-empirical" in names,
        derivation=any(name.startswith("derivation-") for name in names))
    records = []
    for runner in dict.fromkeys(_BY_CHECK[name][0] for name in names):
        t0 = time.perf_counter()
        out = runner(config, cov, batches)
        wall_time_ms = (time.perf_counter() - t0) * 1e3
        for r in out:
            if r.check_name in names:
                r.group, r.wall_time_ms = _BY_CHECK[r.check_name][1], wall_time_ms
                records.append(r)
    return records
