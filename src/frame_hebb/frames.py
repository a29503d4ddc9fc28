"""Frame machinery on Sym, the symmetric nx x nx matrices.

For zero-mean Gaussian input x with covariance Sigma, the centered Hebbian
direction is the frame element Xi = x x^T - Sigma. Its second-moment
operator S = E[vec(Xi) vec(Xi)^T] = (Sigma kron Sigma)(I + T), where T is
the commutation matrix, kills the skew matrices and is positive definite on
Sym, where it acts as the sandwich M -> Sigma M Sigma doubled; its inverse
on Sym is therefore the closed form M -> Sigma^-1 M Sigma^-1 / 2. That makes
Xi a frame for Sym: every symmetric M expands as M = E[(M, S^-1 Xi)_F Xi],
and for M = Sigma (I - W^T W) Sigma the coefficient (M, S^-1 Xi)_F is
exactly the error-gated rule's global gain, which is how that rule drops out
of the subspace rule.

Everything here takes and returns nx x nx matrices except S, which
frame_operator_analytic and frame_operator_empirical give as a dense
nx**2 x nx**2 array. The analytic S is the covariance model's
``frame_operator``, built once per covariance and shared read-only. Only
it, ``OperatorMean.dense`` and gaussian.isserlis_fourth_moment build arrays
of that size, each after ``linalg.require_memory`` says its peak fits.

The empirical estimators are running sums over a batch's chunks
(``OperatorMean``, ``ExpansionMean``), so they hold one chunk of rows at a
time, never the batch. Only the empirical operator builds rows of Xi_k, and
only their h = nx(nx+1)/2 half-vectorized coordinates (Xi_k)_ij, i <= j,
chunk by chunk, as a chunk x h block: a symmetric Xi_k repeats the other
nx(nx-1)/2 coordinates of vec(Xi_k). The Monte-Carlo frame expansion never
does: with D = Sigma^-1 M Sigma^-1 / 2, the coefficient is
(D, Xi_k)_F = x_k^T D x_k - tr(D Sigma), so (1/n) sum_k c_k Xi_k =
X^T diag(c) X / n - mean(c) Sigma costs two chunk x nx products per chunk.
``derive_eghr_from_oja`` computes its two routes in one pass.

The coefficients, ``frame_element`` and ``restricted_inverse_apply`` also
take stacks with a leading trial axis, each item equal to a single call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SampleSizeError, SkewDomainError
from .gaussian import CHUNK_ROWS, RunningSum, SampleBatch
from .linalg import CovarianceModel, dot, frobenius, matrix_transpose, require_memory, vecs
from .records import ExperimentRecord, timed_record
from .rules import EghrMean, as_weights, closed_center, expansion_target, oja_update_closed

SKEW_DOMAIN_RTOL = 1e-10
CHAIN_AGREEMENT_RTOL = 1e-12
MC_TARGET_RTOL = 5e-2


def frame_element(x, cov: CovarianceModel) -> np.ndarray:
    """Xi = x x^T - Sigma for one sample x, or for each row of a stack."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (cov.dim,):
        raise DimensionError(f"x has shape {x.shape}, expected (..., {cov.dim})")
    return x[..., :, None] * x[..., None, :] - cov.sigma


def frame_operator_analytic(cov: CovarianceModel) -> np.ndarray:
    """S = (Sigma kron Sigma)(I + T): the covariance's one read-only
    ``frame_operator``, built on the first call."""
    return cov.frame_operator


def operator_half(s: np.ndarray, nx: int) -> np.ndarray:
    """The half form of a dense nx**2 x nx**2 operator s on Sym: its h x h
    entries at the vec positions j*nx + i of the pairs i <= j, in
    np.triu_indices order (``OperatorMean``)."""
    i, j = np.triu_indices(nx)
    pos = j * nx + i
    return s[np.ix_(pos, pos)]


class OperatorMean(RunningSum):
    """Running sum of the Gram matrix of the half-vectorized frame elements;
    ``dense(result())`` is (1/n) sum_k vec(Xi_k) vec(Xi_k)^T, symmetrized.

    ``sums`` forms, per row, the h = nx(nx+1)/2 centered products
    x_i x_j - Sigma_ij, i <= j, and returns their h x h Gram matrix: the
    dense Gram's entries at the pairs' vec positions (``operator_half``).
    ``estimate`` stays in this half form, ``distance_sq`` weighs each entry
    by the vec positions its pairs stand for, and ``dense`` expands an
    estimate to nx**2 x nx**2 with one index gather. Whether BLAS adds the
    half and the dense Gram's products in the same order depends on its
    kernels: OpenBLAS's Haswell kernels do at nx <= 4, 16 and 32, and differ
    in the last bits at nx = 5 to 11.
    """

    def __init__(self, cov: CovarianceModel):
        nx = self.dim = cov.dim
        self.h = nx * (nx + 1) // 2
        # peak: four h x h arrays (the total, a chunk's Gram and the
        # estimate's two temporaries) and a chunk of half rows with the
        # gathered factor it is multiplied by
        require_memory(8 * (4 * self.h**2 + 2 * CHUNK_ROWS * self.h),
                       f"the half-form empirical S at nx={nx}")
        super().__init__()
        self.i, self.j = np.triu_indices(nx)
        self.sigma_half = cov.sigma[self.i, self.j]
        # The pair of each vec position, and each pair's count of positions.
        pair = np.empty((nx, nx), dtype=np.intp)
        pair[self.i, self.j] = pair[self.j, self.i] = np.arange(self.h)
        self.expand = pair.ravel()
        self.weights = np.where(self.i == self.j, 1.0, 2.0)

    def sums(self, x: np.ndarray) -> tuple:
        rows = x[:, self.i]
        rows *= x[:, self.j]
        rows -= self.sigma_half
        return (rows.T @ rows,)

    def estimate(self, sums: tuple, n: int) -> np.ndarray:
        s = sums[0] / n
        return (s + s.T) / 2.0

    def distance_sq(self, estimate: np.ndarray, ref: np.ndarray) -> float:
        """|E - R|_F^2 of the dense forms of two half-form operators."""
        d = estimate - ref
        np.multiply(d, d, out=d)
        return float(self.weights @ d @ self.weights)

    def dense(self, estimate: np.ndarray) -> np.ndarray:
        """The nx**2 x nx**2 form of a half-form estimate."""
        # peak: the dense expansion, the total and the estimate it gathers from
        require_memory(8 * (self.dim**4 + 2 * self.h**2), f"the empirical S at nx={self.dim}")
        return estimate[np.ix_(self.expand, self.expand)]


def frame_operator_empirical(batch: SampleBatch) -> np.ndarray:
    """(1/n) sum_k vec(Xi_k) vec(Xi_k)^T, summed over the batch's chunks."""
    if batch.n < 2:
        raise SampleSizeError(f"need >= 2 samples for the frame operator, got {batch.n}")
    mean = OperatorMean(batch.covariance)
    return mean.dense(batch.feed(mean)[0])


@dataclass(frozen=True)
class FrameBounds:
    """Two-sided bounds of (vec M, S vec M) on M in Sym of unit norm.

    ``lower`` and ``upper_tight`` are the extreme eigenvalues of S restricted
    to Sym, 2 lambda_min(Sigma)^2 and 2 lambda_max(Sigma)^2.
    ``upper_trace`` is the cruder Cauchy-Schwarz constant
    E|Xi|^2 = tr S = (tr Sigma)^2 + tr(Sigma^2).
    """

    lower: float
    upper_tight: float
    upper_trace: float


def frame_bounds(cov: CovarianceModel) -> FrameBounds:
    lam = cov.eigvals
    trace_sq = float(np.trace(cov.sigma)) ** 2
    sq_trace = float(np.sum(cov.sigma * cov.sigma))
    return FrameBounds(
        lower=float(2.0 * lam[-1] ** 2),
        upper_tight=float(2.0 * lam[0] ** 2),
        upper_trace=trace_sq + sq_trace,
    )


def _symmetric_domain(m, cov: CovarianceModel, what: str) -> np.ndarray:
    """Check m is an nx x nx symmetric matrix, or a stack of them; return it
    symmetrized.

    Tolerates skew Frobenius norm up to 1e-10 * (1 + |m|) per matrix; beyond
    that the operator is being applied off its domain and we refuse, naming
    the first matrix of a stack that is off it.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (cov.dim, cov.dim):
        raise DimensionError(f"{what}: shape {m.shape}, expected (..., {cov.dim}, {cov.dim})")
    skew_norm = frobenius((m - matrix_transpose(m)) / 2.0).ravel()
    limit = SKEW_DOMAIN_RTOL * (1.0 + frobenius(m).ravel())
    off = skew_norm > limit
    if off.any():
        i = int(np.argmax(off))
        raise SkewDomainError(
            f"{what}: skew component has norm {skew_norm[i]:.3e}, above the "
            f"domain tolerance {limit[i]:.3e}; the operator is singular off "
            "the symmetric subspace"
        )
    return (m + matrix_transpose(m)) / 2.0


def restricted_inverse_apply(cov: CovarianceModel, m) -> np.ndarray:
    """Apply the inverse of S restricted to Sym:
    M -> Sigma^-1 sym(M) Sigma^-1 / 2, to one matrix or to each of a stack.

    Exact closed form (no dense pseudo-inverse); input must be
    symmetric within tolerance.
    """
    # No name holds sym(M) or a product past its use: with M, a stack of
    # them peaks at three arrays of its size.
    d = cov.sigma_inv @ _symmetric_domain(m, cov, "restricted_inverse_apply")
    d = d @ cov.sigma_inv
    d *= 0.5
    return d


def frame_coefficient(m, xi, cov: CovarianceModel):
    """Expansion coefficient (M, S^-1 Xi)_F of M in Sym on the frame element
    Xi = x x^T - Sigma, that is 0.5 * (M, Sigma^-1 Xi Sigma^-1)_F; one per
    item of stacks of M, Xi and covariances."""
    m = _symmetric_domain(m, cov, "frame_coefficient")
    return dot(vecs(m), vecs(restricted_inverse_apply(cov, xi)))


def cancellation_coefficient(residual, xi):
    """The same coefficient for M = Sigma R Sigma, R = I - W^T W, written
    S-free: since vec(M) = S vec(R / 2) and S is self-adjoint, (M, S^-1 Xi)_F
    collapses to (R / 2, Xi)_F. One per item of stacks of R and Xi."""
    residual, xi = np.asarray(residual, dtype=float), np.asarray(xi, dtype=float)
    if residual.ndim < 2 or residual.shape != xi.shape:
        raise DimensionError(f"residual has shape {residual.shape}, Xi {xi.shape}")
    return dot(vecs(0.5 * residual), vecs(xi))


class ExpansionMean(RunningSum):
    """Running sum of (M, S^-1 Xi_k)_F Xi_k over chunks; ``result`` is the
    Monte-Carlo frame expansion (1/n) sum_k (M, S^-1 Xi_k)_F Xi_k and
    ``coeff_mean`` the mean coefficient.

    Coefficients are evaluated sample-parallel as (S^-1 M, Xi_k)_F, which
    equals (M, S^-1 Xi_k)_F because the restricted inverse is self-adjoint;
    with D = S^-1 M that is c_k = x_k^T D x_k - tr(D Sigma). The sums are
    sum_k c_k x_k x_k^T and sum_k c_k.
    """

    def __init__(self, m, cov: CovarianceModel):
        super().__init__()
        self.sigma = cov.sigma
        self.d = restricted_inverse_apply(cov, m)
        self.trace = float(np.sum(self.d * cov.sigma))
        self.ones = np.ones(cov.dim)

    def sums(self, x: np.ndarray) -> tuple:
        buf = x @ self.d
        np.multiply(buf, x, out=buf)
        coeffs = buf @ self.ones - self.trace
        coeff_sum = float(coeffs.sum())
        np.multiply(x, coeffs[:, None], out=buf)
        return x.T @ buf, coeff_sum

    def estimate(self, sums: tuple, n: int) -> np.ndarray:
        return sums[0] / n - (sums[1] / n) * self.sigma

    def coeff_mean(self) -> float:
        return self.total[1] / self.n


def frame_expansion_reconstruct(m, batch: SampleBatch) -> np.ndarray:
    """Monte-Carlo frame expansion (1/n) sum_k (M, S^-1 Xi_k)_F Xi_k.

    Converges to M at the usual 1/sqrt(n) rate for M in Sym.
    """
    return batch.feed(ExpansionMean(m, batch.covariance))[0]


@dataclass(frozen=True)
class DerivationResult:
    """Numerical walk through the chain that turns the subspace rule into
    the error-gated rule, with one residual record per claim."""

    target: np.ndarray  # W Sigma (I - W^T W) Sigma, closed form
    frame_route: np.ndarray  # W applied through the expansion
    direct_route: np.ndarray  # gain-weighted Hebbian mean on the same batch
    records: tuple[ExperimentRecord, ...]


def derive_eghr_from_oja(w, cov: CovarianceModel, batch: SampleBatch,
                         fed=None) -> DerivationResult:
    """Regenerate the error-gated update from the subspace rule on a batch.

    Steps: right-multiply the closed-form subspace update by Sigma; frame-
    expand the symmetric sandwich M = Sigma (I - W^T W) Sigma over the
    batch; reattach W, restoring the mean term the expansion centered away;
    and compare against the gain-weighted Hebbian mean computed directly
    from the samples. The two routes are the same sum term by term (the
    coefficient equals the gain), so they must agree to roundoff on any
    batch, while either route approaches the closed-form target only at
    Monte-Carlo rate. Both routes are summed in one pass over the chunks:
    here, or, when ``fed`` is given, in a pass that other estimators shared.
    ``fed`` is then the pair (``ExpansionMean`` of M, ``EghrMean`` with the
    closed-form center) after that pass over ``batch``.
    """
    t0 = time.perf_counter()
    w = as_weights(w, cov.dim, "derive_eghr_from_oja")
    target = oja_update_closed(w, cov) @ cov.sigma

    if fed is None:
        # The direct route centers the gains in closed form.
        fed = (ExpansionMean(expansion_target(w, cov), cov),
               EghrMean(w, closed_center(w, cov)))
        batch.feed(*fed)
    expansion, direct = fed
    recon, direct_route = expansion.result(), direct.result()
    # Undo the centering of Xi: (1/n) sum c_k x x^T = recon + mean(c) Sigma.
    frame_route = w @ (recon + expansion.coeff_mean() * cov.sigma)

    inputs = dict(nx=cov.dim, nu=w.shape[0], n=batch.n, check="derivation")
    agreement = timed_record(
        "derivation-chain-agreement", float(np.linalg.norm(frame_route - direct_route)),
        CHAIN_AGREEMENT_RTOL * max(float(np.linalg.norm(direct_route)), 1e-300),
        batch.seed, t0, **inputs)
    mc = timed_record(
        "derivation-mc-target", float(np.linalg.norm(frame_route - target)),
        MC_TARGET_RTOL * max(float(np.linalg.norm(target)), 1e-300), batch.seed, t0, **inputs)
    return DerivationResult(
        target=target,
        frame_route=frame_route,
        direct_route=direct_route,
        records=(agreement, mc),
    )
