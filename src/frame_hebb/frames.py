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
``derive_eghr_from_oja`` reads both routes from the sums of a pass that has
already run (``checks.MonteCarloBatches``), and draws and sums nothing.

The coefficients, ``frame_element`` and ``restricted_inverse_apply`` also
take stacks with a leading trial axis, each item equal to a single call.
"""

from __future__ import annotations

import numpy as np

from .errors import SampleSizeError, SkewDomainError
from .gaussian import CHUNK_ROWS, RunningSum, SampleBatch
from .linalg import CovarianceModel, dot, frobenius, matrix_transpose, require_memory, vecs
from .rules import EghrMean, _ones, oja_update_closed

SKEW_DOMAIN_RTOL = 1e-10


def frame_element(x: np.ndarray, cov: CovarianceModel) -> np.ndarray:
    """Xi = x x^T - Sigma for one sample x, or for each row of a stack."""
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
    ``dense(result())`` is (1/n) sum_k vec(Xi_k) vec(Xi_k)^T.

    ``sums`` forms, per row, the h = nx(nx+1)/2 centered products
    x_i x_j - Sigma_ij, i <= j, and returns their h x h Gram matrix: the
    dense Gram's entries at the pairs' vec positions (``operator_half``).
    ``estimate`` stays in this half form, ``distance_sq`` weighs each entry
    by the vec positions its pairs stand for, and ``dense`` expands an
    estimate to nx**2 x nx**2 with one index gather. Whether BLAS adds the
    half and the dense Gram's products in the same order depends on its
    kernels: OpenBLAS's Haswell kernels do at nx <= 4, 16 and 32, and differ
    in the last bits at nx = 5 to 11. numpy forms the Gram rows^T rows
    through BLAS's symmetric rank-k update and mirrors its triangle, so every
    Gram, their sums and so every estimate are symmetric to the bit.
    """

    def __init__(self, cov: CovarianceModel):
        nx = self.dim = cov.dim
        self.h = nx * (nx + 1) // 2
        # peak: four h x h arrays (the total, a chunk's Gram, the sum that
        # merges them and an estimate) and a chunk of half rows with the
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
        return sums[0] / n

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


def frame_bounds(cov: CovarianceModel) -> tuple[float, float, float]:
    """Two-sided bounds of (vec M, S vec M) on M in Sym of unit norm, as
    (lower, upper_tight, upper_trace).

    ``lower`` and ``upper_tight`` are the extreme eigenvalues of S restricted
    to Sym, 2 lambda_min(Sigma)^2 and 2 lambda_max(Sigma)^2.
    ``upper_trace`` is the cruder Cauchy-Schwarz constant
    E|Xi|^2 = tr S = (tr Sigma)^2 + tr(Sigma^2).
    """
    lam = cov.eigvals
    trace_sq = float(np.trace(cov.sigma)) ** 2
    sq_trace = float(np.sum(cov.sigma * cov.sigma))
    return float(2.0 * lam[-1] ** 2), float(2.0 * lam[0] ** 2), trace_sq + sq_trace


def _symmetric_domain(m: np.ndarray, what: str) -> np.ndarray:
    """Check that m, an nx x nx matrix or a stack of them, lies in Sym, the
    operator's domain; return it symmetrized.

    Tolerates skew Frobenius norm up to 1e-10 * (1 + |m|) per matrix; beyond
    that the operator is being applied off its domain and we refuse, naming
    the first matrix of a stack that is off it. m's shape is not checked: it
    is a matrix the program made on the covariance's dimension.
    """
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


def restricted_inverse_apply(cov: CovarianceModel, m: np.ndarray) -> np.ndarray:
    """Apply the inverse of S restricted to Sym:
    M -> Sigma^-1 sym(M) Sigma^-1 / 2, to one matrix or to each of a stack.

    Exact closed form (no dense pseudo-inverse); input must be
    symmetric within tolerance.
    """
    # No name holds sym(M) or a product past its use: with M, a stack of
    # them peaks at three arrays of its size.
    d = cov.sigma_inv @ _symmetric_domain(m, "restricted_inverse_apply")
    d = d @ cov.sigma_inv
    d *= 0.5
    return d


def frame_coefficient(m: np.ndarray, xi: np.ndarray, cov: CovarianceModel):
    """Expansion coefficient (M, S^-1 Xi)_F of M in Sym on the frame element
    Xi = x x^T - Sigma, that is 0.5 * (M, Sigma^-1 Xi Sigma^-1)_F; one per
    item of stacks of M, Xi and covariances."""
    m = _symmetric_domain(m, "frame_coefficient")
    return dot(vecs(m), vecs(restricted_inverse_apply(cov, xi)))


def cancellation_coefficient(residual: np.ndarray, xi: np.ndarray):
    """The same coefficient for M = Sigma R Sigma, R = I - W^T W, written
    S-free: since vec(M) = S vec(R / 2) and S is self-adjoint, (M, S^-1 Xi)_F
    collapses to (R / 2, Xi)_F. One per item of stacks of R and Xi."""
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
        self.ones = _ones(cov.dim)

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


def derive_eghr_from_oja(w: np.ndarray, cov: CovarianceModel, expansion: ExpansionMean,
                         direct: EghrMean) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regenerate the error-gated update from the subspace rule, as (target,
    frame route, direct route).

    Steps: right-multiply the closed-form subspace update by Sigma (the
    target); frame-expand the symmetric sandwich M = Sigma (I - W^T W) Sigma
    over a batch; reattach W, restoring the mean term the expansion centered
    away (the frame route). The direct route is the gain-weighted Hebbian
    mean of the same samples. The two routes are the same sum term by term
    (the coefficient equals the gain), so they must agree to roundoff on any
    batch, while either route approaches the closed-form target only at
    Monte-Carlo rate. ``expansion`` (the ``ExpansionMean`` of M) and
    ``direct`` (the ``EghrMean`` of W with the closed-form center) hold the
    sums of a pass over the batch that has already run
    (``checks.MonteCarloBatches``). W is a nu x nx weight matrix the program
    made, not checked here.
    """
    target = oja_update_closed(w, cov) @ cov.sigma
    # Undo the centering of Xi: (1/n) sum c_k x x^T = recon + mean(c) Sigma.
    frame_route = w @ (expansion.result() + expansion.coeff_mean() * cov.sigma)
    return target, frame_route, direct.result()
