"""Frame machinery on vectorized symmetric matrices.

For zero-mean Gaussian input x with covariance Sigma, the centered Hebbian
direction xi = vec(x x^T) - vec(Sigma) has second-moment operator
S = E[xi xi^T] = (Sigma kron Sigma)(I + T), where T is the commutation
matrix. S kills vec(Skew) and is positive definite on V = vec(Sym), where
it acts as the sandwich M -> Sigma M Sigma doubled; its inverse on V is
therefore the closed form v -> vec(Sigma^-1 unvec(v) Sigma^-1 / 2). That
makes xi a frame for V: every symmetric-vec v expands as
v = E[(v, S^-1 xi) xi], and for v = vec(Sigma (I - W^T W) Sigma) the
coefficient (v, S^-1 xi) is exactly the error-gated rule's global gain,
which is how that rule drops out of the subspace rule.

The builders return plain arrays: frame_vector gives xi as a length-nx**2
vector, and frame_operator_analytic and frame_operator_empirical give S as a
dense nx**2 x nx**2 array. Only those two, and gaussian.isserlis_fourth_moment,
build arrays of that size. The analytic build applies T as a column gather,
O(nx**4) instead of the O(nx**6) of a dense product with T. Everything else
works on nx x nx matrices.

The empirical estimators are running sums over a batch's chunks
(``OperatorMean``, ``ExpansionMean``), so they hold one chunk of rows at a
time, never the batch. Only the empirical operator builds the centered rows
xi_k, chunk by chunk, as a chunk x nx**2 block. The Monte-Carlo frame
expansion never does: with D = unvec(S^-1 v), the coefficient is
(S^-1 v, xi_k) = x_k^T D x_k - tr(D Sigma), so (1/n) sum_k c_k xi_k =
vec(X^T diag(c) X / n - mean(c) Sigma) costs two chunk x nx products per
chunk. ``derive_eghr_from_oja`` computes its two routes in one pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SampleSizeError, SkewDomainError
from .gaussian import SampleBatch
from .linalg import (
    CovarianceModel,
    kron,
    skew_part,
    sym_part,
    unvec,
    vec,
    vec_transpose_index,
)
from .records import ExperimentRecord, digest_inputs, make_record
from .rules import EghrMean, _check_dims, _closed_center, as_weights, oja_update_closed

SKEW_DOMAIN_RTOL = 1e-10
CHAIN_AGREEMENT_RTOL = 1e-12
MC_TARGET_RTOL = 5e-2


def frame_vector(x, cov: CovarianceModel) -> np.ndarray:
    """xi = vec(x x^T) - vec(Sigma) for one sample x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cov.dim,):
        raise DimensionError(f"x has shape {x.shape}, expected ({cov.dim},)")
    return vec(np.outer(x, x) - cov.sigma)


def _centered_rows(x: np.ndarray, cov: CovarianceModel) -> np.ndarray:
    """Rows vec(x_k x_k^T) - vec(Sigma) for a chunk of samples, centered in
    place."""
    n, d = x.shape
    outer = np.einsum("ki,kj->kji", x, x).reshape(n, d * d)
    outer -= vec(cov.sigma)
    return outer


def frame_operator_analytic(cov: CovarianceModel) -> np.ndarray:
    """S = (Sigma kron Sigma)(I + T), with T applied as a column gather.
    Both terms, and so S, are symmetric to the bit because Sigma is."""
    s = kron(cov.sigma, cov.sigma)
    s += s.take(vec_transpose_index(cov.dim), axis=1)
    return s


class OperatorMean:
    """Running sum of xi_k xi_k^T over chunks; ``result`` is
    (1/n) sum_k xi_k xi_k^T, symmetrized."""

    def __init__(self, cov: CovarianceModel):
        self.cov = cov
        self.n = 0
        self.total = np.zeros((cov.dim * cov.dim,) * 2)

    def add(self, x: np.ndarray) -> None:
        rows = _centered_rows(x, self.cov)
        self.total += rows.T @ rows
        self.n += x.shape[0]

    def result(self) -> np.ndarray:
        s = self.total / self.n
        return (s + s.T) / 2.0


def frame_operator_empirical(batch: SampleBatch) -> np.ndarray:
    """(1/n) sum_k xi_k xi_k^T, summed over the batch's chunks."""
    if batch.n < 2:
        raise SampleSizeError(f"need >= 2 samples for the frame operator, got {batch.n}")
    return batch.feed(OperatorMean(batch.covariance))[0]


@dataclass(frozen=True)
class FrameBounds:
    """Two-sided bounds of (v, S v) on unit v in vec(Sym).

    ``lower`` and ``upper_tight`` are the extreme eigenvalues of S restricted
    to vec(Sym), 2 lambda_min(Sigma)^2 and 2 lambda_max(Sigma)^2.
    ``upper_trace`` is the cruder Cauchy-Schwarz constant
    E|xi|^2 = tr S = (tr Sigma)^2 + tr(Sigma^2).
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


def _symmetric_domain(v: np.ndarray, cov: CovarianceModel, what: str) -> np.ndarray:
    """Check v is a symmetric-matrix vectorization; return it symmetrized.

    Tolerates skew Frobenius norm up to 1e-10 * (1 + |v|); beyond that the
    operator is being applied off its domain and we refuse.
    """
    v = np.asarray(v, dtype=float)
    m = unvec(v, cov.dim)
    skew_norm = float(np.linalg.norm(skew_part(m)))
    limit = SKEW_DOMAIN_RTOL * (1.0 + float(np.linalg.norm(v)))
    if skew_norm > limit:
        raise SkewDomainError(
            f"{what}: skew component has norm {skew_norm:.3e}, above the "
            f"domain tolerance {limit:.3e}; the operator is singular off "
            "the symmetric subspace"
        )
    return sym_part(m)


def restricted_inverse_apply(cov: CovarianceModel, v) -> np.ndarray:
    """Apply the inverse of S restricted to vec(Sym):
    v -> vec(Sigma^-1 unvec(v) Sigma^-1 / 2).

    Exact closed form (no dense pseudo-inverse); input must be a
    symmetric-matrix vectorization within tolerance.
    """
    m = _symmetric_domain(v, cov, "restricted_inverse_apply")
    return vec(0.5 * (cov.sigma_inv @ m @ cov.sigma_inv))


def frame_coefficient(v, x, cov: CovarianceModel) -> float:
    """Expansion coefficient (v, S^-1 xi(x)) for v in vec(Sym).

    Equals 0.5 * (unvec(v), Sigma^-1 x x^T Sigma^-1 - Sigma^-1)_F.
    """
    m = _symmetric_domain(np.asarray(v, dtype=float), cov, "frame_coefficient")
    xi = frame_vector(x, cov)
    return float(vec(m) @ restricted_inverse_apply(cov, xi))


def cancellation_coefficient(w, x, cov: CovarianceModel) -> float:
    """The same coefficient for v = vec(Sigma (I - W^T W) Sigma), written
    S-free: since v = S vec((I - W^T W)/2) and S is self-adjoint,
    (v, S^-1 xi) collapses to (vec((I - W^T W)/2), xi)."""
    w = as_weights(w)
    _check_dims(w, cov.dim, "cancellation_coefficient")
    half_residual = 0.5 * (np.eye(cov.dim) - w.T @ w)
    return float(vec(half_residual) @ frame_vector(x, cov))


class ExpansionMean:
    """Running sum of (v, S^-1 xi_k) xi_k over chunks; ``result`` is the
    Monte-Carlo frame expansion (1/n) sum_k (v, S^-1 xi_k) xi_k and
    ``coeff_mean`` the mean coefficient.

    Coefficients are evaluated sample-parallel as (S^-1 v, xi_k), which
    equals (v, S^-1 xi_k) because the restricted inverse is self-adjoint;
    with D = unvec(S^-1 v) that is c_k = x_k^T D x_k - tr(D Sigma).
    """

    def __init__(self, v, cov: CovarianceModel):
        self.cov = cov
        self.d = unvec(restricted_inverse_apply(cov, v), cov.dim)
        self.trace = float(np.sum(self.d * cov.sigma))
        self.ones = np.ones(cov.dim)
        self.n = 0
        self.total = None
        self.coeff_sum = 0.0

    def add(self, x: np.ndarray) -> None:
        buf = x @ self.d
        np.multiply(buf, x, out=buf)
        coeffs = buf @ self.ones - self.trace
        self.coeff_sum += float(coeffs.sum())
        np.multiply(x, coeffs[:, None], out=buf)
        part = x.T @ buf
        self.total = part if self.total is None else self.total + part
        self.n += x.shape[0]

    def coeff_mean(self) -> float:
        return self.coeff_sum / self.n

    def result(self) -> np.ndarray:
        return vec(self.total / self.n - self.coeff_mean() * self.cov.sigma)


def frame_expansion_reconstruct(v, batch: SampleBatch) -> np.ndarray:
    """Monte-Carlo frame expansion (1/n) sum_k (v, S^-1 xi_k) xi_k.

    Converges to v at the usual 1/sqrt(n) rate for v in vec(Sym).
    """
    return batch.feed(ExpansionMean(v, batch.covariance))[0]


@dataclass(frozen=True)
class DerivationResult:
    """Numerical walk through the chain that turns the subspace rule into
    the error-gated rule, with one residual record per claim."""

    target: np.ndarray  # W Sigma (I - W^T W) Sigma, closed form
    frame_route: np.ndarray  # W applied through the expansion
    direct_route: np.ndarray  # gain-weighted Hebbian mean on the same batch
    records: tuple[ExperimentRecord, ...]


def derive_eghr_from_oja(w, cov: CovarianceModel, batch: SampleBatch) -> DerivationResult:
    """Regenerate the error-gated update from the subspace rule on a batch.

    Steps: right-multiply the closed-form subspace update by Sigma; frame-
    expand the symmetric sandwich v = vec(Sigma (I - W^T W) Sigma) over the
    batch; reattach W, restoring the mean term the expansion centered away;
    and compare against the gain-weighted Hebbian mean computed directly
    from the samples. The two routes are the same sum term by term (the
    coefficient equals the gain), so they must agree to roundoff on any
    batch, while either route approaches the closed-form target only at
    Monte-Carlo rate. Both routes are summed in one pass over the chunks.
    """
    t0 = time.perf_counter()
    w = as_weights(w)
    target = oja_update_closed(w, cov) @ cov.sigma

    v = vec(cov.sigma @ (np.eye(cov.dim) - w.T @ w) @ cov.sigma)
    expansion = ExpansionMean(v, cov)
    # The direct route centers the gains in closed form.
    recon, direct_route = batch.feed(expansion, EghrMean(w, _closed_center(w, cov.sigma)))
    # Undo the centering of xi: (1/n) sum c_k vec(x x^T) = recon + mean(c) vec(Sigma).
    frame_route = w @ (unvec(recon, cov.dim) + expansion.coeff_mean() * cov.sigma)

    wall = (time.perf_counter() - t0) * 1e3
    digest = digest_inputs(
        nx=cov.dim, nu=w.shape[0], n=batch.n, seed=batch.seed, check="derivation"
    )
    agreement = make_record(
        check_name="derivation-chain-agreement",
        value=float(np.linalg.norm(frame_route - direct_route)),
        tolerance=CHAIN_AGREEMENT_RTOL * max(float(np.linalg.norm(direct_route)), 1e-300),
        seed=batch.seed,
        inputs_digest=digest,
        wall_time_ms=wall,
    )
    mc = make_record(
        check_name="derivation-mc-target",
        value=float(np.linalg.norm(frame_route - target)),
        tolerance=MC_TARGET_RTOL * max(float(np.linalg.norm(target)), 1e-300),
        seed=batch.seed,
        inputs_digest=digest,
        wall_time_ms=wall,
    )
    return DerivationResult(
        target=target,
        frame_route=frame_route,
        direct_route=direct_route,
        records=(agreement, mc),
    )
