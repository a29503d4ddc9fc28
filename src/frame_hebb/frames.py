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

Only the empirical operator builds the n x nx**2 centered rows xi_k, in
fixed chunks. The Monte-Carlo frame expansion never does: with
D = unvec(S^-1 v), the coefficient is (S^-1 v, xi_k) = x_k^T D x_k - tr(D Sigma),
so (1/n) sum_k c_k xi_k = vec(X^T diag(c) X / n - mean(c) Sigma) costs two
n x nx products.
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
from .rules import (
    _check_dims,
    as_weights,
    eghr_g_values,
    eghr_update_from_g,
    oja_update_closed,
)

SKEW_DOMAIN_RTOL = 1e-10
CHAIN_AGREEMENT_RTOL = 1e-12
MC_TARGET_RTOL = 5e-2

_CHUNK = 250_000


def frame_vector(x, cov: CovarianceModel) -> np.ndarray:
    """xi = vec(x x^T) - vec(Sigma) for one sample x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cov.dim,):
        raise DimensionError(f"x has shape {x.shape}, expected ({cov.dim},)")
    return vec(np.outer(x, x) - cov.sigma)


def _centered_rows(x: np.ndarray, cov: CovarianceModel) -> np.ndarray:
    """Rows vec(x_k x_k^T) - vec(Sigma) for a block of samples, centered in
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


def frame_operator_empirical(batch: SampleBatch) -> np.ndarray:
    """(1/n) sum_k xi_k xi_k^T, accumulated in fixed-size chunks so the sum
    does not depend on available memory."""
    if batch.n < 2:
        raise SampleSizeError(f"need >= 2 samples for the frame operator, got {batch.n}")
    cov = batch.covariance
    s = np.zeros((cov.dim * cov.dim,) * 2)
    for start in range(0, batch.n, _CHUNK):
        rows = _centered_rows(batch.data[start : start + _CHUNK], cov)
        s += rows.T @ rows
    s /= batch.n
    return (s + s.T) / 2.0


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


def _expansion_sums(v, batch: SampleBatch) -> tuple[np.ndarray, float]:
    """(1/n) sum_k (v, S^-1 xi_k) xi_k and the coefficient mean, on nx x nx
    matrices.

    Coefficients are evaluated sample-parallel as (S^-1 v, xi_k), which
    equals (v, S^-1 xi_k) because the restricted inverse is self-adjoint;
    with D = unvec(S^-1 v) that is c_k = x_k^T D x_k - tr(D Sigma).
    """
    cov = batch.covariance
    x = batch.data
    d = unvec(restricted_inverse_apply(cov, v), cov.dim)
    buf = x @ d
    np.multiply(buf, x, out=buf)
    coeffs = buf @ np.ones(cov.dim) - float(np.sum(d * cov.sigma))
    coeff_mean = float(np.mean(coeffs))
    np.multiply(x, coeffs[:, None], out=buf)
    return vec(x.T @ buf / batch.n - coeff_mean * cov.sigma), coeff_mean


def frame_expansion_reconstruct(v, batch: SampleBatch) -> np.ndarray:
    """Monte-Carlo frame expansion (1/n) sum_k (v, S^-1 xi_k) xi_k.

    Converges to v at the usual 1/sqrt(n) rate for v in vec(Sym).
    """
    recon, _ = _expansion_sums(v, batch)
    return recon


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
    Monte-Carlo rate.
    """
    t0 = time.perf_counter()
    w = as_weights(w)
    target = oja_update_closed(w, cov) @ cov.sigma

    v = vec(cov.sigma @ (np.eye(cov.dim) - w.T @ w) @ cov.sigma)
    recon, coeff_mean = _expansion_sums(v, batch)
    # Undo the centering of xi: (1/n) sum c_k vec(x x^T) = recon + mean(c) vec(Sigma).
    frame_route = w @ (unvec(recon, cov.dim) + coeff_mean * cov.sigma)

    direct_route = eghr_update_from_g(
        w, batch, eghr_g_values(w, batch, cov)
    )

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
