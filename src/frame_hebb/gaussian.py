"""Seeded zero-mean Gaussian sampling and the two moment identities the
learning-rule algebra rests on: integration by parts (for a smooth f,
E[f(x) x_i] = sum_a Sigma_ia E[d_a f]) and the analytic Gaussian fourth
moment E[(x kron x)(x kron x)^T].

Sampling is deterministic: a batch is a pure function of (covariance, n,
seed). ``sample`` draws the whole n x dim batch at once from one generator
seeded with ``seed`` and holds it in memory. Callers that need several
independent batches take a child seed per batch from ``derive_seed``.

The identity is checked on monomial test functions f = prod_j x_j^{a_j},
each given by its exponent vector a (``monomial_exponents`` lists the
built-in ones); f and its gradient are evaluated batch-wise from a alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SampleSizeError
from .linalg import CovarianceModel, kron, vec, vec_transpose_index
from .records import ExperimentRecord, digest_inputs, make_record


@dataclass(frozen=True)
class SampleBatch:
    """n i.i.d. zero-mean Gaussian rows with the generating seed attached."""

    n: int
    dim: int
    data: np.ndarray  # shape (n, dim)
    seed: int
    covariance: CovarianceModel


def derive_seed(seed: int, index: int) -> int:
    """Deterministic 64-bit child seed for chunk/step ``index``."""
    state = np.random.SeedSequence((seed, index)).generate_state(2)
    return int(state.view(np.uint64)[0])


def sample(cov: CovarianceModel, n: int, seed: int) -> SampleBatch:
    """Draw n samples x = L z with z standard normal from a seeded PRNG."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, cov.dim))
    x = z @ cov.chol.T
    return SampleBatch(n=n, dim=cov.dim, data=x, seed=seed, covariance=cov)


def monomial_exponents(dim: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the built-in Stein test functions: the constant,
    then x_j, x_j^2 and x_j^3 for each j, then x0*x1 and x0^2*x1 if dim >= 2."""

    def e(*powers):
        return tuple(powers) + (0,) * (dim - len(powers))

    exps = [e()]
    for j in range(dim):
        exps += [e(*[0] * j, k) for k in (1, 2, 3)]
    if dim >= 2:
        exps += [e(1, 1), e(2, 1)]
    return exps


def monomial_name(a) -> str:
    """``const``, ``x1``, ``x0^2*x1``: the nonzero factors in coordinate order."""
    terms = [f"x{j}" if p == 1 else f"x{j}^{p}" for j, p in enumerate(a) if p]
    return "*".join(terms) or "const"


def monomial(x: np.ndarray, a, deriv: int | None = None) -> np.ndarray:
    """f(x) = prod_j x_j^{a_j} over the rows of x, shape (n,); given ``deriv``
    = j, the partial derivative a_j x_j^{a_j - 1} prod_{i != j} x_i^{a_i}.
    Zero exponents are skipped, a first power is the column itself rather
    than a pow call, and the factors multiply in coordinate order."""
    out = np.ones(x.shape[0])
    for j, p in enumerate(a):
        coeff = 1
        if j == deriv:
            coeff, p = p, p - 1
        if p:
            out = out * (coeff * (x[:, j] if p == 1 else x[:, j] ** p))
    return out


def monomial_grad(x: np.ndarray, a) -> np.ndarray:
    """grad f, shape (n, len(a)); column j is zero where a_j = 0."""
    g = np.zeros_like(x)
    for j, p in enumerate(a):
        if p:
            g[:, j] = monomial(x, a, deriv=j)
    return g


def stein_check(cov: CovarianceModel, a, n: int, seed: int) -> ExperimentRecord:
    """Monte-Carlo check of E[f(x) x_i] = sum_a Sigma_ia E[d_a f] per component,
    for the monomial f with exponent vector ``a``.

    Both sides are estimated on the same batch, so the per-sample residual
    d_i(x) = f(x) x_i - (Sigma grad f(x))_i has mean zero under the identity
    and its empirical mean is compared against a 4-standard-error band from
    the sample variance. The recorded component is the one with the worst
    discrepancy-to-band ratio, keeping "passed" equivalent to all components
    passing. Raises DimensionError when len(a) is not the covariance's
    dimension, and SampleSizeError for n < 2, where the band is undefined.
    """
    a = tuple(int(p) for p in a)
    if len(a) != cov.dim:
        raise DimensionError(f"exponent vector {a} has length {len(a)}, expected {cov.dim}")
    if n < 2:
        raise SampleSizeError(f"need >= 2 samples for the Stein band, got {n}")
    t0 = time.perf_counter()
    name = monomial_name(a)
    x = sample(cov, n, seed).data
    resid = monomial(x, a)[:, None] * x - monomial_grad(x, a) @ cov.sigma  # zero-mean rows
    mean = resid.mean(axis=0)
    band = 4.0 * resid.std(axis=0, ddof=1) / np.sqrt(n)
    # Degenerate residual (identically zero) gets an absolute floor.
    band = np.maximum(band, 1e-12)

    worst = int(np.argmax(np.abs(mean) / band))
    return make_record(
        check_name=f"stein-{name}",
        value=float(abs(mean[worst])),
        tolerance=float(band[worst]),
        seed=seed,
        inputs_digest=digest_inputs(fn=name, n=n, seed=seed, dim=cov.dim),
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
    )


def isserlis_fourth_moment(cov: CovarianceModel) -> np.ndarray:
    """Analytic E[(x kron x)(x kron x)^T] for zero-mean Gaussian x.

    Equals (Sigma kron Sigma)(I + T) plus the rank-one term
    vec(Sigma) vec(Sigma)^T; T is applied as a column gather, and every term
    is symmetric to the bit because Sigma is.
    """
    m = kron(cov.sigma, cov.sigma)
    m += m.take(vec_transpose_index(cov.dim), axis=1)
    vs = vec(cov.sigma)
    m += np.outer(vs, vs)
    return m
