"""Seeded zero-mean Gaussian sampling and the two moment identities the
learning-rule algebra rests on: integration by parts (for a smooth f,
E[f(x) x_i] = sum_a Sigma_ia E[d_a f]) and the analytic Gaussian fourth
moment E[(x kron x)(x kron x)^T].

Sampling is deterministic: a batch is a pure function of (covariance, n,
seed). ``sample`` returns a ``SampleBatch`` that holds no rows; each pass over
its ``chunks`` draws them in order from one ``default_rng(seed)``, CHUNK_ROWS
at a time, so an estimator holds one chunk, not the batch. The chunks
concatenate to the rows a whole-batch draw gives, bit for bit. Every
empirical estimator is a running sum over the chunks (an object with ``add``
and ``result``), and ``SampleBatch.feed`` hands each chunk to several of them,
so estimators that share a batch share one draw. Callers that need several
independent batches take a child seed per batch from ``derive_seed``.

The identity is checked on monomial test functions f = prod_j x_j^{a_j},
each given by its exponent vector a (``monomial_exponents`` lists the
built-in ones); f and its gradient are evaluated batch-wise from a alone.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SampleSizeError
from .linalg import CovarianceModel, kron, vec, vec_transpose_index
from .records import ExperimentRecord, digest_inputs, make_record


# Rows per chunk: 2**15 rows keep a chunk and the estimators' temporaries
# at a few MB for small nx, and a power of two lines up with the BLAS
# blocking, so the rows of a chunk come out of the product with L^T as they
# do in one whole-batch product.
CHUNK_ROWS = 1 << 15


@dataclass(frozen=True)
class SampleBatch:
    """n zero-mean Gaussian rows x = L z, handed out in chunks.

    A batch from ``sample`` holds no rows (``rows`` is None): ``chunks``
    draws them from ``default_rng(seed)``. A batch built by ``from_rows``
    holds its rows and ``chunks`` slices them. The chunk bounds depend on n
    alone, so both kinds run through the same estimator code.
    """

    n: int
    seed: int
    covariance: CovarianceModel
    rows: np.ndarray | None = None

    @classmethod
    def from_rows(cls, rows, cov: CovarianceModel, seed: int = 0) -> "SampleBatch":
        """A batch of given rows, shape (n, cov.dim) with n >= 1."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] != cov.dim:
            raise DimensionError(f"rows have shape {rows.shape}, expected (n >= 1, {cov.dim})")
        return cls(n=rows.shape[0], seed=seed, covariance=cov, rows=rows)

    @property
    def dim(self) -> int:
        return self.covariance.dim

    def chunks(self) -> Iterator[np.ndarray]:
        """The rows in order, CHUNK_ROWS at a time; the last chunk also takes
        the remainder, so every chunk but a lone one has CHUNK_ROWS to
        2 CHUNK_ROWS - 1 rows. A short tail chunk would go through another
        BLAS kernel (gemv, or the small-matrix path) than the same rows do
        inside a whole-batch product, and could differ in the last bit."""
        count = max(self.n // CHUNK_ROWS, 1)
        sizes = [CHUNK_ROWS] * (count - 1) + [self.n - CHUNK_ROWS * (count - 1)]
        if self.rows is not None:
            yield from np.split(self.rows, np.cumsum(sizes[:-1]))
            return
        rng = np.random.default_rng(self.seed)
        chol_t = self.covariance.chol.T
        for m in sizes:
            yield rng.standard_normal((m, chol_t.shape[0])) @ chol_t

    @property
    def data(self) -> np.ndarray:
        """The whole batch as one n x dim array, for small batches; the
        estimators read ``chunks`` instead."""
        if self.rows is not None:
            return self.rows
        parts = list(self.chunks())
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def feed(self, *sums) -> list:
        """One pass over the chunks: hand each chunk to every running sum's
        ``add``, then return their ``result()``s in order."""
        for x in self.chunks():
            for s in sums:
                s.add(x)
        return [s.result() for s in sums]


def derive_seed(seed: int, index: int) -> int:
    """Deterministic 64-bit child seed for chunk/step ``index``."""
    state = np.random.SeedSequence((seed, index)).generate_state(2)
    return int(state.view(np.uint64)[0])


def sample(cov: CovarianceModel, n: int, seed: int) -> SampleBatch:
    """n samples x = L z with z standard normal from a seeded PRNG; the rows
    are drawn when the batch's chunks are read."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    return SampleBatch(n=n, seed=seed, covariance=cov)


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

    Mean and variance are taken per chunk and merged with the pairwise
    update of Chan, Golub & LeVeque (1983); on one chunk they are
    ``mean(axis=0)`` and ``std(axis=0, ddof=1)`` bit for bit.
    """
    a = tuple(int(p) for p in a)
    if len(a) != cov.dim:
        raise DimensionError(f"exponent vector {a} has length {len(a)}, expected {cov.dim}")
    if n < 2:
        raise SampleSizeError(f"need >= 2 samples for the Stein band, got {n}")
    t0 = time.perf_counter()
    name = monomial_name(a)
    count = 0
    for x in sample(cov, n, seed).chunks():
        resid = monomial(x, a)[:, None] * x - monomial_grad(x, a) @ cov.sigma  # zero-mean rows
        m = resid.shape[0]
        chunk_mean = resid.mean(axis=0)
        dev = resid - chunk_mean
        chunk_m2 = (dev * dev).sum(axis=0)  # the sum of squares np.std takes
        if count == 0:
            mean, m2 = chunk_mean, chunk_m2
        else:
            delta = chunk_mean - mean
            mean = mean + delta * (m / (count + m))
            m2 = m2 + chunk_m2 + delta * delta * (count * m / (count + m))
        count += m
    band = 4.0 * np.sqrt(m2 / (n - 1)) / np.sqrt(n)
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
