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
built-in ones); f and its gradient are evaluated from a alone on a chunk laid
out as (dim, rows). ``stein_check`` takes a sequence of exponent vectors and
checks them all on one batch, in one pass over its chunks.
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

# Fewest rows for which the Stein band holds its false-failure rate. The
# residual is a cubic times x, so its variance is an 8th moment of x; at small
# n the sample variance is mostly too small, and stein_identity_check fails
# an exact identity (value 12.8 at n=2, 1.47 at n=10, 1.99 at n=100, seed 42).
# Over seeds 3000-3299 stein_identity_check failed on 18 seeds at n=1e3, 9 at
# 3e3, 2 at 1e4, 3 at 3e4 and 1 at 1e5 (0.33%). No n below 1e5 matched the
# rate at 1e5, so the minimum is 1e5, the n that check runs at by default.
STEIN_MIN_SAMPLES = 100_000


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
    """f(x) = prod_j x_j^{a_j} over the columns of x, which holds one
    coordinate per row (shape (dim, n)); given ``deriv`` = j, the partial
    derivative a_j x_j^{a_j - 1} prod_{i != j} x_i^{a_i}. Zero exponents are
    skipped, a power is a chain of products (a cube is the square times x_j),
    and the factors multiply in coordinate order."""
    out = None
    for j, p in enumerate(a):
        coeff = 1
        if j == deriv:
            coeff, p = p, p - 1
        if p > 0:
            factor = x[j]
            for _ in range(p - 1):
                factor = factor * x[j]
            if coeff != 1:
                factor = coeff * factor
            out = factor if out is None else out * factor
    return np.ones(x.shape[1]) if out is None else out


def monomial_grad(x: np.ndarray, a) -> tuple[np.ndarray, np.ndarray]:
    """The partials of f that are not identically zero: (support, partials),
    where support lists the j with a_j > 0 in order and row k of partials,
    shape (len(support), n), is the partial along support[k]."""
    support = np.flatnonzero(a)
    partials = np.empty((support.size, x.shape[1]))
    for k, j in enumerate(support):
        partials[k] = monomial(x, a, deriv=j)
    return support, partials


class SteinMean:
    """Running mean and band of the Stein residuals d(x) = f(x) x - Sigma
    grad f(x), one per exponent vector, over chunks; ``result`` is (mean,
    band), each of shape (len(exponents), dim).

    Each chunk is transposed once to (dim, rows), so coordinates and
    reductions run along contiguous memory, and the functions are evaluated
    on it one at a time: a stacked (functions, dim, rows) block would multiply
    the chunk's temporaries by the number of functions. Chunks are merged with
    the pairwise update of Chan, Golub & LeVeque (1983); on one chunk the
    result is ``mean`` and ``std(ddof=1)`` over the rows bit for bit.
    """

    def __init__(self, sigma: np.ndarray, exponents):
        self.sigma = sigma
        self.exponents = exponents
        self.count = 0
        self.mean = np.zeros((len(exponents), sigma.shape[0]))
        self.m2 = np.zeros_like(self.mean)

    def add(self, x: np.ndarray) -> None:
        xt = np.ascontiguousarray(x.T)
        m = xt.shape[1]
        chunk_mean = np.empty_like(self.mean)
        chunk_m2 = np.empty_like(self.mean)
        resid = np.empty_like(xt)
        for k, a in enumerate(self.exponents):
            np.multiply(monomial(xt, a), xt, out=resid)
            support, partials = monomial_grad(xt, a)
            if support.size:
                resid -= self.sigma[:, support] @ partials  # zero-mean under the identity
            chunk_mean[k] = resid.mean(axis=1)
            resid -= chunk_mean[k][:, None]
            np.multiply(resid, resid, out=resid)
            chunk_m2[k] = resid.sum(axis=1)  # the sum of squares np.std takes
        # On the first chunk (count 0) the merge returns the chunk's values.
        count, total = self.count, self.count + m
        delta = chunk_mean - self.mean
        self.mean = self.mean + delta * (m / total)
        self.m2 = self.m2 + chunk_m2 + delta * delta * (count * m / total)
        self.count = total

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.count
        band = 4.0 * np.sqrt(self.m2 / (n - 1)) / np.sqrt(n)
        # Degenerate residual (identically zero) gets an absolute floor.
        return self.mean, np.maximum(band, 1e-12)


def require_stein_samples(n: int) -> None:
    """Raise SampleSizeError for n < STEIN_MIN_SAMPLES."""
    if n < STEIN_MIN_SAMPLES:
        raise SampleSizeError(
            f"need >= {STEIN_MIN_SAMPLES} samples for the Stein band, got {n}: below that "
            "the band of the heavy-tailed residual is not a valid 4-standard-error band")


def stein_check(cov: CovarianceModel, exponents, n: int, seed: int) -> list[ExperimentRecord]:
    """Monte-Carlo check of E[f(x) x_i] = sum_a Sigma_ia E[d_a f] per component,
    for each monomial f given by an exponent vector in ``exponents``; one
    record per function, in order.

    All functions read the same batch ``sample(cov, n, seed)`` in one pass
    (``SteinMean``). Both sides are estimated on that batch, so the
    per-sample residual d_i(x) = f(x) x_i - (Sigma grad f(x))_i has mean zero
    under the identity and its empirical mean is compared against a
    4-standard-error band from the sample variance. A record holds the
    component with the worst discrepancy-to-band ratio, keeping "passed"
    equivalent to all components passing; its wall time covers the whole
    pass. Raises DimensionError when an exponent vector's length is not the
    covariance's dimension, ValueError on a negative exponent (f would not be
    smooth), and SampleSizeError for n < STEIN_MIN_SAMPLES.
    """
    exponents = [tuple(int(p) for p in a) for a in exponents]
    for a in exponents:
        if len(a) != cov.dim:
            raise DimensionError(f"exponent vector {a} has length {len(a)}, expected {cov.dim}")
        if min(a, default=0) < 0:
            raise ValueError(f"exponent vector {a} has a negative exponent")
    require_stein_samples(n)
    t0 = time.perf_counter()
    means, bands = sample(cov, n, seed).feed(SteinMean(cov.sigma, exponents))[0]
    wall_time_ms = (time.perf_counter() - t0) * 1e3
    records = []
    for a, mean, band in zip(exponents, means, bands):
        worst = int(np.argmax(np.abs(mean) / band))
        name = monomial_name(a)
        records.append(make_record(
            f"stein-{name}", value=float(abs(mean[worst])), tolerance=float(band[worst]),
            seed=seed, inputs_digest=digest_inputs(fn=name, n=n, seed=seed, dim=cov.dim),
            wall_time_ms=wall_time_ms))
    return records


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
