"""Seeded zero-mean Gaussian sampling and the two moment identities the
learning-rule algebra rests on: integration by parts (for a smooth f,
E[f(x) x_i] = sum_a Sigma_ia E[d_a f]) and the analytic Gaussian fourth
moment E[(x kron x)(x kron x)^T], built from Isserlis' three pairings.

Sampling is deterministic: a batch's rows are a pure function of
(covariance, n, seed). ``sample`` returns a ``SampleBatch`` that holds no
rows; each pass over its ``chunks`` draws them in order from one
``default_rng(seed)``, about CHUNK_ROWS at a time, so a pass holds a few
chunks, not the batch (under ``feed``, the chunk read, the one read before
it and the one being drawn: a batch of several chunks draws the next chunk
on a worker thread while the reader works on the current one). The chunks concatenate to the
rows a whole-batch draw gives, bit for bit. A batch drawn with ``block=m``
starts every chunk on a multiple of m rows and holds at most CHUNK_BLOCKS
blocks a chunk, so a pass can cut each chunk into whole blocks of m rows:
the checks' rate blocks, or the steps of a ``rules.train`` run, which reads
one batch per run.
Every empirical estimator is a running sum over the chunks (a
``RunningSum``: the additive ``sums`` of a row range, and the ``estimate``
they give), and ``SampleBatch.feed`` hands each chunk to several of them, so
estimators that share a batch share one draw. The checks, which need several
independent batches, take a child seed per batch from ``derive_seed``.

The identity is checked, drawing nothing, on monomials f = prod_j x_j^{a_j}
of degree at most 4, each given by its exponent vector a
(``monomial_exponents`` lists the built-in ones): every term is then a
polynomial of degree at most 5, which the rule of ``cubature`` integrates
exactly, so ``stein_check`` gives the gap between both sides, which is
roundoff, and the scale of that roundoff.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import CovarianceModel, require_memory


# Rows per chunk: 2**15 rows keep a chunk and the estimators' temporaries
# at a few MB for small nx, and a power of two lines up with the BLAS
# blocking, so the rows of a chunk come out of the product with L^T as they
# do in one whole-batch product.
CHUNK_ROWS = 1 << 15
# Most blocks per chunk of a batch drawn with a block: the default checks'
# 32 blocks of 1000 rows, or 32 steps of a train run of at most CHUNK_ROWS
# rows a step.
CHUNK_BLOCKS = 32


@dataclass(frozen=True)
class SampleBatch:
    """n zero-mean Gaussian rows x = L z, handed out in chunks.

    A batch from ``sample`` holds no rows (``rows`` is None): each pass of
    ``chunks`` draws them from a new ``default_rng(seed)``, so every pass
    gives the same rows. A batch built by ``from_rows`` holds its rows and
    ``chunks`` slices them. The chunk bounds depend on n and ``block``
    alone, so both kinds run through the same estimator code.
    """

    n: int
    seed: int
    covariance: CovarianceModel
    rows: np.ndarray | None = None
    block: int | None = None  # every chunk starts on a multiple of block rows

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
        """The rows in order, in chunks of ``chunk_schedule``'s step of rows;
        the last chunk also takes the remainder, so every chunk but a lone
        one holds one to two steps of rows. A short tail chunk would go
        through another BLAS kernel (gemv, or the small-matrix path) than the
        same rows do inside a whole-batch product, and could differ in the
        last bit.

        A drawn batch of two or more chunks draws chunk k + 1 on one worker
        thread while the reader holds chunk k: the draw and the product with
        L^T release the interpreter lock, so they overlap the reader's work.
        A lone chunk is drawn on the caller's thread, and no thread starts.
        The draws run in order, so the rows are those of drawing the chunks
        one by one. A draw's exception is raised when the reader reaches that
        chunk, and closing the iterator early waits for the draw in flight.
        A pass holds the chunk being drawn, one z buffer, the chunk handed
        out and whatever chunks the reader still holds (``feed`` holds the
        one before until the next arrives)."""
        step, last = chunk_schedule(self.n, self.block)
        sizes = itertools.chain(itertools.repeat(step, (self.n - last) // step), (last,))
        if self.rows is not None:
            start = 0
            for m in sizes:
                yield self.rows[start:start + m]
                start += m
            return
        rng = np.random.default_rng(self.seed)
        chol_t = self.covariance.chol.T
        if last == self.n:  # a lone chunk
            yield rng.standard_normal((last, self.dim)) @ chol_t
            return
        # Imported here: it loads logging, which no lone-chunk command needs.
        from concurrent.futures import ThreadPoolExecutor
        # The reader's thread makes every array, one z per pass and each
        # chunk's in draw: made on the worker, they would live in its own
        # malloc arena and raise the peak RSS by about two chunks.
        z = np.empty((last, self.dim))

        def draw(m: int):
            return pool.submit(_draw_into, rng, z[:m], chol_t, np.empty((m, self.dim)))

        with ThreadPoolExecutor(max_workers=1) as pool:
            ahead = draw(next(sizes))
            for m in sizes:
                x = ahead.result()
                ahead = draw(m)
                yield x
            yield ahead.result()

    def feed(self, *sums) -> list:
        """One pass over the chunks: hand each chunk to every running sum's
        ``add``, then return their ``result()``s in order."""
        for x in self.chunks():
            for s in sums:
                s.add(x)
        return [s.result() for s in sums]


def _draw_into(rng: np.random.Generator, z: np.ndarray, chol_t: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """One chunk's draw into given arrays: z from rng, then out = z L^T, bit
    for bit the rows of ``rng.standard_normal(z.shape) @ chol_t``; returns
    out."""
    rng.standard_normal(out=z)
    return np.matmul(z, chol_t, out=out)


def chunk_schedule(n: int, block: int | None) -> tuple[int, int]:
    """(step, last): the rows of every chunk but the last of an n-row batch
    drawn with ``block`` (see ``SampleBatch.chunks``), and of the last chunk,
    which also takes the remainder and so is the longest. Without a block
    the step is CHUNK_ROWS; with one, the most whole blocks that fit in
    CHUNK_ROWS, at most CHUNK_BLOCKS and at least one."""
    step = CHUNK_ROWS if block is None else max(min(CHUNK_ROWS // block, CHUNK_BLOCKS), 1) * block
    return step, n - step * (max(n // step, 1) - 1)


def merge_sums(a: tuple, b: tuple) -> tuple:
    """The sums of two row ranges: their tuples added entry by entry."""
    return tuple(map(operator.add, a, b))


class RunningSum:
    """A batch average summed chunk by chunk.

    A subclass gives ``sums(x)``, the sums over the rows x of the terms it
    averages (a tuple), and ``estimate(sums, n)``, the average that sums over
    n rows give. The sums of consecutive row ranges add (``merge_sums``), so
    ``add`` accumulates a chunk's sums and ``result`` is the estimate over
    every row added; ``absorb`` adds sums computed on row ranges elsewhere,
    block by block (``checks.BlockSums``). An estimate may be held in a
    compact form (``frames.OperatorMean``'s half form, which its ``dense``
    expands).
    """

    def __init__(self):
        self.n = 0
        self.total = None

    def add(self, x: np.ndarray) -> None:
        self.absorb(self.sums(x), x.shape[0])

    def absorb(self, sums: tuple, n: int) -> None:
        self.total = sums if self.total is None else merge_sums(self.total, sums)
        self.n += n

    def result(self):
        return self.estimate(self.total, self.n)

    def distance_sq(self, estimate, ref) -> float:
        """Squared Frobenius distance of an estimate from a reference given
        in the estimate's form (``checks.BlockSums`` scores each block so)."""
        d = estimate - ref
        return float(np.vdot(d, d))


def derive_seed(seed: int, index: int) -> int:
    """Deterministic 64-bit child seed ``index`` of ``seed``: the checks'
    batch seeds, and the seed of ``rules.train``'s one batch per run (index
    0)."""
    state = np.random.SeedSequence((seed, index)).generate_state(2)
    return int(state.view(np.uint64)[0])


def sample(cov: CovarianceModel, n: int, seed: int,
           block: int | None = None) -> SampleBatch:
    """n samples x = L z with z standard normal from ``default_rng(seed)``;
    the rows are drawn when the batch's chunks are read, each chunk starting
    on a multiple of ``block`` rows and holding at most CHUNK_BLOCKS blocks
    (``chunk_schedule``). n and block, at least 1, come from the run's
    checked settings (``config.RunConfig``, ``rules.TrainerConfig``) and are
    not checked again here."""
    return SampleBatch(n=n, seed=seed, covariance=cov, block=block)


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


def cubature(cov: CovarianceModel) -> tuple[np.ndarray, np.ndarray]:
    """(points, weights) of the fifth-degree Gauss cubature rule for N(0, Sigma)
    (Stroud 1971): its weighted sum over 2 n**2 + 1 points is the expectation
    of any polynomial of degree at most 5 in x. With q = n + 2, z sits at the
    origin with weight (q - n) / q, at +-sqrt(q) e_i with weight
    (q + 2 - 2n) / (2 q**2), negative for n > 4, and at
    +-sqrt(q / 2) (e_i +- e_j), i < j, with weight 1 / q**2; x = z L^T."""
    n = cov.dim
    q = n + 2.0
    eye = np.eye(n)
    i, j = np.triu_indices(n, k=1)
    axes = np.sqrt(q) * eye
    pairs = np.sqrt(q / 2.0) * np.concatenate([eye[i] + eye[j], eye[i] - eye[j]])
    z = np.concatenate([np.zeros((1, n)), axes, -axes, pairs, -pairs])
    weights = np.concatenate([[(q - n) / q], np.full(2 * n, (q + 2 - 2 * n) / (2 * q * q)),
                              np.full(2 * len(pairs), 1.0 / (q * q))])
    return z @ cov.chol.T, weights


def stein_check(cov: CovarianceModel,
                exponents: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of E[f(x) x_i] = sum_a Sigma_ia E[d_a f], per component,
    for each monomial f given by an exponent vector in ``exponents``, as
    (gap, scale), each of shape (functions, dim). Row k of gap is
    |sum_p w_p d(x_p)| for the k-th function, d(x) = f(x) x - Sigma grad f(x),
    over the points and weights of ``cubature(cov)``: exactly 0 but for
    roundoff. Row k of scale is sum_p |w_p| (|f(x_p) x_p| + |Sigma grad
    f(x_p)|), entry by entry, which bounds that roundoff whatever the signs
    of the weights. Each exponent vector must have length ``cov.dim``, no
    negative entry and total degree at most 4, up to which the rule is
    exact: the built-in ``monomial_exponents(cov.dim)`` are such vectors,
    and they are not checked here.
    """
    x, weights = cubature(cov)
    xt = np.ascontiguousarray(x.T)
    size = np.abs(weights)
    gap, scale = np.empty((2, len(exponents), cov.dim))
    for k, a in enumerate(exponents):
        fx = monomial(xt, a) * xt
        support, partials = monomial_grad(xt, a)
        grad = cov.sigma[:, support] @ partials
        gap[k] = np.abs((fx - grad) @ weights)
        scale[k] = (np.abs(fx) + np.abs(grad)) @ size
    return gap, scale


def isserlis_fourth_moment(cov: CovarianceModel) -> np.ndarray:
    """Analytic E[(x kron x)(x kron x)^T] for zero-mean Gaussian x.

    By Isserlis' theorem, entry (a nx + b, c nx + d) is E[x_a x_b x_c x_d] =
    Sigma_ab Sigma_cd + Sigma_ac Sigma_bd + Sigma_ad Sigma_bc, the three
    pairings added in that order. The build shares no code with the frame
    operator (Sigma kron Sigma)(I + T) that isserlis-analytic compares it to.
    It writes the moment's array one block of rows at a time, the nx**3
    entries of each a, so it holds the moment and one block's product, never
    a second nx**2 x nx**2 array.
    """
    nx = cov.dim
    require_memory(8 * (nx**4 + nx**3), f"the fourth moment at nx={nx}")
    s = cov.sigma
    m = np.empty((nx, nx, nx, nx))
    for a in range(nx):
        np.multiply(s[a, :, None, None], s, out=m[a])
        m[a] += s[a, None, :, None] * s[:, None, :]
        m[a] += s[a, None, None, :] * s[:, :, None]
    return m.reshape(nx * nx, nx * nx)
