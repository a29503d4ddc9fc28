"""Both principal-subspace learning rules, as closed-form expected updates
and as empirical batch updates, plus an explicit-Euler trainer and the
subspace-quality metrics used to judge convergence.

The subspace rule is dW/dt = E[u (x - W^T u)^T] with u = W x, whose closed
form under covariance Sigma is W Sigma (I - W^T W). The error-gated rule is
dW/dt = E[g(x, u) u x^T] with the global gain
g = 0.5 (|x|^2 - |u|^2 - E[|x|^2 - |u|^2]); its closed form is
W Sigma (I - W^T W) Sigma, i.e. the subspace rule right-multiplied by Sigma.

The closed forms, ``closed_center`` and ``eghr_g`` also take stacks: W of
shape (k, nu, nx) and x of shape (k, nx), with a stacked covariance model or
one model; each item equals the single call to the bit.

Each formula has one function. Weights are validated and cast to float
once, by ``as_weights``, where they enter from outside the program
(``train``'s W0); every other function here takes weights the program made
or validated and keeps their dtype, so ``train``, the checks' sweeps and the
public API share one arithmetic path, and a W and Sigma of ``Fraction``s
give exact closed forms. The empirical updates feed the batch's chunks to the
running sums ``OjaMean`` and ``EghrMean``, whose ``sums`` are pure functions
of their rows and merge over consecutive blocks of rows; ``EghrMean`` sums
uncentered gains and centers them on the batch mean in its ``estimate``.
``checks.MonteCarloBatches`` feeds them block by block so that both updates,
at every block size, share one draw.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError, RankDeficientError
from .gaussian import CHUNK_ROWS, RunningSum, SampleBatch, chunk_schedule, derive_seed, sample
from .linalg import CovarianceModel, dot, matrix_transpose, require_memory

DIVERGENCE_NORM = 1e6
# Most rows an empirical training step draws: the check commands' default
# --samples. One such step of the error-gated rule at nx=4 takes about 0.2 s
# on one core, so the default 5000 steps take about 15 minutes.
MAX_BATCH_SIZE = 1_000_000

RULES = ("oja", "eghr")
MODES = ("closed", "empirical")


def as_weights(w, nx: int) -> np.ndarray:
    """Validate ``train``'s W0, a trainable nu-by-nx weight matrix for an
    input of dimension ``nx`` (2-D, finite, and 1 <= nu <= nx: a
    dimensionality reduction); return it as a float array. Every other
    function here takes weights validated by this."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise DimensionError(f"weights must be 2-dimensional, got shape {w.shape}")
    nu, width = w.shape
    if nu < 1 or width < 1 or nu > width:
        raise DimensionError(f"need 1 <= nu <= nx, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights contain non-finite entries")
    if width != nx:
        raise DimensionError(f"train: weights have nx={width}, input has nx={nx}")
    return w


@functools.cache
def _identity(n: int, dtype) -> np.ndarray:
    """The read-only n x n identity of the weights' dtype, built once per n
    and dtype: a closed-form step or a sweep's trial reads it instead of
    paying for np.eye."""
    eye = np.eye(n, dtype=dtype)
    eye.flags.writeable = False
    return eye


@functools.cache
def _ones(n: int) -> np.ndarray:
    """The read-only ones vector of length n, built once per n: a product
    with it sums the rows of a chunk, as one BLAS call."""
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


def oja_update_closed(w: np.ndarray, cov: CovarianceModel) -> np.ndarray:
    """Closed-form expected update W Sigma (I - W^T W)."""
    return (w @ cov.sigma) @ (_identity(cov.dim, w.dtype) - matrix_transpose(w) @ w)


class OjaMean(RunningSum):
    """Running sum of u (x - W^T u)^T over chunks; ``result`` is its batch
    average."""

    def __init__(self, w: np.ndarray):
        super().__init__()
        self.w = w

    def sums(self, x: np.ndarray) -> tuple:
        u = x @ self.w.T
        return (u.T @ (x - u @ self.w),)

    def estimate(self, sums: tuple, n: int) -> np.ndarray:
        return sums[0] / n


def oja_update_empirical(w: np.ndarray, batch: SampleBatch) -> np.ndarray:
    """Batch average of u (x - W^T u)^T with u = W x."""
    return batch.feed(OjaMean(w))[0]


def closed_center(w: np.ndarray, cov: CovarianceModel):
    """E[|x|^2 - |u|^2] = tr Sigma - tr(W Sigma W^T), the closed-form center
    of the gains."""
    return (np.trace(cov.sigma, axis1=-2, axis2=-1)
            - np.sum((w @ cov.sigma) * w, axis=(-2, -1)))


def eghr_g(x: np.ndarray, w: np.ndarray, cov: CovarianceModel):
    """Global gain 0.5 (|x|^2 - |u|^2 - E[|x|^2 - |u|^2]) of one sample x,
    with the expectation in closed form (``closed_center``)."""
    u = (w @ x[..., None])[..., 0]
    return 0.5 * (dot(x, x) - dot(u, u) - closed_center(w, cov))


class EghrMean(RunningSum):
    """Running sum of g u x^T over chunks; ``result`` is its batch average.

    The gains are g = (s - c) / 2 with s = |x|^2 - |u|^2 and c fixed here:
    the given ``center`` (the closed form), or 0. The sums are sum_k g_k u_k
    x_k^T and, with ``center`` None, sum_k g_k and sum_k u_k x_k^T: the
    estimate then centers the gains on the mean of s over the n rows
    averaged, which subtracts (1/n) sum_k g_k times (1/n) sum_k u_k x_k^T.

    The row sums |x|^2 and |u|^2 are products with a ones vector, one BLAS
    call each; they differ from np.sum's pairwise sums in the last bits.
    """

    def __init__(self, w: np.ndarray, center=None):
        super().__init__()
        self.w = w
        self.ones_x, self.ones_u = _ones(w.shape[1]), _ones(w.shape[0])
        self.center = center
        self.shift = 0.0 if center is None else center

    def sums(self, x: np.ndarray) -> tuple:
        u = x @ self.w.T
        s = (x * x) @ self.ones_x - (u * u) @ self.ones_u  # |x|^2 - |u|^2 per row
        g = 0.5 * (s - self.shift)
        hebbian = (u * g[:, None]).T @ x
        if self.center is not None:
            return (hebbian,)
        return hebbian, float(g.sum()), u.T @ x

    def estimate(self, sums: tuple, n: int) -> np.ndarray:
        mean = sums[0] / n
        if self.center is None:
            mean -= (sums[1] / n) * (sums[2] / n)
        return mean


def expansion_target(w: np.ndarray, cov: CovarianceModel) -> np.ndarray:
    """M = Sigma (I - W^T W) Sigma: the symmetric matrix that W multiplies in
    the error-gated closed form, and whose frame expansion the derivation
    chain takes (``frames.derive_eghr_from_oja``)."""
    return cov.sigma @ (_identity(cov.dim, w.dtype) - matrix_transpose(w) @ w) @ cov.sigma


def eghr_update_closed(w: np.ndarray, cov: CovarianceModel) -> np.ndarray:
    """Closed-form expected update W Sigma (I - W^T W) Sigma.

    Evaluated sandwich-first, W @ [Sigma (I - W^T W) Sigma], keeping this an
    arithmetic path independent of oja_update_closed(...) @ Sigma.
    """
    return w @ expansion_target(w, cov)


def eghr_update_empirical(w: np.ndarray, batch: SampleBatch) -> np.ndarray:
    """Batch average of g u x^T with the gain centered by the batch mean; u =
    x W^T is shared by the gain and the Hebbian term. Closed-form centering is
    ``batch.feed(EghrMean(w, closed_center(w, cov)))``."""
    return batch.feed(EghrMean(w))[0]


def orthonormality_residual(w: np.ndarray) -> float:
    """Frobenius distance of W W^T from the identity."""
    return float(np.linalg.norm(w @ w.T - _identity(w.shape[0], w.dtype)))


def subspace_error(w: np.ndarray, cov: CovarianceModel) -> float:
    """Frobenius distance between the row-space projector of W and the
    projector onto the principal nu-dimensional eigenspace of Sigma.

    Zero iff the subspaces coincide; invariant to invertible row mixing.
    Raises RankDeficientError when the rows of W are dependent, since the
    row space then has dimension below nu and the metric is undefined.
    """
    nu, nx = w.shape
    _, s, vh = np.linalg.svd(w, full_matrices=False)
    tol = s[0] * max(nu, nx) * np.finfo(float).eps if s[0] > 0 else 0.0
    if s[-1] <= tol:
        raise RankDeficientError(
            f"weight rows are rank deficient (singular values {s})"
        )
    e = cov.top_eigvecs(nu)
    return float(np.linalg.norm(vh.T @ vh - e @ e.T))


@dataclass(frozen=True)
class TrainerConfig:
    """The settings of one ``train`` run; the one place they are checked."""

    rule: str
    mode: str
    learning_rate: float
    steps: int
    batch_size: int = 0  # rows drawn per empirical step
    record_every: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if not 0 <= self.batch_size <= MAX_BATCH_SIZE:
            raise ValueError(f"batch_size must be in [0, {MAX_BATCH_SIZE:,}], "
                             f"got {self.batch_size}")
        if self.mode == "empirical" and self.batch_size < 1:
            raise ValueError("empirical mode needs batch_size >= 1")
        if self.rule == "eghr" and self.mode == "empirical" and self.batch_size < 2:
            raise ValueError("empirical eghr needs batch_size >= 2: each step centers the "
                             "gains on its batch's mean, so one row gives a zero update")


@dataclass(frozen=True)
class TrajectoryPoint:
    step: int
    w: np.ndarray
    subspace_error: float
    orthonormality_residual: float
    update_norm: float


def _stream_rows(cov: CovarianceModel, config: TrainerConfig):
    """The rows of an empirical ``train`` run's one batch, ``sample(cov,
    (steps + 1) * b, derive_seed(seed, 0), block)``, in order, in pieces
    that each end at a chunk's end or a step's: step k reads rows k b to
    (k + 1) b. A step of at most CHUNK_ROWS rows is the block, so every
    chunk holds whole steps and a step is one piece; a longer step spans
    chunks of CHUNK_ROWS rows, drawn without a block, so a pass never holds
    a whole step. The read-ahead draws the next chunk while the steps run.
    Before any draw, the pass's peak must fit in physical memory: the z
    buffer of the longest chunk, the chunk being drawn and the chunk read,
    and the temporaries of the longest piece, about three arrays of its
    size."""
    b = config.batch_size
    n = (config.steps + 1) * b
    block = b if b <= CHUNK_ROWS else None
    rows = chunk_schedule(n, block)[1]
    require_memory(8 * cov.dim * 3 * (rows + min(b, rows)),
                   f"a train chunk of {rows:,} rows at nx={cov.dim}")
    left = b  # rows the current step has still to read
    for x in sample(cov, n, derive_seed(config.seed, 0), block).chunks():
        start = 0
        while start < x.shape[0]:
            piece = x[start:start + left]
            yield piece
            start += piece.shape[0]
            left = left - piece.shape[0] or b


# The guard reports an overflowing step; one errstate per run, not per step.
@np.errstate(over="ignore", invalid="ignore")
def train(w0, cov: CovarianceModel, config: TrainerConfig) -> tuple[TrajectoryPoint, ...]:
    """Explicit-Euler integration of ``config.rule`` from W0; the recorded
    points in step order, the final step last.

    Closed-form mode steps along the exact expected update. Empirical mode
    reads the run's one batch, drawn from ``derive_seed(config.seed, 0)``,
    in one pass (``_stream_rows``): step k sums rows k b to (k + 1) b, b =
    ``batch_size``, with the running sum of ``oja_update_empirical`` or
    ``eghr_update_empirical`` and takes its ``result``, while the read-ahead
    worker draws the next chunk. So identical configs give identical
    trajectories, and step k's rows do not depend on ``config.steps``. The
    seed is not ``config.seed``, from which the CLI draws W0. Records
    metrics every ``record_every`` steps and always at the final step.
    Aborts with DivergenceError if the weight norm passes 1e6 or is not
    finite, and with DimensionError, before the first step, if the batch's
    chunks would not fit in physical memory.

    W0 is validated once here, and each step calls the public closed-form
    update or the empirical update's running sum, and the public metrics.
    Every step keeps W finite and of its shape: ``w + lr * upd`` cannot
    change the shape, and a non-finite entry makes the norm non-finite, so
    the guard raises before the next update.
    """
    w = as_weights(w0, cov.dim).copy()
    points: list[TrajectoryPoint] = []
    with contextlib.ExitStack() as run:
        if config.mode == "closed":
            closed = oja_update_closed if config.rule == "oja" else eghr_update_closed

            def update(w):
                return closed(w, cov)
        else:
            mean = OjaMean if config.rule == "oja" else EghrMean
            # Closing the rows ends the read-ahead's pass, a divergence included.
            rows = run.enter_context(contextlib.closing(_stream_rows(cov, config)))

            def update(w):
                s = mean(w)
                while s.n < config.batch_size:
                    s.add(next(rows))
                return s.result()

        for step in range(config.steps + 1):
            upd = update(w)
            if step % config.record_every == 0 or step == config.steps:
                points.append(
                    TrajectoryPoint(
                        step=step,
                        w=w.copy(),
                        subspace_error=subspace_error(w, cov),
                        orthonormality_residual=orthonormality_residual(w),
                        update_norm=float(np.linalg.norm(upd)),
                    )
                )
            if step == config.steps:
                break
            w = w + config.learning_rate * upd
            flat = w.ravel()
            norm = math.sqrt(flat.dot(flat))  # np.linalg.norm(w) to the bit, without its dispatch
            if not math.isfinite(norm) or norm > DIVERGENCE_NORM:
                raise DivergenceError(step + 1, norm)
    return tuple(points)
