"""Both principal-subspace learning rules, as closed-form expected updates
and as empirical batch updates, plus an explicit-Euler trainer and the
subspace-quality metrics used to judge convergence.

The subspace rule is dW/dt = E[u (x - W^T u)^T] with u = W x, whose closed
form under covariance Sigma is W Sigma (I - W^T W). The error-gated rule is
dW/dt = E[g(x, u) u x^T] with the global gain
g = 0.5 (|x|^2 - |u|^2 - E[|x|^2 - |u|^2]); its closed form is
W Sigma (I - W^T W) Sigma, i.e. the subspace rule right-multiplied by Sigma.

Each public function validates its weights with ``as_weights`` and then runs
an unchecked private kernel (``_oja_closed``, ``_eghr_closed``,
``_oja_empirical``, ``_eghr_empirical``, ``_eghr_g``, ``_subspace_error``,
``_orth_residual``). ``train`` validates W0 once at entry and steps through
the same kernels, as the checks' sweeps do, so they and the public functions
share one arithmetic path. The empirical kernels feed the batch's chunks to the
running sums ``OjaMean`` and ``EghrMean``, which ``checks.mc_rate_check``
also feeds directly so that both updates share one draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError, RankDeficientError
from .gaussian import SampleBatch, derive_seed, sample
from .linalg import CovarianceModel

DIVERGENCE_NORM = 1e6

RULES = ("oja", "eghr")
MODES = ("closed", "empirical")


def as_weights(w) -> np.ndarray:
    """Validate a trainable nu-by-nx weight matrix (2-D, finite, and
    1 <= nu <= nx: a dimensionality reduction); return it as a float array."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise DimensionError(f"weights must be 2-dimensional, got shape {w.shape}")
    nu, nx = w.shape
    if nu < 1 or nx < 1 or nu > nx:
        raise DimensionError(f"need 1 <= nu <= nx, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights contain non-finite entries")
    return w


def _check_dims(w: np.ndarray, nx: int, what: str) -> None:
    if w.shape[1] != nx:
        raise DimensionError(f"{what}: weights have nx={w.shape[1]}, input has nx={nx}")


def _oja_closed(w: np.ndarray, sigma: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Unchecked kernel of oja_update_closed; ``eye`` is the nx identity."""
    return (w @ sigma) @ (eye - w.T @ w)


def oja_update_closed(w, cov: CovarianceModel) -> np.ndarray:
    """Closed-form expected update W Sigma (I - W^T W)."""
    w = as_weights(w)
    _check_dims(w, cov.dim, "oja_update_closed")
    return _oja_closed(w, cov.sigma, np.eye(cov.dim))


class OjaMean:
    """Running sum of u (x - W^T u)^T over chunks; ``result`` is its batch
    average. W is not validated."""

    def __init__(self, w: np.ndarray):
        self.w = w
        self.n = 0
        self.total = None

    def add(self, x: np.ndarray) -> None:
        u = x @ self.w.T
        part = u.T @ (x - u @ self.w)
        self.total = part if self.total is None else self.total + part
        self.n += x.shape[0]

    def result(self) -> np.ndarray:
        return self.total / self.n


def _oja_empirical(w: np.ndarray, batch: SampleBatch) -> np.ndarray:
    """Unchecked kernel of oja_update_empirical."""
    return batch.feed(OjaMean(w))[0]


def oja_update_empirical(w, batch: SampleBatch) -> np.ndarray:
    """Batch average of u (x - W^T u)^T with u = W x."""
    w = as_weights(w)
    _check_dims(w, batch.dim, "oja_update_empirical")
    return _oja_empirical(w, batch)


def eghr_g(x, w, cov: CovarianceModel) -> float:
    """Global gain 0.5 (|x|^2 - |u|^2 - E[|x|^2 - |u|^2]) with the
    expectation in closed form: E|x|^2 = tr Sigma, E|u|^2 = tr(W Sigma W^T)."""
    w = as_weights(w)
    x = np.asarray(x, dtype=float)
    if x.shape != (cov.dim,):
        raise DimensionError(f"x has shape {x.shape}, expected ({cov.dim},)")
    _check_dims(w, cov.dim, "eghr_g")
    return _eghr_g(x, w, _closed_center(w, cov.sigma))


def _eghr_g(x: np.ndarray, w: np.ndarray, center) -> float:
    """Unchecked kernel of eghr_g, given the closed-form center."""
    u = w @ x
    return 0.5 * (float(x @ x) - float(u @ u) - center)


def _closed_center(w: np.ndarray, sigma: np.ndarray):
    """E[|x|^2 - |u|^2] = tr Sigma - tr(W Sigma W^T), the closed-form center
    of the gains."""
    return np.trace(sigma) - float(np.sum((w @ sigma) * w))


def _gains(w: np.ndarray, x: np.ndarray, center=None) -> tuple[np.ndarray, np.ndarray, float]:
    """u = x W^T, s = |x|^2 - |u|^2 per row, and the center of the gains
    0.5 (s - center): ``center``, or the mean of s when it is None."""
    u = x @ w.T
    s = (x * x).sum(axis=1) - (u * u).sum(axis=1)
    if center is None:
        center = float(s.sum() / s.size)  # np.mean's reduction, without its wrapper
    return u, s, center


class EghrMean:
    """Running sum of g u x^T over chunks; ``result`` is its batch average.

    With ``center`` None the gains are centered by the batch mean c of
    s = |x|^2 - |u|^2, which is known only after the last chunk. So they are
    centered on the first chunk's mean c0 instead, and the result is then
    corrected by -(c - c0)/2 (1/n) sum_k u_k x_k^T, where (c - c0)/2 is the
    mean of those gains. A batch of one chunk needs no correction and gets
    none: the result is the whole-batch formula bit for bit. A given
    ``center`` (the closed form) needs none either. W is not validated.
    """

    def __init__(self, w: np.ndarray, center=None):
        self.w = w
        self.center = center
        self.recenter = center is None
        self.n = 0
        self.total = None
        self.first = None  # (u, g, x) of the first chunk, until a second one comes
        self.g_sum = 0.0  # sum of the gains and of u x^T, once a second chunk comes
        self.ux = None

    def add(self, x: np.ndarray) -> None:
        u, s, self.center = _gains(self.w, x, self.center)
        g = 0.5 * (s - self.center)
        part = (u * g[:, None]).T @ x
        if self.total is None:
            self.total = part
            if self.recenter:
                self.first = (u, g, x)
        else:
            self.total = self.total + part
            if self.recenter:
                if self.first is not None:
                    self._fold(*self.first)
                    self.first = None
                self._fold(u, g, x)
        self.n += x.shape[0]

    def _fold(self, u: np.ndarray, g: np.ndarray, x: np.ndarray) -> None:
        self.g_sum += float(g.sum())
        ux = u.T @ x
        self.ux = ux if self.ux is None else self.ux + ux

    def result(self) -> np.ndarray:
        mean = self.total / self.n
        if self.ux is not None:
            mean -= (self.g_sum / self.n) * (self.ux / self.n)
        return mean


def _eghr_closed(w: np.ndarray, sigma: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Unchecked kernel of eghr_update_closed; ``eye`` is the nx identity."""
    return w @ (sigma @ (eye - w.T @ w) @ sigma)


def eghr_update_closed(w, cov: CovarianceModel) -> np.ndarray:
    """Closed-form expected update W Sigma (I - W^T W) Sigma.

    Evaluated sandwich-first, W @ [Sigma (I - W^T W) Sigma], keeping this an
    arithmetic path independent of oja_update_closed(...) @ Sigma.
    """
    w = as_weights(w)
    _check_dims(w, cov.dim, "eghr_update_closed")
    return _eghr_closed(w, cov.sigma, np.eye(cov.dim))


def _eghr_empirical(w: np.ndarray, batch: SampleBatch) -> np.ndarray:
    """Unchecked kernel of eghr_update_empirical."""
    return batch.feed(EghrMean(w))[0]


def eghr_update_empirical(w, batch: SampleBatch) -> np.ndarray:
    """Batch average of g u x^T with the gain centered by the batch mean.

    Closed-form centering is ``batch.feed(EghrMean(w, center))`` with
    center = tr Sigma - tr(W Sigma W^T). W is validated once, and u = x W^T
    is shared by the gain and the Hebbian term.
    """
    w = as_weights(w)
    _check_dims(w, batch.dim, "eghr_update_empirical")
    return _eghr_empirical(w, batch)


def _orth_residual(w: np.ndarray, eye_nu: np.ndarray) -> float:
    """Unchecked kernel of orthonormality_residual; ``eye_nu`` is the nu identity."""
    return float(np.linalg.norm(w @ w.T - eye_nu))


def orthonormality_residual(w) -> float:
    """Frobenius distance of W W^T from the identity."""
    w = as_weights(w)
    return _orth_residual(w, np.eye(w.shape[0]))


def _subspace_error(w: np.ndarray, p_k: np.ndarray) -> float:
    """Unchecked kernel of subspace_error against the principal projector p_k;
    still raises RankDeficientError for dependent rows."""
    nu, nx = w.shape
    _, s, vh = np.linalg.svd(w, full_matrices=False)
    tol = s[0] * max(nu, nx) * np.finfo(float).eps if s[0] > 0 else 0.0
    if s[-1] <= tol:
        raise RankDeficientError(
            f"weight rows are rank deficient (singular values {s})"
        )
    p_w = vh.T @ vh
    return float(np.linalg.norm(p_w - p_k))


def subspace_error(w, cov: CovarianceModel) -> float:
    """Frobenius distance between the row-space projector of W and the
    projector onto the principal nu-dimensional eigenspace of Sigma.

    Zero iff the subspaces coincide; invariant to invertible row mixing.
    Raises RankDeficientError when the rows of W are dependent, since the
    row space then has dimension below nu and the metric is undefined.
    """
    w = as_weights(w)
    _check_dims(w, cov.dim, "subspace_error")
    e = cov.top_eigvecs(w.shape[0])
    return _subspace_error(w, e @ e.T)


@dataclass(frozen=True)
class TrainerConfig:
    learning_rate: float
    steps: int
    batch_size: int = 0  # 0 means closed-form mode
    record_every: int = 1
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if self.batch_size < 0:
            raise ValueError(f"batch_size must be >= 0, got {self.batch_size}")


@dataclass(frozen=True)
class TrajectoryPoint:
    step: int
    w: np.ndarray
    subspace_error: float
    orthonormality_residual: float
    update_norm: float


@dataclass(frozen=True)
class Trajectory:
    rule: str
    mode: str
    points: tuple[TrajectoryPoint, ...]

    @property
    def final(self) -> TrajectoryPoint:
        return self.points[-1]


def train(
    rule: str, mode: str, w0, cov: CovarianceModel, config: TrainerConfig
) -> Trajectory:
    """Explicit-Euler integration of the chosen rule from W0.

    Closed-form mode steps along the exact expected update; empirical mode
    draws a fresh batch per step with a seed derived from (config.seed, step),
    so identical configs give identical trajectories. Records metrics every
    ``record_every`` steps and always at the final step. Aborts with
    DivergenceError if the weight norm passes 1e6 or is not finite.

    W0 is validated once here; the loop then calls the unchecked kernels of
    the public updates and metrics. Every step keeps W finite and of its
    shape: ``w + lr * upd`` cannot change the shape, and a non-finite entry
    makes the norm non-finite, so the guard raises before the next update.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "empirical" and config.batch_size < 1:
        raise ValueError("empirical mode needs batch_size >= 1")

    w = as_weights(w0).copy()
    _check_dims(w, cov.dim, "train")
    nu, nx = w.shape
    sigma, eye, eye_nu = cov.sigma, np.eye(nx), np.eye(nu)
    e = cov.top_eigvecs(nu)
    p_k = e @ e.T

    if mode == "closed":
        closed = _oja_closed if rule == "oja" else _eghr_closed

        def update_at(w: np.ndarray, step: int) -> np.ndarray:
            return closed(w, sigma, eye)
    else:
        empirical = _oja_empirical if rule == "oja" else _eghr_empirical

        def update_at(w: np.ndarray, step: int) -> np.ndarray:
            batch = sample(cov, config.batch_size, derive_seed(config.seed, step))
            return empirical(w, batch)

    points: list[TrajectoryPoint] = []
    for step in range(config.steps + 1):
        upd = update_at(w, step)
        if step % config.record_every == 0 or step == config.steps:
            points.append(
                TrajectoryPoint(
                    step=step,
                    w=w.copy(),
                    subspace_error=_subspace_error(w, p_k),
                    orthonormality_residual=_orth_residual(w, eye_nu),
                    update_norm=float(np.linalg.norm(upd)),
                )
            )
        if step == config.steps:
            break
        w = w + config.learning_rate * upd
        norm = float(np.linalg.norm(w))
        if not math.isfinite(norm) or norm > DIVERGENCE_NORM:
            raise DivergenceError(step + 1, norm)
    return Trajectory(rule=rule, mode=mode, points=tuple(points))
