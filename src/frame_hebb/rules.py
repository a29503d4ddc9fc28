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
``_oja_empirical``, ``_eghr_empirical``, ``_subspace_error``,
``_orth_residual``). ``train`` validates W0 once at entry and steps through
the same kernels, so a training run and the public functions share one
arithmetic path.
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


def _oja_empirical(w: np.ndarray, batch: SampleBatch) -> np.ndarray:
    """Unchecked kernel of oja_update_empirical."""
    x = batch.data
    u = x @ w.T
    return u.T @ (x - u @ w) / batch.n


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
    u = w @ x
    expected = np.trace(cov.sigma) - float(np.sum((w @ cov.sigma) * w))
    return 0.5 * (float(x @ x) - float(u @ u) - expected)


def _gains(w: np.ndarray, x: np.ndarray, center=None) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked kernel of eghr_g_values: u = x W^T and the gains, centered by
    ``center`` or, when it is None, by the batch mean."""
    u = x @ w.T
    s = (x * x).sum(axis=1) - (u * u).sum(axis=1)
    if center is None:
        center = float(s.sum() / s.size)  # np.mean's reduction, without its wrapper
    return u, 0.5 * (s - center)


def _gain_hebbian(u: np.ndarray, g: np.ndarray, batch: SampleBatch) -> np.ndarray:
    """Unchecked kernel of eghr_update_from_g, given u = x W^T."""
    return (u * g[:, None]).T @ batch.data / batch.n


def eghr_g_values(w, batch: SampleBatch, cov: CovarianceModel | None = None) -> np.ndarray:
    """Per-sample gains over a batch.

    Batch-mean centering when ``cov`` is None (the default used by the
    empirical update; the values then sum to zero up to roundoff), closed-form
    centering via ``cov`` otherwise.
    """
    w = as_weights(w)
    _check_dims(w, batch.dim, "eghr_g_values")
    center = None
    if cov is not None:
        center = np.trace(cov.sigma) - float(np.sum((w @ cov.sigma) * w))
    return _gains(w, batch.data, center)[1]


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


def eghr_update_from_g(w, batch: SampleBatch, g: np.ndarray) -> np.ndarray:
    """Gain-weighted Hebbian mean (1/n) sum_k g_k u_k x_k^T for explicit g."""
    w = as_weights(w)
    _check_dims(w, batch.dim, "eghr_update_from_g")
    g = np.asarray(g, dtype=float)
    if g.shape != (batch.n,):
        raise DimensionError(f"g has shape {g.shape}, expected ({batch.n},)")
    return _gain_hebbian(batch.data @ w.T, g, batch)


def _eghr_empirical(w: np.ndarray, batch: SampleBatch) -> np.ndarray:
    """Unchecked kernel of eghr_update_empirical."""
    u, g = _gains(w, batch.data)
    return _gain_hebbian(u, g, batch)


def eghr_update_empirical(w, batch: SampleBatch) -> np.ndarray:
    """Batch average of g u x^T with the gain centered by the batch mean.

    Closed-form centering is eghr_update_from_g(w, batch,
    eghr_g_values(w, batch, cov)). W is validated once, and u = x W^T is
    shared by the gain and the Hebbian term.
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
