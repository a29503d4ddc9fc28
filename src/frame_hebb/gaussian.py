"""Seeded zero-mean Gaussian sampling and the two moment identities the
learning-rule algebra rests on: integration by parts (for a smooth f,
E[f(x) x_i] = sum_a Sigma_ia E[d_a f]) and the analytic Gaussian fourth
moment E[(x kron x)(x kron x)^T].

Sampling is deterministic: a batch is a pure function of (covariance, n,
seed). ``sample`` draws the whole n x dim batch at once from one generator
seeded with ``seed`` and holds it in memory. Callers that need several
independent batches take a child seed per batch from ``derive_seed``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

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


@dataclass(frozen=True)
class TestFunction:
    """Scalar test function with a gradient, evaluated batch-wise.

    ``f(X) -> (n,)`` and ``grad(X) -> (n, dim)`` for ``X`` of shape (n, dim).
    """

    __test__ = False  # keep pytest from collecting the API type

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]


def builtin_test_functions(dim: int) -> list[TestFunction]:
    """Constant, linear, quadratic, and cubic monomials in ``dim`` variables."""

    fns = [
        TestFunction(
            "const",
            lambda x: np.ones(np.atleast_2d(x).shape[0]),
            lambda x: np.zeros_like(np.atleast_2d(x)),
        )
    ]

    def coord(j):
        return TestFunction(
            f"x{j}",
            lambda x, j=j: np.atleast_2d(x)[:, j],
            lambda x, j=j: np.eye(dim)[j] * np.ones((np.atleast_2d(x).shape[0], 1)),
        )

    def square(j):
        def g(x, j=j):
            x = np.atleast_2d(x)
            out = np.zeros_like(x)
            out[:, j] = 2.0 * x[:, j]
            return out

        return TestFunction(f"x{j}^2", lambda x, j=j: np.atleast_2d(x)[:, j] ** 2, g)

    def cube(j):
        def g(x, j=j):
            x = np.atleast_2d(x)
            out = np.zeros_like(x)
            out[:, j] = 3.0 * x[:, j] ** 2
            return out

        return TestFunction(f"x{j}^3", lambda x, j=j: np.atleast_2d(x)[:, j] ** 3, g)

    for j in range(dim):
        fns.extend([coord(j), square(j), cube(j)])

    if dim >= 2:

        def cross_grad(x):
            x = np.atleast_2d(x)
            out = np.zeros_like(x)
            out[:, 0] = x[:, 1]
            out[:, 1] = x[:, 0]
            return out

        def cross_sq_grad(x):
            x = np.atleast_2d(x)
            out = np.zeros_like(x)
            out[:, 0] = 2.0 * x[:, 0] * x[:, 1]
            out[:, 1] = x[:, 0] ** 2
            return out

        fns.append(
            TestFunction(
                "x0*x1", lambda x: np.atleast_2d(x)[:, 0] * np.atleast_2d(x)[:, 1], cross_grad
            )
        )
        fns.append(
            TestFunction(
                "x0^2*x1",
                lambda x: np.atleast_2d(x)[:, 0] ** 2 * np.atleast_2d(x)[:, 1],
                cross_sq_grad,
            )
        )
    return fns


def stein_check(
    cov: CovarianceModel, fn: TestFunction, n: int, seed: int
) -> ExperimentRecord:
    """Monte-Carlo check of E[f(x) x_i] = sum_a Sigma_ia E[d_a f] per component.

    Both sides are estimated on the same batch, so the per-sample residual
    d_i(x) = f(x) x_i - (Sigma grad f(x))_i has mean zero under the identity
    and its empirical mean is compared against a 4-standard-error band from
    the sample variance. The recorded component is the one with the worst
    discrepancy-to-band ratio, keeping "passed" equivalent to all components
    passing. Raises SampleSizeError for n < 2, where the band is undefined.
    """
    if n < 2:
        raise SampleSizeError(f"need >= 2 samples for the Stein band, got {n}")
    t0 = time.perf_counter()
    batch = sample(cov, n, seed)
    x = batch.data
    fx = fn.f(x)
    gx = fn.grad(x)
    if fx.shape != (n,) or gx.shape != (n, cov.dim):
        raise DimensionError(
            f"test function {fn.name}: f gave {fx.shape}, grad gave {gx.shape}"
        )

    resid = fx[:, None] * x - gx @ cov.sigma  # (n, dim), zero-mean rows
    mean = resid.mean(axis=0)
    band = 4.0 * resid.std(axis=0, ddof=1) / np.sqrt(n)
    # Degenerate residual (identically zero) gets an absolute floor.
    band = np.maximum(band, 1e-12)

    worst = int(np.argmax(np.abs(mean) / band))
    return make_record(
        check_name=f"stein-{fn.name}",
        value=float(abs(mean[worst])),
        reference=0.0,
        tolerance=float(band[worst]),
        metric="abs",
        seed=seed,
        inputs_digest=digest_inputs(fn=fn.name, n=n, seed=seed, dim=cov.dim),
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
