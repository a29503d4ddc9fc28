"""Dense small-matrix primitives: vectorization, Kronecker product,
commutation matrix, symmetric/skew projections, and validated SPD
covariance models. A model builds its covariance's frame operator
S = (Sigma kron Sigma)(I + T) on first use and keeps it, read-only, so
every check of a run reads one S.

Conventions
-----------
``vec`` stacks columns: ``vec(X)[j*n + i] = X[i, j]`` (0-based), so that
``vec(A @ X @ B) == kron(B.T, A) @ vec(X)`` with the standard Kronecker
product, and ``commutation_matrix(n) @ vec(X) == vec(X.T)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateCovarianceError, DimensionError

# Residual gates a CovarianceModel must satisfy before it is returned.
SYMMETRY_RTOL = 1e-12
CHOLESKY_RTOL = 1e-12
INVERSE_ATOL = 1e-10
ORTHOGONALITY_ATOL = 1e-10
EIGENVALUE_FLOOR_REL = 1e-12
# The checks form moments of x up to the 8th order (the Stein band is the
# variance of a residual of 4th order in x), and such a moment scales as
# lambda^4. Every eigenvalue must keep lambda^4, with MOMENT_HEADROOM to spare
# for the sums over a batch and its dimensions, inside the normal float range.
MOMENT_ORDER = 8
MOMENT_HEADROOM = 1e20
EIGENVALUE_WINDOW = (
    (float(np.finfo(float).tiny) * MOMENT_HEADROOM) ** (2 / MOMENT_ORDER),
    (float(np.finfo(float).max) / MOMENT_HEADROOM) ** (2 / MOMENT_ORDER),
)


def _as_matrix(x, name: str = "matrix", ndim: int = 2) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    if a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    return a


def vec(x) -> np.ndarray:
    """Column-stack a square matrix into a vector of length n**2."""
    a = _require_square(_as_matrix(x))
    return a.flatten(order="F")


def unvec(v, n: int) -> np.ndarray:
    """Invert :func:`vec`: reshape a length-n**2 vector into an n-by-n matrix."""
    a = np.asarray(v, dtype=float)
    if a.ndim != 1 or a.size != n * n:
        raise DimensionError(f"expected vector of length {n * n}, got shape {a.shape}")
    return a.reshape((n, n), order="F")


def kron(a, b) -> np.ndarray:
    """Kronecker product with the standard block layout."""
    return np.kron(_as_matrix(a, "a"), _as_matrix(b, "b"))


def vec_transpose_index(n: int) -> np.ndarray:
    """Index p with vec(X)[p] == vec(X.T) for every n-by-n X, so that
    ``A.take(p, axis=1)`` equals ``A @ commutation_matrix(n)`` exactly
    without the dense product."""
    if n < 1:
        raise DimensionError(f"n must be >= 1, got {n}")
    p = np.arange(n * n)
    # vec index p = j*n + i maps to the transposed-entry index i*n + j.
    return (p % n) * n + p // n


def commutation_matrix(n: int) -> np.ndarray:
    """Dense permutation T with T @ vec(X) = vec(X.T) for every n-by-n X.

    T is symmetric and involutory (T @ T = I).
    """
    return np.eye(n * n)[vec_transpose_index(n)]


def sym_part(x) -> np.ndarray:
    """Symmetric part (X + X.T) / 2."""
    a = _require_square(_as_matrix(x))
    return (a + a.T) / 2.0


def skew_part(x) -> np.ndarray:
    """Skew part (X - X.T) / 2."""
    a = _require_square(_as_matrix(x))
    return (a - a.T) / 2.0


@dataclass(frozen=True)
class CovarianceModel:
    """An SPD covariance with its factorizations cached.

    ``eigvals`` are sorted descending and ``eigvecs`` columns are the
    matching eigenvectors. Construct through :func:`build_covariance`,
    which verifies every residual gate; instances are treated as immutable,
    and ``frame_operator`` is built on first access and then shared.
    """

    sigma: np.ndarray
    chol: np.ndarray
    sigma_inv: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    dim: int = field(default=0)

    def __post_init__(self):
        object.__setattr__(self, "dim", self.sigma.shape[0])

    @cached_property
    def frame_operator(self) -> np.ndarray:
        """S = (Sigma kron Sigma)(I + T), read-only, with T applied as a column
        gather: O(nx**4) instead of the O(nx**6) of a dense product with T.
        Both terms, and so S, are symmetric to the bit because Sigma is."""
        s = kron(self.sigma, self.sigma)
        s += s.take(vec_transpose_index(self.dim), axis=1)
        s.flags.writeable = False
        return s

    def top_eigvecs(self, k: int) -> np.ndarray:
        """Columns spanning the principal k-dimensional subspace."""
        return self.eigvecs[:, :k]

    def spectral_gap_at(self, k: int) -> float:
        """Relative eigenvalue gap across the cut after the k-th eigenvalue.

        Zero gap means the principal k-subspace is not unique.
        """
        if k <= 0 or k >= self.dim:
            return float("inf")
        return float((self.eigvals[k - 1] - self.eigvals[k]) / self.eigvals[0])


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, each reduced on its own."""
    return np.sqrt(np.square(a).reshape(a.shape[0], -1).sum(axis=1))


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose every matrix of a stack."""
    return a.swapaxes(-1, -2)


def build_covariance(sigma) -> CovarianceModel:
    """Validate and factor a symmetric positive definite covariance.

    Rejects asymmetric input, any eigenvalue at or below
    ``1e-12 * lambda_max`` or outside ``EIGENVALUE_WINDOW``, and any
    factorization whose residual exceeds the model gates or is NaN (so a
    near-degenerate covariance fails loudly here instead of corrupting
    downstream inverses). This is
    :func:`build_covariances` on a stack of one.
    """
    return build_covariances(_require_square(_as_matrix(sigma, "sigma"), "sigma")[None])[0]


def build_covariances(sigmas) -> list[CovarianceModel]:
    """:func:`build_covariance` for each matrix of a (k, n, n) stack, with one
    eigendecomposition, Cholesky factorization and inverse for the stack.
    Every gate is evaluated per matrix; the first matrix that fails one
    raises the error :func:`build_covariance` raises for it alone."""
    s = _require_square(_as_matrix(sigmas, "sigmas", ndim=3), "sigmas")
    # Out-of-window input may overflow or underflow on the way to its gate;
    # a NaN residual fails its gate like one above the tolerance.
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        scale = _frobenius(s)
        asym = _frobenius(s - _t(s))
        s = (s + _t(s)) / 2.0  # bit-exact symmetry for everything downstream

        w, q = np.linalg.eigh(s)
        w = w[:, ::-1].copy()
        q = q[:, :, ::-1].copy()
        floor = ~(w[:, 0] > 0.0) | ~(w[:, -1] > EIGENVALUE_FLOOR_REL * w[:, 0])
        lo, hi = EIGENVALUE_WINDOW
        outside = ~((w[:, -1] >= lo) & (w[:, 0] <= hi))
        # A matrix that fails either is factored as the identity, so that the
        # stack still factors and every matrix before it is still gated.
        unfit = floor | outside
        eye = np.eye(s.shape[1])
        chol = np.linalg.cholesky(np.where(unfit[:, None, None], eye, s))
        inv = (q * (1.0 / np.where(unfit[:, None], 1.0, w))[:, None, :]) @ _t(q)
        inv = (inv + _t(inv)) / 2.0

        chol_res = _frobenius(chol @ _t(chol) - s) / scale
        inv_res = _frobenius(s @ inv - eye)
        orth_res = _frobenius(_t(q) @ q - eye)
    gates = (  # (failed per matrix, error, message for matrix i), in gate order
        (~(asym <= SYMMETRY_RTOL * np.maximum(scale, 1.0)), DimensionError,
         lambda i: f"sigma is not symmetric: asymmetry {asym[i]:.3e} exceeds "
                   f"{SYMMETRY_RTOL:.1e} * {max(scale[i], 1.0):.3e}"),
        (floor, DegenerateCovarianceError,
         lambda i: f"covariance is degenerate: smallest eigenvalue {w[i, -1]:.6e} is at or "
                   f"below {EIGENVALUE_FLOOR_REL:.1e} * lambda_max ({w[i, 0]:.6e})"),
        (outside, DegenerateCovarianceError,
         lambda i: f"covariance eigenvalues [{w[i, -1]:.3e}, {w[i, 0]:.3e}] leave the window "
                   f"[{lo:.3e}, {hi:.3e}] in which its moments up to order {MOMENT_ORDER} "
                   "stay finite and normal"),
        (~(chol_res <= CHOLESKY_RTOL), DegenerateCovarianceError,
         lambda i: f"Cholesky residual {chol_res[i]:.3e} exceeds {CHOLESKY_RTOL:.1e}"),
        (~(inv_res <= INVERSE_ATOL), DegenerateCovarianceError,
         lambda i: f"inverse residual {inv_res[i]:.3e} exceeds {INVERSE_ATOL:.1e} "
                   "(covariance too ill-conditioned)"),
        (~(orth_res <= ORTHOGONALITY_ATOL), DegenerateCovarianceError,
         lambda i: f"eigenvector orthogonality residual {orth_res[i]:.3e} exceeds "
                   f"{ORTHOGONALITY_ATOL:.1e}"),
    )
    failed = np.any([bad for bad, _, _ in gates], axis=0)
    if failed.any():
        i = int(np.argmax(failed))
        error, message = next((e, m) for bad, e, m in gates if bad[i])
        raise error(message(i))
    # Each model's arrays are views into the stacks; copying them would hold
    # both at once.
    return [
        CovarianceModel(sigma=s[i], chol=chol[i], sigma_inv=inv[i], eigvals=w[i], eigvecs=q[i])
        for i in range(len(s))
    ]


def random_spd(n: int, eig_range: tuple[float, float], seed: int) -> np.ndarray:
    """Random SPD matrix Q diag(lam) Q.T with eigenvalues spanning eig_range.

    The extreme eigenvalues are pinned to the range endpoints (interior ones
    drawn uniformly), so the requested conditioning is actually realized.
    This is :func:`random_spds` on a stack of one.
    """
    return random_spds(n, eig_range, [seed])[0]


def random_spds(n: int, eig_range: tuple[float, float], seeds) -> np.ndarray:
    """A (len(seeds), n, n) stack of :func:`random_spd` matrices: matrix i
    draws from its own ``default_rng(seeds[i])``, and the stack takes one QR
    and one product."""
    lo, hi = eig_range
    if not (0.0 < lo <= hi):
        raise ValueError(f"eigenvalue range must satisfy 0 < lo <= hi, got {eig_range}")
    g = np.empty((len(seeds), n, n))
    lam = np.empty((len(seeds), n))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        g[i] = rng.standard_normal((n, n))
        lam[i] = rng.uniform(lo, hi, size=n)
    q, _ = np.linalg.qr(g)
    lam[:, 0] = hi
    if n > 1:
        lam[:, -1] = lo
    s = (q * lam[:, None, :]) @ _t(q)
    return (s + _t(s)) / 2.0
