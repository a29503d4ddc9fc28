"""Dense small-matrix primitives: vectorization, Kronecker product,
commutation matrix, symmetric/skew projections, and validated SPD
covariance models.

Conventions
-----------
``vec`` stacks columns: ``vec(X)[j*n + i] = X[i, j]`` (0-based), so that
``vec(A @ X @ B) == kron(B.T, A) @ vec(X)`` with the standard Kronecker
product, and ``commutation_matrix(n) @ vec(X) == vec(X.T)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCovarianceError, DimensionError

# Residual gates a CovarianceModel must satisfy before it is returned.
SYMMETRY_RTOL = 1e-12
CHOLESKY_RTOL = 1e-12
INVERSE_ATOL = 1e-10
ORTHOGONALITY_ATOL = 1e-10
EIGENVALUE_FLOOR_REL = 1e-12


def _as_matrix(x, name: str = "matrix") -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    if a.shape[0] != a.shape[1]:
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
    which verifies every residual gate; instances are treated as immutable.
    """

    sigma: np.ndarray
    chol: np.ndarray
    sigma_inv: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    dim: int = field(default=0)

    def __post_init__(self):
        object.__setattr__(self, "dim", self.sigma.shape[0])

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


def build_covariance(sigma) -> CovarianceModel:
    """Validate and factor a symmetric positive definite covariance.

    Rejects asymmetric input, any eigenvalue at or below
    ``1e-12 * lambda_max``, and any factorization whose residual exceeds
    the model gates (so a near-degenerate covariance fails loudly here
    instead of corrupting downstream inverses).
    """
    s = _require_square(_as_matrix(sigma, "sigma"), "sigma")
    scale = np.linalg.norm(s)
    asym = np.linalg.norm(s - s.T)
    if asym > SYMMETRY_RTOL * max(scale, 1.0):
        raise DimensionError(
            f"sigma is not symmetric: asymmetry {asym:.3e} exceeds "
            f"{SYMMETRY_RTOL:.1e} * {max(scale, 1.0):.3e}"
        )
    s = (s + s.T) / 2.0  # bit-exact symmetry for everything downstream

    w, q = np.linalg.eigh(s)
    w = w[::-1].copy()
    q = q[:, ::-1].copy()
    lam_max = w[0]
    if lam_max <= 0.0 or w[-1] <= EIGENVALUE_FLOOR_REL * lam_max:
        raise DegenerateCovarianceError(
            f"covariance is degenerate: smallest eigenvalue {w[-1]:.6e} "
            f"is at or below {EIGENVALUE_FLOOR_REL:.1e} * lambda_max ({lam_max:.6e})"
        )

    chol = np.linalg.cholesky(s)
    inv = q @ np.diag(1.0 / w) @ q.T
    inv = (inv + inv.T) / 2.0

    n = s.shape[0]
    chol_res = np.linalg.norm(chol @ chol.T - s) / scale
    inv_res = np.linalg.norm(s @ inv - np.eye(n))
    orth_res = np.linalg.norm(q.T @ q - np.eye(n))
    if chol_res > CHOLESKY_RTOL:
        raise DegenerateCovarianceError(
            f"Cholesky residual {chol_res:.3e} exceeds {CHOLESKY_RTOL:.1e}"
        )
    if inv_res > INVERSE_ATOL:
        raise DegenerateCovarianceError(
            f"inverse residual {inv_res:.3e} exceeds {INVERSE_ATOL:.1e} "
            "(covariance too ill-conditioned)"
        )
    if orth_res > ORTHOGONALITY_ATOL:
        raise DegenerateCovarianceError(
            f"eigenvector orthogonality residual {orth_res:.3e} exceeds "
            f"{ORTHOGONALITY_ATOL:.1e}"
        )
    return CovarianceModel(sigma=s, chol=chol, sigma_inv=inv, eigvals=w, eigvecs=q)


def random_spd(n: int, eig_range: tuple[float, float], seed: int) -> np.ndarray:
    """Random SPD matrix Q diag(lam) Q.T with eigenvalues spanning eig_range.

    The extreme eigenvalues are pinned to the range endpoints (interior ones
    drawn uniformly), so the requested conditioning is actually realized.
    """
    lo, hi = eig_range
    if not (0.0 < lo <= hi):
        raise ValueError(f"eigenvalue range must satisfy 0 < lo <= hi, got {eig_range}")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(lo, hi, size=n)
    lam[0] = hi
    if n > 1:
        lam[-1] = lo
    s = (q * lam) @ q.T
    return (s + s.T) / 2.0
