"""Dense small-matrix primitives: vectorization, Kronecker product,
commutation matrix, symmetric/skew projections, and validated SPD
covariance models. A model builds its covariance's frame operator
S = (Sigma kron Sigma)(I + T) on first use and keeps it, read-only, so
every check of a run reads one S. A model may also be a stack of models,
whose arrays carry a leading trial axis; ``matrix_transpose``, ``dot``,
``frobenius`` and ``vecs`` work item by item on such stacks.

Conventions
-----------
vec stacks columns: ``vecs(X)[j*n + i] = X[i, j]`` (0-based), so that
``vecs(A @ X @ B) == kron(B.T, A) @ vecs(X)`` with the standard Kronecker
product, and ``commutation_matrix(n) @ vecs(X) == vecs(X.T)``.

Only ``build_covariance``, where a covariance enters from outside the
program, casts its input, checks its shape and gates its factorizations;
``random_covariances`` builds its models from the spectra it draws, and the
other functions take arrays the program made and keep their dtype.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateCovarianceError, DimensionError

# Residual gates a CovarianceModel must satisfy before it is returned.
SYMMETRY_RTOL = 1e-12
CHOLESKY_RTOL = 1e-12
INVERSE_ATOL = 1e-10
ORTHOGONALITY_ATOL = 1e-10
EIGEN_RTOL = 1e-12
EIGENVALUE_FLOOR_REL = 1e-12
# The checks form moments of x up to the 8th order (mc-rate-frame-operator
# squares the distance of a block's operator estimate, of 4th order in x,
# from S), and such a moment scales as lambda^4. Every eigenvalue must keep
# lambda^4, with MOMENT_HEADROOM to spare for the sums over a batch and its
# dimensions, inside the normal float range.
MOMENT_ORDER = 8
MOMENT_HEADROOM = 1e20
EIGENVALUE_WINDOW = (
    (float(np.finfo(float).tiny) * MOMENT_HEADROOM) ** (2 / MOMENT_ORDER),
    (float(np.finfo(float).max) / MOMENT_HEADROOM) ** (2 / MOMENT_ORDER),
)


def _as_matrix(x, name: str = "matrix") -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    return a


def vecs(a: np.ndarray) -> np.ndarray:
    """vec of a matrix, its columns stacked into a vector of length n**2, or
    of each matrix of a stack, as the rows of an (..., n**2) array."""
    return np.swapaxes(a, -1, -2).reshape(*a.shape[:-2], -1)


def require_memory(nbytes: int, what: str) -> None:
    """Raise DimensionError when a build holding nbytes at its peak exceeds
    physical memory, so a dense nx**2 x nx**2 build fails before it allocates."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > physical:
        raise DimensionError(f"{what} would hold {nbytes / 2**30:,.1f} GiB at its peak, "
                             f"more than the {physical / 2**30:,.1f} GiB of physical memory")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the standard block layout."""
    return np.kron(a, b)


def vec_transpose_index(n: int) -> np.ndarray:
    """Index p with vec(X)[p] == vec(X.T) for every n-by-n X, so that
    ``A.take(p, axis=1)`` equals ``A @ commutation_matrix(n)`` exactly
    without the dense product."""
    p = np.arange(n * n)
    # vec index p = j*n + i maps to the transposed-entry index i*n + j.
    return (p % n) * n + p // n


def commutation_matrix(n: int) -> np.ndarray:
    """Dense permutation T with T @ vec(X) = vec(X.T) for every n-by-n X.

    T is symmetric and involutory (T @ T = I).
    """
    return np.eye(n * n)[vec_transpose_index(n)]


def sym_part(x: np.ndarray) -> np.ndarray:
    """Symmetric part (X + X.T) / 2 of a matrix, or of each of a stack."""
    return (x + matrix_transpose(x)) / 2.0


def skew_part(x: np.ndarray) -> np.ndarray:
    """Skew part (X - X.T) / 2 of a matrix, or of each of a stack."""
    return (x - matrix_transpose(x)) / 2.0


@dataclass(frozen=True)
class CovarianceModel:
    """An SPD covariance with its factorizations cached, or a stack of them
    whose arrays have a leading trial axis (``covs[i]`` is the i-th model).

    ``eigvals`` are sorted descending and ``eigvecs`` columns are the
    matching eigenvectors. Construct through :func:`build_covariance`, which
    verifies every residual gate, or :func:`random_covariances`, whose drawn
    spectra make Sigma; instances are treated as immutable, and a single
    model's ``frame_operator`` is built on first use and shared.
    """

    sigma: np.ndarray
    chol: np.ndarray
    sigma_inv: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    dim: int = field(default=0)

    def __post_init__(self):
        object.__setattr__(self, "dim", self.sigma.shape[-1])

    def __getitem__(self, i) -> "CovarianceModel":
        """The i-th model of a stack."""
        if self.sigma.ndim != 3:
            raise TypeError("a single covariance model is not a stack")
        return CovarianceModel(sigma=self.sigma[i], chol=self.chol[i], sigma_inv=self.sigma_inv[i],
                               eigvals=self.eigvals[i], eigvecs=self.eigvecs[i])

    @cached_property
    def frame_operator(self) -> np.ndarray:
        """S = (Sigma kron Sigma)(I + T), read-only, with T applied as a column
        gather: O(nx**4) instead of the O(nx**6) of a dense product with T.
        Both terms, and so S, are symmetric to the bit because Sigma is."""
        # peak: two nx**2 x nx**2 arrays, Sigma kron Sigma and its column gather
        require_memory(2 * 8 * self.dim**4, f"the frame operator S at nx={self.dim}")
        s = kron(self.sigma, self.sigma)
        s += s.take(vec_transpose_index(self.dim), axis=1)
        s.flags.writeable = False
        return s

    def top_eigvecs(self, k: int) -> np.ndarray:
        """Columns spanning the principal k-dimensional subspace."""
        return self.eigvecs[..., :k]

    def spectral_gap_at(self, k: int) -> float:
        """Relative eigenvalue gap across the cut after the k-th eigenvalue.

        Zero gap means the principal k-subspace is not unique.
        """
        if k <= 0 or k >= self.dim:
            return float("inf")
        return float((self.eigvals[k - 1] - self.eigvals[k]) / self.eigvals[0])


def matrix_transpose(a: np.ndarray) -> np.ndarray:
    """Transpose every matrix of a stack (its last two axes), as a view: on a
    single matrix it is ``a.T``."""
    return np.swapaxes(a, -1, -2)


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of the last axes of a and b, item by item: a stack of
    (1, n) @ (n, 1) products, each BLAS's ddot, so each item equals
    ``a[i] @ b[i]`` to the bit (``np.einsum`` sums in another order)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def frobenius(a: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack, a dot product of its
    entries in row-major order: on a C-contiguous matrix, ``np.linalg.norm``
    to the bit."""
    flat = a.reshape(*a.shape[:-2], -1)
    return np.sqrt(dot(flat, flat))


def _factors(s: np.ndarray, w: np.ndarray, q: np.ndarray):
    """Sigma's Cholesky factor and its inverse (Q Lambda^-1) Q^T, symmetrized,
    from its eigenpairs (w, q): of one matrix, or of each of a stack."""
    inv = (q * (1.0 / w)[..., None, :]) @ matrix_transpose(q)
    return np.linalg.cholesky(s), (inv + matrix_transpose(inv)) / 2.0


def build_covariance(sigma) -> CovarianceModel:
    """Validate and factor a symmetric positive definite covariance that
    enters from outside the program (``--sigma``, ``random_spd`` included).

    Rejects asymmetric input, any eigenvalue at or below
    ``1e-12 * lambda_max`` or outside ``EIGENVALUE_WINDOW``, and any
    factorization whose residual exceeds the model gates or is NaN (so a
    near-degenerate covariance fails loudly here instead of corrupting
    downstream inverses). The gates run in that order, and the first that
    fails raises.
    """
    s = _as_matrix(sigma, "sigma")
    # Out-of-window input may overflow or underflow on the way to its gate;
    # a NaN residual fails its gate like one above the tolerance.
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        scale = frobenius(s)
        asym = frobenius(s - s.T)
        if not asym <= SYMMETRY_RTOL * max(scale, 1.0):
            raise DimensionError(f"sigma is not symmetric: asymmetry {asym:.3e} exceeds "
                                 f"{SYMMETRY_RTOL:.1e} * {max(scale, 1.0):.3e}")
        s = (s + s.T) / 2.0  # bit-exact symmetry for everything downstream
        w, q = np.linalg.eigh(s)
        w, q = w[::-1].copy(), q[:, ::-1].copy()
        if not (w[0] > 0.0 and w[-1] > EIGENVALUE_FLOOR_REL * w[0]):
            raise DegenerateCovarianceError(
                f"covariance is degenerate: smallest eigenvalue {w[-1]:.6e} is at or "
                f"below {EIGENVALUE_FLOOR_REL:.1e} * lambda_max ({w[0]:.6e})")
        lo, hi = EIGENVALUE_WINDOW
        if not (w[-1] >= lo and w[0] <= hi):
            raise DegenerateCovarianceError(
                f"covariance eigenvalues [{w[-1]:.3e}, {w[0]:.3e}] leave the window "
                f"[{lo:.3e}, {hi:.3e}] in which its moments up to order {MOMENT_ORDER} "
                "stay finite and normal")
        # |Sigma Q - Q Lambda|_F / |Sigma|_F; Sigma / lambda_max keeps it in range.
        unit = s / w[0]
        eig_res = frobenius(unit @ q - q * (w / w[0])) / frobenius(unit)
        if not eig_res <= EIGEN_RTOL:
            raise DegenerateCovarianceError(
                f"eigen-residual {eig_res:.3e} of the spectrum exceeds {EIGEN_RTOL:.1e}")
        chol, inv = _factors(s, w, q)
        eye = np.eye(len(s))
        chol_res = frobenius(chol @ chol.T - s) / scale
        inv_res = frobenius(s @ inv - eye)
        orth_res = frobenius(q.T @ q - eye)
    for residual, tolerance, message in (
        (chol_res, CHOLESKY_RTOL, "Cholesky residual {:.3e} exceeds {:.1e}"),
        (inv_res, INVERSE_ATOL, "inverse residual {:.3e} exceeds {:.1e} "
                                "(covariance too ill-conditioned)"),
        (orth_res, ORTHOGONALITY_ATOL, "eigenvector orthogonality residual {:.3e} exceeds {:.1e}"),
    ):
        if not residual <= tolerance:
            raise DegenerateCovarianceError(message.format(residual, tolerance))
    return CovarianceModel(sigma=s, chol=chol, sigma_inv=inv, eigvals=w, eigvecs=q)


def random_spd(n: int, eig_range: tuple[float, float], seed: int) -> np.ndarray:
    """Random SPD matrix Q diag(lam) Q.T with eigenvalues spanning eig_range:
    random_covariances' one-matrix draw on default_rng(seed). The extreme
    eigenvalues are pinned to the range endpoints (interior ones drawn
    uniformly), so the requested conditioning is actually realized."""
    return _random_spds(np.random.default_rng(seed), 1, n, eig_range)[0][0]


def random_covariances(rng, k: int, n: int, eig_range: tuple[float, float]) -> CovarianceModel:
    """The stacked model of k random_spd matrices drawn from the Generator rng,
    with one QR and one product. Its spectrum is the drawn one, lam sorted
    descending with Q's matching columns, and its inverse is (Q Lambda^-1) Q^T:
    no eigendecomposition runs and no residual is gated, since Sigma is
    Q Lambda Q^T by construction and a Householder QR factor is orthonormal to
    working precision (the tests hold every residual build_covariance gates
    within its tolerance over the sweeps' shapes). At k=1 on default_rng(seed),
    Sigma and chol are build_covariance(random_spd(n, eig_range, seed))'s to
    the bit."""
    s, lam, q = _random_spds(rng, k, n, eig_range)
    order = np.argsort(-lam, axis=1, kind="stable")
    w, q = np.take_along_axis(lam, order, 1), np.take_along_axis(q, order[:, None, :], 2)
    chol, inv = _factors(s, w, q)
    return CovarianceModel(sigma=s, chol=chol, sigma_inv=inv, eigvals=w, eigvecs=q)


def _random_spds(rng, k: int, n: int, eig_range: tuple[float, float]):
    """k random_spd matrices with their drawn lam and Q: a (k, n, n) normal
    block for the rotations, then a (k, n) uniform block for the spectra."""
    lo, hi = eig_range
    if not (0.0 < lo <= hi):
        raise ValueError(f"eigenvalue range must satisfy 0 < lo <= hi, got {eig_range}")
    q, _ = np.linalg.qr(rng.standard_normal((k, n, n)))
    lam = rng.uniform(lo, hi, size=(k, n))
    lam[:, 0] = hi
    if n > 1:
        lam[:, -1] = lo
    s = (q * lam[:, None, :]) @ matrix_transpose(q)
    return (s + matrix_transpose(s)) / 2.0, lam, q
