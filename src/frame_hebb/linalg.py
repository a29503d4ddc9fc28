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

Only ``build_covariance`` and ``build_covariances`` cast their input and
check its shape; the other functions take arrays the program made and keep
their dtype.
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
    matching eigenvectors. Construct through :func:`build_covariance`,
    :func:`build_covariances` or :func:`random_covariances`, which verify
    every residual gate; instances are treated as immutable, and a single
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


def build_covariances(sigmas, spectrum=None) -> CovarianceModel:
    """The stacked model of :func:`build_covariance` for each matrix of a
    (k, n, n) stack, with one eigendecomposition, Cholesky factorization and
    inverse for the stack; its i-th model is ``build_covariance(sigmas[i])``.
    A known ``spectrum`` (eigvals descending, eigvecs) replaces the
    eigendecomposition. Every gate is evaluated per matrix; the first matrix
    that fails one raises the error :func:`build_covariance` raises for it alone."""
    s = _require_square(_as_matrix(sigmas, "sigmas", ndim=3), "sigmas")
    # Out-of-window input may overflow or underflow on the way to its gate;
    # a NaN residual fails its gate like one above the tolerance.
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        scale = frobenius(s)
        asym = frobenius(s - matrix_transpose(s))
        s = (s + matrix_transpose(s)) / 2.0  # bit-exact symmetry for everything downstream

        if spectrum is None:
            w, q = np.linalg.eigh(s)
            spectrum = w[:, ::-1].copy(), q[:, :, ::-1].copy()
        w, q = spectrum
        floor = ~(w[:, 0] > 0.0) | ~(w[:, -1] > EIGENVALUE_FLOOR_REL * w[:, 0])
        lo, hi = EIGENVALUE_WINDOW
        outside = ~((w[:, -1] >= lo) & (w[:, 0] <= hi))
        # |Sigma Q - Q Lambda|_F / |Sigma|_F; Sigma / lambda_max keeps it in range.
        unit = s / w[:, :1, None]
        eig_res = frobenius(unit @ q - q * (w / w[:, :1])[:, None, :]) / frobenius(unit)
        # A matrix that fails any of these is factored as the identity, so that
        # the stack still factors and every matrix before it is still gated.
        unfit = floor | outside | ~(eig_res <= EIGEN_RTOL)
        eye = np.eye(s.shape[1])
        chol = np.linalg.cholesky(np.where(unfit[:, None, None], eye, s))
        inv = (q * (1.0 / np.where(unfit[:, None], 1.0, w))[:, None, :]) @ matrix_transpose(q)
        inv = (inv + matrix_transpose(inv)) / 2.0

        chol_res = frobenius(chol @ matrix_transpose(chol) - s) / scale
        inv_res = frobenius(s @ inv - eye)
        orth_res = frobenius(matrix_transpose(q) @ q - eye)
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
        (~(eig_res <= EIGEN_RTOL), DegenerateCovarianceError,
         lambda i: f"eigen-residual {eig_res[i]:.3e} of the spectrum exceeds {EIGEN_RTOL:.1e}"),
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
    return CovarianceModel(sigma=s, chol=chol, sigma_inv=inv, eigvals=w, eigvecs=q)


def random_spd(n: int, eig_range: tuple[float, float], seed: int) -> np.ndarray:
    """Random SPD matrix Q diag(lam) Q.T with eigenvalues spanning eig_range:
    random_covariances' one-matrix draw on default_rng(seed). The extreme
    eigenvalues are pinned to the range endpoints (interior ones drawn
    uniformly), so the requested conditioning is actually realized."""
    return _random_spds(np.random.default_rng(seed), 1, n, eig_range)[0][0]


def random_covariances(rng, k: int, n: int, eig_range: tuple[float, float]) -> CovarianceModel:
    """The stacked model of k random_spd matrices drawn from the Generator rng,
    with one QR and one product, and the drawn lam (sorted descending) and Q's
    matching columns as the spectrum. At k=1 on default_rng(seed), Sigma and
    chol are build_covariance(random_spd(n, eig_range, seed))'s to the bit."""
    s, lam, q = _random_spds(rng, k, n, eig_range)
    order = np.argsort(-lam, axis=1, kind="stable")
    return build_covariances(s, (np.take_along_axis(lam, order, 1),
                                 np.take_along_axis(q, order[:, None, :], 2)))


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
