"""Vectorization, Kronecker, commutation, projections, the memory guard of
the dense builds, covariance models."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from frame_hebb import linalg
from frame_hebb.errors import DegenerateCovarianceError, DimensionError
from frame_hebb.linalg import (
    EIGENVALUE_WINDOW,
    build_covariance,
    build_covariances,
    commutation_matrix,
    kron,
    random_covariances,
    random_spd,
    skew_part,
    sym_part,
    vecs,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def square(n):
    return arrays(np.float64, (n, n), elements=finite)


class TestVecs:
    def test_column_stacking(self):
        np.testing.assert_array_equal(vecs(np.array([[1, 2], [3, 4]])), [1, 3, 2, 4])

    def test_identity(self):
        np.testing.assert_array_equal(vecs(np.eye(2)), [1, 0, 0, 1])

    def test_kron_compatibility_random_3x3(self):
        rng = np.random.default_rng(1)
        a, x, b = (rng.standard_normal((3, 3)) for _ in range(3))
        direct = vecs(a @ x @ b)  # independent route: multiply, then stack
        np.testing.assert_allclose(kron(b.T, a) @ vecs(x), direct, atol=1e-12)


class TestRequireMemory:
    def test_limit_is_physical_memory(self):
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        linalg.require_memory(physical, "a build")
        with pytest.raises(DimensionError, match="a build would hold .* physical memory"):
            linalg.require_memory(physical + 1, "a build")


class TestKron:
    def test_identities(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_scalars(self):
        np.testing.assert_array_equal(kron([[2.0]], [[3.0]]), [[6.0]])

    def test_diag_block_expansion(self):
        np.testing.assert_array_equal(
            kron(np.diag([2.0, 1.0]), np.diag([2.0, 1.0])), np.diag([4.0, 2.0, 2.0, 1.0])
        )

    def test_mixed_product(self):
        rng = np.random.default_rng(3)
        a, b, c, d = (rng.standard_normal((2, 2)) for _ in range(4))
        np.testing.assert_allclose(
            kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12
        )


class TestCommutation:
    def test_scalar_case(self):
        np.testing.assert_array_equal(commutation_matrix(1), [[1.0]])

    def test_transposes_vec(self):
        t = commutation_matrix(2)
        np.testing.assert_array_equal(t @ np.array([1.0, 3.0, 2.0, 4.0]), [1, 2, 3, 4])

    def test_involution_n4(self):
        t = commutation_matrix(4)
        np.testing.assert_array_equal(t @ t, np.eye(16))
        np.testing.assert_array_equal(t, t.T)


class TestProjections:
    def test_sym_part_of_skew_is_zero(self):
        np.testing.assert_array_equal(sym_part([[0, 1], [-1, 0]]), np.zeros((2, 2)))

    def test_skew_part_of_symmetric_is_zero(self):
        s = np.array([[2.0, 1.0], [1.0, 5.0]])
        np.testing.assert_array_equal(skew_part(s), np.zeros((2, 2)))

    def test_sym_part_by_hand(self):
        np.testing.assert_array_equal(sym_part([[1, 2], [0, 1]]), [[1, 1], [1, 1]])

    def test_projector_onto_vec_sym(self):
        # (I + T)/2 is idempotent, self-adjoint, fixes vec(Sym), kills vec(Skew).
        n = 3
        p = (np.eye(n * n) + commutation_matrix(n)) / 2
        np.testing.assert_allclose(p @ p, p, atol=1e-15)
        np.testing.assert_array_equal(p, p.T)
        rng = np.random.default_rng(4)
        m = rng.standard_normal((n, n))
        np.testing.assert_allclose(p @ vecs(sym_part(m)), vecs(sym_part(m)), atol=1e-15)
        np.testing.assert_allclose(
            p @ vecs(skew_part(m)), np.zeros(n * n), atol=1e-15
        )
        np.testing.assert_allclose(p @ vecs(m), vecs(sym_part(m)), atol=1e-15)


class TestFrobeniusInner:
    def test_norm_mismatch_identity(self):
        # (I - W^T W, x x^T)_F = |x|^2 - |u|^2 with u = W x, taken as the
        # column-order dot product that cancellation_coefficient uses.
        rng = np.random.default_rng(6)
        w = rng.standard_normal((2, 4))
        x = rng.standard_normal(4)
        u = w @ x
        lhs = vecs(np.eye(4) - w.T @ w) @ vecs(np.outer(x, x))
        assert lhs == pytest.approx(x @ x - u @ u, rel=1e-12)


class TestBuildCovariance:
    def test_identity(self):
        cov = build_covariance(np.eye(3))
        np.testing.assert_allclose(cov.eigvals, [1, 1, 1])
        np.testing.assert_allclose(cov.chol, np.eye(3))

    def test_diagonal_closed_form(self):
        cov = build_covariance(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(cov.eigvals, [4.0, 1.0])
        np.testing.assert_allclose(cov.chol, np.diag([2.0, 1.0]))
        np.testing.assert_allclose(cov.sigma_inv, np.diag([0.25, 1.0]), atol=1e-14)

    def test_indefinite_rejected(self):
        # eigenvalues of [[1,2],[2,1]] are 3 and -1
        with pytest.raises(DegenerateCovarianceError):
            build_covariance([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(DimensionError):
            build_covariance([[1.0, 0.5], [0.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            build_covariance(np.ones((2, 3)))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            build_covariance([[np.nan, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("n,seed", [(2, 0), (5, 1), (8, 2), (16, 3)])
    def test_residual_gates_on_random_spd(self, n, seed):
        cov = build_covariance(random_spd(n, (0.5, 3.0), seed=seed))
        scale = np.linalg.norm(cov.sigma)
        assert np.linalg.norm(cov.chol @ cov.chol.T - cov.sigma) / scale <= 1e-12
        assert np.linalg.norm(cov.sigma @ cov.sigma_inv - np.eye(n)) <= 1e-10
        assert np.linalg.norm(cov.eigvecs.T @ cov.eigvecs - np.eye(n)) <= 1e-10
        assert np.all(np.diff(cov.eigvals) <= 0)
        assert cov.eigvals[-1] > 0

    @pytest.mark.parametrize("scale", [1e300, 1e160, 1e150, 1e-160, 1e-300])
    def test_scale_outside_the_eigenvalue_window_rejected(self, scale):
        with pytest.raises(DegenerateCovarianceError, match="window"):
            build_covariance(scale * random_spd(3, (0.5, 2.0), seed=1))

    def test_scales_at_the_window_edges_build(self):
        lo, hi = EIGENVALUE_WINDOW
        # lambda^4 stays normal with room for sums of 1e19 terms
        assert lo**4 > 1e19 * np.finfo(float).tiny and hi**4 < np.finfo(float).max / 1e19
        for sigma in (np.diag([hi, hi / 2]), np.diag([2 * lo, lo])):
            np.testing.assert_array_equal(build_covariance(sigma).eigvals, np.diag(sigma))

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_nan_residual_fails_its_gate(self, monkeypatch, scale):
        # Without the window these scales reach the Cholesky residual, which
        # overflows to NaN; a NaN residual must fail, not compare as passing.
        monkeypatch.setattr(linalg, "EIGENVALUE_WINDOW", (0.0, np.inf))
        with pytest.raises(DegenerateCovarianceError, match="Cholesky residual nan"):
            build_covariance(scale * random_spd(3, (0.5, 2.0), seed=1))

    def test_random_spd_spans_requested_range(self):
        cov = build_covariance(random_spd(6, (0.5, 3.0), seed=9))
        assert cov.eigvals[0] == pytest.approx(3.0, rel=1e-10)
        assert cov.eigvals[-1] == pytest.approx(0.5, rel=1e-10)


def _spd_alone(g, lam, eig_range):
    """The single-matrix random_spd body before stacking, on its drawn normal
    matrix g and spectrum lam, with its pinned spectrum and eigenvectors."""
    lo, hi = eig_range
    q, _ = np.linalg.qr(g)
    lam = lam.copy()
    lam[0] = hi
    if len(lam) > 1:
        lam[-1] = lo
    s = (q * lam) @ q.T
    return (s + s.T) / 2.0, lam, q


def _random_spd_alone(n, eig_range, seed):
    rng = np.random.default_rng(seed)
    return _spd_alone(rng.standard_normal((n, n)), rng.uniform(*eig_range, size=n), eig_range)


def _factors_alone(s):
    """The factorizations of the single-matrix build_covariance body before
    stacking (its gates only raise)."""
    s = (s + s.T) / 2.0
    w, q = np.linalg.eigh(s)
    w = w[::-1].copy()
    q = q[:, ::-1].copy()
    chol = np.linalg.cholesky(s)
    inv = q @ np.diag(1.0 / w) @ q.T
    inv = (inv + inv.T) / 2.0
    return dict(sigma=s, chol=chol, sigma_inv=inv, eigvals=w, eigvecs=q)


def _random_stack(n, seeds):
    return np.stack([random_spd(n, (0.5, 2.0), seed) for seed in seeds])


class TestStackedBuild:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 32])
    def test_stack_equals_single_matrix_bodies(self, n):
        seeds = list(range(40, 57))
        stack = _random_stack(n, seeds)
        covs = build_covariances(stack)
        for seed, sigma, cov in zip(seeds, stack, covs):
            alone = _random_spd_alone(n, (0.5, 2.0), seed)[0]
            assert np.array_equal(sigma, alone)
            single = build_covariance(alone)
            for name, want in _factors_alone(alone).items():
                assert np.array_equal(getattr(cov, name), want), name
                assert np.array_equal(getattr(single, name), want), name

    @pytest.mark.parametrize("n", [1, 2, 4, 5, 32, 100])
    def test_drawn_spectrum_build_matches_the_eigh_build(self, n):
        # A stack draws a (k, n, n) normal block, then a (k, n) uniform one,
        # and each model is the one-matrix body on its items. Sigma and chol
        # are bit-identical; the spectrum and the inverse come from the drawn
        # Q and lam instead of eigh, and agree to roundoff.
        k = 17
        rng = np.random.default_rng(40)
        g, lams = rng.standard_normal((k, n, n)), rng.uniform(0.5, 2.0, size=(k, n))
        covs = random_covariances(np.random.default_rng(40), k, n, (0.5, 2.0))
        for i, cov in enumerate(covs):
            sigma, lam, q = _spd_alone(g[i], lams[i], (0.5, 2.0))
            order = np.argsort(-lam, kind="stable")
            assert np.array_equal(cov.eigvals, lam[order])
            assert np.array_equal(cov.eigvecs, q[:, order])
            eigh = build_covariance(sigma)
            assert np.array_equal(cov.sigma, sigma) and np.array_equal(cov.sigma, eigh.sigma)
            assert np.array_equal(cov.chol, eigh.chol)
            assert np.abs(cov.eigvals - eigh.eigvals).max() <= 1e-13
            assert np.abs(cov.sigma_inv - eigh.sigma_inv).max() <= 1e-13
            assert np.array_equal(cov.sigma_inv, cov.sigma_inv.T)
        assert i == k - 1

    @pytest.mark.parametrize("n", [1, 2, 4, 5, 32, 100])
    def test_one_drawn_covariance_is_the_random_spd_build(self, n):
        # random_spd(n, r, seed) is the one-matrix draw of default_rng(seed).
        for seed in range(40, 57):
            cov = random_covariances(np.random.default_rng(seed), 1, n, (0.5, 2.0))[0]
            eigh = build_covariance(random_spd(n, (0.5, 2.0), seed))
            assert np.array_equal(cov.sigma, eigh.sigma)
            assert np.array_equal(cov.chol, eigh.chol)

    @pytest.mark.parametrize(
        "bad",
        [
            [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # asymmetric
            np.diag([1.0, 1.0, 0.0]),  # degenerate
            [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # indefinite
        ],
    )
    def test_failing_matrix_mid_stack_raises_its_own_error(self, bad):
        with pytest.raises((DimensionError, DegenerateCovarianceError)) as alone:
            build_covariance(bad)
        stack = _random_stack(3, [1, 2, 3, 4])
        stack[1] = bad
        stack[3] = [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]  # fails later
        with pytest.raises(type(alone.value)) as stacked:
            build_covariances(stack)
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4), (1, 2, 2, 2)])
    def test_non_stack_rejected(self, shape):
        with pytest.raises(DimensionError):
            build_covariances(np.ones(shape))


def _drawn_spectrum(n, k, seed):
    """A random_covariances stack's Sigma and its (eigvals, eigvecs) stacks."""
    covs = random_covariances(np.random.default_rng(seed), k, n, (0.5, 2.0))
    return covs.sigma, covs.eigvals, covs.eigvecs


def _rotated(q, i, j, angle):
    """q with columns i and j turned by angle in their plane."""
    q = q.copy()
    c, s = np.cos(angle), np.sin(angle)
    q[:, i], q[:, j] = c * q[:, i] - s * q[:, j], s * q[:, i] + c * q[:, j]
    return q


class TestGivenSpectrum:
    """build_covariances with a known spectrum: the eigen-residual gate
    |Sigma Q - Q Lambda|_F / |Sigma|_F <= EIGEN_RTOL is what stands between a
    wrong spectrum and the models."""

    @pytest.mark.parametrize("wrong", [
        lambda w, q: (w[[1, 0, 2, 3]], q),  # two eigenvalues swapped
        lambda w, q: (w, q[:, [1, 0, 2, 3]]),  # two eigenvectors swapped
        lambda w, q: (w, _rotated(q, 1, 2, 1e-6)),  # two eigenvectors slightly mixed
    ])
    def test_wrong_spectrum_fails_the_eigen_residual_gate(self, wrong):
        sigma, w, q = _drawn_spectrum(4, 1, 5)
        assert np.count_nonzero(sigma[0] - np.diag(np.diag(sigma[0]))) > 0
        build_covariances(sigma, (w, q))
        w_bad, q_bad = wrong(w[0], q[0])
        with pytest.raises(DegenerateCovarianceError, match="eigen-residual"):
            build_covariances(sigma, (w_bad[None], q_bad[None]))

    def test_flipped_eigenvector_sign_is_still_an_eigenbasis(self):
        # -q_j is an eigenvector of lambda_j too: the gate rejects a wrong
        # spectrum, not an equally valid basis.
        sigma, w, q = _drawn_spectrum(4, 1, 5)
        q[0, :, 2] *= -1.0
        (cov,) = build_covariances(sigma, (w, q))
        assert np.array_equal(cov.eigvecs, q[0])

    def test_wrong_spectrum_mid_stack_raises_its_own_error(self):
        sigma, w, q = _drawn_spectrum(4, 4, 1)
        w_bad = w.copy()
        w_bad[1, [0, 1]] = w[1, [1, 0]]
        with pytest.raises(DegenerateCovarianceError) as alone:
            build_covariances(sigma[1:2], (w_bad[1:2], q[1:2]))
        sigma[3] = np.diag([1.0, 1.0, 1.0, 0.0])  # fails an earlier gate, later
        with pytest.raises(DegenerateCovarianceError) as stacked:
            build_covariances(sigma, (w_bad, q))
        assert str(stacked.value) == str(alone.value)

    def test_window_gate_fires_before_the_eigen_residual(self):
        # At 1e300 the residual overflows to NaN; the scale's own error wins.
        sigma, w, q = _drawn_spectrum(3, 1, 1)
        with pytest.raises(DegenerateCovarianceError, match="window"):
            build_covariances(1e300 * sigma, (1e300 * w, q))


@given(x=square(4))
def test_commutation_transposes_exactly(x):
    t = commutation_matrix(4)
    np.testing.assert_array_equal(t @ vecs(x), vecs(x.T))


@settings(max_examples=25)
@given(n=st.integers(min_value=2, max_value=6), data=st.data())
def test_kron_vec_compatibility_property(n, data):
    a = data.draw(square(n))
    x = data.draw(square(n))
    b = data.draw(square(n))
    lhs = vecs(a @ x @ b)
    rhs = kron(b.T, a) @ vecs(x)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(x)) * max(
        1.0, np.linalg.norm(a) * np.linalg.norm(b)
    )


@given(x=square(3))
def test_sym_plus_skew_reassembles(x):
    np.testing.assert_allclose(sym_part(x) + skew_part(x), x, atol=1e-15)
