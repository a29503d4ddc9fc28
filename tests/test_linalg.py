"""Vectorization, Kronecker, commutation, projections, covariance models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from frame_hebb.errors import DegenerateCovarianceError, DimensionError
from frame_hebb.linalg import (
    build_covariance,
    commutation_matrix,
    kron,
    random_spd,
    skew_part,
    sym_part,
    unvec,
    vec,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def square(n):
    return arrays(np.float64, (n, n), elements=finite)


class TestVec:
    def test_column_stacking(self):
        np.testing.assert_array_equal(vec([[1, 2], [3, 4]]), [1, 3, 2, 4])

    def test_identity(self):
        np.testing.assert_array_equal(vec(np.eye(2)), [1, 0, 0, 1])

    def test_kron_compatibility_random_3x3(self):
        rng = np.random.default_rng(1)
        a, x, b = (rng.standard_normal((3, 3)) for _ in range(3))
        direct = vec(a @ x @ b)  # independent route: multiply, then stack
        np.testing.assert_allclose(kron(b.T, a) @ vec(x), direct, atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            vec(np.ones((2, 3)))


class TestUnvec:
    def test_inverse_of_vec(self):
        np.testing.assert_array_equal(unvec([1, 3, 2, 4], 2), [[1, 2], [3, 4]])

    def test_round_trip(self):
        x = np.random.default_rng(2).standard_normal((4, 4))
        np.testing.assert_array_equal(unvec(vec(x), 4), x)

    def test_zeros(self):
        np.testing.assert_array_equal(unvec(np.zeros(9), 3), np.zeros((3, 3)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            unvec(np.zeros(5), 2)


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
        np.testing.assert_allclose(p @ vec(sym_part(m)), vec(sym_part(m)), atol=1e-15)
        np.testing.assert_allclose(
            p @ vec(skew_part(m)), np.zeros(n * n), atol=1e-15
        )
        np.testing.assert_allclose(
            sym_part(m), unvec(p @ vec(m), n), atol=1e-15
        )


class TestFrobeniusInner:
    def test_norm_mismatch_identity(self):
        # (I - W^T W, x x^T)_F = |x|^2 - |u|^2 with u = W x, taken as the
        # vec dot product that cancellation_coefficient uses.
        rng = np.random.default_rng(6)
        w = rng.standard_normal((2, 4))
        x = rng.standard_normal(4)
        u = w @ x
        lhs = vec(np.eye(4) - w.T @ w) @ vec(np.outer(x, x))
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

    def test_random_spd_spans_requested_range(self):
        cov = build_covariance(random_spd(6, (0.5, 3.0), seed=9))
        assert cov.eigvals[0] == pytest.approx(3.0, rel=1e-10)
        assert cov.eigvals[-1] == pytest.approx(0.5, rel=1e-10)


@given(x=square(3))
def test_vec_round_trip_property(x):
    np.testing.assert_array_equal(unvec(vec(x), 3), x)


@given(x=square(4))
def test_commutation_transposes_exactly(x):
    t = commutation_matrix(4)
    np.testing.assert_array_equal(t @ vec(x), vec(x.T))


@settings(max_examples=25)
@given(n=st.integers(min_value=2, max_value=6), data=st.data())
def test_kron_vec_compatibility_property(n, data):
    a = data.draw(square(n))
    x = data.draw(square(n))
    b = data.draw(square(n))
    lhs = vec(a @ x @ b)
    rhs = kron(b.T, a) @ vec(x)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(x)) * max(
        1.0, np.linalg.norm(a) * np.linalg.norm(b)
    )


@given(x=square(3))
def test_sym_plus_skew_reassembles(x):
    np.testing.assert_allclose(sym_part(x) + skew_part(x), x, atol=1e-15)
