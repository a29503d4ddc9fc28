"""Sampling determinism, moment estimators, and the Gaussian identities."""

import numpy as np
import pytest

from frame_hebb.errors import DimensionError, SampleSizeError
from frame_hebb.gaussian import (
    derive_seed,
    isserlis_fourth_moment,
    monomial,
    monomial_exponents,
    monomial_grad,
    monomial_name,
    sample,
    stein_check,
)
from frame_hebb.linalg import (
    build_covariance,
    commutation_matrix,
    random_spd,
    vec,
)


@pytest.fixture(scope="module")
def cov2():
    return build_covariance(np.diag([2.0, 1.0]))


class TestSampling:
    def test_mean_within_clt_band(self):
        n = 10**5
        batch = sample(build_covariance(np.eye(2)), n, seed=11)
        assert np.all(np.abs(batch.data.mean(axis=0)) <= 4.0 / np.sqrt(n))

    def test_empirical_covariance_close(self):
        cov = build_covariance(np.diag([4.0, 1.0]))
        batch = sample(cov, 10**5, seed=12)
        emp = batch.data.T @ batch.data / batch.n
        assert np.linalg.norm(emp - cov.sigma) / np.linalg.norm(cov.sigma) <= 0.05

    def test_determinism(self, cov2):
        a = sample(cov2, 1000, seed=7)
        b = sample(cov2, 1000, seed=7)
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seeds_differ(self, cov2):
        a = sample(cov2, 100, seed=1)
        b = sample(cov2, 100, seed=2)
        assert not np.array_equal(a.data, b.data)

    def test_invalid_count(self, cov2):
        with pytest.raises(ValueError):
            sample(cov2, 0, seed=1)

    def test_derive_seed_deterministic(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)
        assert derive_seed(42, 3) != derive_seed(42, 4)
        assert derive_seed(42, 3) != derive_seed(43, 3)


def reference_test_functions(dim):
    """(name, f, grad) of the hand-written monomials the exponent vectors
    replaced, in their order; the reference for the bitwise parity test."""

    def one_hot(j, col):
        def g(x):
            out = np.zeros_like(x)
            out[:, j] = col(x)
            return out

        return g

    fns = [("const", lambda x: np.ones(x.shape[0]), np.zeros_like)]
    for j in range(dim):
        fns += [
            (f"x{j}", lambda x, j=j: x[:, j],
             lambda x, j=j: np.eye(dim)[j] * np.ones((x.shape[0], 1))),
            (f"x{j}^2", lambda x, j=j: x[:, j] ** 2, one_hot(j, lambda x, j=j: 2.0 * x[:, j])),
            (f"x{j}^3", lambda x, j=j: x[:, j] ** 3,
             one_hot(j, lambda x, j=j: 3.0 * x[:, j] ** 2)),
        ]
    if dim >= 2:

        def cross_grad(x):
            out = np.zeros_like(x)
            out[:, 0] = x[:, 1]
            out[:, 1] = x[:, 0]
            return out

        def cross_sq_grad(x):
            out = np.zeros_like(x)
            out[:, 0] = 2.0 * x[:, 0] * x[:, 1]
            out[:, 1] = x[:, 0] ** 2
            return out

        fns += [("x0*x1", lambda x: x[:, 0] * x[:, 1], cross_grad),
                ("x0^2*x1", lambda x: x[:, 0] ** 2 * x[:, 1], cross_sq_grad)]
    return fns


class TestMonomials:
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_bitwise_equal_to_hand_written_functions(self, dim):
        cov = build_covariance(random_spd(dim, (0.5, 2.0), seed=60 + dim))
        x = sample(cov, 1000, seed=61).data
        exps = monomial_exponents(dim)
        ref = reference_test_functions(dim)
        assert [monomial_name(a) for a in exps] == [name for name, _, _ in ref]
        for a, (name, f, grad) in zip(exps, ref):
            assert np.array_equal(monomial(x, a), f(x)), name
            assert np.array_equal(monomial_grad(x, a), grad(x)), name

    def test_names(self):
        assert [monomial_name(a) for a in [(0, 0, 0), (0, 1, 0), (2, 0, 0), (2, 1, 3)]] == [
            "const", "x1", "x0^2", "x0^2*x1*x2^3"]


class TestSteinCheck:
    def test_linear_function(self, cov2):
        assert stein_check(cov2, (0, 1), 10**5, seed=21).passed

    def test_constant_function(self, cov2):
        assert stein_check(cov2, (0, 0), 10**5, seed=22).passed

    def test_square_function_odd_moment(self, cov2):
        # f = x0^2 on diag(2,1): both sides of component 0 estimate E[x0^3] = 0.
        rec = stein_check(cov2, (2, 0), 10**5, seed=23)
        assert rec.check_name == "stein-x0^2"
        assert rec.passed

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_all_builtins_random_spd(self, dim):
        cov = build_covariance(random_spd(dim, (0.5, 2.0), seed=30 + dim))
        for i, a in enumerate(monomial_exponents(dim)):
            rec = stein_check(cov, a, 10**5, seed=derive_seed(77, i))
            assert rec.passed, f"{rec.check_name} at dim {dim}: {rec.value} > {rec.tolerance}"

    @pytest.mark.parametrize("a", [(), (1,), (0, 0, 1)])
    def test_wrong_length_exponents_rejected(self, cov2, a):
        with pytest.raises(DimensionError):
            stein_check(cov2, a, 100, seed=5)

    def test_needs_two_samples(self, cov2):
        # the band is a sample standard deviation, undefined on one row
        with pytest.raises(SampleSizeError):
            stein_check(cov2, (0, 0), 1, seed=5)
        assert stein_check(cov2, (0, 0), 2, seed=5).tolerance > 0

    def test_record_is_reproducible(self, cov2):
        a = stein_check(cov2, (0, 0), 10**4, seed=5)
        b = stein_check(cov2, (0, 0), 10**4, seed=5)
        assert a.value == b.value and a.tolerance == b.tolerance


class TestIsserlisFourthMoment:
    def test_univariate_standard_normal(self):
        cov = build_covariance(np.eye(1))
        np.testing.assert_allclose(isserlis_fourth_moment(cov), [[3.0]])

    def test_identity_covariance_closed_form(self):
        cov = build_covariance(np.eye(2))
        t = commutation_matrix(2)
        v = vec(np.eye(2))
        expected = np.eye(4) + t + np.outer(v, v)
        np.testing.assert_allclose(isserlis_fourth_moment(cov), expected, atol=1e-14)

    def test_monte_carlo_agreement(self, cov2):
        analytic = isserlis_fourth_moment(cov2)
        x = sample(cov2, 10**6, seed=41).data
        rows = np.einsum("ki,kj->kji", x, x).reshape(x.shape[0], 4)
        emp = rows.T @ rows / x.shape[0]
        err = np.abs(emp - analytic)
        assert np.max(err / np.maximum(np.abs(analytic), 1.0)) <= 0.05

    def test_symmetric_psd(self):
        cov = build_covariance(random_spd(3, (0.5, 2.0), seed=50))
        m = isserlis_fourth_moment(cov)
        np.testing.assert_array_equal(m, m.T)
        assert np.min(np.linalg.eigvalsh(m)) >= -1e-10 * np.linalg.norm(m)
