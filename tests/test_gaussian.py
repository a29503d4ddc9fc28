"""Sampling determinism, moment estimators, and the Gaussian identities."""

import numpy as np
import pytest

from frame_hebb import gaussian
from frame_hebb.checks import STEIN_RTOL, stein_identity_check
from frame_hebb.errors import DimensionError
from frame_hebb.gaussian import (
    SampleBatch,
    cubature,
    derive_seed,
    isserlis_fourth_moment,
    monomial,
    monomial_exponents,
    monomial_grad,
    sample,
    stein_check,
)
from frame_hebb.linalg import (
    build_covariance,
    commutation_matrix,
    random_spd,
    vecs,
)
from sweeps import fourth_moment_three_einsums, rows_of


@pytest.fixture(scope="module")
def cov2():
    return build_covariance(np.diag([2.0, 1.0]))


class TestSampling:
    def test_mean_within_clt_band(self):
        n = 10**5
        batch = sample(build_covariance(np.eye(2)), n, seed=11)
        assert np.all(np.abs(rows_of(batch).mean(axis=0)) <= 4.0 / np.sqrt(n))

    def test_empirical_covariance_close(self):
        cov = build_covariance(np.diag([4.0, 1.0]))
        batch = sample(cov, 10**5, seed=12)
        emp = rows_of(batch).T @ rows_of(batch) / batch.n
        assert np.linalg.norm(emp - cov.sigma) / np.linalg.norm(cov.sigma) <= 0.05

    def test_determinism(self, cov2):
        a = sample(cov2, 1000, seed=7)
        b = sample(cov2, 1000, seed=7)
        np.testing.assert_array_equal(rows_of(a), rows_of(b))

    def test_different_seeds_differ(self, cov2):
        a = sample(cov2, 100, seed=1)
        b = sample(cov2, 100, seed=2)
        assert not np.array_equal(rows_of(a), rows_of(b))

    @pytest.mark.parametrize("shape", [(2,), (0, 2), (4, 3), (2, 2, 2)])
    def test_rows_of_wrong_shape_rejected(self, cov2, shape):
        # from_rows is where given rows enter: frame_element and the
        # estimators take its rows, n >= 1 of them, each of length nx
        with pytest.raises(DimensionError):
            SampleBatch.from_rows(np.zeros(shape), cov2)

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
    def test_equal_to_hand_written_functions(self, dim):
        # Bit for bit but for the cubes, which are x^2 * x rather than pow.
        cov = build_covariance(random_spd(dim, (0.5, 2.0), seed=60 + dim))
        x = rows_of(sample(cov, 1000, seed=61))
        xt = np.ascontiguousarray(x.T)
        exps = monomial_exponents(dim)
        ref = reference_test_functions(dim)
        assert len(exps) == len(ref)
        for a, (name, f, grad) in zip(exps, ref):
            support, partials = monomial_grad(xt, a)
            g = np.zeros_like(xt)
            g[support] = partials
            if 3 in a:
                np.testing.assert_allclose(monomial(xt, a), f(x), rtol=4e-16, atol=0, err_msg=name)
            else:
                assert np.array_equal(monomial(xt, a), f(x)), name
            assert np.array_equal(g, grad(x).T), name
            assert list(support) == [j for j, p in enumerate(a) if p], name


class TestCubature:
    """The degree-5 rule reproduces the Gaussian moments up to order 4 (and
    every odd one is zero by symmetry), including at n > 4, where its axis
    weights are negative."""

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_moments_up_to_order_four(self, n):
        cov = build_covariance(random_spd(n, (0.5, 2.0), seed=50 + n))
        x, w = cubature(cov)
        assert x.shape == (2 * n * n + 1, n) and w.shape == (2 * n * n + 1,)
        assert abs(w.sum() - 1.0) <= 1e-15
        assert np.abs(w @ x).max() <= 1e-15
        np.testing.assert_allclose((x * w[:, None]).T @ x, cov.sigma, rtol=0, atol=4e-15)
        xx = np.einsum("pi,pj->pji", x, x).reshape(len(x), n * n)
        m4 = (xx * w[:, None]).T @ xx
        want = isserlis_fourth_moment(cov)
        assert np.linalg.norm(m4 - want) <= 4e-15 * np.linalg.norm(want)


def holds(cov, exponents) -> np.ndarray:
    """Per function, whether every component's gap is within its roundoff
    tolerance, STEIN_RTOL times its scale."""
    gap, scale = stein_check(cov, exponents)
    assert gap.shape == scale.shape == (len(exponents), cov.dim)
    return np.all(gap <= STEIN_RTOL * scale, axis=1)


class TestSteinCheck:
    def test_linear_function(self, cov2):
        assert holds(cov2, [(0, 1)]).all()

    def test_constant_function(self, cov2):
        assert holds(cov2, [(0, 0)]).all()

    def test_square_function_odd_moment(self, cov2):
        # f = x0^2 on diag(2,1): both sides of component 0 are E[x0^3] = 0.
        assert holds(cov2, [(2, 0)]).all()

    @pytest.mark.parametrize("dim", [1, 2, 4, 6])
    def test_all_builtins_random_spd(self, dim):
        cov = build_covariance(random_spd(dim, (0.5, 2.0), seed=30 + dim))
        exps = monomial_exponents(dim)
        ok = holds(cov, exps)
        assert ok.all(), [a for a, good in zip(exps, ok) if not good]

    @pytest.mark.parametrize("sigma", [random_spd(4, (0.5, 2.0), seed=34),
                                       np.diag([2.0, 1.5, 1.0, 0.5])])
    def test_every_monomial_up_to_degree_four(self, sigma):
        exps = [a for a in np.ndindex(5, 5, 5, 5) if sum(a) <= 4]
        # On a diagonal Sigma, x0*x1*x2*x3 and its partials vanish on every
        # point: a value of 0 against a tolerance of 0.
        with np.errstate(invalid="raise"):
            assert holds(build_covariance(sigma), exps).all()

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_built_in_exponents_are_within_the_rule(self, dim):
        # stein_check trusts its exponents: distinct vectors of length dim,
        # none negative, of degree <= 4, as f(x) x then has degree <= 5, up
        # to which the cubature rule is exact.
        exps = monomial_exponents(dim)
        assert len(set(exps)) == len(exps)
        for a in exps:
            assert len(a) == dim and min(a) >= 0 and sum(a) <= 4, a

    def test_result_is_reproducible(self, cov2):
        a = stein_check(cov2, [(0, 0), (1, 1)])
        b = stein_check(cov2, [(0, 0), (1, 1)])
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_no_draw(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gaussian, "sample", lambda *args, **kwargs: calls.append(args))
        assert stein_identity_check(42, dims=(1, 2, 4)).passed
        assert calls == []

    def test_wrong_covariance_fails(self, monkeypatch):
        # Negative control: the points of 1.2 Sigma, checked against Sigma.
        cov = build_covariance(random_spd(2, (0.5, 2.0), seed=31))
        wide = cubature(build_covariance(1.2 * cov.sigma))
        monkeypatch.setattr(gaussian, "cubature", lambda c: wide)
        assert not holds(cov, monomial_exponents(2)).all()
        assert not holds(cov, [(0, 1)]).any()
        assert not stein_identity_check(42, dims=(2,)).passed

    def test_scaled_gradient_fails(self, monkeypatch):
        # Mutant: every partial derivative 1% too large.
        real = gaussian.monomial_grad

        def scaled(x, a):
            support, partials = real(x, a)
            return support, 1.01 * partials

        monkeypatch.setattr(gaussian, "monomial_grad", scaled)
        rec = stein_identity_check(42)
        assert not rec.passed
        assert rec.value > 1e6


class TestIsserlisFourthMoment:
    def test_univariate_standard_normal(self):
        cov = build_covariance(np.eye(1))
        np.testing.assert_allclose(isserlis_fourth_moment(cov), [[3.0]])

    def test_identity_covariance_closed_form(self):
        cov = build_covariance(np.eye(2))
        t = commutation_matrix(2)
        v = vecs(np.eye(2))
        expected = np.eye(4) + t + np.outer(v, v)
        np.testing.assert_allclose(isserlis_fourth_moment(cov), expected, atol=1e-14)

    def test_monte_carlo_agreement(self, cov2):
        analytic = isserlis_fourth_moment(cov2)
        x = rows_of(sample(cov2, 10**6, seed=41))
        rows = np.einsum("ki,kj->kji", x, x).reshape(x.shape[0], 4)
        emp = rows.T @ rows / x.shape[0]
        err = np.abs(emp - analytic)
        assert np.max(err / np.maximum(np.abs(analytic), 1.0)) <= 0.05

    def test_symmetric_psd(self):
        cov = build_covariance(random_spd(3, (0.5, 2.0), seed=50))
        m = isserlis_fourth_moment(cov)
        np.testing.assert_array_equal(m, m.T)
        assert np.min(np.linalg.eigvalsh(m)) >= -1e-10 * np.linalg.norm(m)

    @pytest.mark.parametrize("nx", [1, 2, 3, 5, 16])
    def test_row_blocks_equal_the_whole_array_build(self, nx):
        # Each entry takes the same three products, added in the same order.
        cov = build_covariance(random_spd(nx, (0.5, 2.0), seed=50 + nx))
        assert np.array_equal(isserlis_fourth_moment(cov), fourth_moment_three_einsums(cov))
