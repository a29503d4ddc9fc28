"""Closed-form and empirical updates, the gain, the trainer, and metrics."""

import numpy as np
import pytest

from frame_hebb import rules
from frame_hebb.errors import DimensionError, DivergenceError, RankDeficientError
from frame_hebb.gaussian import SampleBatch, derive_seed, sample
from frame_hebb.linalg import build_covariance, random_spd
from frame_hebb.rules import (
    MODES,
    RULES,
    TrainerConfig,
    as_weights,
    eghr_g,
    eghr_g_values,
    eghr_update_closed,
    eghr_update_empirical,
    eghr_update_from_g,
    oja_update_closed,
    oja_update_empirical,
    orthonormality_residual,
    subspace_error,
    train,
)


@pytest.fixture(scope="module")
def cov21():
    return build_covariance(np.diag([2.0, 1.0]))


@pytest.fixture(scope="module")
def cov_rand4():
    return build_covariance(random_spd(4, (0.5, 2.0), seed=8))


def principal_weights(cov, nu, seed=None):
    """A stable fixed point of both rules: an orthonormal basis of the
    principal nu-subspace, optionally rotated by a random orthogonal mix."""
    e = cov.top_eigvecs(nu)
    if seed is None:
        return e.T.copy()
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((nu, nu)))
    return q @ e.T


class TestWeightMatrix:
    """Weight-matrix validation, done by as_weights."""

    def test_rejects_nu_above_nx(self):
        with pytest.raises(DimensionError):
            as_weights(np.ones((3, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_weights(np.array([[np.inf, 0.0]]))
        with pytest.raises(ValueError):
            as_weights(np.array([[np.nan, 0.0]]))

    def test_rejects_non_matrix(self):
        with pytest.raises(DimensionError):
            as_weights(np.ones(3))
        with pytest.raises(DimensionError):
            as_weights(np.ones((0, 3)))

    def test_returns_float_array(self):
        w = as_weights([[1, 0, 0], [0, 1, 0]])
        assert w.dtype == float and w.shape == (2, 3)


class TestOjaClosed:
    def test_orthonormal_row_fixed_point(self):
        cov = build_covariance(np.eye(2))
        np.testing.assert_array_equal(
            oja_update_closed(np.array([[1.0, 0.0]]), cov), [[0.0, 0.0]]
        )

    def test_zero_weights(self, cov21):
        np.testing.assert_array_equal(
            oja_update_closed(np.zeros((1, 2)), cov21), np.zeros((1, 2))
        )

    def test_hand_arithmetic(self, cov21):
        np.testing.assert_array_equal(
            oja_update_closed(np.array([[2.0, 0.0]]), cov21), [[-12.0, 0.0]]
        )

    def test_dimension_mismatch(self, cov21):
        with pytest.raises(DimensionError):
            oja_update_closed(np.ones((1, 3)), cov21)


class TestOjaEmpirical:
    def test_null_space_sample(self, cov21):
        w = np.array([[1.0, 0.0]])
        batch = SampleBatch.from_rows([[0.0, 3.0]], cov21)
        np.testing.assert_array_equal(oja_update_empirical(w, batch), [[0.0, 0.0]])

    def test_single_aligned_sample(self, cov21):
        w = np.array([[1.0, 0.0]])
        batch = SampleBatch.from_rows([[1.0, 0.0]], cov21)
        np.testing.assert_array_equal(oja_update_empirical(w, batch), [[0.0, 0.0]])

    def test_within_clt_band_of_closed(self, cov21):
        rng = np.random.default_rng(14)
        w = rng.uniform(-1, 1, (1, 2))
        batch = sample(cov21, 10**5, seed=15)
        x = batch.data
        u = x @ w.T
        terms = u[:, :, None] * (x - u @ w)[:, None, :]  # per-sample updates
        band = 4.0 * terms.std(axis=0, ddof=1) / np.sqrt(batch.n)
        gap = np.abs(oja_update_empirical(w, batch) - oja_update_closed(w, cov21))
        assert np.all(gap <= band)


class TestGain:
    def test_identity_weights_give_zero(self):
        cov = build_covariance(random_spd(3, (0.5, 2.0), seed=16))
        w = np.eye(3)
        for x in np.random.default_rng(17).standard_normal((5, 3)):
            assert eghr_g(x, w, cov) == 0.0

    def test_zero_weights_hand_value(self):
        cov = build_covariance(np.eye(2))
        assert eghr_g(np.array([2.0, 0.0]), np.zeros((1, 2)), cov) == 1.0

    def test_mean_norm_sample_gives_zero(self):
        cov = build_covariance(np.eye(2))
        assert eghr_g(np.array([1.0, 1.0]), np.zeros((1, 2)), cov) == 0.0

    def test_empirical_identical_samples(self, cov21):
        w = np.array([[0.5, 0.5]])
        batch = SampleBatch.from_rows(np.tile([1.0, 2.0], (4, 1)), cov21)
        np.testing.assert_array_equal(eghr_g_values(w, batch), np.zeros(4))

    def test_empirical_two_sample_batch(self, cov21):
        w = np.zeros((1, 2))
        batch = SampleBatch.from_rows([[0.0, 0.0], [2.0, 0.0]], cov21)
        np.testing.assert_array_equal(eghr_g_values(w, batch), [-1.0, 1.0])

    def test_batch_gains_sum_to_zero(self, cov_rand4):
        w = np.random.default_rng(18).uniform(-1, 1, (2, 4))
        batch = sample(cov_rand4, 1000, seed=19)
        g = eghr_g_values(w, batch)
        assert abs(np.sum(g)) <= 1e-12 * np.sum(np.abs(g))


class TestEghrClosed:
    def test_hand_arithmetic_continues_oja(self, cov21):
        np.testing.assert_array_equal(
            eghr_update_closed(np.array([[2.0, 0.0]]), cov21), [[-24.0, 0.0]]
        )

    def test_vanishes_at_oja_fixed_point(self, cov_rand4):
        w = principal_weights(cov_rand4, 2, seed=20)
        assert np.linalg.norm(oja_update_closed(w, cov_rand4)) <= 1e-13
        assert np.linalg.norm(eghr_update_closed(w, cov_rand4)) <= 1e-13

    def test_equals_oja_under_identity_covariance(self):
        cov = build_covariance(np.eye(3))
        w = np.random.default_rng(21).uniform(-1, 1, (2, 3))
        np.testing.assert_allclose(
            eghr_update_closed(w, cov), oja_update_closed(w, cov), atol=1e-14
        )

    def test_equivalence_identity_random_pairs(self):
        rng = np.random.default_rng(22)
        for nx in (2, 3, 5):
            cov = build_covariance(random_spd(nx, (0.5, 2.0), seed=int(rng.integers(2**63))))
            w = rng.uniform(-1, 1, (max(1, nx - 1), nx))
            lhs = eghr_update_closed(w, cov)
            rhs = oja_update_closed(w, cov) @ cov.sigma
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


class TestEghrEmpirical:
    def test_zero_weights(self, cov21):
        batch = sample(cov21, 50, seed=23)
        np.testing.assert_array_equal(
            eghr_update_empirical(np.zeros((1, 2)), batch), np.zeros((1, 2))
        )

    def test_identity_weights(self):
        cov = build_covariance(random_spd(3, (0.5, 2.0), seed=24))
        batch = sample(cov, 50, seed=25)
        np.testing.assert_array_equal(
            eghr_update_empirical(np.eye(3), batch), np.zeros((3, 3))
        )

    def test_within_clt_band_of_closed(self, cov21):
        # The batch-centered estimator is exactly the mean of the per-sample
        # terms g_k (u_k x_k^T - mean(u x^T)) built with the closed-form gain,
        # so those terms supply its standard error.
        rng = np.random.default_rng(26)
        w = rng.uniform(-1, 1, (1, 2))
        batch = sample(cov21, 10**6, seed=27)
        x = batch.data
        u = x @ w.T
        g_closed = eghr_g_values(w, batch, cov21)
        outer = u[:, :, None] * x[:, None, :]
        terms = g_closed[:, None, None] * (outer - outer.mean(axis=0))
        band = 4.0 * terms.std(axis=0, ddof=1) / np.sqrt(batch.n)
        gap = np.abs(
            eghr_update_empirical(w, batch) - eghr_update_closed(w, cov21)
        )
        assert np.all(gap <= band)

    def test_gain_shift_moves_update_by_hebbian_mean(self, cov_rand4):
        w = np.random.default_rng(28).uniform(-1, 1, (2, 4))
        batch = sample(cov_rand4, 500, seed=29)
        g = eghr_g_values(w, batch)
        c = 0.7
        shifted = eghr_update_from_g(w, batch, g + c)
        base = eghr_update_from_g(w, batch, g)
        x = batch.data
        u = x @ w.T
        hebbian_mean = u.T @ x / batch.n
        np.testing.assert_allclose(shifted - base, c * hebbian_mean, atol=1e-12)

    def test_closed_gain_mode(self, cov_rand4):
        # Closed-form centering goes through eghr_update_from_g: the gains are
        # the per-sample closed-form gains, and the update their Hebbian mean.
        w = np.random.default_rng(30).uniform(-1, 1, (2, 4))
        batch = sample(cov_rand4, 200, seed=31)
        g = eghr_g_values(w, batch, cov_rand4)
        np.testing.assert_allclose(
            g, [eghr_g(x, w, cov_rand4) for x in batch.data], rtol=0, atol=1e-12
        )
        explicit = sum(gk * np.outer(w @ x, x) for gk, x in zip(g, batch.data))
        np.testing.assert_allclose(
            eghr_update_from_g(w, batch, g), explicit / batch.n, rtol=0, atol=1e-12
        )
        with pytest.raises(DimensionError):
            eghr_update_from_g(w, batch, g[:-1])

    def test_validates_weights_once_and_matches_public_path(self, cov_rand4, monkeypatch):
        w = np.random.default_rng(46).uniform(-1, 1, (2, 4))
        batch = sample(cov_rand4, 300, 47)
        public = eghr_update_from_g(w, batch, eghr_g_values(w, batch))
        calls = []
        real = rules.as_weights
        monkeypatch.setattr(rules, "as_weights", lambda w: calls.append(1) or real(w))
        np.testing.assert_array_equal(eghr_update_empirical(w, batch), public)
        assert len(calls) == 1

    def test_dimension_mismatch(self, cov_rand4):
        batch = sample(cov_rand4, 10, 48)
        with pytest.raises(DimensionError, match="eghr_update_empirical"):
            eghr_update_empirical(np.ones((1, 3)), batch)


class TestMetrics:
    def test_subspace_error_zero_at_principal_basis(self, cov_rand4):
        assert subspace_error(principal_weights(cov_rand4, 2), cov_rand4) <= 1e-12

    def test_subspace_error_minor_eigenvector(self, cov21):
        assert subspace_error(np.array([[0.0, 1.0]]), cov21) == pytest.approx(
            np.sqrt(2.0), rel=1e-12
        )

    def test_invariant_under_row_mixing(self, cov_rand4):
        rng = np.random.default_rng(32)
        w = rng.uniform(-1, 1, (2, 4))
        mix = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        assert subspace_error(mix @ w, cov_rand4) == pytest.approx(
            subspace_error(w, cov_rand4), abs=1e-10
        )

    def test_rank_deficient_signalled(self, cov_rand4):
        with pytest.raises(RankDeficientError):
            subspace_error(np.zeros((2, 4)), cov_rand4)
        with pytest.raises(RankDeficientError):
            subspace_error(np.array([[1.0, 0, 0, 0], [2.0, 0, 0, 0]]), cov_rand4)

    def test_orthonormality_residual_values(self):
        assert orthonormality_residual(np.array([[1.0, 0.0]])) == 0.0
        assert orthonormality_residual(np.array([[2.0, 0.0]])) == 3.0
        q, _ = np.linalg.qr(np.random.default_rng(33).standard_normal((4, 4)))
        assert orthonormality_residual(q[:2]) <= 1e-14


class TestTrainer:
    def test_config_validation(self):
        for lr in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError):
                TrainerConfig(learning_rate=lr, steps=10)
        with pytest.raises(ValueError):
            TrainerConfig(learning_rate=0.1, steps=0)
        with pytest.raises(ValueError):
            TrainerConfig(learning_rate=0.1, steps=10, record_every=0)

    def test_fixed_point_trajectory_is_flat(self, cov_rand4):
        w0 = principal_weights(cov_rand4, 2, seed=34)
        cfg = TrainerConfig(learning_rate=0.02, steps=200, record_every=50)
        traj = train("oja", "closed", w0, cov_rand4, cfg)
        for p in traj.points:
            np.testing.assert_allclose(p.w, w0, atol=1e-12)
            assert p.update_norm <= 1e-13

    def test_closed_flow_converges(self):
        cov = build_covariance(np.diag([5.0, 4.0, 3.0, 2.0, 1.0]))
        w0 = np.random.default_rng(35).standard_normal((2, 5)) / np.sqrt(5)
        cfg = TrainerConfig(learning_rate=0.02, steps=5000, record_every=500)
        for rule in ("oja", "eghr"):
            final = train(rule, "closed", w0, cov, cfg).final
            assert final.subspace_error <= 1e-6
            assert final.orthonormality_residual <= 1e-6

    def test_empirical_flow_improves(self):
        # clear spectral gap at the cut so the target subspace is unambiguous
        cov = build_covariance(np.diag([6.0, 5.0, 1.0, 0.5]))
        w0 = np.random.default_rng(36).standard_normal((2, 4)) / 2.0
        cfg = TrainerConfig(
            learning_rate=0.002, steps=3000, batch_size=100, record_every=500, seed=4
        )
        traj = train("oja", "empirical", w0, cov, cfg)
        assert traj.final.subspace_error < traj.points[0].subspace_error
        assert traj.final.subspace_error < 0.1

    def test_divergence_guard_names_step(self):
        cov = build_covariance(np.diag([5.0, 4.0, 3.0, 2.0, 1.0]))
        w0 = np.random.default_rng(37).standard_normal((2, 5))
        cfg = TrainerConfig(learning_rate=10.0, steps=100)
        with pytest.raises(DivergenceError) as err:
            train("oja", "closed", w0, cov, cfg)
        assert err.value.step >= 1

    def test_divergence_guard_catches_non_finite(self, cov_rand4, monkeypatch):
        monkeypatch.setattr(
            rules, "_oja_closed", lambda w, sigma, eye: np.full(w.shape, np.nan)
        )
        cfg = TrainerConfig(learning_rate=0.02, steps=100)
        with pytest.raises(DivergenceError) as err:
            train("oja", "closed", np.ones((1, 4)) / 2.0, cov_rand4, cfg)
        assert err.value.step == 1
        assert np.isnan(err.value.norm)

    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_loop_through_public_functions(self, cov_rand4, rule, mode):
        # reference loop through the public, validating update and metric
        # functions; train's unchecked kernels must match it bit for bit
        w0 = np.random.default_rng(40).standard_normal((2, 4)) / 2.0
        cfg = TrainerConfig(learning_rate=0.01, steps=60, batch_size=20,
                            record_every=7, seed=11)
        closed = oja_update_closed if rule == "oja" else eghr_update_closed
        empirical = oja_update_empirical if rule == "oja" else eghr_update_empirical
        w = as_weights(w0).copy()
        expected = []
        for step in range(cfg.steps + 1):
            if mode == "closed":
                upd = closed(w, cov_rand4)
            else:
                upd = empirical(
                    w, sample(cov_rand4, cfg.batch_size, derive_seed(cfg.seed, step))
                )
            if step % cfg.record_every == 0 or step == cfg.steps:
                expected.append((step, w.copy(), subspace_error(w, cov_rand4),
                                 orthonormality_residual(w), float(np.linalg.norm(upd))))
            if step == cfg.steps:
                break
            w = w + cfg.learning_rate * upd

        points = train(rule, mode, w0, cov_rand4, cfg).points
        assert len(points) == len(expected)
        for p, (step, w, err, orth, norm) in zip(points, expected):
            assert p.step == step
            assert np.array_equal(p.w, w)
            assert p.subspace_error == err
            assert p.orthonormality_residual == orth
            assert p.update_norm == norm

    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("mode", MODES)
    def test_validates_weights_once_per_run(self, cov_rand4, monkeypatch, rule, mode):
        calls = {"as_weights": 0, "sample": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(rules, "as_weights", counted("as_weights", rules.as_weights))
        monkeypatch.setattr(rules, "sample", counted("sample", rules.sample))
        w0 = np.random.default_rng(41).standard_normal((2, 4)) / 2.0
        cfg = TrainerConfig(learning_rate=0.01, steps=60, batch_size=20,
                            record_every=7, seed=12)
        train(rule, mode, w0, cov_rand4, cfg)
        assert calls["as_weights"] == 1
        assert calls["sample"] == (cfg.steps + 1 if mode == "empirical" else 0)

    def test_wrong_nx_rejected_before_any_step(self, cov_rand4, monkeypatch):
        def no_step(*args):
            raise AssertionError("train stepped before checking the weights")

        monkeypatch.setattr(rules, "_oja_closed", no_step)
        monkeypatch.setattr(rules, "sample", no_step)
        cfg = TrainerConfig(learning_rate=0.01, steps=5, batch_size=20)
        for mode in MODES:
            with pytest.raises(DimensionError, match="train"):
                train("oja", mode, np.ones((1, 5)) / 3.0, cov_rand4, cfg)

    def test_deterministic_trajectories(self, cov_rand4):
        w0 = np.random.default_rng(38).standard_normal((2, 4)) / 2.0
        cfg = TrainerConfig(learning_rate=0.02, steps=100, record_every=10)
        a = train("eghr", "closed", w0, cov_rand4, cfg)
        b = train("eghr", "closed", w0, cov_rand4, cfg)
        for pa, pb in zip(a.points, b.points):
            assert pa.step == pb.step
            np.testing.assert_array_equal(pa.w, pb.w)
            assert pa.subspace_error == pb.subspace_error

        cfg_emp = TrainerConfig(
            learning_rate=0.002, steps=50, batch_size=64, record_every=10, seed=9
        )
        a = train("oja", "empirical", w0, cov_rand4, cfg_emp)
        b = train("oja", "empirical", w0, cov_rand4, cfg_emp)
        for pa, pb in zip(a.points, b.points):
            np.testing.assert_array_equal(pa.w, pb.w)

    def test_step_indices_strictly_increasing(self, cov_rand4):
        w0 = np.random.default_rng(39).standard_normal((2, 4)) / 2.0
        cfg = TrainerConfig(learning_rate=0.02, steps=37, record_every=10)
        traj = train("oja", "closed", w0, cov_rand4, cfg)
        steps = [p.step for p in traj.points]
        assert steps == sorted(set(steps))
        assert steps[-1] == 37

    def test_empirical_mode_needs_batch(self, cov_rand4):
        cfg = TrainerConfig(learning_rate=0.01, steps=5, batch_size=0)
        with pytest.raises(ValueError):
            train("oja", "empirical", np.ones((1, 4)), cov_rand4, cfg)
        with pytest.raises(ValueError):
            train("bogus", "closed", np.ones((1, 4)), cov_rand4, cfg)
