"""Closed-form and empirical updates, the gain, the trainer, and metrics."""

import os
import threading
from fractions import Fraction

import numpy as np
import pytest

from frame_hebb import rules
from frame_hebb.errors import DimensionError, DivergenceError, RankDeficientError
from frame_hebb.frames import frame_element
from frame_hebb.gaussian import CHUNK_ROWS, SampleBatch, derive_seed, sample
from frame_hebb.linalg import CovarianceModel, build_covariance, random_spd
from frame_hebb.rules import (
    MODES,
    RULES,
    TrainerConfig,
    EghrMean,
    OjaMean,
    as_weights,
    eghr_g,
    eghr_update_closed,
    eghr_update_empirical,
    oja_update_closed,
    oja_update_empirical,
    orthonormality_residual,
    subspace_error,
    train,
)
from sweeps import rows_of


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
            as_weights(np.ones((3, 2)), 2)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_weights(np.array([[np.inf, 0.0]]), 2)
        with pytest.raises(ValueError):
            as_weights(np.array([[np.nan, 0.0]]), 2)

    def test_rejects_non_matrix(self):
        with pytest.raises(DimensionError):
            as_weights(np.ones(3), 3)
        with pytest.raises(DimensionError):
            as_weights(np.ones((0, 3)), 3)

    def test_returns_float_array(self):
        w = as_weights([[1, 0, 0], [0, 1, 0]], 3)
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
        x = rows_of(batch)
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
        # Batch-mean centering zeroes the gain of every row of a constant batch.
        w = np.array([[0.5, 0.5]])
        batch = SampleBatch.from_rows(np.tile([1.0, 2.0], (4, 1)), cov21)
        np.testing.assert_array_equal(batch.feed(EghrMean(w))[0], np.zeros((1, 2)))

    def test_empirical_two_sample_batch(self, cov21):
        # W = [[0, 1]]: |x|^2 - |u|^2 = x0^2 is 0 and 4, so the batch-mean
        # center is 2 and the gains are -1 and 1; u = 1 on both rows, so the
        # update is (-[0, 1] + [2, 1]) / 2.
        w = np.array([[0.0, 1.0]])
        batch = SampleBatch.from_rows([[0.0, 1.0], [2.0, 1.0]], cov21)
        batch_mean, explicit = batch.feed(EghrMean(w), EghrMean(w, 2.0))
        np.testing.assert_array_equal(batch_mean, [[1.0, 0.0]])
        np.testing.assert_array_equal(explicit, [[1.0, 0.0]])

    def test_batch_gains_sum_to_zero(self, cov_rand4):
        # Centered on the batch mean of s = |x|^2 - |u|^2, the gains sum to
        # zero: the uncentered gains sum to n times half that center. The
        # batch-mean estimate is the estimate under that center, whose one
        # sum is the gain-weighted Hebbian term.
        w = np.random.default_rng(18).uniform(-1, 1, (2, 4))
        batch = sample(cov_rand4, 1000, seed=19)
        x = rows_of(batch)
        u = x @ w.T
        s = (x * x).sum(axis=1) - (u * u).sum(axis=1)
        uncentered, explicit = EghrMean(w), EghrMean(w, float(s.mean()))
        batch_mean, centered = batch.feed(uncentered, explicit)
        assert abs(uncentered.total[1] - 0.5 * batch.n * s.mean()) <= 1e-12 * np.sum(np.abs(s))
        assert len(explicit.total) == 1
        np.testing.assert_allclose(batch_mean, centered, rtol=0,
                                   atol=1e-12 * np.linalg.norm(centered))


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


class TestExactRationals:
    """The closed forms and frame_element keep their inputs' dtype: on a
    Sigma and W of Fractions they compute in exact rational arithmetic."""

    @pytest.fixture(scope="class")
    def exact(self):
        fractions = np.vectorize(Fraction, otypes=[object])
        sigma = fractions(np.array([[4, 1, 0], [1, 3, 1], [0, 1, 2]]))
        # Built directly: build_covariance casts its input to float.
        cov = CovarianceModel(sigma=sigma, chol=None, sigma_inv=None, eigvals=None,
                              eigvecs=None)
        w = fractions(np.array([[1, 2, -3], [0, 4, 1]])) / 7
        return cov, w, fractions

    def test_closed_forms_agree_exactly(self, exact):
        cov, w, _ = exact
        gap = oja_update_closed(w, cov) @ cov.sigma - eghr_update_closed(w, cov)
        assert all(type(v) is Fraction and v == 0 for v in gap.flat), gap

    def test_frame_element_stays_rational(self, exact):
        cov, _, fractions = exact
        xi = frame_element(fractions(np.array([1, -2, 3])) / 7, cov)
        assert all(type(v) is Fraction for v in xi.flat), xi
        assert xi[0, 1] == Fraction(-2, 49) - 1


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
        x = rows_of(batch)
        u = x @ w.T
        center = np.trace(cov21.sigma) - np.trace(w @ cov21.sigma @ w.T)
        g_closed = 0.5 * ((x * x).sum(axis=1) - (u * u).sum(axis=1) - center)
        outer = u[:, :, None] * x[:, None, :]
        terms = g_closed[:, None, None] * (outer - outer.mean(axis=0))
        band = 4.0 * terms.std(axis=0, ddof=1) / np.sqrt(batch.n)
        gap = np.abs(
            eghr_update_empirical(w, batch) - eghr_update_closed(w, cov21)
        )
        assert np.all(gap <= band)

    def test_gain_shift_moves_update_by_hebbian_mean(self, cov_rand4):
        # Lowering the center by 2c raises every gain by c; at the batch mean
        # of s = |x|^2 - |u|^2 the center gives the batch-mean estimate.
        w = np.random.default_rng(28).uniform(-1, 1, (2, 4))
        batch = sample(cov_rand4, 500, seed=29)
        x = rows_of(batch)
        u = x @ w.T
        center = float(np.mean((x * x).sum(axis=1) - (u * u).sum(axis=1)))
        c = 0.7
        base, centered, shifted = batch.feed(
            EghrMean(w), EghrMean(w, center), EghrMean(w, center - 2 * c))
        np.testing.assert_allclose(centered, base, atol=1e-12)
        hebbian_mean = u.T @ x / batch.n
        np.testing.assert_allclose(shifted - base, c * hebbian_mean, atol=1e-12)

    def test_closed_gain_mode(self, cov_rand4):
        # Closed-form centering: the update is the Hebbian mean weighted by
        # the per-sample closed-form gains eghr_g.
        w = np.random.default_rng(30).uniform(-1, 1, (2, 4))
        batch = sample(cov_rand4, 200, seed=31)
        center = np.trace(cov_rand4.sigma) - np.trace(w @ cov_rand4.sigma @ w.T)
        explicit = sum(
            eghr_g(x, w, cov_rand4) * np.outer(w @ x, x) for x in rows_of(batch)
        )
        np.testing.assert_allclose(
            batch.feed(EghrMean(w, center))[0], explicit / batch.n, rtol=0, atol=1e-12
        )

    def test_one_chunk_matches_whole_batch_formula(self, cov_rand4):
        # One chunk: the update is the whole-batch formula bit for bit, the
        # mean of the uncentered g u x^T less mean(g) times the mean of u x^T.
        w = np.random.default_rng(46).uniform(-1, 1, (2, 4))
        batch = sample(cov_rand4, 300, 47)
        x = rows_of(batch)
        u = x @ w.T
        g = 0.5 * ((x * x) @ np.ones(4) - (u * u) @ np.ones(2))
        whole = (u * g[:, None]).T @ x / batch.n - (g.sum() / batch.n) * (u.T @ x / batch.n)
        np.testing.assert_array_equal(eghr_update_empirical(w, batch), whole)


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
                TrainerConfig("oja", "closed", learning_rate=lr, steps=10)
        with pytest.raises(ValueError):
            TrainerConfig("oja", "closed", learning_rate=0.1, steps=0)
        with pytest.raises(ValueError):
            TrainerConfig("oja", "closed", learning_rate=0.1, steps=10, record_every=0)
        for size in (-1, rules.MAX_BATCH_SIZE + 1):
            with pytest.raises(ValueError, match="batch_size"):
                TrainerConfig("oja", "closed", learning_rate=0.1, steps=10, batch_size=size)
        TrainerConfig("oja", "closed", learning_rate=0.1, steps=10,
                      batch_size=rules.MAX_BATCH_SIZE)

    def test_fixed_point_trajectory_is_flat(self, cov_rand4):
        w0 = principal_weights(cov_rand4, 2, seed=34)
        cfg = TrainerConfig("oja", "closed", learning_rate=0.02, steps=200, record_every=50)
        for p in train(w0, cov_rand4, cfg):
            np.testing.assert_allclose(p.w, w0, atol=1e-12)
            assert p.update_norm <= 1e-13

    def test_closed_flow_converges(self):
        cov = build_covariance(np.diag([5.0, 4.0, 3.0, 2.0, 1.0]))
        w0 = np.random.default_rng(35).standard_normal((2, 5)) / np.sqrt(5)
        for rule in ("oja", "eghr"):
            cfg = TrainerConfig(rule, "closed", learning_rate=0.02, steps=5000,
                                record_every=500)
            final = train(w0, cov, cfg)[-1]
            assert final.subspace_error <= 1e-6
            assert final.orthonormality_residual <= 1e-6

    def test_empirical_flow_improves(self):
        # clear spectral gap at the cut so the target subspace is unambiguous
        cov = build_covariance(np.diag([6.0, 5.0, 1.0, 0.5]))
        w0 = np.random.default_rng(36).standard_normal((2, 4)) / 2.0
        cfg = TrainerConfig(
            "oja", "empirical", learning_rate=0.002, steps=3000, batch_size=100,
            record_every=500, seed=4
        )
        points = train(w0, cov, cfg)
        assert points[-1].subspace_error < points[0].subspace_error
        assert points[-1].subspace_error < 0.1

    def test_divergence_guard_names_step(self):
        cov = build_covariance(np.diag([5.0, 4.0, 3.0, 2.0, 1.0]))
        w0 = np.random.default_rng(37).standard_normal((2, 5))
        cfg = TrainerConfig("oja", "closed", learning_rate=10.0, steps=100)
        with pytest.raises(DivergenceError) as err:
            train(w0, cov, cfg)
        assert err.value.step >= 1
        # the guard's norm is np.linalg.norm of the iterate, to the bit
        w = w0
        for _ in range(err.value.step):
            w = w + cfg.learning_rate * oja_update_closed(w, cov)
        assert err.value.norm == float(np.linalg.norm(w))

    def test_divergence_guard_catches_non_finite(self, cov_rand4, monkeypatch):
        monkeypatch.setattr(
            rules, "oja_update_closed", lambda w, cov: np.full(w.shape, np.nan)
        )
        cfg = TrainerConfig("oja", "closed", learning_rate=0.02, steps=100)
        with pytest.raises(DivergenceError) as err:
            train(np.ones((1, 4)) / 2.0, cov_rand4, cfg)
        assert err.value.step == 1
        assert np.isnan(err.value.norm)

    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_loop_through_public_functions(self, cov_rand4, rule, mode):
        # reference loop through the public update and metric functions,
        # each empirical step on its rows of the run's one stream as a batch
        # of given rows; train must match it bit for bit
        w0 = np.random.default_rng(40).standard_normal((2, 4)) / 2.0
        cfg = TrainerConfig(rule, mode, learning_rate=0.01, steps=60, batch_size=20,
                            record_every=7, seed=11)
        closed = oja_update_closed if rule == "oja" else eghr_update_closed
        empirical = oja_update_empirical if rule == "oja" else eghr_update_empirical
        b = cfg.batch_size
        stream = rows_of(sample(cov_rand4, (cfg.steps + 1) * b, derive_seed(cfg.seed, 0),
                                block=b))  # one stream per run
        w = as_weights(w0, cov_rand4.dim).copy()
        expected = []
        for step in range(cfg.steps + 1):
            if mode == "closed":
                upd = closed(w, cov_rand4)
            else:
                rows = stream[step * b:(step + 1) * b]
                upd = empirical(w, SampleBatch.from_rows(rows, cov_rand4))
            if step % cfg.record_every == 0 or step == cfg.steps:
                expected.append((step, w.copy(), subspace_error(w, cov_rand4),
                                 orthonormality_residual(w), float(np.linalg.norm(upd))))
            if step == cfg.steps:
                break
            w = w + cfg.learning_rate * upd

        points = train(w0, cov_rand4, cfg)
        assert len(points) == len(expected)
        for p, (step, w, err, orth, norm) in zip(points, expected):
            assert p.step == step
            assert np.array_equal(p.w, w)
            assert p.subspace_error == err
            assert p.orthonormality_residual == orth
            assert p.update_norm == norm

    @staticmethod
    def recorded_steps(monkeypatch, rule) -> list:
        """The rows each step of a train run hands its running sum, in
        order, once ``rules``' running sum of ``rule`` records them."""
        mean, seen = EghrMean if rule == "eghr" else OjaMean, []

        class Recording(mean):
            def sums(self, x):
                seen.append(x.copy())
                return super().sums(x)

        monkeypatch.setattr(rules, mean.__name__, Recording)
        return seen

    @pytest.mark.parametrize("rule", RULES)
    def test_empirical_batches_are_one_stream_per_run(self, cov_rand4, monkeypatch, rule):
        # Step k reads rows k b to (k + 1) b of the run's one batch,
        # sample(cov, (steps + 1) b, derive_seed(seed, 0), block=b): the
        # draw of default_rng(derive_seed(seed, 0)), whatever the run
        # length. So step 0's rows are sample(cov, b, derive_seed(seed, 0)),
        # and they share no draw with default_rng(seed), which the CLI draws
        # W0 from.
        seen = self.recorded_steps(monkeypatch, rule)
        w0 = np.random.default_rng(43).standard_normal((2, 4)) / 2.0
        cfg = TrainerConfig(rule, "empirical", learning_rate=0.01, steps=20, batch_size=30,
                            seed=13)
        b, nx, n = cfg.batch_size, cov_rand4.dim, (cfg.steps + 1) * cfg.batch_size
        train(w0, cov_rand4, cfg)
        assert len(seen) == cfg.steps + 1
        stream = rows_of(sample(cov_rand4, n, derive_seed(cfg.seed, 0), block=b))
        for k, rows in enumerate(seen):
            assert np.array_equal(rows, stream[k * b:(k + 1) * b]), k
        whole = np.random.default_rng(derive_seed(cfg.seed, 0)).standard_normal((n, nx))
        assert np.array_equal(np.concatenate(seen), whole @ cov_rand4.chol.T)
        assert np.array_equal(seen[0], rows_of(sample(cov_rand4, b, derive_seed(cfg.seed, 0))))
        w0_stream = np.random.default_rng(cfg.seed).standard_normal((b, nx)) @ cov_rand4.chol.T
        assert not np.any(np.isin(seen[0], w0_stream))

    @pytest.mark.parametrize("nx", [4, 5])
    @pytest.mark.parametrize("rule, b", [("oja", 1), ("oja", 2), ("oja", 30),
                                         ("eghr", 2), ("eghr", 30)])
    def test_a_short_run_is_a_prefix_of_a_long_one(self, nx, rule, b):
        # Step k's rows do not depend on the run length, nor do the chunks'
        # bits. At most 32 steps a chunk: 21 and 46 steps are each one chunk,
        # of their own length; 101 steps are chunks of 32, 32 and 37 steps,
        # the last taking the remainder, with the read-ahead. The 20-step
        # trajectory is the 45-step one's first 21 points, bit for bit, and
        # that is the 100-step one's first 46.
        cov = build_covariance(random_spd(nx, (0.5, 2.0), seed=nx))
        w0 = np.random.default_rng(44).standard_normal((2, nx)) / 2.0
        runs = [train(w0, cov, TrainerConfig(rule, "empirical", learning_rate=0.01,
                                             steps=steps, batch_size=b, seed=14))
                for steps in (20, 45, 100)]
        assert [len(points) for points in runs] == [21, 46, 101]
        for short, long in zip(runs, runs[1:]):
            for a, c in zip(short, long):
                assert a.step == c.step
                assert np.array_equal(a.w, c.w)
                assert (a.subspace_error, a.orthonormality_residual, a.update_norm) == (
                    c.subspace_error, c.orthonormality_residual, c.update_norm)

    def test_a_step_longer_than_a_chunk_is_read_in_pieces(self, cov_rand4, monkeypatch):
        # A step of C + 5 rows spans the chunks of a batch drawn without a
        # block, C, C and C + 15 rows for 3 steps: the running sum reads the
        # pieces cut at chunk and step ends, and the step's update is the
        # public update on its C + 5 rows, to roundoff.
        c = CHUNK_ROWS
        seen = self.recorded_steps(monkeypatch, "oja")
        cfg = TrainerConfig("oja", "empirical", learning_rate=0.01, steps=2, batch_size=c + 5,
                            seed=15)
        points = train(np.random.default_rng(45).standard_normal((2, 4)) / 2.0, cov_rand4, cfg)
        assert [len(x) for x in seen] == [c, 5, c - 5, 10, c + 5]
        stream = rows_of(sample(cov_rand4, 3 * (c + 5), derive_seed(cfg.seed, 0), None))
        assert np.array_equal(np.concatenate(seen), stream)
        for k, p in enumerate(points):
            rows = SampleBatch.from_rows(stream[k * (c + 5):(k + 1) * (c + 5)], cov_rand4)
            want = float(np.linalg.norm(oja_update_empirical(p.w, rows)))
            assert p.update_norm == pytest.approx(want, rel=1e-12)

    def test_a_diverging_empirical_run_ends_its_read_ahead(self, cov_rand4):
        # The run diverges in its first chunk of 32 steps, while the worker
        # draws the next one; train closes the pass as it raises, so no
        # thread outlives it while the caller holds the error.
        baseline = threading.active_count()
        cfg = TrainerConfig("oja", "empirical", learning_rate=1e3, steps=5000, batch_size=100)
        with pytest.raises(DivergenceError) as err:
            train(np.ones((1, 4)) / 2.0, cov_rand4, cfg)
        assert err.value.step < 32
        assert threading.active_count() == baseline

    def test_stream_memory_is_guarded_before_any_draw(self, cov_rand4, monkeypatch):
        # The guard asks for the z buffer of the longest chunk, the chunk
        # being drawn and the chunk read, and three arrays of the longest
        # piece for a step's temporaries: 46 steps of 30 rows are one chunk
        # of 1380, and 3 steps of C + 5 rows are chunks of C, C and C + 15
        # rows, read in pieces of at most C + 5.
        asked = []
        monkeypatch.setattr(rules, "require_memory", lambda nbytes, what: asked.append(nbytes))
        cfg = TrainerConfig("oja", "empirical", learning_rate=0.01, steps=45, batch_size=30)
        train(np.ones((1, 4)) / 2.0, cov_rand4, cfg)
        long = TrainerConfig("oja", "empirical", learning_rate=0.01, steps=2,
                             batch_size=CHUNK_ROWS + 5)
        train(np.ones((1, 4)) / 2.0, cov_rand4, long)
        assert asked == [8 * 4 * (3 * 1380 + 3 * 30),
                         8 * 4 * (3 * (CHUNK_ROWS + 15) + 3 * (CHUNK_ROWS + 5))]

        def no_chunks(self):
            raise AssertionError("a chunk was drawn")

        monkeypatch.undo()
        monkeypatch.setattr(SampleBatch, "chunks", no_chunks)
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}  # 64 KiB
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
        with pytest.raises(DimensionError, match="a train chunk of 1,380 rows at nx=4"):
            train(np.ones((1, 4)) / 2.0, cov_rand4, cfg)

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
        cfg = TrainerConfig(rule, mode, learning_rate=0.01, steps=60, batch_size=20,
                            record_every=7, seed=12)
        train(w0, cov_rand4, cfg)
        assert calls["as_weights"] == 1
        assert calls["sample"] == (1 if mode == "empirical" else 0)  # one stream per run

    @pytest.mark.parametrize("rule", RULES)
    def test_closed_run_steps_through_public_updates(self, cov_rand4, monkeypatch, rule):
        # One call per step, the last one for the final record's update norm;
        # the benchmark's tracer counts train's closed steps by these names.
        calls = {"oja": 0, "eghr": 0}

        def counted(name, fn):
            def wrapper(w, cov):
                calls[name] += 1
                return fn(w, cov)
            return wrapper

        monkeypatch.setattr(rules, "oja_update_closed", counted("oja", oja_update_closed))
        monkeypatch.setattr(rules, "eghr_update_closed", counted("eghr", eghr_update_closed))
        w0 = np.random.default_rng(42).standard_normal((2, 4)) / 2.0
        cfg = TrainerConfig(rule, "closed", learning_rate=0.01, steps=60, record_every=7)
        train(w0, cov_rand4, cfg)
        assert calls == {name: (cfg.steps + 1 if name == rule else 0) for name in RULES}

    def test_wrong_nx_rejected_before_any_step(self, cov_rand4, monkeypatch):
        def no_step(*args):
            raise AssertionError("train stepped before checking the weights")

        monkeypatch.setattr(rules, "oja_update_closed", no_step)
        monkeypatch.setattr(rules, "sample", no_step)
        for mode in MODES:
            cfg = TrainerConfig("oja", mode, learning_rate=0.01, steps=5, batch_size=20)
            with pytest.raises(DimensionError, match="train"):
                train(np.ones((1, 5)) / 3.0, cov_rand4, cfg)

    def test_deterministic_trajectories(self, cov_rand4):
        w0 = np.random.default_rng(38).standard_normal((2, 4)) / 2.0
        cfg = TrainerConfig("eghr", "closed", learning_rate=0.02, steps=100, record_every=10)
        a = train(w0, cov_rand4, cfg)
        b = train(w0, cov_rand4, cfg)
        for pa, pb in zip(a, b):
            assert pa.step == pb.step
            np.testing.assert_array_equal(pa.w, pb.w)
            assert pa.subspace_error == pb.subspace_error

        cfg_emp = TrainerConfig(
            "oja", "empirical", learning_rate=0.002, steps=50, batch_size=64,
            record_every=10, seed=9
        )
        a = train(w0, cov_rand4, cfg_emp)
        b = train(w0, cov_rand4, cfg_emp)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.w, pb.w)

    def test_step_indices_strictly_increasing(self, cov_rand4):
        w0 = np.random.default_rng(39).standard_normal((2, 4)) / 2.0
        cfg = TrainerConfig("oja", "closed", learning_rate=0.02, steps=37, record_every=10)
        steps = [p.step for p in train(w0, cov_rand4, cfg)]
        assert steps == sorted(set(steps))
        assert steps[-1] == 37

    def test_empirical_mode_needs_batch(self):
        with pytest.raises(ValueError):
            TrainerConfig("oja", "empirical", learning_rate=0.01, steps=5, batch_size=0)
        with pytest.raises(ValueError):
            TrainerConfig("bogus", "closed", learning_rate=0.01, steps=5, batch_size=0)
