import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_psd
from fdopt.errors import DataError
from fdopt.estimators import (
    Ema,
    EmaState,
    Estimate,
    Queue,
    QueueState,
    backprop_estimate,
    estimate,
)
from fdopt.frechet import (
    GaussianStats,
    fd,
    fd_with_grad,
    make_reference,
)
from fdopt.representations import RepresentationSpec, featurize
from fdopt.rng import SplitMix64
from oracles import (
    central_difference,
    ema_replay_oracle,
    population_stats_oracle,
    queue_contents,
    relative_error,
    stats_from_features,
)


def warm_queue(seed: int, capacity: int, dim: int) -> QueueState:
    rows = SplitMix64(seed).normal_matrix(capacity, dim)
    return QueueState(capacity, rows)


def warm_ema(seed: int, beta: float, dim: int, rows: int = 16) -> EmaState:
    samples = SplitMix64(seed).normal_matrix(rows, dim)
    return EmaState(beta, stats_from_features(samples))


def commit(state, batch: np.ndarray):
    """One step's estimate and commit, as the training loop runs them."""
    state.commit(batch, estimate(state, batch))
    return state


def backprop(state, batch: np.ndarray, d_mu: np.ndarray, d_sigma: np.ndarray):
    return backprop_estimate(state, batch, estimate(state, batch).mu, d_mu, d_sigma)


class TestQueue:
    def test_duplicated_rows_match_batch_stats(self):
        batch = SplitMix64(1).normal_matrix(4, 2)
        q = QueueState(4, batch)
        stats = estimate(q, batch)
        direct = stats_from_features(batch)
        assert np.allclose(stats.mu, direct.mu, atol=1e-14)
        assert np.allclose(stats.sigma, direct.sigma, atol=1e-14)

    def test_all_zero(self):
        q = QueueState(3, np.zeros((3, 2)))
        stats = estimate(q, np.zeros((2, 2)))
        # a plain (mu, sigma) pair, not a GaussianStats, which is checked
        assert type(stats) is Estimate and stats._fields == ("mu", "sigma")
        assert np.allclose(stats.mu, 0.0)
        assert np.allclose(stats.sigma, 0.0)

    def test_matches_concatenation_oracle(self):
        q = warm_queue(10, 64, 3)
        batch = SplitMix64(11).normal_matrix(16, 3)
        stats = estimate(q, batch)
        rows = np.concatenate([queue_contents(q), batch], axis=0)
        assert rows.shape == (80, 3)
        mu, cov = population_stats_oracle(rows)
        assert np.abs(stats.mu - mu).max() <= 1e-12
        assert np.abs(stats.sigma - cov).max() <= 1e-12

    def test_commit_fifo_pair(self):
        a, b, c = np.array([[1.0]]), np.array([[2.0]]), np.array([[3.0]])
        q = QueueState(2, np.concatenate([a, b]))
        q = commit(q, c)
        assert np.allclose(queue_contents(q), [[2.0], [3.0]])

    def test_commit_full_capacity_replaces_all(self):
        q = warm_queue(20, 4, 2)
        batch = SplitMix64(21).normal_matrix(4, 2)
        q = commit(q, batch)
        assert np.array_equal(queue_contents(q), batch)

    def test_commit_sequence_replay(self):
        q = warm_queue(30, 8, 2)
        committed = [queue_contents(q)]
        for k in range(5):
            batch = SplitMix64(31 + k).normal_matrix(2, 2)
            committed.append(batch)
            q = commit(q, batch)
        tail = np.concatenate(committed, axis=0)[-8:]
        assert np.array_equal(queue_contents(q), tail)

    @given(st.integers(0, 2**31), st.integers(1, 12), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_stats_always_match_concat(self, seed, capacity, b):
        q = warm_queue(seed, capacity, 3)
        batch = SplitMix64(seed ^ 0xDEAD).normal_matrix(b, 3)
        stats = estimate(q, batch)
        mu, cov = population_stats_oracle(
            np.concatenate([queue_contents(q), batch], axis=0)
        )
        assert np.abs(stats.mu - mu).max() <= 1e-12
        assert np.abs(stats.sigma - cov).max() <= 1e-12


class TestQueueRunningSums:
    """The queue's statistics come from running sums about a shift; the
    dense statistics of the concatenated rows are the oracle."""

    @pytest.mark.parametrize("offset", [0.0, 10.0, 1000.0])
    def test_matches_concatenation_over_ten_turnovers(self, offset):
        capacity, b, d = 1024, 32, 64
        stream = SplitMix64(1234)
        q = QueueState(capacity, offset + stream.normal_matrix(capacity, d))
        worst = 0.0
        for step in range(10 * capacity // b):
            # the rows drift away from the shift the sums were last built at
            drift = 0.5 * step * b / capacity
            batch = offset + drift + stream.normal_matrix(b, d)
            stats = estimate(q, batch)
            mu, cov = population_stats_oracle(
                np.concatenate([queue_contents(q), batch], axis=0)
            )
            worst = max(
                worst, relative_error(stats.mu, mu), relative_error(stats.sigma, cov)
            )
            q = commit(q, batch)
        assert worst < 1e-10

    def test_held_stats_are_the_stored_rows(self):
        q = warm_queue(50, 64, 3)
        # right after a rebuild: the dense statistics of the rows, bit for bit
        dense = stats_from_features(queue_contents(q))
        assert q.mu.tobytes() == dense.mu.tobytes()
        assert q.sigma.tobytes() == dense.sigma.tobytes()
        for k in range(3):
            q = commit(q, 5.0 + SplitMix64(51 + k).normal_matrix(16, 3))
        mu, cov = population_stats_oracle(queue_contents(q))
        assert relative_error(q.mu, mu) < 1e-12
        assert relative_error(q.sigma, cov) < 1e-12
        # with no batch rows the merge is the held rows themselves
        assert q.history(0) == 1.0

    def test_dense_rebuild_once_per_turnover(self, monkeypatch):
        import fdopt.estimators as estimators_module
        from fdopt.representations import RepresentationEnsemble
        from fdopt.trainer import MixtureTarget, TrainConfig, post_train

        rebuilds = 0
        original = estimators_module._rebuild

        def counted(q):
            nonlocal rebuilds
            rebuilds += 1
            original(q)

        monkeypatch.setattr(estimators_module, "_rebuild", counted)
        steps, b, capacity = 64, 32, 1024
        config = TrainConfig(
            ensemble=RepresentationEnsemble(
                specs=(RepresentationSpec("tanh_rf", 1, 2, 16),)
            ),
            target=MixtureTarget(
                means=[[0.0, 1.0]], covs=[np.eye(2)], weights=[1.0], sample_seed=2
            ),
            batch_size=b,
            total_steps=steps,
            warmup_steps=4,
            hidden=(8,),
            estimator=Queue(capacity),
        )
        post_train(config)
        # the warm start, then one rebuild per full turnover of the queue
        assert rebuilds == 1 + steps * b // capacity


class TestEmaMoments:
    """At beta = 0 the EMA's statistics are the batch's own moments."""

    def test_single_row(self):
        stats = estimate(warm_ema(50, 0.0, 2), np.array([[2.0, 0.0]]))
        assert np.allclose(stats.mu, [2.0, 0.0])
        assert np.allclose(stats.sigma, np.zeros((2, 2)))

    def test_symmetric_pair(self):
        stats = estimate(warm_ema(50, 0.0, 2), np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert np.allclose(stats.mu, 0.0)
        assert np.allclose(stats.sigma, np.diag([1.0, 0.0]))

    def test_matches_naive_summation(self):
        batch = SplitMix64(50).normal_matrix(32, 4)
        stats = estimate(warm_ema(51, 0.0, 4), batch)
        mu_naive = np.zeros(4)
        for row in batch:
            mu_naive += row / 32
        sigma_naive = np.zeros((4, 4))
        for row in batch:
            sigma_naive += np.outer(row - mu_naive, row - mu_naive) / 32
        assert np.abs(stats.mu - mu_naive).max() <= 1e-12
        assert np.abs(stats.sigma - sigma_naive).max() <= 1e-12

    def test_empty_rejected(self):
        # an EMA starts from a population's stats; an empty one has none
        with pytest.raises(DataError):
            EmaState(0.9, stats_from_features(np.empty((0, 3))))


def batch_moments(batch: np.ndarray):
    """Raw batch moments (mean, E[x x^T]) for the geometric replay oracle."""
    return batch.mean(axis=0), batch.T @ batch / batch.shape[0]


class TestEmaBlend:
    def test_beta_zero_is_batch_only(self):
        for offset in (0.0, 1e4, 1e6):
            s = warm_ema(60, 0.0, 3)
            batch = offset + SplitMix64(61).normal_matrix(8, 3)
            stats = estimate(s, batch)
            direct = stats_from_features(batch)
            assert stats.mu.tobytes() == direct.mu.tobytes()
            assert stats.sigma.tobytes() == direct.sigma.tobytes()

    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e6])
    @pytest.mark.parametrize("beta", [0.0, 0.9])
    def test_matches_weighted_oracle_far_from_origin(self, beta, offset):
        # the merge keeps centred moments, so an offset costs no accuracy
        d, b, n = 4, 32, 64
        warm = offset + SplitMix64(68).normal_matrix(n, d)
        batch = offset + SplitMix64(69).normal_matrix(b, d)
        stats = estimate(EmaState(beta, stats_from_features(warm)), batch)
        rows = np.concatenate([warm, batch])
        w = np.concatenate([np.full(n, beta / n), np.full(b, (1.0 - beta) / b)])
        mu = np.average(rows, axis=0, weights=w)
        cov = np.cov(rows, rowvar=False, aweights=w, bias=True)
        assert relative_error(stats.mu, mu) < 1e-10
        assert relative_error(stats.sigma, cov) < 1e-10
        if beta == 0.0:
            direct = stats_from_features(batch)
            assert stats.mu.tobytes() == direct.mu.tobytes()
            assert stats.sigma.tobytes() == direct.sigma.tobytes()

    def test_fixed_point_on_warm_start_batch(self):
        batch = SplitMix64(62).normal_matrix(16, 2)
        for beta in [0.0, 0.5, 0.999]:
            s = EmaState(beta, stats_from_features(batch))
            stats = estimate(s, batch)
            assert np.allclose(stats.mu, s.mu, atol=1e-14)
            assert np.allclose(stats.sigma, s.sigma, atol=1e-14)

    def test_hundred_step_geometric_replay(self):
        beta = 0.999
        s = warm_ema(63, beta, 3)
        mu0 = s.mu.copy()
        m0 = s.sigma + np.outer(mu0, mu0)
        history = []
        for k in range(100):
            batch = SplitMix64(700 + k).normal_matrix(8, 3)
            history.append(batch_moments(batch))
            s = commit(s, batch)
        mu_want, m_want = ema_replay_oracle(mu0, m0, history, beta)
        assert np.abs(s.mu - mu_want).max() <= 1e-10
        assert np.abs(s.sigma - (m_want - np.outer(mu_want, mu_want))).max() <= 1e-10

    def test_commit_round_trip(self):
        s = warm_ema(64, 0.9, 2)
        mu = np.array([1.0, 2.0])
        sigma = np.array([[2.0, 0.5], [0.5, 5.0]])
        s.commit(np.zeros((1, 2)), GaussianStats(mu, sigma, 1.0))
        assert np.array_equal(s.mu, mu)
        assert np.array_equal(s.sigma, sigma)
        assert s.beta == 0.9

    def test_convexity_bound_near_one(self):
        beta = 0.9999
        s = warm_ema(65, beta, 2)
        batch = SplitMix64(66).normal_matrix(8, 2)
        mu_b = batch.mean(axis=0)
        moved = np.linalg.norm(estimate(s, batch).mu - s.mu)
        assert moved <= (1.0 - beta) * np.linalg.norm(mu_b - s.mu) + 1e-15

    def test_recovered_covariance_nearly_psd(self):
        s = warm_ema(67, 0.99, 4)
        for k in range(50):
            batch = SplitMix64(800 + k).normal_matrix(4, 4)
            stats = estimate(s, batch)
            s.commit(batch, stats)
        w = np.linalg.eigvalsh(stats.sigma)
        assert w.min() >= -1e-8 * max(np.trace(stats.sigma), 1.0) / 4


class TestWarmStart:
    def test_ema_single_row(self):
        x = np.array([[3.0, -1.0]])
        s = EmaState(0.9, stats_from_features(x))
        assert np.allclose(s.mu, x[0])
        assert np.allclose(s.sigma, np.zeros((2, 2)))

    def test_queue_exact_capacity_preserves_order(self):
        rows = SplitMix64(70).normal_matrix(5, 2)
        q = QueueState(5, rows)
        assert np.array_equal(queue_contents(q), rows)

    def test_queue_keeps_most_recent(self):
        rows = SplitMix64(71).normal_matrix(9, 2)
        q = QueueState(4, rows)
        assert np.array_equal(queue_contents(q), rows[-4:])

    def test_queue_undersized_rejected(self):
        with pytest.raises(DataError, match="4"):
            QueueState(4, np.zeros((3, 2)))

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_queue_capacity_below_one_rejected(self, capacity):
        with pytest.raises(DataError, match="capacity must be >= 1"):
            Queue(capacity)

    @pytest.mark.parametrize("beta", [-0.1, 1.0, 1.5, float("nan")])
    def test_ema_beta_outside_unit_interval_rejected(self, beta):
        with pytest.raises(DataError, match=r"beta must lie in \[0, 1\)"):
            Ema(beta)

    def test_kinds_start_one_state_per_spec(self):
        specs = (
            RepresentationSpec("identity", 0, 2, 2),
            RepresentationSpec("tanh_rf", 1, 2, 3),
        )
        rows = SplitMix64(73).normal_matrix(9, 2)
        stats = [stats_from_features(featurize(spec, rows)) for spec in specs]
        queues = Queue(4).warm_states(specs, rows, stats)
        emas = Ema(0.5).warm_states(specs, rows, stats)
        for spec, s, q, e in zip(specs, stats, queues, emas):
            # a queue keeps the last capacity samples, featurized
            assert np.array_equal(queue_contents(q), featurize(spec, rows[-4:]))
            assert (e.beta, e.mu.tobytes(), e.sigma.tobytes()) == (
                0.5, s.mu.tobytes(), s.sigma.tobytes()
            )

    def test_queue_owns_its_rows(self):
        rows = SplitMix64(72).normal_matrix(4, 2)
        q = QueueState(4, rows)
        rows[:] = 0.0
        assert np.array_equal(queue_contents(q), SplitMix64(72).normal_matrix(4, 2))


def pipeline_fd(ref, state, batch):
    return fd(ref, estimate(state, batch))


def reference_for(seed: int, d: int):
    rng = SplitMix64(seed)
    return make_reference(
        GaussianStats(rng.normals(d), random_psd(seed + 1, d) + 0.1 * np.eye(d), 1.0)
    )


class TestEstimatorBackprop:
    def test_zero_gradients_pass_through(self):
        q = warm_queue(80, 8, 3)
        batch = SplitMix64(81).normal_matrix(4, 3)
        g = backprop(q, batch, np.zeros(3), np.zeros((3, 3)))
        assert g.shape == (4, 3)
        assert np.allclose(g, 0.0)

    def test_ema_beta_zero_scalar_chain(self):
        # B=1, d=1, beta=0: stats are (x, 0), so fd = (x - mu_r)^2 + sigma_r
        # and the exact gradient is 2 (x - mu_r).
        ref = make_reference(GaussianStats(np.array([0.5]), np.eye(1), 1.0))
        s = EmaState(0.0, stats_from_features(np.array([[0.0]])))
        batch = np.array([[2.0]])
        _, grad = fd_with_grad(ref, estimate(s, batch))
        g = backprop(s, batch, grad.d_mu, grad.d_sigma)
        finite = central_difference(
            lambda v: pipeline_fd(ref, s, v.reshape(1, 1)), batch.ravel()
        )
        assert relative_error(g.ravel(), finite) < 1e-6
        assert g.ravel()[0] == pytest.approx(2.0 * (2.0 - 0.5), rel=1e-4)

    @pytest.mark.parametrize("seed", range(6))
    def test_queue_matches_finite_differences(self, seed):
        d, b = 3, 4
        ref = reference_for(900 + seed, d)
        q = warm_queue(910 + seed, 8, d)
        batch = SplitMix64(920 + seed).normal_matrix(b, d)
        _, grad = fd_with_grad(ref, estimate(q, batch))
        g = backprop(q, batch, grad.d_mu, grad.d_sigma)
        finite = central_difference(
            lambda v: pipeline_fd(ref, q, v.reshape(b, d)), batch.ravel()
        )
        assert relative_error(g.ravel(), finite) < 1e-4

    @pytest.mark.parametrize("seed", range(6))
    def test_ema_matches_finite_differences(self, seed):
        d, b = 3, 4
        ref = reference_for(930 + seed, d)
        s = warm_ema(940 + seed, 0.9, d)
        batch = SplitMix64(950 + seed).normal_matrix(b, d)
        _, grad = fd_with_grad(ref, estimate(s, batch))
        g = backprop(s, batch, grad.d_mu, grad.d_sigma)
        finite = central_difference(
            lambda v: pipeline_fd(ref, s, v.reshape(b, d)), batch.ravel()
        )
        assert relative_error(g.ravel(), finite) < 1e-4

    def test_returns_exactly_batch_rows(self):
        q = warm_queue(960, 16, 2)
        batch = SplitMix64(961).normal_matrix(5, 2)
        ref = reference_for(962, 2)
        _, grad = fd_with_grad(ref, estimate(q, batch))
        g = backprop(q, batch, grad.d_mu, grad.d_sigma)
        assert g.shape == batch.shape
