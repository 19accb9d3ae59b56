import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_psd
from fdopt.errors import DataError, NonFiniteDataError
from fdopt.frechet import (
    BLOCK_ROWS,
    GaussianStats,
    fd,
    fd_with_grad,
    make_reference,
    split_stats,
)
from fdopt.representations import RepresentationSpec, featurize
from fdopt.rng import SplitMix64
from oracles import (
    central_difference,
    frechet_oracle,
    population_stats_oracle,
    relative_error,
    stats_from_features,
    symmetric_matrix_difference,
)


def make_pair(seed: int, d: int):
    rng = SplitMix64(seed)
    ref = make_reference(
        GaussianStats(
            mu=rng.normals(d),
            sigma=random_psd(seed + 1, d) + 0.05 * np.eye(d),
            weight=1.0,
        )
    )
    gen = GaussianStats(
        mu=rng.normals(d),
        sigma=random_psd(seed + 2, d) + 0.05 * np.eye(d),
        weight=1.0,
    )
    return ref, gen


class TestFd:
    def test_equal_covariance_mean_shift(self):
        ref = make_reference(GaussianStats(np.zeros(2), np.eye(2), 1.0))
        gen = GaussianStats(np.array([3.0, 4.0]), np.eye(2), 1.0)
        assert fd(ref, gen) == pytest.approx(25.0, abs=1e-10)

    def test_commuting_diagonals(self):
        ref = make_reference(GaussianStats(np.zeros(3), 4.0 * np.eye(3), 1.0))
        gen = GaussianStats(np.zeros(3), np.eye(3), 1.0)
        assert fd(ref, gen) == pytest.approx(3.0, abs=1e-10)

    def test_identical_stats(self):
        stats = GaussianStats(np.array([1.0, -2.0]), random_psd(3, 2), 1.0)
        assert fd(make_reference(stats), stats) == pytest.approx(0.0, abs=1e-9)

    def test_matches_independent_oracle(self):
        for seed in range(10):
            ref, gen = make_pair(100 + seed, 5)
            want = frechet_oracle(ref.stats.mu, ref.stats.sigma, gen.mu, gen.sigma)
            assert fd(ref, gen) == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_dimension_mismatch(self):
        ref, _ = make_pair(7, 3)
        gen = GaussianStats(np.zeros(2), np.eye(2), 1.0)
        with pytest.raises(DataError, match="mismatch"):
            fd(ref, gen)

    def test_symmetry_for_psd_pairs(self):
        for seed in range(5):
            ref, gen = make_pair(200 + seed, 4)
            forward = fd(ref, gen)
            backward = fd(make_reference(gen), ref.stats)
            assert backward == pytest.approx(forward, rel=1e-6)

    @given(st.integers(0, 2**31), st.sampled_from([1, 2, 4]))
    @settings(max_examples=30, deadline=None)
    def test_scaling_and_translation(self, seed, d):
        ref, gen = make_pair(seed, d)
        base = fd(ref, gen)
        scale = 1.7
        scaled = fd(
            make_reference(
                GaussianStats(scale * ref.stats.mu, scale**2 * ref.stats.sigma, 1.0)
            ),
            GaussianStats(scale * gen.mu, scale**2 * gen.sigma, 1.0),
        )
        assert scaled == pytest.approx(scale**2 * base, rel=1e-8, abs=1e-12)
        shift = SplitMix64(seed + 9).normals(d)
        shifted = fd(
            make_reference(GaussianStats(ref.stats.mu + shift, ref.stats.sigma, 1.0)),
            GaussianStats(gen.mu + shift, gen.sigma, 1.0),
        )
        assert shifted == pytest.approx(base, abs=1e-9 * max(1.0, base))

    def test_nonnegative_reported(self):
        ref, gen = make_pair(303, 4)
        assert fd(ref, gen) >= 0.0


class TestFdGradStats:
    def test_equal_covariances_mean_only(self):
        sigma = random_psd(11, 2) + 0.1 * np.eye(2)
        ref = make_reference(GaussianStats(np.zeros(2), sigma, 1.0))
        gen = GaussianStats(np.array([1.0, 0.0]), sigma.copy(), 1.0)
        _, grad = fd_with_grad(ref, gen)
        assert np.allclose(grad.d_mu, [2.0, 0.0], atol=1e-10)
        assert np.allclose(grad.d_sigma, np.zeros((2, 2)), atol=1e-7)
        assert not grad.degenerate

    def test_identical_pair_zero_gradient(self):
        ref, _ = make_pair(13, 3)
        _, grad = fd_with_grad(ref, ref.stats)
        assert np.abs(grad.d_mu).max() < 1e-8
        assert np.abs(grad.d_sigma).max() < 1e-7

    def test_matches_finite_differences_8d(self):
        ref, gen = make_pair(500, 8)
        _, grad = fd_with_grad(ref, gen)
        fd_mu = central_difference(
            lambda mu: fd(ref, GaussianStats(mu, gen.sigma, 1.0)), gen.mu
        )
        fd_sigma = symmetric_matrix_difference(
            lambda s: fd(ref, GaussianStats(gen.mu, 0.5 * (s + s.T), 1.0)), gen.sigma
        )
        assert relative_error(grad.d_mu, fd_mu) < 1e-4
        assert relative_error(grad.d_sigma, fd_sigma) < 1e-4

    def test_degeneracy_flag(self):
        ref, _ = make_pair(17, 3)
        gen = GaussianStats(np.zeros(3), np.zeros((3, 3)), 1.0)
        _, grad = fd_with_grad(ref, gen)
        assert grad.degenerate
        assert np.isfinite(grad.d_sigma).all()

    def test_fd_with_grad_consistent(self):
        ref, gen = make_pair(19, 4)
        value, grad = fd_with_grad(ref, gen)
        assert value == pytest.approx(fd(ref, gen), rel=1e-12)


class TestStatsFromFeatures:
    def test_single_row(self):
        stats = stats_from_features(np.array([[1.0, 2.0]]))
        assert np.allclose(stats.mu, [1.0, 2.0])
        assert np.allclose(stats.sigma, np.zeros((2, 2)))
        assert stats.weight == 1.0

    def test_two_rows_population_divisor(self):
        stats = stats_from_features(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert np.allclose(stats.mu, [1.0, 0.0])
        assert np.allclose(stats.sigma, np.diag([1.0, 0.0]))

    def test_matches_numpy_oracle(self):
        rows = SplitMix64(77).normal_matrix(200, 4)
        stats = stats_from_features(rows)
        mu, cov = population_stats_oracle(rows)
        assert np.allclose(stats.mu, mu, atol=1e-12)
        assert np.allclose(stats.sigma, cov, atol=1e-12)

    def test_large_sample_statistics(self):
        rows = SplitMix64(88).normal_matrix(10_000, 4)
        stats = stats_from_features(rows)
        assert np.abs(stats.mu).max() < 0.05
        assert np.abs(stats.sigma - np.eye(4)).max() < 0.1

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            stats_from_features(np.empty((0, 3)))

    def test_nonfinite_names_row(self):
        rows = np.ones((4, 2))
        rows[2, 1] = np.inf
        with pytest.raises(NonFiniteDataError, match="row 2"):
            stats_from_features(rows)


# two full blocks and a ragged tail, so the merge runs twice
BLOCKED_ROWS = 2 * BLOCK_ROWS + 17


class TestBlockedMoments:
    def test_stats_from_features_matches_numpy_oracle(self):
        # an offset mean makes the merge's mean-shift term matter
        rows = 3.0 + SplitMix64(91).normal_matrix(BLOCKED_ROWS, 4)
        stats = stats_from_features(rows)
        mu, cov = population_stats_oracle(rows)
        assert stats.weight == BLOCKED_ROWS
        assert relative_error(stats.mu, mu) < 1e-12
        assert relative_error(stats.sigma, cov) < 1e-12

    def test_feature_stats_matches_numpy_oracle_in_tanh_space(self):
        spec = RepresentationSpec("tanh_rf", 1, 2, 64)
        samples = SplitMix64(92).normal_matrix(BLOCKED_ROWS, 2)
        stats = split_stats([spec], samples, "samples")[0]
        mu, cov = population_stats_oracle(featurize(spec, samples))
        assert stats.weight == BLOCKED_ROWS
        assert relative_error(stats.mu, mu) < 1e-12
        assert relative_error(stats.sigma, cov) < 1e-12

    def test_one_block_is_the_dense_two_pass_result(self):
        rows = SplitMix64(93).normal_matrix(BLOCK_ROWS, 3)
        mu = rows.mean(axis=0)
        centered = rows - mu
        sigma = centered.T @ centered / BLOCK_ROWS
        stats = stats_from_features(rows)
        assert stats.mu.tobytes() == mu.tobytes()
        assert stats.sigma.tobytes() == (0.5 * (sigma + sigma.T)).tobytes()

    def test_nonfinite_row_named_past_first_block(self):
        rows = np.ones((BLOCKED_ROWS, 2))
        rows[4100, 0] = np.nan
        with pytest.raises(NonFiniteDataError, match="row 4100"):
            stats_from_features(rows)

    def test_feature_stats_checks_sample_width(self):
        spec = RepresentationSpec("tanh_rf", 1, 2, 8)
        with pytest.raises(DataError, match="n x 2"):
            split_stats([spec], np.ones((5, 3)), "samples")

    def test_only_an_iterator_is_taken_as_blocks(self):
        # a list of rows is a matrix, checked like an array
        spec = RepresentationSpec("identity", 0, 2, 2)
        rows = [[1.0, 2.0], [3.0, 4.0]]
        stats = split_stats([spec], rows, "samples")[0]
        assert stats.mu.tobytes() == stats_from_features(np.array(rows)).mu.tobytes()
        with pytest.raises(DataError, match="samples must be a nonempty n x d"):
            split_stats([spec], [1.0, 2.0], "samples")
        with pytest.raises(DataError, match="n x 2"):
            split_stats([spec], [[1.0, 2.0, 3.0]], "samples")


class TestGaussianStats:
    def test_rejects_negative_weight(self):
        with pytest.raises(DataError):
            GaussianStats(np.zeros(2), np.eye(2), -1.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DataError):
            GaussianStats(np.zeros(3), np.eye(2), 1.0)

    def test_reference_root_squares_back(self):
        stats = GaussianStats(np.zeros(4), random_psd(202, 4), 4.0)
        ref = make_reference(stats)
        err = np.linalg.norm(ref.sigma_root @ ref.sigma_root - stats.sigma)
        assert err / max(1.0, np.linalg.norm(stats.sigma)) < 1e-7
