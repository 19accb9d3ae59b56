import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_psd, random_symmetric
from fdopt.errors import DataError, NonFiniteDataError, NumericalError
from fdopt.rng import SplitMix64
from fdopt.symlin import congruence_eig, eig_sym
from oracles import denman_beavers_sqrt, sqrt_psd, trace_sqrt_product_oracle


def congruence_root_trace(ref_root, gen_cov):
    """Tr((R C R)^{1/2}) from congruence_eig's eigenvalues, clamped at zero."""
    w, _ = congruence_eig(ref_root, gen_cov)
    return float(np.sqrt(np.maximum(w, 0.0)).sum())


class TestEigSym:
    def test_already_diagonal(self):
        w, v = eig_sym(np.diag([3.0, 1.0]))
        assert np.allclose(w, [1.0, 3.0])
        # columns are signed permutations of identity columns
        assert np.allclose(np.abs(v), [[0.0, 1.0], [1.0, 0.0]])

    def test_identity(self):
        w, v = eig_sym(np.eye(4))
        assert np.allclose(w, np.ones(4))
        assert np.allclose(v.T @ v, np.eye(4), atol=1e-10)

    def test_reconstruction_seeded_8x8(self):
        a = random_symmetric(101, 8)
        w, v = eig_sym(a)
        recon = (v * w) @ v.T
        assert np.linalg.norm(a - recon) / max(1.0, np.linalg.norm(a)) < 1e-8

    def test_eigenvalues_ascending(self):
        a = random_symmetric(5, 7)
        w, _ = eig_sym(a)
        assert (np.diff(w) >= 0).all()

    def test_dim_one(self):
        w, v = eig_sym(np.array([[-2.5]]))
        assert w[0] == -2.5 and v[0, 0] == 1.0

    @given(st.integers(0, 2**31), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_property(self, seed, d):
        a = random_symmetric(seed, d)
        w, v = eig_sym(a)
        recon = (v * w) @ v.T
        assert np.linalg.norm(a - recon) / max(1.0, np.linalg.norm(a)) < 1e-8
        assert np.linalg.norm(v.T @ v - np.eye(d)) < 1e-10

    def test_large_norm_matrix_converges(self):
        a = random_symmetric(3, 6) * 1e8
        w, v = eig_sym(a)
        recon = (v * w) @ v.T
        assert np.linalg.norm(a - recon) / np.linalg.norm(a) < 1e-8

    def test_lapack_failure_is_numerical_error_naming_matrix(self, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(NumericalError, match="congruence R C R"):
            congruence_root_trace(np.eye(3), np.eye(3))
        with pytest.raises(NumericalError, match="component 0"):
            eig_sym(np.eye(2), name="component 0")


class TestSqrtPsd:
    def test_diagonal(self):
        assert np.allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_identity(self):
        assert np.allclose(sqrt_psd(np.eye(3)), np.eye(3))

    def test_square_matches_input(self):
        a = random_psd(41, 8)
        r = sqrt_psd(a)
        assert np.linalg.norm(r @ r - a) / np.linalg.norm(a) < 1e-7

    def test_matches_denman_beavers(self):
        a = random_psd(43, 6) + 0.1 * np.eye(6)
        assert np.linalg.norm(sqrt_psd(a) - denman_beavers_sqrt(a)) < 1e-8

    def test_rejects_nonfinite(self):
        a = np.eye(3)
        a[1, 2] = a[2, 1] = np.nan
        with pytest.raises(NonFiniteDataError, match=r"\[1\]\[2\]|\[2\]\[1\]"):
            sqrt_psd(a)

    def test_rejects_asymmetric(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(DataError, match="not symmetric"):
            sqrt_psd(a)

    def test_clamp_warning_logged(self, caplog):
        a = np.diag([1.0, -0.5])
        with caplog.at_level("WARNING", logger="fdopt.symlin"):
            out = sqrt_psd(a)
        assert "clamping" in caplog.text
        assert np.allclose(out, np.diag([1.0, 0.0]))


class TestTraceSqrtProduct:
    def test_identity_root(self):
        got = congruence_root_trace(np.eye(2), np.diag([4.0, 9.0]))
        assert got == pytest.approx(5.0)

    def test_root_of_same_matrix(self):
        a = random_psd(47, 5)
        r = sqrt_psd(a)
        assert congruence_root_trace(r, a) == pytest.approx(np.trace(a), rel=1e-10)

    def test_matches_bruteforce_oracle(self):
        for seed in range(20):
            a = random_psd(1000 + seed, 6)
            b = random_psd(2000 + seed, 6)
            r = sqrt_psd(a)
            got = congruence_root_trace(r, b)
            want = trace_sqrt_product_oracle(r, b)
            assert got == pytest.approx(want, rel=1e-9)

    @given(st.integers(0, 2**31), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, seed, d):
        r = sqrt_psd(random_psd(seed, d))
        c = random_symmetric(seed + 1, d)
        assert congruence_root_trace(r, c) >= 0.0

    def test_rotation_invariance(self):
        # conjugating R^2 and C by the same rotation leaves the trace alone
        d = 5
        a = random_psd(53, d)
        c = random_psd(59, d)
        base = congruence_root_trace(sqrt_psd(a), c)
        q, _ = np.linalg.qr(SplitMix64(61).normal_matrix(d, d))
        rotated = congruence_root_trace(sqrt_psd(q @ a @ q.T), q @ c @ q.T)
        assert rotated == pytest.approx(base, rel=1e-8)
