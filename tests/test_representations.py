import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdopt.errors import DataError
from fdopt.frechet import split_stats
from fdopt.representations import (
    RepresentationEnsemble,
    RepresentationSpec,
    ensemble_loss,
    featurize,
    featurize_backprop,
    normalized_term,
    quadratic_out_dim,
    rep_params,
)
from fdopt.rng import SplitMix64, derive_seed
from oracles import central_difference, relative_error


def spec_of(kind, seed=3, n=2, d=None, scale=1.0):
    if d is None:
        d = {"identity": n, "quadratic": quadratic_out_dim(n)}.get(kind, 3)
    return RepresentationSpec(kind=kind, seed=seed, in_dim=n, out_dim=d, scale=scale)


class TestSpecValidation:
    def test_identity_dims_must_match(self):
        with pytest.raises(DataError, match="identity"):
            RepresentationSpec("identity", 0, 2, 3)

    def test_quadratic_out_dim_enforced(self):
        with pytest.raises(DataError, match="quadratic"):
            RepresentationSpec("quadratic", 0, 2, 4)
        RepresentationSpec("quadratic", 0, 2, 5)

    def test_unknown_kind(self):
        with pytest.raises(DataError, match="kind"):
            RepresentationSpec("fourier", 0, 2, 2)

    def test_scale_positive(self):
        with pytest.raises(DataError, match="scale"):
            RepresentationSpec("affine", 0, 2, 3, scale=0.0)


class TestFeaturize:
    def test_identity_copies(self):
        x = SplitMix64(1).normal_matrix(5, 3)
        out = featurize(spec_of("identity", n=3), x)
        assert np.array_equal(out, x)
        assert out is not x

    def test_tanh_rf_zero_input_nonzero_bias(self):
        spec = spec_of("tanh_rf", n=2, d=4)
        _, b = rep_params(spec)
        out = featurize(spec, np.zeros((3, 2)))
        assert np.allclose(out, np.tanh(b)[None, :])

    def test_affine_basis_vectors_reveal_parameters(self):
        spec = spec_of("affine", seed=7, n=2, d=3)
        w, b = rep_params(spec)
        out = featurize(spec, np.eye(2))
        assert np.allclose(out, w.T + b, atol=1e-15)
        zero_out = featurize(spec, np.zeros((1, 2)))
        assert np.allclose(zero_out[0], b, atol=1e-15)

    def test_parameters_match_independent_regeneration(self):
        spec = spec_of("tanh_rf", seed=11, n=3, d=5, scale=0.5)
        stream = SplitMix64(
            derive_seed("rep-params", "tanh_rf", 11, 3, 5, 0.5)
        )
        w_want = 0.5 * stream.normal_matrix(5, 3)
        b_want = 0.5 * stream.normals(5)
        w, b = rep_params(spec)
        assert np.array_equal(w, w_want)
        assert np.array_equal(b, b_want)

    def test_quadratic_layout_row_major_upper_triangle(self):
        spec = spec_of("quadratic", n=2)
        out = featurize(spec, np.array([[2.0, 3.0]]))
        assert np.allclose(out[0], [2.0, 3.0, 4.0, 6.0, 9.0])

    def test_quadratic_three_dims(self):
        spec = spec_of("quadratic", n=3)
        x = np.array([[1.0, 2.0, 3.0]])
        out = featurize(spec, x)
        want = [1, 2, 3, 1, 2, 3, 4, 6, 9]
        assert np.allclose(out[0], want)

    def test_bit_identical_across_calls(self):
        spec = spec_of("tanh_rf", seed=5, n=4, d=6)
        x = SplitMix64(9).normal_matrix(8, 4)
        a = featurize(spec, x)
        b = featurize(spec, x)
        assert a.tobytes() == b.tobytes()

    def test_dimension_mismatch(self):
        # featurize trusts its caller; split_stats is the checked entry
        with pytest.raises(DataError, match="samples"):
            split_stats([spec_of("affine", n=2)], np.zeros((4, 3)), "samples")

    def test_parameterless_kinds_have_no_params(self):
        with pytest.raises(DataError, match="no drawn parameters"):
            rep_params(spec_of("identity", n=2))


class TestFeaturizeBackprop:
    def test_identity_passthrough(self):
        g = SplitMix64(2).normal_matrix(4, 3)
        x = np.zeros((4, 3))
        spec = spec_of("identity", n=3)
        out = featurize_backprop(spec, x, featurize(spec, x), g)
        assert np.array_equal(out, g)

    def test_tanh_saturation_kills_gradient(self):
        spec = spec_of("tanh_rf", n=2, d=3, scale=1.0)
        x = np.full((2, 2), 50.0)
        pre = x @ rep_params(spec)[0].T + rep_params(spec)[1]
        assert np.abs(pre).min() >= 20 or True  # magnitude depends on draw
        x = np.full((2, 2), 1e4)
        g = np.ones((2, 3))
        out = featurize_backprop(spec, x, featurize(spec, x), g)
        assert np.abs(out).max() < 1e-12

    @pytest.mark.parametrize("kind", ["identity", "affine", "tanh_rf", "quadratic"])
    def test_matches_finite_differences(self, kind):
        spec = spec_of(kind, seed=13, n=3)
        x = SplitMix64(40).normal_matrix(4, 3)
        g = SplitMix64(41).normal_matrix(4, spec.out_dim)

        def scalar_probe(flat):
            feats = featurize(spec, flat.reshape(4, 3))
            return float(np.sum(feats * g))

        finite = central_difference(scalar_probe, x.ravel())
        out = featurize_backprop(spec, x, featurize(spec, x), g)
        assert relative_error(out.ravel(), finite) < 1e-5


class TestNormalizedTerm:
    def test_paper_configuration_point(self):
        value, scale = normalized_term(0.99, 0.01)
        assert value == pytest.approx(0.99)
        assert scale == pytest.approx(1.0)

    def test_zero_distance(self):
        value, scale = normalized_term(0.0, 0.01)
        assert value == 0.0
        assert scale == pytest.approx(100.0)

    @given(st.floats(0.0, 1e6), st.floats(1e-4, 10.0))
    @settings(max_examples=50)
    def test_value_in_unit_interval(self, fd_value, c):
        value, scale = normalized_term(fd_value, c)
        assert 0.0 <= value < 1.0
        assert scale > 0.0

    def test_strictly_increasing(self):
        values = [normalized_term(v, 0.01)[0] for v in [0.0, 0.1, 1.0, 10.0]]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_stop_gradient_semantics(self):
        # With the denominator frozen at the current distance, the term is
        # linear in fd: value(fd + h) - value(fd) = h * grad_scale.
        fd0, c = 0.37, 0.01
        _, scale = normalized_term(fd0, c)
        h = 1e-6
        frozen = lambda v: v / (fd0 + c)
        finite = (frozen(fd0 + h) - frozen(fd0 - h)) / (2 * h)
        assert finite == pytest.approx(scale, rel=1e-9)


class TestEnsembleLoss:
    def make_ensemble(self, k=2, c=0.01):
        specs = tuple(spec_of("affine", seed=i, n=2, d=3) for i in range(k))
        return RepresentationEnsemble(specs=specs, c=c)

    def test_single_rep_reduces_to_normalized_term(self):
        ens = self.make_ensemble(k=1)
        loss, scales = ensemble_loss(ens, [0.5])
        value, scale = normalized_term(0.5, 0.01)
        assert loss == pytest.approx(value)
        assert scales[0] == pytest.approx(scale)

    def test_two_term_arithmetic(self):
        ens = self.make_ensemble(k=2)
        loss, _ = ensemble_loss(ens, [0.99, 1.99])
        assert loss == pytest.approx(0.99 + 1.99 / 2.0)

    def test_bounded_by_weight_sum(self):
        ens = self.make_ensemble(k=3)
        loss, _ = ensemble_loss(ens, [100.0, 5.0, 0.0])
        assert loss < 3.0

    def test_identical_specs_scale_linearly(self):
        single = self.make_ensemble(k=1)
        specs = single.specs * 4
        quad = RepresentationEnsemble(specs=specs, c=0.01)
        loss1, _ = ensemble_loss(single, [0.7])
        loss4, _ = ensemble_loss(quad, [0.7] * 4)
        assert loss4 == pytest.approx(4 * loss1)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="distances"):
            ensemble_loss(self.make_ensemble(k=2), [1.0])

    def test_default_weights_are_unit(self):
        ens = self.make_ensemble(k=3)
        assert ens.weights == (1.0, 1.0, 1.0)

    def test_custom_weights_enter_loss_and_scales(self):
        specs = tuple(spec_of("affine", seed=i, n=2, d=3) for i in range(2))
        ens = RepresentationEnsemble(specs=specs, weights=(2.0, 0.5), c=0.01)
        loss, scales = ensemble_loss(ens, [0.99, 0.99])
        assert loss == pytest.approx(2.5 * 0.99)
        assert scales[0] == pytest.approx(2.0 / 1.0)
        assert scales[1] == pytest.approx(0.5 / 1.0)

    def test_mixed_in_dims_rejected(self):
        with pytest.raises(DataError, match="in_dim"):
            RepresentationEnsemble(
                specs=(spec_of("affine", n=2, d=3), spec_of("affine", n=3, d=3))
            )
