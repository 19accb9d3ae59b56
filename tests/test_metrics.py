"""FDr ratios and the multi-representation report."""

import numpy as np
import pytest

from fdopt.errors import DataError, NonFiniteDataError
from fdopt.frechet import fd, make_reference
from fdopt.metrics import build_report, fd_ratio, fdr_k, rep_labels
from fdopt.representations import RepresentationEnsemble, RepresentationSpec, featurize
from oracles import stats_from_features


def four_kind_ensemble(in_dim=2):
    return RepresentationEnsemble(
        specs=(
            RepresentationSpec(kind="identity", seed=0, in_dim=in_dim, out_dim=in_dim),
            RepresentationSpec(kind="affine", seed=1, in_dim=in_dim, out_dim=4),
            RepresentationSpec(kind="tanh_rf", seed=2, in_dim=in_dim, out_dim=6),
            RepresentationSpec(kind="quadratic", seed=3, in_dim=in_dim, out_dim=5),
        )
    )


def split_populations(seed=0, n_train=4096, n_val=1024, n_gen=1024, d=2):
    """Three same-distribution splits, in raw sample space."""
    rng = np.random.default_rng(seed)
    shift = rng.normal(size=d)
    scale = 1.0 + 0.5 * rng.random(size=d)
    draw = lambda n: rng.normal(size=(n, d)) * scale + shift
    return draw(n_train), draw(n_val), draw(n_gen)


def train_stats_for(ensemble, train):
    return [
        stats_from_features(featurize(spec, train)) for spec in ensemble.specs
    ]


class TestScalars:
    def test_fd_ratio_direct(self):
        assert fd_ratio(2.0, 1.0) == 2.0
        assert fd_ratio(0.3, 0.6) == 0.5

    def test_fd_ratio_rejects_nonpositive_validation(self):
        with pytest.raises(DataError, match="not positive"):
            fd_ratio(1.0, 0.0)
        with pytest.raises(DataError, match="not positive"):
            fd_ratio(1.0, -0.5)

    def test_fdr_k_is_arithmetic_mean(self):
        assert fdr_k([1.0, 2.0, 3.0]) == 2.0
        assert fdr_k([0.75]) == 0.75

    def test_fdr_k_order_invariant(self):
        values = [0.3, 1.7, 0.9, 2.2]
        assert fdr_k(values) == fdr_k(values[::-1])

    def test_fdr_k_rejects_empty(self):
        with pytest.raises(DataError):
            fdr_k([])


class TestBuildReport:
    def test_matches_first_principles_recomputation(self):
        ensemble = four_kind_ensemble()
        train, val, gen = split_populations(seed=1)
        stats = train_stats_for(ensemble, train)
        report = build_report(ensemble, stats, val, gen)
        assert len(report.rows) == 4
        for row, spec, train_s in zip(report.rows, ensemble.specs, stats):
            ref = make_reference(train_s)
            fd_val = fd(ref, stats_from_features(featurize(spec, val)))
            fd_gen = fd(ref, stats_from_features(featurize(spec, gen)))
            assert row.fd_val == pytest.approx(fd_val, rel=1e-12)
            assert row.fd_gen == pytest.approx(fd_gen, rel=1e-12)
            assert row.ratio == pytest.approx(fd_gen / fd_val, rel=1e-12)
        assert report.fdr_k == pytest.approx(
            np.mean([r.ratio for r in report.rows]), rel=1e-12
        )

    def test_gen_equal_val_scores_exactly_one(self):
        ensemble = four_kind_ensemble()
        train, val, _ = split_populations(seed=2)
        report = build_report(ensemble, train_stats_for(ensemble, train), val, val)
        for row in report.rows:
            assert row.ratio == 1.0
        assert report.fdr_k == 1.0

    def test_invariant_under_common_feature_rescaling(self):
        """Scaling every population's features by s leaves each ratio fixed."""
        spec = RepresentationSpec(kind="identity", seed=0, in_dim=3, out_dim=3)
        ensemble = RepresentationEnsemble(specs=(spec,))
        train, val, gen = split_populations(seed=3, d=3)
        base = build_report(
            ensemble, [stats_from_features(train)], val, gen
        ).rows[0].ratio
        for s in (0.037, 2.0, 118.0):
            scaled = build_report(
                ensemble, [stats_from_features(train * s)], val * s, gen * s
            ).rows[0].ratio
            assert scaled == pytest.approx(base, rel=1e-8)

    def test_rejects_stats_count_mismatch(self):
        ensemble = four_kind_ensemble()
        train, val, gen = split_populations(seed=5, n_train=512)
        with pytest.raises(DataError, match="4 representations"):
            build_report(ensemble, train_stats_for(ensemble, train)[:2], val, gen)

    def test_rejects_dim_mismatch_naming_rep(self):
        ensemble = four_kind_ensemble()
        train, val, gen = split_populations(seed=6, n_train=512)
        stats = train_stats_for(ensemble, train)
        stats[1], stats[2] = stats[2], stats[1]
        with pytest.raises(DataError, match="rep1_affine"):
            build_report(ensemble, stats, val, gen)

    def test_rejects_degenerate_validation(self):
        spec = RepresentationSpec(kind="identity", seed=0, in_dim=2, out_dim=2)
        ensemble = RepresentationEnsemble(specs=(spec,))
        train, _, gen = split_populations(seed=7, n_train=256)
        # Validation stats identical to the reference: ratio undefined.
        with pytest.raises(DataError, match="rep0_identity"):
            build_report(ensemble, [stats_from_features(train)], train, gen)

    def test_rejects_degenerate_validation_in_curved_space(self):
        # FD of a tanh_rf split against itself is rounding noise, not 0
        spec = RepresentationSpec(kind="tanh_rf", seed=2, in_dim=2, out_dim=6)
        ensemble = RepresentationEnsemble(specs=(spec,))
        train, _, gen = split_populations(seed=7, n_train=512)
        stats = [stats_from_features(featurize(spec, train))]
        with pytest.raises(DataError, match="rep0_tanh_rf"):
            build_report(ensemble, stats, train, gen)

    def test_nonfinite_sample_row_named(self):
        ensemble = four_kind_ensemble()
        train, val, gen = split_populations(seed=8, n_train=512, n_val=8209)
        val[4100, 1] = np.nan
        with pytest.raises(NonFiniteDataError, match="val samples row 4100"):
            build_report(ensemble, train_stats_for(ensemble, train), val, gen)

    def test_labels(self):
        assert rep_labels(four_kind_ensemble()) == (
            "rep0_identity",
            "rep1_affine",
            "rep2_tanh_rf",
            "rep3_quadratic",
        )
