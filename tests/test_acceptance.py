"""Acceptance gate: one test per package-level guarantee.

Each test wraps its asserts in the `criterion` fixture, which prints one
`[acceptance] <name>: PASS|FAIL` line, so running this file yields a
checklist: closed-form distances, oracle-verified matrix roots and
gradients, estimator equivalences, the estimator-ablation direction,
convergence and repurposing training demos, the normalized-ratio
protocol, and byte-level determinism. The training-backed criteria
dominate the runtime; the whole file takes several minutes.
"""

import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fdopt.config import load_config
from fdopt.estimators import (
    EmaState,
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
from fdopt.metrics import CALIBRATION_SIZES, build_report
from fdopt.representations import (
    RepresentationEnsemble,
    RepresentationSpec,
    ensemble_loss,
    featurize,
    featurize_backprop,
)
from fdopt.rng import SplitMix64
from fdopt.symlin import congruence_eig
from fdopt.trainer import (
    GeneratorModel,
    _buffers,
    _forward,
    generate,
    generator_backprop,
    post_train,
    pretrain_regression,
    sample_target,
)
from oracles import (
    central_difference,
    denman_beavers_sqrt,
    ema_replay_oracle,
    population_stats_oracle,
    queue_contents,
    relative_error,
    sqrt_psd,
    stats_from_features,
    symmetric_matrix_difference,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def random_pd(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d + 3, d))
    return a.T @ a / (d + 3) + 0.1 * np.eye(d)


def identity_fd_series(log):
    """(warm_start, final) identity-space FD of a log: both rows come from
    the trainer's one large-sample evaluation, so every estimator arm of a
    seed starts from the same value."""
    assert log.records[0].phase == "warm_start"
    assert log.records[-1].phase == "final"
    return log.records[0].fds[0], log.records[-1].fds[0]


# ---------------------------------------------------------------------------
# closed-form distances


def test_closed_form_fd_suite(criterion):
    with criterion("closed-form FD suite (50 analytic cases)"):
        start = time.perf_counter()
        for i in range(50):
            rng = np.random.default_rng(1000 + i)
            d = 1 + i % 8
            family = i % 3
            if family == 0:  # equal covariance, mean shift only
                sigma = random_pd(rng, d)
                mu_r = rng.normal(size=d)
                mu_g = rng.normal(size=d)
                sigma_r = sigma_g = sigma
                expected = float(np.sum((mu_r - mu_g) ** 2))
            elif family == 1:  # commuting diagonal covariances
                mu_r = rng.normal(size=d)
                mu_g = rng.normal(size=d)
                a = rng.uniform(0.1, 3.0, size=d)
                b = rng.uniform(0.1, 3.0, size=d)
                sigma_r, sigma_g = np.diag(a), np.diag(b)
                expected = float(
                    np.sum((mu_r - mu_g) ** 2) + np.sum((np.sqrt(a) - np.sqrt(b)) ** 2)
                )
            else:  # identical pairs
                mu_r = mu_g = rng.normal(size=d)
                sigma_r = sigma_g = random_pd(rng, d)
                expected = 0.0
            ref = make_reference(GaussianStats(mu_r, sigma_r, 1.0))
            got = fd(ref, GaussianStats(mu_g, sigma_g, 1.0))
            tol = max(1e-8, 1e-8 * abs(expected))
            assert abs(got - expected) <= tol, (i, got, expected)
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# matrix-root oracle


def test_matrix_root_oracle(criterion):
    with criterion("matrix-root oracle (200 Denman-Beavers pairs)"):
        start = time.perf_counter()
        for i in range(200):
            rng = np.random.default_rng(2000 + i)
            d = 2 + i % 11  # dims 2..12
            sigma_r = random_pd(rng, d)
            sigma_g = random_pd(rng, d)
            w, _ = congruence_eig(sqrt_psd(sigma_r), sigma_g)
            got = float(np.sqrt(np.maximum(w, 0.0)).sum())
            want = float(np.trace(denman_beavers_sqrt(sigma_r @ sigma_g)))
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), (i, got, want)
        assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# gradient suites


def _fd_from_parts(ref, mu, sigma):
    return fd(ref, GaussianStats(mu, 0.5 * (sigma + sigma.T), 1.0))


def test_gradient_suite(criterion):
    with criterion("gradient suite (4 ops x 200 + end-to-end x 50, rel 1e-4)"):
        start = time.perf_counter()

        # the fd_with_grad gradient against finite differences over (mu, sigma)
        for i in range(200):
            rng = np.random.default_rng(3000 + i)
            d = 2 + i % 5
            ref = make_reference(GaussianStats(rng.normal(size=d), random_pd(rng, d), 1.0))
            mu = rng.normal(size=d)
            sigma = random_pd(rng, d)
            _, grad = fd_with_grad(ref, GaussianStats(mu, sigma, 1.0))
            num_mu = central_difference(lambda m: _fd_from_parts(ref, m, sigma), mu)
            assert relative_error(grad.d_mu, num_mu) < 1e-4, i
            num_sigma = symmetric_matrix_difference(
                lambda s: _fd_from_parts(ref, mu, s), sigma
            )
            assert relative_error(grad.d_sigma, num_sigma) < 1e-4, i

        # backprop_estimate, both kinds, against pipeline finite differences
        for kind in ("queue", "ema"):
            for i in range(200):
                rng = np.random.default_rng(4000 + i)
                d = 2 + i % 3
                B = 3 + i % 3
                ref = make_reference(
                    GaussianStats(rng.normal(size=d), random_pd(rng, d), 1.0)
                )
                history = rng.normal(size=(12, d))
                if kind == "queue":
                    state = QueueState(8, history)
                else:
                    state = EmaState(0.9, stats_from_features(history))

                def pipeline(batch2d):
                    return fd(ref, estimate(state, batch2d))

                batch = rng.normal(size=(B, d))
                stats = estimate(state, batch)
                _, grad = fd_with_grad(ref, stats)
                got = backprop_estimate(state, batch, stats.mu, grad.d_mu, grad.d_sigma)
                num = central_difference(
                    lambda flat: pipeline(flat.reshape(B, d)), batch.ravel()
                ).reshape(B, d)
                assert relative_error(got, num) < 1e-4, (kind, i)

        # featurize_backprop against finite differences through each map
        kinds = ("identity", "affine", "tanh_rf", "quadratic")
        for i in range(200):
            rng = np.random.default_rng(5000 + i)
            kind = kinds[i % 4]
            in_dim = 2 + i % 3
            out_dim = {
                "identity": in_dim,
                "affine": 4,
                "tanh_rf": 4,
                "quadratic": in_dim + in_dim * (in_dim + 1) // 2,
            }[kind]
            spec = RepresentationSpec(
                kind=kind, seed=i, in_dim=in_dim, out_dim=out_dim, scale=0.8
            )
            B = 3
            samples = rng.normal(size=(B, in_dim))
            weights = rng.normal(size=(B, out_dim))

            def scalar(flat):
                return float(np.sum(weights * featurize(spec, flat.reshape(B, in_dim))))

            got = featurize_backprop(spec, samples, featurize(spec, samples), weights)
            num = central_difference(scalar, samples.ravel()).reshape(B, in_dim)
            assert relative_error(got, num) < 1e-4, (kind, i)

        # generator_backprop against finite differences over parameters
        for i in range(200):
            rng = np.random.default_rng(6000 + i)
            model = GeneratorModel.init((3, 6, 2), seed=i)
            B = 4
            z = rng.normal(size=(B, 3))
            out_weights = rng.normal(size=(B, 2))

            def scalar_params(flat):
                probe = GeneratorModel(model.layer_dims, flat)
                return float(np.sum(out_weights * generate(probe, z)))

            got = generator_backprop(model, _forward(model, z, _buffers(model, B)), out_weights)
            num = central_difference(scalar_params, model.theta)
            assert relative_error(got, num) < 1e-4, i

        # assembled chain: z -> generator -> features -> estimator -> loss
        for i in range(50):
            _check_end_to_end_instance(7000 + i)

        assert time.perf_counter() - start < 60.0


def _check_end_to_end_instance(seed: int) -> None:
    """Full chain gradient vs finite differences, denominators frozen."""
    rng = np.random.default_rng(seed)
    ensemble = RepresentationEnsemble(
        specs=(
            RepresentationSpec(kind="identity", seed=0, in_dim=2, out_dim=2),
            RepresentationSpec(kind="tanh_rf", seed=seed, in_dim=2, out_dim=4, scale=0.8),
        )
    )
    model = GeneratorModel.init((3, 6, 2), seed=seed)
    B = 3
    z = rng.normal(size=(B, 3))
    refs, states = [], []
    for spec in ensemble.specs:
        feats = featurize(spec, rng.normal(size=(40, 2)))
        refs.append(make_reference(stats_from_features(feats)))
        warm = featurize(spec, rng.normal(size=(12, 2)))
        states.append(EmaState(0.9, stats_from_features(warm)))

    def per_rep_fds(m):
        samples = generate(m, z)
        values = []
        for spec, ref, state in zip(ensemble.specs, refs, states):
            values.append(fd(ref, estimate(state, featurize(spec, samples))))
        return np.array(values)

    base_fds = per_rep_fds(model)
    _, scales = ensemble_loss(ensemble, base_fds)
    sample_grads = np.zeros((B, 2))
    samples = generate(model, z)
    for spec, ref, state, scale in zip(ensemble.specs, refs, states, scales):
        feats = featurize(spec, samples)
        stats = estimate(state, feats)
        _, grad = fd_with_grad(ref, stats)
        feat_grads = backprop_estimate(state, feats, stats.mu, grad.d_mu, grad.d_sigma)
        sample_grads += scale * featurize_backprop(spec, samples, feats, feat_grads)
    got = generator_backprop(model, _forward(model, z, _buffers(model, B)), sample_grads)

    # probe the loss with the stop-gradient denominators held at base values
    denominators = base_fds + ensemble.c

    def frozen_loss(flat):
        fds = per_rep_fds(GeneratorModel(model.layer_dims, flat))
        return float(np.sum(np.asarray(ensemble.weights) * fds / denominators))

    num = central_difference(frozen_loss, model.theta)
    assert relative_error(got, num) < 1e-4, seed


# ---------------------------------------------------------------------------
# estimator oracles


def test_estimator_oracles(criterion):
    with criterion("estimator oracles (queue concat, EMA replay, beta-0 batch)"):
        # queue statistics equal brute-force concatenation over an (N, B, d) grid
        for N in (4, 16, 64):
            for B in (1, 5, 32):
                for d in (1, 3, 8):
                    rows = SplitMix64(N * 100 + B * 10 + d).normal_matrix(N, d)
                    state = QueueState(N, rows)
                    batch = SplitMix64(N + B + d).normal_matrix(B, d)
                    stats = estimate(state, batch)
                    mu, cov = population_stats_oracle(
                        np.concatenate([queue_contents(state), batch])
                    )
                    assert np.abs(stats.mu - mu).max() <= 1e-12
                    assert np.abs(stats.sigma - cov).max() <= 1e-12

        # EMA moments equal the closed-form geometric replay over 100 steps
        for seed in range(5):
            d = 3
            beta = (0.5, 0.9, 0.99, 0.999, 0.3)[seed]
            warm = stats_from_features(SplitMix64(seed).normal_matrix(16, d))
            state = EmaState(beta, warm)
            mu0, m0 = warm.mu, warm.sigma + np.outer(warm.mu, warm.mu)
            moments = []
            for k in range(100):
                batch = SplitMix64(1000 * seed + k).normal_matrix(4, d)
                moments.append((batch.mean(axis=0), batch.T @ batch / 4))
                state.commit(batch, estimate(state, batch))
            want_mu, want_m = ema_replay_oracle(mu0, m0, moments, beta)
            want_sigma = want_m - np.outer(want_mu, want_mu)
            assert np.abs(state.mu - want_mu).max() <= 1e-10
            assert np.abs(state.sigma - want_sigma).max() <= 1e-10

        # beta = 0 reduces exactly to batch-only statistics
        for seed in range(5):
            d = 2 + seed
            warm = stats_from_features(SplitMix64(seed).normal_matrix(10, d))
            state = EmaState(0.0, warm)
            batch = SplitMix64(50 + seed).normal_matrix(6, d)
            stats = estimate(state, batch)
            direct = stats_from_features(batch)
            assert np.array_equal(stats.mu, batch.mean(axis=0))
            assert np.array_equal(stats.sigma, direct.sigma)


# ---------------------------------------------------------------------------
# training-backed criteria


@pytest.fixture(scope="module")
def convergence_runs():
    """Five seeded runs of the bundled task; reused across criteria."""
    base = load_config(str(CONFIGS / "mixture.cfg")).train
    logs = []
    for seed in range(5):
        _, log = post_train(replace(base, seed=seed))
        logs.append(log)
    return logs


def test_decoupling_direction(criterion):
    with criterion("decoupling direction (EMA-0.999 and queue-8B beat batch-only)"):
        start = time.perf_counter()
        base = load_config(str(CONFIGS / "decoupling.cfg")).train
        arms = {
            "batch": dict(estimator="ema", ema_beta=0.0),
            "ema": dict(estimator="ema", ema_beta=0.999),
            "queue": dict(
                estimator="queue", queue_capacity=8 * base.batch_size
            ),
        }
        finals = {}
        for name, overrides in arms.items():
            values = []
            for seed in range(5):
                _, log = post_train(replace(base, seed=seed, **overrides))
                values.append(identity_fd_series(log)[1])
            finals[name] = statistics.median(values)
        assert finals["ema"] < finals["batch"], finals
        assert finals["queue"] < finals["batch"], finals
        assert time.perf_counter() - start < 300.0, finals


def test_post_training_convergence(criterion, convergence_runs):
    with criterion("post-training convergence (final FD <= 10% of step 0)"):
        start = time.perf_counter()
        ratios = []
        for log in convergence_runs:
            first, last = identity_fd_series(log)
            ratios.append(last / first)
        assert statistics.median(ratios) <= 0.10, ratios
        assert time.perf_counter() - start < 120.0


def test_loss_trend(convergence_runs):
    """Module property: trailing 100-step loss average below the leading one."""
    losses = [r.loss for r in convergence_runs[0].records if r.phase == "train"]
    assert np.mean(losses[-100:]) < np.mean(losses[:100])


def test_repurposing(criterion):
    with criterion("repurposing (pretrain to source, post-train drops FD >= 80%)"):
        start = time.perf_counter()
        loaded = load_config(str(CONFIGS / "mixture.cfg"))
        base = loaded.train
        ratios = []
        for seed in range(5):
            cfg = replace(base, seed=seed)
            model = GeneratorModel.init(cfg.layer_dims, seed)
            pretrained = pretrain_regression(
                model,
                loaded.source,
                loaded.pretrain_steps,
                batch_size=cfg.batch_size,
                seed=seed,
            )
            _, log = post_train(cfg, initial_model=pretrained)
            after_pretrain, after_post = identity_fd_series(log)
            ratios.append(after_post / after_pretrain)
        assert statistics.median(ratios) <= 0.20, ratios
        assert time.perf_counter() - start < 180.0


# ---------------------------------------------------------------------------
# normalized-ratio protocol


def test_fdr_protocol(criterion):
    with criterion("FDr protocol (held-out band, gen=val exact 1, rescale invariance)"):
        loaded = load_config(str(CONFIGS / "mixture.cfg"))
        ensemble = loaded.ensemble
        target = loaded.train.target
        # the reference split is deliberately the small one; see the note
        # on CALIBRATION_SIZES for why the band needs that regime
        train = sample_target(target, CALIBRATION_SIZES["train"], "fdr-train")
        val = sample_target(target, CALIBRATION_SIZES["val"], "fdr-val")
        stats = [stats_from_features(featurize(s, train)) for s in ensemble.specs]

        gen = sample_target(target, CALIBRATION_SIZES["gen"], "fdr-gen")
        for tag in ("fdr-gen", "fdr-gen-1", "fdr-gen-2"):
            held_out = sample_target(target, CALIBRATION_SIZES["gen"], tag)
            report = build_report(ensemble, stats, val, held_out)
            for row in report.rows:
                assert 0.8 <= row.ratio <= 1.25, (tag, report.rows)

        same = build_report(ensemble, stats, val, val)
        assert all(r.ratio == 1.0 for r in same.rows)
        assert same.fdr_k == 1.0

        # common feature rescaling: identity features scale with the samples
        identity_only = RepresentationEnsemble(
            specs=(RepresentationSpec(kind="identity", seed=0, in_dim=2, out_dim=2),)
        )
        base_ratio = build_report(
            identity_only, [stats_from_features(train)], val, gen
        ).rows[0].ratio
        for s in (0.02, 7.0, 250.0):
            scaled = build_report(
                identity_only, [stats_from_features(train * s)], val * s, gen * s
            ).rows[0].ratio
            assert abs(scaled - base_ratio) <= 1e-8 * max(1.0, abs(base_ratio))


# ---------------------------------------------------------------------------
# formats and CLI determinism


def test_format_and_cli_determinism(criterion, tmp_path, pipeline, pipeline_rerun):
    from fdopt.formats import (
        read_checkpoint,
        read_features,
        read_stats,
        write_checkpoint,
        write_features,
        write_stats,
    )

    with criterion("format round-trips bit-exact + CLI pipeline byte-identical"):
        # binary round-trips at declared precision
        rng = np.random.default_rng(42)
        feats = rng.normal(size=(33, 5)).astype(np.float32).astype(np.float64)
        write_features(str(tmp_path / "f.bin"), feats)
        assert np.array_equal(read_features(str(tmp_path / "f.bin")), feats)

        stats = stats_from_features(rng.normal(size=(64, 4)))
        write_stats(str(tmp_path / "s.bin"), stats)
        got = read_stats(str(tmp_path / "s.bin"))
        assert np.array_equal(got.mu, stats.mu)
        assert np.array_equal(got.sigma, stats.sigma)

        model = GeneratorModel.init((4, 8, 2), seed=7)
        write_checkpoint(str(tmp_path / "c.bin"), model.weights, model.biases)
        dims, theta = read_checkpoint(str(tmp_path / "c.bin"))
        assert dims == model.layer_dims
        assert theta.tobytes() == model.theta.tobytes()

        # scripts/output_digests.py's pipeline, built twice: every artifact
        # and captured stdout is byte-identical
        (_, first), (second, _) = pipeline, pipeline_rerun
        assert sorted(first) == sorted(second)
        for key in first:
            assert first[key] == second[key], key
