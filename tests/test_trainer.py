from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fdopt.config import load_config
from fdopt.errors import ConfigError, DataError, NonFiniteLossError
from fdopt.estimators import EmaState, QueueState, backprop_estimate, estimate
from fdopt.frechet import BLOCK_ROWS, fd, fd_with_grad, make_reference
from fdopt.representations import (
    RepresentationEnsemble,
    RepresentationSpec,
    ensemble_loss,
    featurize,
    featurize_backprop,
)
from fdopt.rng import SplitMix64, derive_seed
from fdopt.trainer import (
    GeneratorModel,
    FileTarget,
    MixtureTarget,
    OptState,
    TrainConfig,
    _buffers,
    _evaluate,
    _forward,
    _references,
    generate,
    generator_backprop,
    lr_at,
    optimizer_step,
    post_train,
    pretrain_regression,
    sample_target,
)
from oracles import (
    adam_scalar_replay,
    central_difference,
    mlp_forward_oracle,
    pinv_fd_gradient,
    relative_error,
    stats_from_features,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def two_mode_target(sample_seed=5):
    return MixtureTarget(
        means=[[-2.0, 0.0], [2.5, 1.0]],
        covs=[np.diag([0.3, 0.2]), [[0.4, 0.1], [0.1, 0.3]]],
        weights=[0.4, 0.6],
        sample_seed=sample_seed,
    )


def identity_ensemble(dim=2):
    return RepresentationEnsemble(
        specs=(RepresentationSpec("identity", 0, dim, dim),)
    )


class TestGeneratorModel:
    def test_zero_parameters_zero_output(self):
        model = GeneratorModel((2, 3, 2), np.zeros(17))
        out = generate(model, SplitMix64(1).normal_matrix(4, 2))
        assert np.array_equal(out, np.zeros((4, 2)))

    def test_single_linear_identity_layer(self):
        model = GeneratorModel((3, 3), np.r_[np.eye(3).ravel(), np.zeros(3)])
        z = SplitMix64(2).normal_matrix(5, 3)
        assert np.array_equal(generate(model, z), z)

    def test_matches_forward_oracle(self):
        model = GeneratorModel.init([3, 5, 4, 2], seed=11)
        z = SplitMix64(3).normal_matrix(6, 3)
        want = mlp_forward_oracle(model.weights, model.biases, z)
        assert relative_error(generate(model, z), want) < 1e-12

    def test_blocked_generate_equals_one_forward(self):
        model = GeneratorModel.init([8, 64, 64, 2], seed=3)
        z = SplitMix64(4).normal_matrix(32 * BLOCK_ROWS, 8)
        whole = _forward(model, z, _buffers(model, len(z)))[-1]
        assert generate(model, z).tobytes() == whole.tobytes()
        # a 1-row tail block may take BLAS's matrix-vector path
        ragged = z[: BLOCK_ROWS + 1]
        one = _forward(model, ragged, _buffers(model, len(ragged)))[-1]
        assert relative_error(generate(model, ragged), one) < 1e-12

    def test_init_deterministic(self):
        a = GeneratorModel.init([4, 8, 2], seed=7)
        b = GeneratorModel.init([4, 8, 2], seed=7)
        assert a.theta.tobytes() == b.theta.tobytes()

    def test_init_scales_with_fan_in(self):
        model = GeneratorModel.init([100, 50, 2], seed=1)
        assert np.std(model.weights[0]) == pytest.approx(0.1, rel=0.15)
        assert np.all(model.biases[0] == 0.0)

    def test_z_dim_mismatch(self):
        model = GeneratorModel.init([3, 4, 2], seed=0)
        with pytest.raises(DataError, match="B x 3"):
            generate(model, np.zeros((2, 2)))

    def test_layers_view_one_vector(self):
        theta = np.arange(11.0)
        model = GeneratorModel((3, 2, 1), theta)
        assert model.theta is theta
        assert model.weights[0].tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        assert model.biases[0].tolist() == [6.0, 7.0]
        assert model.weights[1].tolist() == [[8.0, 9.0]]
        assert model.biases[1].tolist() == [10.0]
        for view in (*model.weights, *model.biases):
            assert np.shares_memory(view, model.theta)

    def test_layer_dims(self):
        model = GeneratorModel.init([8, 64, 64, 2], seed=0)
        assert model.layer_dims == (8, 64, 64, 2)
        assert model.z_dim == 8
        assert model.out_dim == 2


class TestGeneratorBackprop:
    def test_zero_grads(self):
        model = GeneratorModel.init([3, 4, 2], seed=5)
        z = SplitMix64(6).normal_matrix(4, 3)
        grads = generator_backprop(model, _forward(model, z, _buffers(model, len(z))), np.zeros((4, 2)))
        assert grads.shape == model.theta.shape
        assert np.allclose(grads, 0.0)

    def test_linear_layer_outer_product(self):
        model = GeneratorModel((3, 2), np.zeros(8))
        z = np.array([[1.0, 2.0, 3.0]])
        g = np.array([[4.0, 5.0]])
        grads = generator_backprop(model, _forward(model, z, _buffers(model, len(z))), g)
        assert np.allclose(grads[:6].reshape(2, 3), np.outer(g[0], z[0]))
        assert np.allclose(grads[6:], g[0])

    def test_matches_finite_differences(self):
        model = GeneratorModel.init([3, 5, 4, 2], seed=21)
        z = SplitMix64(22).normal_matrix(6, 3)
        probe = SplitMix64(23).normal_matrix(6, 2)
        analytic = generator_backprop(model, _forward(model, z, _buffers(model, len(z))), probe)

        def loss_of(flat):
            out = generate(GeneratorModel(model.layer_dims, flat), z)
            return float(np.sum(out * probe))

        finite = central_difference(loss_of, model.theta, step=1e-5)
        assert relative_error(analytic, finite) < 1e-4


class TestOptimizerStep:
    def test_zero_grads_leave_params(self):
        theta = np.array([1.0, -2.0, 3.0])
        opt, new = optimizer_step(OptState.empty(3), theta, np.zeros(3), 0.1, 0.9, 0.95, 0.0)
        assert np.array_equal(new, theta)
        assert opt.step == 1

    def test_first_step_closed_form(self):
        _, new = optimizer_step(
            OptState.empty(1), np.array([0.0]), np.array([1.0]), 0.5, 0.9, 0.95, 0.0
        )
        assert new[0] == pytest.approx(-0.5 / (1.0 + 1e-8), rel=1e-12)

    def test_ten_step_scalar_replay(self):
        grads = SplitMix64(31).normals(10)
        lr, b1, b2, wd = 0.07, 0.9, 0.95, 0.01
        want = adam_scalar_replay(grads, lr, b1, b2, 1e-8, wd, x0=0.3)
        theta = np.array([0.3])
        opt = OptState.empty(1)
        for g in grads:
            opt, theta = optimizer_step(opt, theta, np.array([g]), lr, b1, b2, wd)
        assert theta[0] == pytest.approx(want, rel=1e-12)

    def test_decay_shrinks_parameters(self):
        _, new = optimizer_step(
            OptState.empty(1), np.array([10.0]), np.array([0.0]), 0.1, 0.9, 0.95, 0.5
        )
        assert new[0] == pytest.approx(10.0 - 0.1 * 0.5 * 10.0)


class TestLrSchedule:
    def config(self, total=1000, warmup=100, peak=1e-3):
        return TrainConfig(
            ensemble=identity_ensemble(),
            target=two_mode_target(),
            total_steps=total,
            warmup_steps=warmup,
            peak_lr=peak,
        )

    def test_ramp_endpoints(self):
        cfg = self.config()
        assert lr_at(0, cfg) == 0.0
        assert lr_at(100, cfg) == pytest.approx(1e-3)
        assert lr_at(50, cfg) == pytest.approx(5e-4)

    def test_final_step_zero(self):
        assert lr_at(1000, self.config()) == pytest.approx(0.0, abs=1e-12)

    def test_decay_midpoint_half_peak(self):
        assert lr_at(550, self.config()) == pytest.approx(5e-4)

    def test_out_of_range(self):
        with pytest.raises(DataError, match="outside"):
            lr_at(1001, self.config())
        with pytest.raises(DataError, match="outside"):
            lr_at(-1, self.config())


class TestTargetSpec:
    """MixtureTarget's checks and draws, and FileTarget's resampling."""

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DataError, match="sum"):
            MixtureTarget(
                means=[[0.0], [1.0]],
                covs=[np.eye(1), np.eye(1)],
                weights=[0.5, 0.6],
            )

    def test_non_psd_covariance_rejected(self):
        with pytest.raises(DataError, match="PSD"):
            MixtureTarget(
                means=[[0.0, 0.0]],
                covs=[np.array([[1.0, 2.0], [2.0, 1.0]])],
                weights=[1.0],
            )

    def test_caller_arrays_are_left_intact(self):
        # the covariance is stored symmetrized, in a copy of its own
        means, weights = np.zeros((1, 2)), np.ones(1)
        covs = np.array([[[1.0, 0.5 + 1e-13], [0.5, 1.0]]])
        before = covs.copy()
        target = MixtureTarget(means, covs, weights)
        assert covs.tobytes() == before.tobytes()
        assert target.covs[0, 0, 1] == target.covs[0, 1, 0]
        stored = (target.means, target.covs, target.weights)
        for mine, theirs in zip(stored, (means, covs, weights)):
            assert not np.shares_memory(mine, theirs)

    def test_sampling_is_deterministic(self):
        target = two_mode_target()
        a = sample_target(target, 100, "reference")
        b = sample_target(target, 100, "reference")
        assert a.tobytes() == b.tobytes()
        c = sample_target(target, 100, "pretrain")
        assert a.tobytes() != c.tobytes()

    def test_sampling_statistics(self):
        target = two_mode_target()
        rows = sample_target(target, 40_000, "reference")
        want_mean = 0.4 * np.array([-2.0, 0.0]) + 0.6 * np.array([2.5, 1.0])
        assert np.abs(rows.mean(axis=0) - want_mean).max() < 0.05
        share = (rows[:, 0] > 0.3).mean()
        assert share == pytest.approx(0.6, abs=0.02)

    def test_file_target_round_trip(self, tmp_path):
        from fdopt.formats import write_features

        rows = SplitMix64(44).normal_matrix(50, 2)
        path = str(tmp_path / "rows.fdf")
        write_features(path, rows)
        target = FileTarget(path)
        drawn = sample_target(target, 200, "pretrain")
        assert drawn.shape == (200, 2)
        f32 = rows.astype(np.float32).astype(np.float64)
        for row in drawn[:10]:
            assert np.isin(row[0], f32[:, 0])


def frozen_chain(config, model, refs, states, z):
    """Raw per-representation distances plus the assembled chain gradient.

    The loss divides each distance by a detached copy of itself; checking
    the implemented gradient therefore requires probing the function with
    those denominators held at their base values, which is why the raw
    distances are returned separately.
    """
    from fdopt.estimators import backprop_estimate, estimate
    from fdopt.frechet import fd_with_grad
    from fdopt.representations import featurize_backprop

    x = generate(model, z)
    fds, grads, feats, mus = [], [], [], []
    for spec, ref, state in zip(config.ensemble.specs, refs, states):
        f = featurize(spec, x)
        stats = estimate(state, f)
        value, grad = fd_with_grad(ref, stats)
        fds.append(value)
        grads.append(grad)
        feats.append(f)
        mus.append(stats.mu)
    _, scales = ensemble_loss(config.ensemble, fds)
    sample_grads = np.zeros_like(x)
    for i, spec in enumerate(config.ensemble.specs):
        fg = backprop_estimate(
            states[i],
            feats[i],
            mus[i],
            scales[i] * grads[i].d_mu,
            scales[i] * grads[i].d_sigma,
        )
        sample_grads += featurize_backprop(spec, x, feats[i], fg)
    return np.array(fds), generator_backprop(model, _forward(model, z, _buffers(model, len(z))), sample_grads)


def reference_post_train(config):
    """post_train assembled only from the public layer functions: every
    sample, feature and statistic is recomputed where the chain needs it."""
    from fdopt.estimators import backprop_estimate, estimate
    from fdopt.formats import read_features
    from fdopt.frechet import fd_with_grad
    from fdopt.representations import featurize_backprop
    from fdopt.rng import derive_seed

    specs, queue = config.ensemble.specs, config.estimator == "queue"
    count = config.warm_start_count
    # a file target is its population; a mixture draws the reference rows
    if isinstance(config.target, FileTarget):
        rows = read_features(config.target.path)
    else:
        rows = sample_target(config.target, count, "reference")
    refs = [make_reference(stats_from_features(featurize(s, rows))) for s in specs]
    model = GeneratorModel.init(config.layer_dims, config.seed)

    def record(phase, step, lr, fds):
        loss, _ = ensemble_loss(config.ensemble, fds)
        return (phase, step, lr, loss) + tuple(fds)

    def evaluate(noise_name):
        stream = SplitMix64(derive_seed(noise_name, config.seed))
        return generate(model, stream.normal_matrix(count, config.z_dim))

    # one warm evaluation whatever the estimator: its stats start each EMA,
    # its last capacity rows each queue
    xw = evaluate("warm-start-noise")
    states, warm_fds = [], []
    for spec, ref in zip(specs, refs):
        feats = featurize(spec, xw)
        stats = stats_from_features(feats)
        if queue:
            states.append(QueueState(config.queue_capacity, feats))
        else:
            states.append(EmaState(config.ema_beta, stats))
        warm_fds.append(fd(ref, stats))
    out = [record("warm_start", 0, 0.0, warm_fds)]

    opt = OptState.empty(model.theta.size)
    noise = SplitMix64(derive_seed("train-noise", config.seed))
    for step in range(config.total_steps):
        lr = lr_at(step, config)
        z = noise.normal_matrix(config.batch_size, config.z_dim)
        x = generate(model, z)
        fds, grads, estimates = [], [], []
        for spec, ref, state in zip(specs, refs, states):
            stats = estimate(state, featurize(spec, x))
            value, grad = fd_with_grad(ref, stats)
            fds.append(value)
            grads.append(grad)
            estimates.append(stats)
        _, scales = ensemble_loss(config.ensemble, fds)
        sample_grads = np.zeros_like(x)
        for spec, state, stats, grad, scale in zip(
            specs, states, estimates, grads, scales
        ):
            feat_grads = backprop_estimate(
                state, featurize(spec, x), stats.mu, scale * grad.d_mu,
                scale * grad.d_sigma,
            )
            sample_grads += featurize_backprop(spec, x, featurize(spec, x), feat_grads)
        opt, theta = optimizer_step(
            opt, model.theta, generator_backprop(model, _forward(model, z, _buffers(model, len(z))), sample_grads),
            lr, config.beta1, config.beta2, config.weight_decay,
        )
        model = GeneratorModel(model.layer_dims, theta)
        for spec, state, stats in zip(specs, states, estimates):
            state.commit(featurize(spec, x), stats)
        out.append(record("train", step, lr, fds))

    x = evaluate("final-eval-noise")
    final_fds = [fd(ref, stats_from_features(featurize(s, x))) for s, ref in zip(specs, refs)]
    out.append(record("final", config.total_steps, lr_at(config.total_steps, config), final_fds))
    return model, out


class TestPostTrain:
    def small_config(self, **kw):
        ens = RepresentationEnsemble(
            specs=(
                RepresentationSpec("identity", 0, 2, 2),
                RepresentationSpec("tanh_rf", 1, 2, 3),
            )
        )
        defaults = dict(
            ensemble=ens,
            target=two_mode_target(),
            seed=0,
            batch_size=16,
            total_steps=5,
            warmup_steps=2,
            warm_start_count=64,
            z_dim=3,
            hidden=(5,),
            out_dim=2,
            estimator="ema",
            ema_beta=0.9,
        )
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_zero_steps_keeps_model_and_logs_warm_start_only(self):
        cfg = self.small_config(total_steps=0, warmup_steps=0)
        initial = GeneratorModel.init(cfg.layer_dims, cfg.seed)
        model, log = post_train(cfg, initial_model=initial)
        assert model.theta.tobytes() == initial.theta.tobytes()
        assert len(log.records) == 1
        assert log.records[0].phase == "warm_start"

    def test_model_layers_must_match_config(self):
        # same noise and output widths, another hidden stack
        cfg = self.small_config()
        for dims in ((3, 7, 2), (3, 5, 5, 2)):
            with pytest.raises(ConfigError, match="do not match"):
                post_train(cfg, initial_model=GeneratorModel.init(dims, seed=0))

    def test_every_estimator_logs_one_warm_row_per_model(self):
        # a queue of 8B keeps far fewer rows than the warm evaluation draws,
        # yet its step-0 row is the same large-sample evaluation
        arms = [
            dict(estimator="ema", ema_beta=0.0),
            dict(estimator="ema", ema_beta=0.9),
            dict(estimator="queue", queue_capacity=32),
        ]
        rows = []
        for arm in arms:
            cfg = self.small_config(batch_size=4, warm_start_count=BLOCK_ROWS, **arm)
            assert cfg.queue_capacity < cfg.warm_start_count
            _, log = post_train(cfg)
            rows.append(log.rows()[0])
        assert rows[0][0] == "warm_start"
        assert rows[1] == rows[0] and rows[2] == rows[0]

    def test_every_estimator_draws_one_population(self):
        # the reference draw and both evaluations are N = warm_start_count
        # rows (BLOCK_ROWS unless set) whatever the estimator, and a queue of
        # N rows is the longest allowed
        n = TrainConfig.warm_start_count
        assert n == BLOCK_ROWS
        ema = self.small_config(warm_start_count=n)
        queue = self.small_config(warm_start_count=n, estimator="queue", queue_capacity=n)
        model = GeneratorModel.init(ema.layer_dims, ema.seed)
        drawn = []
        for cfg in (ema, queue):
            refs = _references(cfg)
            x, _, fds = _evaluate(cfg, model, refs, "warm-start-noise")
            assert x.shape[0] == n
            stats = [(r.stats.mu.tobytes(), r.stats.sigma.tobytes()) for r in refs]
            drawn.append((stats, x.tobytes(), fds))
        assert drawn[0] == drawn[1]

    def test_training_leaves_caller_model_intact(self):
        cfg = self.small_config()
        initial = GeneratorModel.init(cfg.layer_dims, seed=4)
        before = initial.theta.copy()
        model, _ = post_train(cfg, initial_model=initial)
        assert initial.theta.tobytes() == before.tobytes()
        assert model.theta.tobytes() != before.tobytes()

    def test_matched_generator_stays_in_noise_band(self):
        # fixed-point sanity: a generator that already matches the target
        # should not be pushed away; the learning rate is kept small so
        # parameter drift stays below the evaluation noise floor
        target = MixtureTarget(
            means=[[0.0, 0.0]], covs=[np.eye(2)], weights=[1.0], sample_seed=9
        )
        cfg = TrainConfig(
            ensemble=identity_ensemble(),
            target=target,
            seed=3,
            batch_size=64,
            total_steps=100,
            warmup_steps=10,
            peak_lr=1e-4,
            warm_start_count=4096,
            z_dim=2,
            hidden=(),
            out_dim=2,
            estimator="ema",
            ema_beta=0.99,
        )
        matched = GeneratorModel((2, 2), np.r_[np.eye(2).ravel(), np.zeros(2)])
        _, log = post_train(cfg, initial_model=matched)
        warm, final = log.records[0], log.records[-1]
        assert final.fds[0] <= 2.0 * warm.fds[0]

    @pytest.mark.parametrize("estimator", ["queue", "ema"])
    def test_end_to_end_gradient_matches_finite_differences(self, estimator):
        cfg = self.small_config(
            estimator=estimator, queue_capacity=24, batch_size=6
        )
        model = GeneratorModel.init(cfg.layer_dims, seed=17)
        rows = sample_target(cfg.target, 64, "reference")
        refs = [
            make_reference(stats_from_features(featurize(s, rows)))
            for s in cfg.ensemble.specs
        ]
        stream = SplitMix64(91)
        base = generate(model, stream.normal_matrix(64, cfg.z_dim))
        states = []
        for spec in cfg.ensemble.specs:
            feats = featurize(spec, base)
            if estimator == "queue":
                states.append(QueueState(24, feats))
            else:
                states.append(EmaState(0.9, stats_from_features(feats)))
        z = stream.normal_matrix(cfg.batch_size, cfg.z_dim)

        base_fds, analytic = frozen_chain(cfg, model, refs, states, z)
        denoms = base_fds + cfg.ensemble.c

        def loss_of(flat):
            probe = GeneratorModel(model.layer_dims, flat)
            fds, _ = frozen_chain(cfg, probe, refs, states, z)
            return float(np.sum(np.array(cfg.ensemble.weights) * fds / denoms))

        finite = central_difference(loss_of, model.theta, step=1e-5)
        assert relative_error(analytic, finite) < 1e-4

    def test_determinism_bitwise(self):
        cfg = self.small_config(total_steps=8)
        model_a, log_a = post_train(cfg)
        model_b, log_b = post_train(cfg)
        assert log_a.rows() == log_b.rows()
        assert model_a.theta.tobytes() == model_b.theta.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_context(self):
        # the moment-normalized optimizer keeps parameter magnitudes near
        # lr, so the rate must push squared features past float range
        cfg = self.small_config(total_steps=50, peak_lr=1e200, warmup_steps=1)
        with pytest.raises(NonFiniteLossError) as info:
            post_train(cfg)
        err = info.value
        # the identity features' second moment overflows first
        assert (err.step, err.quantity, err.label) == (2, "features", "rep0_identity")
        assert str(err) == "non-finite features at step 2 in rep0_identity"
        assert err.last_good_model is not None
        assert np.isfinite(err.last_good_model.theta).all()

    @pytest.mark.parametrize(
        "estimator, weights",
        [
            pytest.param("ema", None, id="ema"),
            pytest.param("queue", None, id="queue"),
            # unequal weights over three maps pin each map's own loss weight
            pytest.param("ema", (0.5, 2.0, 1.0), id="ema-weighted"),
            pytest.param("queue", (0.5, 2.0, 1.0), id="queue-weighted"),
        ],
    )
    def test_matches_reference_loop_of_public_functions(
        self, estimator, weights, monkeypatch
    ):
        import fdopt.trainer as trainer_module

        kw = dict(estimator=estimator, queue_capacity=32, total_steps=6)
        if weights is not None:
            specs = self.small_config().ensemble.specs
            specs += (RepresentationSpec("quadratic", 0, 2, 5),)
            kw["ensemble"] = RepresentationEnsemble(specs=specs, weights=weights)
        cfg = self.small_config(**kw)
        want_model, want_rows = reference_post_train(cfg)

        counts = dict.fromkeys(
            ("estimate", "_forward", "generate", "generator_backprop", "optimizer_step"), 0
        )
        for name in counts:
            original = getattr(trainer_module, name, None)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(trainer_module, name, counted, raising=False)
        model, log = post_train(cfg)

        assert log.rows() == want_rows
        assert model.theta.tobytes() == want_model.theta.tobytes()
        # one estimator pass per representation per step; one generator
        # forward, one backward and one update per step, and the warm-start
        # and final evaluations each sample through the blocked generate,
        # one forward per block (a 64-row evaluation is one block)
        steps, reps = cfg.total_steps, len(cfg.ensemble)
        assert counts == {
            "estimate": steps * reps,
            "_forward": steps + 2,
            "generate": 2,
            "generator_backprop": steps,
            "optimizer_step": steps,
        }

    @pytest.mark.parametrize(
        "steps, bound", [(0, 3e-9), (300, 1e-7)], ids=["init", "trained"]
    )
    def test_rank_deficient_batch_gradient_is_the_pseudo_inverse_ones(
        self, steps, bound
    ):
        # decoupling.cfg's batch-only arm: B = 4 rows give an 8-d tanh_rf
        # space a covariance of rank <= 3, so C = R sigma_b R has null
        # directions, which fd_with_grad floors. The batch rows lie in the
        # range of sigma_b, so the floored directions reach the sample
        # gradient only through rounding. Over seeds 0-9 with 50 batches
        # each, the largest difference from the pseudo-inverse gradient was
        # 2.6e-10 at init and 1.1e-8 after 300 steps; the bounds are 10x.
        config = load_config(str(CONFIGS / "decoupling.cfg")).train
        config = replace(
            config, ema_beta=0.0, total_steps=steps, warmup_steps=steps // 10
        )
        model = post_train(config)[0]
        spec, ref = config.ensemble.specs[1], _references(config)[1]
        noise = SplitMix64(derive_seed("probe", 0))
        for _ in range(50):
            x = generate(model, noise.normal_matrix(config.batch_size, config.z_dim))
            f = featurize(spec, x)
            state = EmaState(0.0, stats_from_features(f))
            s = estimate(state, f)
            _, grad = fd_with_grad(ref, s)
            assert grad.degenerate
            grads = [
                featurize_backprop(spec, x, f, backprop_estimate(state, f, s.mu, *g))
                for g in ((grad.d_mu, grad.d_sigma), pinv_fd_gradient(ref, s))
            ]
            assert relative_error(*grads) < bound

    def test_file_target_streams_its_reference(self, tmp_path, monkeypatch):
        import fdopt.trainer as trainer_module
        from fdopt.formats import write_features

        path = str(tmp_path / "target.fdf")
        write_features(path, sample_target(two_mode_target(), 1000, "file"))
        cfg = self.small_config(target=FileTarget(path), total_steps=2)
        want_model, want_rows = reference_post_train(cfg)

        def read_whole(path):
            raise AssertionError(f"{path} was read whole")

        # the reference statistics stream the file through its block reader
        monkeypatch.setattr(trainer_module, "read_features", read_whole)
        model, log = post_train(cfg)
        assert log.rows() == want_rows
        assert model.theta.tobytes() == want_model.theta.tobytes()

    def test_log_has_lr_and_loss_columns(self):
        cfg = self.small_config(total_steps=4, warmup_steps=2)
        _, log = post_train(cfg)
        train_records = [r for r in log.records if r.phase == "train"]
        assert [r.step for r in train_records] == [0, 1, 2, 3]
        assert train_records[0].lr == 0.0
        assert train_records[2].lr <= cfg.peak_lr
        assert all(0.0 <= r.loss < 2.0 for r in train_records)
        assert log.labels == ("rep0_identity", "rep1_tanh_rf")

    def test_estimator_rejects_bad_kind(self):
        with pytest.raises(ConfigError, match="estimator"):
            self.small_config(estimator="welford")

    def test_queue_capacity_below_batch_rejected(self):
        # a commit writes B rows into the ring, so the ring must hold them
        with pytest.raises(ConfigError, match="capacity"):
            self.small_config(estimator="queue", queue_capacity=3, batch_size=4)

    def test_ensemble_dim_must_match_generator(self):
        with pytest.raises(ConfigError, match="in_dim"):
            self.small_config(out_dim=3)


class TestPretrainRegression:
    def test_zero_steps_no_change(self):
        model = GeneratorModel.init([2, 4, 1], seed=1)
        source = MixtureTarget(
            means=[[0.0]], covs=[np.eye(1)], weights=[1.0]
        )
        same = pretrain_regression(model, source, steps=0)
        assert same is model

    def test_batch_size_below_one_rejected(self):
        # a zero-row batch would take steps zero-gradient updates silently
        model = GeneratorModel.init([2, 4, 1], seed=1)
        source = MixtureTarget(means=[[0.0]], covs=[np.eye(1)], weights=[1.0])
        with pytest.raises(DataError, match="batch_size"):
            pretrain_regression(model, source, steps=3, batch_size=0)

    def test_linear_map_learns_identity_transport(self):
        source = MixtureTarget(
            means=[[0.0]], covs=[np.eye(1)], weights=[1.0], sample_seed=2
        )
        model = GeneratorModel((1, 1), np.array([0.2, 0.0]))
        trained = pretrain_regression(
            model, source, steps=2000, batch_size=256, lr=5e-3,
            pair_count=2048, seed=3,
        )
        w = trained.weights[0][0, 0]
        b = trained.biases[0][0]
        assert abs(w - 1.0) < 0.1
        assert abs(b) < 0.1

    def test_matches_least_squares_oracle(self):
        from fdopt.rng import derive_seed

        source = MixtureTarget(
            means=[[0.0]], covs=[np.eye(1)], weights=[1.0], sample_seed=2
        )
        model = GeneratorModel((1, 1), np.array([0.2, 0.0]))
        pair_count = 2048
        stream = SplitMix64(derive_seed("pretrain", 3))
        zs = stream.normal_matrix(pair_count, 1)
        ys = sample_target(source, pair_count, "pretrain")
        zs = zs[np.argsort(zs[:, 0], kind="stable")]
        ys = ys[np.argsort(ys[:, 0], kind="stable")]
        design = np.concatenate([zs, np.ones((pair_count, 1))], axis=1)
        coef, *_ = np.linalg.lstsq(design, ys[:, 0], rcond=None)

        trained = pretrain_regression(
            model, source, steps=2000, batch_size=256, lr=5e-3,
            pair_count=pair_count, seed=3,
        )
        assert trained.weights[0][0, 0] == pytest.approx(coef[0], abs=0.05)
        assert trained.biases[0][0] == pytest.approx(coef[1], abs=0.05)

    def test_training_leaves_caller_model_intact(self):
        model = GeneratorModel.init([2, 4, 1], seed=1)
        before = model.theta.copy()
        source = MixtureTarget(means=[[0.0]], covs=[np.eye(1)], weights=[1.0])
        trained = pretrain_regression(model, source, steps=5)
        assert model.theta.tobytes() == before.tobytes()
        assert trained.theta.tobytes() != before.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_parameters(self, monkeypatch):
        import fdopt.trainer as trainer_module

        updates = []

        def recorded(*args):
            opt, theta = optimizer_step(*args)
            updates.append(theta)
            return opt, theta

        monkeypatch.setattr(trainer_module, "optimizer_step", recorded)
        model = GeneratorModel.init([2, 4, 1], seed=1)
        source = MixtureTarget(means=[[0.0]], covs=[np.eye(1)], weights=[1.0])
        with pytest.raises(NonFiniteLossError, match="parameters at step 1$") as info:
            pretrain_regression(model, source, steps=20, lr=1e200)
        assert (info.value.quantity, info.value.label) == ("parameters", None)
        good = info.value.last_good_model.theta
        assert np.isfinite(good).all()
        assert not np.isfinite(updates[-1]).all()
        assert not np.shares_memory(good, updates[-1])

    def test_source_generator_dim_mismatch(self):
        model = GeneratorModel.init([2, 4, 2], seed=1)
        source = MixtureTarget(means=[[0.0]], covs=[np.eye(1)], weights=[1.0])
        with pytest.raises(DataError, match="dim"):
            pretrain_regression(model, source, steps=5)
