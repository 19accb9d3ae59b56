import numpy as np
import pytest

from fdopt.errors import ConfigError, DataError, NonFiniteLossError
from fdopt.estimators import EmaState, QueueState, warm_start
from fdopt.frechet import fd, make_reference, stats_from_features
from fdopt.representations import (
    RepresentationEnsemble,
    RepresentationSpec,
    ensemble_loss,
    featurize,
)
from fdopt.rng import SplitMix64
from fdopt.trainer import (
    GeneratorModel,
    OptState,
    TargetSpec,
    TrainConfig,
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
    relative_error,
)


def two_mode_target(sample_seed=5):
    return TargetSpec.mixture(
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
        model = GeneratorModel(
            weights=(np.zeros((3, 2)), np.zeros((2, 3))),
            biases=(np.zeros(3), np.zeros(2)),
        )
        out = generate(model, SplitMix64(1).normal_matrix(4, 2))
        assert np.array_equal(out, np.zeros((4, 2)))

    def test_single_linear_identity_layer(self):
        model = GeneratorModel(weights=(np.eye(3),), biases=(np.zeros(3),))
        z = SplitMix64(2).normal_matrix(5, 3)
        assert np.array_equal(generate(model, z), z)

    def test_matches_forward_oracle(self):
        model = GeneratorModel.init([3, 5, 4, 2], seed=11)
        z = SplitMix64(3).normal_matrix(6, 3)
        want = mlp_forward_oracle(model.weights, model.biases, z)
        assert relative_error(generate(model, z), want) < 1e-12

    def test_init_deterministic(self):
        a = GeneratorModel.init([4, 8, 2], seed=7)
        b = GeneratorModel.init([4, 8, 2], seed=7)
        for wa, wb in zip(a.params(), b.params()):
            assert wa.tobytes() == wb.tobytes()

    def test_init_scales_with_fan_in(self):
        model = GeneratorModel.init([100, 50, 2], seed=1)
        assert np.std(model.weights[0]) == pytest.approx(0.1, rel=0.15)
        assert np.all(model.biases[0] == 0.0)

    def test_z_dim_mismatch(self):
        model = GeneratorModel.init([3, 4, 2], seed=0)
        with pytest.raises(DataError, match="B x 3"):
            generate(model, np.zeros((2, 2)))

    def test_layer_dims(self):
        model = GeneratorModel.init([8, 64, 64, 2], seed=0)
        assert model.layer_dims == (8, 64, 64, 2)
        assert model.z_dim == 8
        assert model.out_dim == 2


class TestGeneratorBackprop:
    def test_zero_grads(self):
        model = GeneratorModel.init([3, 4, 2], seed=5)
        z = SplitMix64(6).normal_matrix(4, 3)
        grads = generator_backprop(model, z, np.zeros((4, 2)))
        assert all(np.allclose(g, 0.0) for g in grads)

    def test_linear_layer_outer_product(self):
        model = GeneratorModel(weights=(np.zeros((2, 3)),), biases=(np.zeros(2),))
        z = np.array([[1.0, 2.0, 3.0]])
        g = np.array([[4.0, 5.0]])
        dw, db = generator_backprop(model, z, g)
        assert np.allclose(dw, np.outer(g[0], z[0]))
        assert np.allclose(db, g[0])

    def test_matches_finite_differences(self):
        model = GeneratorModel.init([3, 5, 4, 2], seed=21)
        z = SplitMix64(22).normal_matrix(6, 3)
        probe = SplitMix64(23).normal_matrix(6, 2)
        grads = generator_backprop(model, z, probe)
        params = model.params()

        def loss_of(flat):
            arrays, pos = [], 0
            for p in params:
                arrays.append(flat[pos : pos + p.size].reshape(p.shape))
                pos += p.size
            out = generate(model.with_params(arrays), z)
            return float(np.sum(out * probe))

        flat0 = np.concatenate([p.ravel() for p in params])
        finite = central_difference(loss_of, flat0, step=1e-5)
        analytic = np.concatenate([g.ravel() for g in grads])
        assert relative_error(analytic, finite) < 1e-4

    def test_shape_mismatch(self):
        model = GeneratorModel.init([3, 4, 2], seed=0)
        with pytest.raises(DataError, match="sample_grads"):
            generator_backprop(model, np.zeros((4, 3)), np.zeros((4, 3)))


class TestOptimizerStep:
    def test_zero_grads_leave_params(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        opt = OptState.empty(params)
        opt, new = optimizer_step(opt, params, [np.zeros(2), np.zeros((1, 1))], 0.1)
        assert np.array_equal(new[0], params[0])
        assert np.array_equal(new[1], params[1])
        assert opt.step == 1

    def test_first_step_closed_form(self):
        params = [np.array([0.0])]
        opt = OptState.empty(params)
        _, new = optimizer_step(opt, params, [np.array([1.0])], lr=0.5)
        assert new[0][0] == pytest.approx(-0.5 / (1.0 + 1e-8), rel=1e-12)

    def test_ten_step_scalar_replay(self):
        grads = SplitMix64(31).normals(10)
        lr, b1, b2, wd = 0.07, 0.9, 0.95, 0.01
        want = adam_scalar_replay(grads, lr, b1, b2, 1e-8, wd, x0=0.3)
        params = [np.array([0.3])]
        opt = OptState.empty(params)
        for g in grads:
            opt, params = optimizer_step(
                opt, params, [np.array([g])], lr, beta1=b1, beta2=b2, weight_decay=wd
            )
        assert params[0][0] == pytest.approx(want, rel=1e-12)

    def test_decay_shrinks_parameters(self):
        params = [np.array([10.0])]
        opt = OptState.empty(params)
        _, new = optimizer_step(
            opt, params, [np.array([0.0])], lr=0.1, weight_decay=0.5
        )
        assert new[0][0] == pytest.approx(10.0 - 0.1 * 0.5 * 10.0)


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
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DataError, match="sum"):
            TargetSpec.mixture(
                means=[[0.0], [1.0]],
                covs=[np.eye(1), np.eye(1)],
                weights=[0.5, 0.6],
            )

    def test_non_psd_covariance_rejected(self):
        with pytest.raises(DataError, match="PSD"):
            TargetSpec.mixture(
                means=[[0.0, 0.0]],
                covs=[np.array([[1.0, 2.0], [2.0, 1.0]])],
                weights=[1.0],
            )

    def test_exactly_one_source(self):
        with pytest.raises(DataError, match="exactly one"):
            TargetSpec()

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
        target = TargetSpec.from_file(path)
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
    from fdopt.estimators import (
        ema_batch_moments,
        ema_blend,
        ema_effective_weight,
        estimator_backprop,
        queue_stats_with_batch,
    )
    from fdopt.frechet import GaussianStats, fd_with_grad
    from fdopt.representations import featurize_backprop

    x = generate(model, z)
    fds, grads, feats = [], [], []
    for spec, ref, state in zip(config.ensemble.specs, refs, states):
        f = featurize(spec, x)
        if config.estimator == "queue":
            stats = queue_stats_with_batch(state, f)
        else:
            mu_b, m_b = ema_batch_moments(f)
            mu_g, _, sigma_g = ema_blend(state, mu_b, m_b)
            stats = GaussianStats(mu_g, sigma_g, ema_effective_weight(state.beta))
        value, grad = fd_with_grad(ref, stats)
        fds.append(value)
        grads.append(grad)
        feats.append(f)
    _, scales = ensemble_loss(config.ensemble, fds)
    sample_grads = np.zeros_like(x)
    for i, spec in enumerate(config.ensemble.specs):
        fg = estimator_backprop(
            config.estimator,
            states[i],
            feats[i],
            scales[i] * grads[i].d_mu,
            scales[i] * grads[i].d_sigma,
        )
        sample_grads += featurize_backprop(spec, x, fg)
    return np.array(fds), generator_backprop(model, z, sample_grads)


def reference_post_train(config):
    """post_train assembled only from the public, input-checking functions:
    every statistic is recomputed where the chain needs it, and every
    parameter array gets its own optimizer update."""
    from fdopt.estimators import (
        ema_batch_moments,
        ema_blend,
        ema_commit,
        ema_effective_weight,
        estimator_backprop,
        queue_commit,
        queue_contents,
        queue_stats_with_batch,
    )
    from fdopt.frechet import GaussianStats, fd_with_grad
    from fdopt.representations import featurize_backprop
    from fdopt.rng import derive_seed
    from fdopt.trainer import target_reference_rows

    specs, queue = config.ensemble.specs, config.estimator == "queue"
    count = config.effective_warm_start
    rows = target_reference_rows(config.target, count)
    refs = [make_reference(stats_from_features(featurize(s, rows))) for s in specs]
    model = GeneratorModel.init(config.layer_dims, config.seed)

    def record(phase, step, lr, fds):
        loss, _ = ensemble_loss(config.ensemble, fds)
        return (phase, step, lr, loss) + tuple(fds)

    def evaluate(noise_name):
        stream = SplitMix64(derive_seed(noise_name, config.seed))
        return generate(model, stream.normal_matrix(count, config.z_dim))

    xw = evaluate("warm-start-noise")
    states, warm_fds = [], []
    for spec, ref in zip(specs, refs):
        if queue:
            state = warm_start(QueueState.empty(config.queue_capacity, spec.out_dim),
                               featurize(spec, xw))
            stats = stats_from_features(queue_contents(state))
        else:
            state = warm_start(EmaState.empty(config.ema_beta, spec.out_dim),
                               featurize(spec, xw))
            sigma = state.m_ema - np.outer(state.mu_ema, state.mu_ema)
            stats = GaussianStats(state.mu_ema, 0.5 * (sigma + sigma.T),
                                  ema_effective_weight(state.beta))
        states.append(state)
        warm_fds.append(fd(ref, stats))
    out = [record("warm_start", 0, 0.0, warm_fds)]

    params = model.params()
    opt = OptState.empty(params)
    noise = SplitMix64(derive_seed("train-noise", config.seed))
    for step in range(config.total_steps):
        lr = lr_at(step, config)
        z = noise.normal_matrix(config.batch_size, config.z_dim)
        x = generate(model, z)
        fds, grads, blends = [], [], []
        for spec, ref, state in zip(specs, refs, states):
            f = featurize(spec, x)
            if queue:
                stats, blend = queue_stats_with_batch(state, f), None
            else:
                mu_g, m_g, sigma_g = ema_blend(state, *ema_batch_moments(f))
                stats = GaussianStats(mu_g, sigma_g, ema_effective_weight(state.beta))
                blend = (mu_g, m_g)
            value, grad = fd_with_grad(ref, stats)
            fds.append(value)
            grads.append(grad)
            blends.append(blend)
        _, scales = ensemble_loss(config.ensemble, fds)
        sample_grads = np.zeros_like(x)
        for spec, state, grad, scale in zip(specs, states, grads, scales):
            f = featurize(spec, x)
            feat_grads = estimator_backprop(
                config.estimator, state, f, scale * grad.d_mu, scale * grad.d_sigma
            )
            sample_grads += featurize_backprop(spec, x, feat_grads)
        opt, params = optimizer_step(
            opt, params, generator_backprop(model, z, sample_grads), lr,
            beta1=config.beta1, beta2=config.beta2, weight_decay=config.weight_decay,
        )
        model = model.with_params(params)
        states = [
            queue_commit(state, featurize(spec, x)) if queue else ema_commit(state, *blend)
            for spec, state, blend in zip(specs, states, blends)
        ]
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
        for a, b in zip(model.params(), initial.params()):
            assert a.tobytes() == b.tobytes()
        assert len(log.records) == 1
        assert log.records[0].phase == "warm_start"

    def test_matched_generator_stays_in_noise_band(self):
        # fixed-point sanity: a generator that already matches the target
        # should not be pushed away; the learning rate is kept small so
        # parameter drift stays below the evaluation noise floor
        target = TargetSpec.mixture(
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
        matched = GeneratorModel(weights=(np.eye(2),), biases=(np.zeros(2),))
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
                states.append(warm_start(QueueState.empty(24, spec.out_dim), feats))
            else:
                states.append(warm_start(EmaState.empty(0.9, spec.out_dim), feats))
        z = stream.normal_matrix(cfg.batch_size, cfg.z_dim)

        base_fds, analytic = frozen_chain(cfg, model, refs, states, z)
        denoms = base_fds + cfg.ensemble.c
        params = model.params()

        def loss_of(flat):
            arrays, pos = [], 0
            for p in params:
                arrays.append(flat[pos : pos + p.size].reshape(p.shape))
                pos += p.size
            fds, _ = frozen_chain(cfg, model.with_params(arrays), refs, states, z)
            return float(np.sum(np.array(cfg.ensemble.weights) * fds / denoms))

        flat0 = np.concatenate([p.ravel() for p in params])
        finite = central_difference(loss_of, flat0, step=1e-5)
        flat_analytic = np.concatenate([g.ravel() for g in analytic])
        assert relative_error(flat_analytic, finite) < 1e-4

    def test_determinism_bitwise(self):
        cfg = self.small_config(total_steps=8)
        model_a, log_a = post_train(cfg)
        model_b, log_b = post_train(cfg)
        assert log_a.rows() == log_b.rows()
        for a, b in zip(model_a.params(), model_b.params()):
            assert a.tobytes() == b.tobytes()

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
        for p in err.last_good_model.params():
            assert np.isfinite(p).all()

    @pytest.mark.parametrize("estimator", ["ema", "queue"])
    def test_matches_reference_loop_of_public_functions(self, estimator, monkeypatch):
        import fdopt.trainer as trainer_module

        cfg = self.small_config(estimator=estimator, queue_capacity=32, total_steps=6)
        want_model, want_rows = reference_post_train(cfg)

        counts = {"estimate": 0, "_forward": 0}
        for name in counts:
            original = getattr(trainer_module, name, None)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(trainer_module, name, counted, raising=False)
        model, log = post_train(cfg)

        assert log.rows() == want_rows
        for got, want in zip(model.params(), want_model.params(), strict=True):
            assert got.tobytes() == want.tobytes()
        # one estimator pass per representation per step; one generator
        # forward per step plus the warm-start and final evaluations
        steps, reps = cfg.total_steps, len(cfg.ensemble)
        assert counts == {"estimate": steps * reps, "_forward": steps + 2}

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

    def test_ensemble_dim_must_match_generator(self):
        with pytest.raises(ConfigError, match="in_dim"):
            self.small_config(out_dim=3)


class TestPretrainRegression:
    def test_zero_steps_no_change(self):
        model = GeneratorModel.init([2, 4, 1], seed=1)
        source = TargetSpec.mixture(
            means=[[0.0]], covs=[np.eye(1)], weights=[1.0]
        )
        same = pretrain_regression(model, source, steps=0)
        assert same is model

    def test_linear_map_learns_identity_transport(self):
        source = TargetSpec.mixture(
            means=[[0.0]], covs=[np.eye(1)], weights=[1.0], sample_seed=2
        )
        model = GeneratorModel(
            weights=(np.array([[0.2]]),), biases=(np.array([0.0]),)
        )
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

        source = TargetSpec.mixture(
            means=[[0.0]], covs=[np.eye(1)], weights=[1.0], sample_seed=2
        )
        model = GeneratorModel(
            weights=(np.array([[0.2]]),), biases=(np.array([0.0]),)
        )
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_parameters(self):
        model = GeneratorModel.init([2, 4, 1], seed=1)
        source = TargetSpec.mixture(means=[[0.0]], covs=[np.eye(1)], weights=[1.0])
        with pytest.raises(NonFiniteLossError, match="parameters at step 1$") as info:
            pretrain_regression(model, source, steps=20, lr=1e200)
        assert (info.value.quantity, info.value.label) == ("parameters", None)
        for p in info.value.last_good_model.params():
            assert np.isfinite(p).all()

    def test_source_generator_dim_mismatch(self):
        model = GeneratorModel.init([2, 4, 2], seed=1)
        source = TargetSpec.mixture(means=[[0.0]], covs=[np.eye(1)], weights=[1.0])
        with pytest.raises(DataError, match="dim"):
            pretrain_regression(model, source, steps=5)
