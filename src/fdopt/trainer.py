"""Desk-scale post-training loop: distance-as-loss on a small MLP generator.

Each step runs the chain

    z -> generate -> featurize (per map) -> population stats (queue or EMA)
      -> distance per map -> normalized ensemble loss
      -> manual backprop of the same chain -> AdamW step -> estimator commit

so the statistics that enter the loss aggregate far more samples than one
batch while gradients flow only through the live batch. Estimators are
warm-started from base-model samples before step 0, making the first
distance estimate meaningful; the warm-start evaluation is logged as the
step-0 record that convergence is measured against.

All randomness flows through named SplitMix64 streams derived from the run
seed (noise, warm start) or the target's sample seed (reference draws), so
a config fully determines every byte of the outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NonFiniteDataError, NonFiniteLossError
from .estimators import (
    EmaState,
    QueueState,
    ema_batch_moments,
    ema_blend,
    ema_commit,
    ema_effective_weight,
    estimator_backprop,
    queue_commit,
    queue_contents,
    queue_stats_with_batch,
    warm_start,
)
from .formats import read_features
from .frechet import (
    GaussianStats,
    ReferenceStats,
    fd,
    fd_with_grad,
    make_reference,
    stats_from_features,
)
from .metrics import rep_labels
from .representations import (
    RepresentationEnsemble,
    ensemble_loss,
    featurize,
    featurize_backprop,
)
from .rng import SplitMix64, derive_seed
from .symlin import check_symmetric, eig_sym, sqrt_psd

ADAM_EPS = 1e-8

__all__ = [
    "GeneratorModel",
    "OptState",
    "TargetSpec",
    "TrainConfig",
    "TrainRecord",
    "MetricsLog",
    "generate",
    "generator_backprop",
    "optimizer_step",
    "lr_at",
    "sample_target",
    "target_reference_rows",
    "post_train",
    "pretrain_regression",
]


# ---------------------------------------------------------------------------
# generator


@dataclass(frozen=True, eq=False)
class GeneratorModel:
    """Feed-forward net, tanh hidden layers, identity output layer.

    weights[l] is out x in; forward computes x @ W^T + b per layer.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise DataError("model needs matching, nonempty weight/bias tuples")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise DataError(f"layer {i}: W {w.shape} incompatible with b {b.shape}")
            if i and w.shape[1] != self.weights[i - 1].shape[0]:
                raise DataError(
                    f"layer {i} expects {w.shape[1]} inputs but layer {i - 1} "
                    f"produces {self.weights[i - 1].shape[0]}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise NonFiniteDataError(f"layer {i} has non-finite parameters")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def z_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    @classmethod
    def init(cls, layer_dims, seed: int) -> "GeneratorModel":
        """Weights ~ N(0, 1/fan_in), biases zero, from a named stream."""
        dims = tuple(int(d) for d in layer_dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise DataError(f"layer_dims must list >= 2 positive dims, got {dims}")
        stream = SplitMix64(derive_seed("generator-init", seed, *dims))
        weights, biases = [], []
        for fan_in, fan_out in zip(dims, dims[1:]):
            weights.append(stream.normal_matrix(fan_out, fan_in) / math.sqrt(fan_in))
            biases.append(np.zeros(fan_out))
        return cls(weights=tuple(weights), biases=tuple(biases))

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def with_params(self, params) -> "GeneratorModel":
        if len(params) != 2 * len(self.weights):
            raise DataError(
                f"expected {2 * len(self.weights)} parameter arrays, got {len(params)}"
            )
        return GeneratorModel(
            weights=tuple(params[0::2]), biases=tuple(params[1::2])
        )


def _forward(model: GeneratorModel, z: np.ndarray) -> list[np.ndarray]:
    """Per-layer activations [a_0 = z, a_1, ..., a_L]; hidden use tanh."""
    acts = [z]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        pre = acts[-1] @ w.T + b
        acts.append(pre if i == last else np.tanh(pre))
    return acts


def _check_z(model: GeneratorModel, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != model.z_dim:
        raise DataError(f"z must be B x {model.z_dim}, got {z.shape}")
    if not np.isfinite(z).all():
        raise NonFiniteDataError("z contains non-finite entries")
    return z


def generate(model: GeneratorModel, z: np.ndarray) -> np.ndarray:
    return _forward(model, _check_z(model, z))[-1]


def generator_backprop(
    model: GeneratorModel, z: np.ndarray, sample_grads: np.ndarray
) -> list[np.ndarray]:
    """Reverse-mode parameter gradients, ordered as model.params()."""
    z = _check_z(model, z)
    sample_grads = np.asarray(sample_grads, dtype=np.float64)
    if sample_grads.shape != (z.shape[0], model.out_dim):
        raise DataError(
            f"sample_grads must be {z.shape[0]} x {model.out_dim}, "
            f"got {sample_grads.shape}"
        )
    acts = _forward(model, z)
    grads: list[np.ndarray] = [None] * (2 * len(model.weights))
    delta = sample_grads  # gradient w.r.t. the layer pre-activation
    for l in range(len(model.weights) - 1, -1, -1):
        grads[2 * l] = delta.T @ acts[l]
        grads[2 * l + 1] = delta.sum(axis=0)
        if l:
            upstream = delta @ model.weights[l]
            hidden = acts[l]  # tanh output of layer l-1..; derivative 1 - a^2
            delta = upstream * (1.0 - hidden * hidden)
    return grads


# ---------------------------------------------------------------------------
# optimizer and schedule


@dataclass(frozen=True, eq=False)
class OptState:
    """Adaptive-moment accumulators; step counts completed updates."""

    step: int
    m: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]

    @classmethod
    def empty(cls, params) -> "OptState":
        return cls(
            step=0,
            m=tuple(np.zeros_like(p) for p in params),
            v=tuple(np.zeros_like(p) for p in params),
        )


def optimizer_step(
    opt: OptState,
    params,
    grads,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.95,
    weight_decay: float = 0.0,
    eps: float = ADAM_EPS,
):
    """Decoupled-weight-decay adaptive-moment update with bias correction."""
    if len(params) != len(grads) or len(params) != len(opt.m):
        raise DataError("params/grads/state length mismatch")
    t = opt.step + 1
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    new_m, new_v, new_p = [], [], []
    for p, g, m, v in zip(params, grads, opt.m, opt.v):
        if p.shape != g.shape:
            raise DataError(f"grad shape {g.shape} does not match param {p.shape}")
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        new_p.append(p - lr * update - lr * weight_decay * p)
        new_m.append(m)
        new_v.append(v)
    return OptState(step=t, m=tuple(new_m), v=tuple(new_v)), new_p


def lr_at(step: int, config: "TrainConfig") -> float:
    """Linear warmup to peak_lr, then cosine decay to zero at total_steps."""
    total, warmup, peak = config.total_steps, config.warmup_steps, config.peak_lr
    if not (0 <= step <= total):
        raise DataError(f"step {step} outside [0, {total}]")
    if step < warmup:
        return peak * step / warmup
    if total == warmup:
        return peak
    frac = (step - warmup) / (total - warmup)
    return peak * 0.5 * (1.0 + math.cos(math.pi * frac))


# ---------------------------------------------------------------------------
# targets


@dataclass(frozen=True, eq=False)
class TargetSpec:
    """Either a Gaussian mixture (means/covs/weights + sample seed) or a
    sample file; the population the trainer matches or pretrains toward."""

    means: np.ndarray | None = None
    covs: np.ndarray | None = None
    weights: np.ndarray | None = None
    sample_seed: int = 0
    path: str | None = None

    def __post_init__(self):
        has_mixture = self.means is not None
        if has_mixture == (self.path is not None):
            raise DataError("target needs exactly one of a mixture or a file path")
        if not has_mixture:
            return
        means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        weights = np.asarray(self.weights, dtype=np.float64).ravel()
        covs = np.asarray(self.covs, dtype=np.float64)
        if covs.ndim == 2:
            covs = covs[None, :, :]
        k, n = means.shape
        if covs.shape != (k, n, n) or weights.shape != (k,):
            raise DataError(
                f"mixture shapes disagree: means {means.shape}, covs "
                f"{covs.shape}, weights {weights.shape}"
            )
        if not np.isfinite(means).all() or not np.isfinite(weights).all():
            raise NonFiniteDataError("mixture parameters contain non-finite entries")
        if (weights < 0).any() or abs(weights.sum() - 1.0) > 1e-12:
            raise DataError(
                f"mixture weights must be >= 0 and sum to 1, got sum {weights.sum()}"
            )
        roots = []
        for i in range(k):
            name = f"component {i} covariance"
            cov = check_symmetric(covs[i], name=name)
            w = eig_sym(cov, name)[0]
            if w.min() < -1e-8 * max(abs(np.trace(cov)), 1.0):
                raise DataError(f"{name} is not PSD")
            roots.append(sqrt_psd(cov, name))
            covs[i] = cov
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covs", covs)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_roots", tuple(roots))

    @classmethod
    def mixture(cls, means, covs, weights, sample_seed: int = 0) -> "TargetSpec":
        return cls(means=means, covs=covs, weights=weights, sample_seed=sample_seed)

    @classmethod
    def from_file(cls, path: str) -> "TargetSpec":
        return cls(path=path)

    @property
    def dim(self) -> int | None:
        return None if self.means is None else self.means.shape[1]


def sample_target(target: TargetSpec, count: int, purpose: str) -> np.ndarray:
    """Draw `count` rows from the target, deterministic per (target, purpose).

    File targets are resampled with replacement; mixture targets draw
    component indices from the weights, then Gaussian offsets.
    """
    if count < 1:
        raise DataError(f"sample count must be >= 1, got {count}")
    if target.path is not None:
        rows = read_features(target.path)
        stream = SplitMix64(derive_seed("target-samples", purpose, target.sample_seed))
        idx = np.minimum(
            (stream.uniforms(count) * rows.shape[0]).astype(np.int64),
            rows.shape[0] - 1,
        )
        return rows[idx]
    stream = SplitMix64(derive_seed("target-samples", purpose, target.sample_seed))
    u = stream.uniforms(count)
    comp = np.searchsorted(np.cumsum(target.weights), u, side="right")
    comp = np.minimum(comp, target.means.shape[0] - 1)
    eps = stream.normal_matrix(count, target.dim)
    out = np.empty((count, target.dim))
    for i in range(target.means.shape[0]):
        mask = comp == i
        if mask.any():
            out[mask] = target.means[i] + eps[mask] @ target._roots[i].T
    return out


def target_reference_rows(target: TargetSpec, count: int) -> np.ndarray:
    """Rows defining the reference population.

    A file target IS its population, so all rows are used as-is; a mixture
    draws `count` rows from the dedicated reference stream.
    """
    if target.path is not None:
        return read_features(target.path)
    return sample_target(target, count, "reference")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True, eq=False)
class TrainConfig:
    """Loop hyperparameters plus the ensemble and target.

    Defaults are desk-scale: a (64, 64)-hidden tanh MLP mapping 8-d noise
    to 2-d samples, batch 128, 3000 steps with 150 linear-warmup steps into
    a cosine decay, peak learning rate 1e-3, moment betas (0.9, 0.95), no
    weight decay. warm_start_count defaults to max(queue capacity, 4096)
    and also sets the sample budget for mixture reference statistics and
    final evaluation.
    """

    ensemble: RepresentationEnsemble
    target: TargetSpec
    seed: int = 0
    batch_size: int = 128
    total_steps: int = 3000
    warmup_steps: int = 150
    peak_lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.95
    weight_decay: float = 0.0
    estimator: str = "ema"
    ema_beta: float = 0.999
    queue_capacity: int = 1024
    warm_start_count: int | None = None
    z_dim: int = 8
    hidden: tuple[int, ...] = (64, 64)
    out_dim: int = 2

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0 <= self.warmup_steps <= self.total_steps):
            raise ConfigError(
                f"need 0 <= warmup_steps <= total_steps, got "
                f"{self.warmup_steps} vs {self.total_steps}"
            )
        if not (self.peak_lr > 0):
            raise ConfigError(f"peak_lr must be > 0, got {self.peak_lr}")
        if self.estimator not in ("queue", "ema"):
            raise ConfigError(f"estimator must be queue or ema, got {self.estimator}")
        if not (0.0 <= self.ema_beta < 1.0):
            raise ConfigError(f"ema_beta must lie in [0, 1), got {self.ema_beta}")
        if self.queue_capacity < self.batch_size and self.estimator == "queue":
            raise ConfigError(
                f"queue capacity {self.queue_capacity} below batch size "
                f"{self.batch_size}"
            )
        if self.ensemble.in_dim != self.out_dim:
            raise ConfigError(
                f"representations expect in_dim {self.ensemble.in_dim} but the "
                f"generator produces {self.out_dim}"
            )
        if self.target.dim is not None and self.target.dim != self.out_dim:
            raise ConfigError(
                f"target dim {self.target.dim} does not match generator out_dim "
                f"{self.out_dim}"
            )

    @property
    def effective_warm_start(self) -> int:
        if self.warm_start_count is not None:
            return self.warm_start_count
        floor = self.queue_capacity if self.estimator == "queue" else 0
        return max(floor, 4096)

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.z_dim,) + tuple(self.hidden) + (self.out_dim,)


# ---------------------------------------------------------------------------
# metrics log


@dataclass(frozen=True)
class TrainRecord:
    phase: str  # warm_start | train | final
    step: int
    lr: float
    loss: float
    fds: tuple[float, ...]


@dataclass
class MetricsLog:
    labels: tuple[str, ...]
    records: list[TrainRecord] = field(default_factory=list)

    def rows(self):
        return [
            (r.phase, r.step, r.lr, r.loss) + tuple(r.fds) for r in self.records
        ]

    def column(self, label: str, phase: str | None = None) -> list[float]:
        i = self.labels.index(label)
        return [
            r.fds[i] for r in self.records if phase is None or r.phase == phase
        ]


# ---------------------------------------------------------------------------
# training loop


def _references(config: TrainConfig) -> list[ReferenceStats]:
    rows = target_reference_rows(config.target, config.effective_warm_start)
    if rows.shape[1] != config.out_dim:
        raise DataError(
            f"target rows have dim {rows.shape[1]}, generator produces "
            f"{config.out_dim}"
        )
    return [
        make_reference(stats_from_features(featurize(spec, rows)))
        for spec in config.ensemble.specs
    ]


def _fresh_estimators(config: TrainConfig):
    states = []
    for spec in config.ensemble.specs:
        if config.estimator == "queue":
            states.append(QueueState.empty(config.queue_capacity, spec.out_dim))
        else:
            states.append(EmaState.empty(config.ema_beta, spec.out_dim))
    return states


def _estimator_stats(config: TrainConfig, state, feats):
    """(stats entering the distance, data needed to commit afterwards)."""
    if config.estimator == "queue":
        return queue_stats_with_batch(state, feats), None
    mu_b, m_b = ema_batch_moments(feats)
    mu_g, m_g, sigma_g = ema_blend(state, mu_b, m_b)
    stats = GaussianStats(mu_g, sigma_g, ema_effective_weight(state.beta))
    return stats, (mu_g, m_g)


def _commit(config: TrainConfig, state, feats, blend):
    if config.estimator == "queue":
        return queue_commit(state, feats)
    return ema_commit(state, blend[0], blend[1])


def _warm_stats(config: TrainConfig, state) -> GaussianStats:
    """Statistics an estimator holds right after warm start."""
    if config.estimator == "queue":
        return stats_from_features(queue_contents(state))
    sigma = state.m_ema - np.outer(state.mu_ema, state.mu_ema)
    return GaussianStats(
        state.mu_ema, 0.5 * (sigma + sigma.T), ema_effective_weight(state.beta)
    )


def _eval_model(config, model, refs, stream) -> tuple[list[float], np.ndarray]:
    """Large-sample per-representation distances for a model snapshot."""
    z = stream.normal_matrix(config.effective_warm_start, config.z_dim)
    x = generate(model, z)
    fds = [
        fd(ref, stats_from_features(featurize(spec, x)))
        for spec, ref in zip(config.ensemble.specs, refs)
    ]
    return fds, x


def post_train(
    config: TrainConfig, initial_model: GeneratorModel | None = None
) -> tuple[GeneratorModel, MetricsLog]:
    """Run the full loop; returns the trained model and the metrics log.

    The log holds one warm_start record (large-sample evaluation of the
    starting model, the step-0 distance), one train record per step with
    the estimator-based distances that produced the loss, and — when any
    steps ran — one final record evaluated like the warm-start one.
    """
    model = initial_model
    if model is None:
        model = GeneratorModel.init(config.layer_dims, config.seed)
    if model.z_dim != config.z_dim or model.out_dim != config.out_dim:
        raise ConfigError(
            f"model maps {model.z_dim} -> {model.out_dim}, config expects "
            f"{config.z_dim} -> {config.out_dim}"
        )
    refs = _references(config)
    states = _fresh_estimators(config)
    log = MetricsLog(labels=rep_labels(config.ensemble))

    warm_stream = SplitMix64(derive_seed("warm-start-noise", config.seed))
    zw = warm_stream.normal_matrix(config.effective_warm_start, config.z_dim)
    xw = generate(model, zw)
    for i, spec in enumerate(config.ensemble.specs):
        states[i] = warm_start(states[i], featurize(spec, xw))
    warm_fds = [
        fd(ref, _warm_stats(config, state)) for ref, state in zip(refs, states)
    ]
    warm_loss, _ = ensemble_loss(config.ensemble, warm_fds)
    log.records.append(
        TrainRecord("warm_start", 0, 0.0, warm_loss, tuple(warm_fds))
    )

    params = model.params()
    opt = OptState.empty(params)
    noise = SplitMix64(derive_seed("train-noise", config.seed))
    for step in range(config.total_steps):
        lr = lr_at(step, config)
        z = noise.normal_matrix(config.batch_size, config.z_dim)
        x = generate(model, z)

        # divergence can surface as non-finite samples/features before the
        # bounded normalized loss itself goes NaN; both abort identically
        try:
            fds, grads, blends, feats = [], [], [], []
            for spec, ref, state in zip(config.ensemble.specs, refs, states):
                f = featurize(spec, x)
                stats, blend = _estimator_stats(config, state, f)
                value, grad = fd_with_grad(ref, stats)
                feats.append(f)
                blends.append(blend)
                fds.append(value)
                grads.append(grad)
            loss, scales = ensemble_loss(config.ensemble, fds)
        except NonFiniteDataError as exc:
            raise NonFiniteLossError(step=step, last_good_model=model) from exc
        if not math.isfinite(loss):
            raise NonFiniteLossError(step=step, last_good_model=model)

        sample_grads = np.zeros_like(x)
        for i, spec in enumerate(config.ensemble.specs):
            feat_grads = estimator_backprop(
                config.estimator,
                states[i],
                feats[i],
                scales[i] * grads[i].d_mu,
                scales[i] * grads[i].d_sigma,
            )
            sample_grads += featurize_backprop(spec, x, feat_grads)
        param_grads = generator_backprop(model, z, sample_grads)
        opt, params = optimizer_step(
            opt,
            params,
            param_grads,
            lr,
            beta1=config.beta1,
            beta2=config.beta2,
            weight_decay=config.weight_decay,
        )
        try:
            model = model.with_params(params)
        except NonFiniteDataError as exc:
            raise NonFiniteLossError(step=step, last_good_model=model) from exc
        states = [
            _commit(config, state, f, blend)
            for state, f, blend in zip(states, feats, blends)
        ]
        log.records.append(TrainRecord("train", step, lr, loss, tuple(fds)))

    if config.total_steps > 0:
        final_stream = SplitMix64(derive_seed("final-eval-noise", config.seed))
        final_fds, _ = _eval_model(config, model, refs, final_stream)
        final_loss, _ = ensemble_loss(config.ensemble, final_fds)
        log.records.append(
            TrainRecord(
                "final",
                config.total_steps,
                lr_at(config.total_steps, config),
                final_loss,
                tuple(final_fds),
            )
        )
    return model, log


# ---------------------------------------------------------------------------
# regression pretraining (builds the mis-trained base model)


def _transport_order(rows: np.ndarray) -> np.ndarray:
    """Deterministic quantile ordering of rows (1-D rank sort; 2-D sorts
    the first coordinate into sqrt(n) blocks, then the second within each
    block). Higher coordinates, if any, are ignored."""
    n = rows.shape[0]
    if rows.shape[1] == 1:
        return np.argsort(rows[:, 0], kind="stable")
    primary = np.argsort(rows[:, 0], kind="stable")
    blocks = max(1, math.isqrt(n - 1) + 1)
    block_size = math.ceil(n / blocks)
    order = []
    for start in range(0, n, block_size):
        chunk = primary[start : start + block_size]
        order.append(chunk[np.argsort(rows[chunk, 1], kind="stable")])
    return np.concatenate(order)


def pretrain_regression(
    model: GeneratorModel,
    source: TargetSpec,
    steps: int,
    batch_size: int = 128,
    lr: float = 1e-3,
    pair_count: int = 4096,
    seed: int = 0,
) -> GeneratorModel:
    """Least-squares fit of the generator onto a deterministic transport.

    Fixed noise rows are paired with source rows by matched quantile order
    (a monotone transport in one or two output dimensions), then the model
    minimizes mean squared error over the pairs with adaptive moments.
    Produces a generator matching the source distribution — the
    "mis-trained" starting point for repurposing runs.
    """
    if steps < 0:
        raise DataError(f"steps must be >= 0, got {steps}")
    if steps == 0:
        return model
    stream = SplitMix64(derive_seed("pretrain", seed))
    zs = stream.normal_matrix(pair_count, model.z_dim)
    ys = sample_target(source, pair_count, "pretrain")
    if ys.shape[1] != model.out_dim:
        raise DataError(
            f"source rows have dim {ys.shape[1]}, generator produces "
            f"{model.out_dim}"
        )
    # pair noise quantiles with source quantiles: the regression target is
    # then a monotone transport of the leading noise coordinates
    lead = min(model.z_dim, model.out_dim)
    zs = zs[_transport_order(zs[:, :lead])]
    ys = ys[_transport_order(ys)]

    params = model.params()
    opt = OptState.empty(params)
    for _ in range(steps):
        idx = np.minimum(
            (stream.uniforms(batch_size) * pair_count).astype(np.int64),
            pair_count - 1,
        )
        z, y = zs[idx], ys[idx]
        out = generate(model, z)
        sample_grads = 2.0 * (out - y) / batch_size
        grads = generator_backprop(model, z, sample_grads)
        opt, params = optimizer_step(
            opt, params, grads, lr, beta1=0.9, beta2=0.999, weight_decay=0.0
        )
        model = model.with_params(params)
    return model
