"""Desk-scale post-training loop: distance-as-loss on a small MLP generator.

Each step generates one batch from noise z and makes one pass per map,

    featurize -> population stats (queue or EMA) -> distance and gradient
      -> scale w / (sg(distance) + c) -> manual backprop to the samples,

then checks the ensemble loss, backprops through the generator, takes an
AdamW step and commits each estimator. The estimators let the statistics
that enter the loss aggregate far more samples than one batch while
gradients flow only through the live batch. Before step 0 one large-sample
evaluation of the starting model warm-starts the estimators, making the
first distance estimate meaningful, and is logged as the step-0 record
that convergence is measured against.

All randomness flows through named SplitMix64 streams derived from the run
seed (noise, warm start) or the target's sample seed (reference draws), so
a config fully determines every byte of the outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    NonFiniteDataError,
    NonFiniteLossError,
    NumericalError,
    StepError,
)
from .estimators import EmaState, QueueState, backprop_estimate, estimate
from .formats import read_feature_blocks, read_features
from .frechet import (
    BLOCK_ROWS,
    ReferenceStats,
    fd,
    fd_with_grad,
    make_reference,
    row_blocks,
    split_stats,
)
from .metrics import rep_labels
from .representations import (
    RepresentationEnsemble,
    ensemble_loss,
    featurize,
    featurize_backprop,
    normalized_term,
)
from .rng import SplitMix64, derive_seed
from .symlin import check_symmetric, eig_sym, psd_root

ADAM_EPS = 1e-8

__all__ = [
    "GeneratorModel",
    "OptState",
    "MixtureTarget",
    "FileTarget",
    "TrainConfig",
    "TrainRecord",
    "MetricsLog",
    "generate",
    "generate_blocks",
    "generator_backprop",
    "optimizer_step",
    "lr_at",
    "sample_target",
    "post_train",
    "pretrain_regression",
]


# ---------------------------------------------------------------------------
# generator


class GeneratorModel:
    """Feed-forward net, tanh hidden layers, identity output layer.

    A model is its widths layer_dims = (z_dim, hidden..., out_dim) and one
    flat float64 vector theta, laid out W0, b0, W1, b1, ...; weights[l]
    (out x in) and biases[l] are views into it, and the forward computes
    x @ W^T + b per layer. The constructor checks nothing: theta comes from
    init, a training update, or read_checkpoint, which checks a loaded
    model. Each update builds a new theta and never writes into a model's.
    """

    def __init__(self, layer_dims: tuple[int, ...], theta: np.ndarray):
        weights, biases, pos = [], [], 0
        for fan_in, fan_out in zip(layer_dims, layer_dims[1:]):
            weights.append(theta[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in))
            pos += fan_out * fan_in
            biases.append(theta[pos : pos + fan_out])
            pos += fan_out
        self.layer_dims = layer_dims
        self.theta = theta
        self.weights = tuple(weights)
        self.biases = tuple(biases)

    @property
    def z_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]

    @classmethod
    def init(cls, layer_dims, seed: int) -> "GeneratorModel":
        """Weights ~ N(0, 1/fan_in), biases zero, from a named stream."""
        dims = tuple(int(d) for d in layer_dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise DataError(f"layer_dims must list >= 2 positive dims, got {dims}")
        stream = SplitMix64(derive_seed("generator-init", seed, *dims))
        size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))
        model = cls(dims, np.zeros(size))
        for w in model.weights:
            fan_out, fan_in = w.shape
            w[...] = stream.normal_matrix(fan_out, fan_in) / math.sqrt(fan_in)
        return model


def _buffers(model: GeneratorModel, rows: int) -> list[np.ndarray]:
    """One rows x width activation buffer per layer, for _forward."""
    return [np.empty((rows, w.shape[0])) for w in model.weights]


def _forward(model: GeneratorModel, z: np.ndarray, buffers: list) -> list[np.ndarray]:
    """Per-layer activations [a_0 = z, a_1, ..., a_L]; hidden use tanh.
    Layer l is written into the first z.shape[0] rows of buffers[l], so the
    next call through the same buffers overwrites them."""
    acts = [z]
    for w, b, buffer in zip(model.weights, model.biases, buffers):
        pre = buffer[: z.shape[0]]
        np.matmul(acts[-1], w.T, out=pre)
        pre += b
        if buffer is not buffers[-1]:
            np.tanh(pre, out=pre)
        acts.append(pre)
    return acts


def generate(model: GeneratorModel, z: np.ndarray) -> np.ndarray:
    """Generator samples for the noise rows z, computed BLOCK_ROWS rows at a
    time by generate_blocks, so only the n x out_dim output grows with n."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != model.z_dim:
        raise DataError(f"z must be B x {model.z_dim}, got {z.shape}")
    if not np.isfinite(z).all():
        raise NonFiniteDataError("z contains non-finite entries")
    out = np.empty((z.shape[0], model.out_dim))
    for dest, block in zip(row_blocks(out), generate_blocks(model, row_blocks(z))):
        dest[:] = block
    return out


def generate_blocks(model: GeneratorModel, z_blocks):
    """generate's output for each noise block of at most BLOCK_ROWS rows, as
    each block arrives, through layer buffers allocated at the first,
    largest block; each output block is overwritten by the next."""
    buffers = None
    for z in z_blocks:
        if buffers is None:
            buffers = _buffers(model, z.shape[0])
        yield _forward(model, z, buffers)[-1]


def generator_backprop(
    model: GeneratorModel, acts: list[np.ndarray], sample_grads: np.ndarray
) -> np.ndarray:
    """Parameter gradients, one vector laid out as model.theta, from the
    activations of the _forward that produced the samples and the gradient
    of a scalar with respect to those samples."""
    grads = np.empty_like(model.theta)
    layers = GeneratorModel(model.layer_dims, grads)
    delta = sample_grads  # gradient w.r.t. the layer pre-activation
    for l in range(len(model.weights) - 1, -1, -1):
        np.matmul(delta.T, acts[l], out=layers.weights[l])
        delta.sum(axis=0, out=layers.biases[l])
        if l:
            upstream = delta @ model.weights[l]
            hidden = acts[l]  # tanh output of layer l-1..; derivative 1 - a^2
            delta = upstream * (1.0 - hidden * hidden)
    return grads


# ---------------------------------------------------------------------------
# optimizer and schedule


@dataclass(frozen=True, eq=False)
class OptState:
    """Adaptive-moment accumulators over the flat parameter vector; step
    counts completed updates."""

    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def empty(cls, size: int) -> "OptState":
        return cls(step=0, m=np.zeros(size), v=np.zeros(size))


def optimizer_step(
    opt: OptState,
    theta: np.ndarray,
    grads: np.ndarray,
    lr: float,
    beta1: float,
    beta2: float,
    weight_decay: float,
) -> tuple[OptState, np.ndarray]:
    """One decoupled-weight-decay adaptive-moment update with bias
    correction; returns the new state and a new parameter vector."""
    t = opt.step + 1
    m = beta1 * opt.m + (1.0 - beta1) * grads
    v = beta2 * opt.v + (1.0 - beta2) * grads * grads
    update = (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + ADAM_EPS)
    return OptState(step=t, m=m, v=v), theta - lr * update - lr * weight_decay * theta


class _Fit:
    """A generator under AdamW, shared by post_train and pretrain_regression.

    Each update makes a new parameter vector, so the previous model stays
    intact. buffers hold the activations of one batch of `rows` rows, for
    _forward; a step uses them before the next step's forward overwrites
    them. hyper is AdamW's (beta1, beta2, weight decay).
    """

    def __init__(self, model: GeneratorModel, rows: int, *hyper: float):
        self.model = model
        self.buffers = _buffers(model, rows)
        self.opt = OptState.empty(model.theta.size)
        self.hyper = hyper

    def update(self, acts, sample_grads: np.ndarray, lr: float, step: int) -> None:
        """Backprop through the forward's activations, then one AdamW step."""
        grads = generator_backprop(self.model, acts, sample_grads)
        self.opt, theta = optimizer_step(self.opt, self.model.theta, grads, lr, *self.hyper)
        if not np.isfinite(theta).all():
            raise NonFiniteLossError(step, "parameters", last_good_model=self.model)
        self.model = GeneratorModel(self.model.layer_dims, theta)


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
class MixtureTarget:
    """A Gaussian mixture population: k x d means, k x d x d covariances, k
    weights and the seed of its sample streams. One eigendecomposition per
    component gives both its PSD check and its sampling root."""

    means: np.ndarray
    covs: np.ndarray
    weights: np.ndarray
    sample_seed: int = 0

    def __post_init__(self):
        # copies: the checked covariances are written back, symmetrized
        means = np.array(self.means, dtype=np.float64)
        weights = np.array(self.weights, dtype=np.float64)
        covs = np.array(self.covs, dtype=np.float64)
        k, d = means.shape if means.ndim == 2 else (0, 0)
        if covs.shape != (k, d, d) or weights.shape != (k,):
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
            w, v = eig_sym(cov, name)
            trace = float(np.trace(cov))
            if w.min() < -1e-8 * max(abs(trace), 1.0):
                raise DataError(f"{name} is not PSD")
            roots.append(psd_root(w, v, trace, name))
            covs[i] = cov
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covs", covs)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_roots", tuple(roots))

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class FileTarget:
    """A features file that is the population itself, and the seed of the
    stream that resamples it. The file is checked where it is read."""

    path: str
    sample_seed: int = 0


def sample_target(
    target: MixtureTarget | FileTarget, count: int, purpose: str
) -> np.ndarray:
    """Draw `count` rows from the target, deterministic per (target, purpose).

    A FileTarget is resampled with replacement, so the whole file is read;
    a MixtureTarget draws component indices from the weights, then Gaussian
    offsets. Both draw their uniforms and normals BLOCK_ROWS rows at a time,
    from the counter windows of one whole draw, into the one output.
    """
    if count < 1:
        raise DataError(f"sample count must be >= 1, got {count}")
    stream = SplitMix64(derive_seed("target-samples", purpose, target.sample_seed))
    uniforms = stream.uniform_blocks(count, BLOCK_ROWS)
    if isinstance(target, FileTarget):
        rows = read_features(target.path)
        out = np.empty((count, rows.shape[1]))
        for block, u in zip(row_blocks(out), uniforms):
            idx = np.minimum((u * rows.shape[0]).astype(np.int64), rows.shape[0] - 1)
            block[:] = rows[idx]
        return out
    cumulative = np.cumsum(target.weights)
    out = np.empty((count, target.dim))
    normals = stream.normal_blocks(count, target.dim, BLOCK_ROWS)
    for block, u, eps in zip(row_blocks(out), uniforms, normals):
        comp = np.searchsorted(cumulative, u, side="right")
        comp = np.minimum(comp, cumulative.size - 1)
        for i in range(cumulative.size):
            mask = comp == i
            if mask.any():
                block[mask] = target.means[i] + eps[mask] @ target._roots[i].T
    return out


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True, eq=False)
class TrainConfig:
    """Loop hyperparameters plus the ensemble and target.

    Defaults are desk-scale: a (64, 64)-hidden tanh MLP mapping 8-d noise
    to 2-d samples, batch 128, 3000 steps with 150 linear-warmup steps into
    a cosine decay, peak learning rate 1e-3, moment betas (0.9, 0.95), no
    weight decay. warm_start_count is the population size N, whatever the
    estimator: the rows of a mixture's reference draw and of the warm-start
    and final evaluations. A queue holds between batch_size and N rows.
    """

    ensemble: RepresentationEnsemble
    target: MixtureTarget | FileTarget
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
    warm_start_count: int = BLOCK_ROWS
    z_dim: int = 8
    hidden: tuple[int, ...] = (64, 64)
    out_dim: int = 2

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0 <= self.warmup_steps <= self.total_steps):
            raise ConfigError(
                f"warmup_steps must lie in [0, total_steps = {self.total_steps}], "
                f"got {self.warmup_steps}"
            )
        if not (0.0 < self.peak_lr < math.inf):
            raise ConfigError(f"peak_lr must be finite and > 0, got {self.peak_lr}")
        if self.z_dim < 1:
            raise ConfigError(f"z_dim must be >= 1, got {self.z_dim}")
        if any(width < 1 for width in self.hidden):
            raise ConfigError(f"hidden widths must be >= 1, got {self.hidden}")
        for name, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not (0.0 <= beta < 1.0):
                raise ConfigError(f"{name} must lie in [0, 1), got {beta}")
        if not (0.0 <= self.weight_decay < math.inf):
            raise ConfigError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}"
            )
        if self.estimator not in ("queue", "ema"):
            raise ConfigError(f"estimator must be queue or ema, got {self.estimator}")
        if not (0.0 <= self.ema_beta < 1.0):
            raise ConfigError(f"ema_beta must lie in [0, 1), got {self.ema_beta}")
        if self.warm_start_count < 1:
            raise ConfigError(f"warm_start_count must be >= 1, got {self.warm_start_count}")
        if self.estimator == "queue" and not (
            self.batch_size <= self.queue_capacity <= self.warm_start_count
        ):
            raise ConfigError(
                f"queue_capacity must lie in [batch_size, trainer.warm_start_count] = "
                f"[{self.batch_size}, {self.warm_start_count}], got {self.queue_capacity}"
            )
        if self.ensemble.in_dim != self.out_dim:
            raise ConfigError(
                f"representations expect in_dim {self.ensemble.in_dim} but the "
                f"generator produces {self.out_dim}"
            )
        if isinstance(self.target, MixtureTarget) and self.target.dim != self.out_dim:
            raise ConfigError(
                f"out_dim must equal the target dim {self.target.dim}, got "
                f"{self.out_dim}"
            )

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


# ---------------------------------------------------------------------------
# training loop


def _references(config: TrainConfig) -> list[ReferenceStats]:
    """One reference per space: a file target is its population, streamed
    as-is; a mixture draws warm_start_count rows to stand for it."""
    target = config.target
    if isinstance(target, FileTarget):
        rows = read_feature_blocks([target.path])
    else:
        rows = sample_target(target, config.warm_start_count, "reference")
    stats = split_stats(config.ensemble.specs, rows, "target rows")
    return [make_reference(s) for s in stats]


def _evaluate(config: TrainConfig, model: GeneratorModel, refs, noise_name: str):
    """Large-sample evaluation of a model: warm_start_count rows from the
    named noise stream, generated, with their stats and distance per space.
    Returns (rows, stats, distances)."""
    stream = SplitMix64(derive_seed(noise_name, config.seed))
    x = generate(model, stream.normal_matrix(config.warm_start_count, config.z_dim))
    stats = split_stats(config.ensemble.specs, x, "generated samples")
    return x, stats, [fd(ref, s) for ref, s in zip(refs, stats)]


def _record(config: TrainConfig, phase: str, step: int, lr: float, fds) -> TrainRecord:
    loss, _ = ensemble_loss(config.ensemble, fds)
    return TrainRecord(phase, step, lr, loss, tuple(fds))


def post_train(
    config: TrainConfig, initial_model: GeneratorModel | None = None
) -> tuple[GeneratorModel, MetricsLog]:
    """Run the full loop; returns the trained model and the metrics log.

    Inputs are checked before the loop; each step checks only that its
    samples, each representation's feature moments, the loss and the new
    parameters are finite, else raises NonFiniteLossError. That error, and
    an eigensolver failure wrapped as one naming the step and the map, is
    a StepError carrying the last good model and the log so far.

    A step makes one pass per representation, featurize to
    featurize_backprop, scaled by normalized_term of its own distance. The
    ensemble_loss is checked before the update; the estimators commit after.

    The log holds one warm_start record (_evaluate of the starting model,
    the step-0 distance), one train record per step with the
    estimator-based distances that produced the loss, and — when any steps
    ran — one final record evaluated like the warm-start one. Each EMA
    starts from the warm evaluation's stats, each queue from its last
    queue_capacity rows.
    """
    model = initial_model
    if model is None:
        model = GeneratorModel.init(config.layer_dims, config.seed)
    if model.layer_dims != config.layer_dims:
        raise ConfigError(
            f"model layers {model.layer_dims} do not match config layers "
            f"{config.layer_dims}"
        )
    refs = _references(config)
    log = MetricsLog(labels=rep_labels(config.ensemble))

    xw, warm_stats, warm_fds = _evaluate(config, model, refs, "warm-start-noise")
    log.records.append(_record(config, "warm_start", 0, 0.0, warm_fds))
    if config.estimator == "queue":
        tail = xw[-config.queue_capacity :]
        states = [
            QueueState(config.queue_capacity, featurize(spec, tail))
            for spec in config.ensemble.specs
        ]
    else:
        states = [EmaState(config.ema_beta, stats) for stats in warm_stats]

    fit = _Fit(model, config.batch_size, config.beta1, config.beta2, config.weight_decay)
    noise = SplitMix64(derive_seed("train-noise", config.seed))
    ensemble = config.ensemble
    reps = list(zip(ensemble.specs, refs, ensemble.weights, log.labels, states))
    # a failed step leaves as one StepError naming the step and the map,
    # with the last good model and the log so far; NumPy's warnings ahead
    # of a divergence are silenced, since the step's own checks name it
    try:
        with np.errstate(all="ignore"):
            for step in range(config.total_steps):
                lr = lr_at(step, config)
                z = noise.normal_matrix(config.batch_size, config.z_dim)
                acts = _forward(fit.model, z, fit.buffers)
                x = acts[-1]
                # divergence surfaces first as non-finite samples or feature
                # moments, before the bounded normalized loss itself goes NaN
                if not np.isfinite(x).all():
                    raise NonFiniteLossError(step, "samples", None, fit.model)
                sample_grads = np.zeros_like(x)
                fds, commits = [], []
                for spec, ref, weight, label, state in reps:
                    f = featurize(spec, x)
                    s = estimate(state, f)
                    # the covariance is finite only if the features and their
                    # squares are, so one scan covers the batch and its moments
                    if not np.isfinite(s.sigma).all():
                        raise NonFiniteLossError(step, "features", label, fit.model)
                    value, grad = fd_with_grad(ref, s)
                    # stop-gradient normalizer: a map's scale needs only its
                    # own FD
                    scale = weight * normalized_term(value, ensemble.c)[1]
                    feat_grads = backprop_estimate(
                        state, f, s.mu, scale * grad.d_mu, scale * grad.d_sigma
                    )
                    sample_grads += featurize_backprop(spec, x, f, feat_grads)
                    fds.append(value)
                    commits.append((state, f, s))
                loss, _ = ensemble_loss(ensemble, fds)
                if not math.isfinite(loss):
                    bad = (name for name, v in zip(log.labels, fds) if not math.isfinite(v))
                    raise NonFiniteLossError(step, "loss", next(bad, None), fit.model)
                fit.update(acts, sample_grads, lr, step)
                for state, f, s in commits:
                    state.commit(f, s)
                log.records.append(TrainRecord("train", step, lr, loss, tuple(fds)))
    except NonFiniteLossError as err:
        err.log = log
        raise
    except NumericalError as err:
        # an eigensolver failure, in fd_with_grad of the map `label`
        message = f"step {step}, {label}: {err}"
        raise StepError(message, step, label, fit.model, log) from err
    model = fit.model

    if config.total_steps > 0:
        _, _, fds = _evaluate(config, model, refs, "final-eval-noise")
        steps = config.total_steps
        log.records.append(_record(config, "final", steps, lr_at(steps, config), fds))
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
    source: MixtureTarget | FileTarget,
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
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
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

    fit = _Fit(model, batch_size, 0.9, 0.999, 0.0)
    for step in range(steps):
        idx = np.minimum(
            (stream.uniforms(batch_size) * pair_count).astype(np.int64),
            pair_count - 1,
        )
        z, y = zs[idx], ys[idx]
        acts = _forward(fit.model, z, fit.buffers)
        sample_grads = 2.0 * (acts[-1] - y) / batch_size
        fit.update(acts, sample_grads, lr, step)
    return fit.model
