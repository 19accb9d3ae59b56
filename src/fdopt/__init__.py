"""Frechet-distance training loss with decoupled population statistics.

The package turns the Frechet distance between Gaussian moment summaries
into a differentiable training signal: reference statistics come from a
large sample of the target once, generated statistics come from a queue
or EMA estimator that decouples the measured population from the training
batch, and a stop-gradient-normalized ensemble of feature spaces forms
the loss. A small manual-backprop MLP trainer, normalized-ratio metrics
(FDr / FDr^K), binary file formats, and a CLI sit on top.
"""

from .config import LoadedConfig, build_config, load_config, parse_config
from .errors import (
    ConfigError,
    DataError,
    FdoptError,
    NonFiniteDataError,
    NonFiniteLossError,
    NumericalError,
    UsageError,
)
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
from .frechet import (
    FdGradient,
    GaussianStats,
    ReferenceStats,
    fd,
    fd_grad_stats,
    fd_with_grad,
    make_reference,
    stats_from_features,
)
from .metrics import (
    CALIBRATION_SIZES,
    FdrReport,
    FdrRow,
    build_report,
    fd_ratio,
    fdr_k,
)
from .representations import (
    RepresentationEnsemble,
    RepresentationSpec,
    ensemble_loss,
    featurize,
    featurize_backprop,
    normalized_term,
)
from .rng import SplitMix64, derive_seed
from .symlin import eig_sym, sqrt_psd, trace_sqrt_product
from .trainer import (
    GeneratorModel,
    MetricsLog,
    TargetSpec,
    TrainConfig,
    TrainRecord,
    generate,
    generator_backprop,
    post_train,
    pretrain_regression,
    sample_target,
)

__version__ = "0.1.0"

__all__ = [
    "CALIBRATION_SIZES",
    "ConfigError",
    "DataError",
    "EmaState",
    "FdGradient",
    "FdoptError",
    "FdrReport",
    "FdrRow",
    "GaussianStats",
    "GeneratorModel",
    "LoadedConfig",
    "MetricsLog",
    "NonFiniteDataError",
    "NonFiniteLossError",
    "NumericalError",
    "QueueState",
    "ReferenceStats",
    "RepresentationEnsemble",
    "RepresentationSpec",
    "SplitMix64",
    "TargetSpec",
    "TrainConfig",
    "TrainRecord",
    "UsageError",
    "build_config",
    "build_report",
    "derive_seed",
    "eig_sym",
    "ema_batch_moments",
    "ema_blend",
    "ema_commit",
    "ema_effective_weight",
    "ensemble_loss",
    "estimator_backprop",
    "fd",
    "fd_grad_stats",
    "fd_ratio",
    "fd_with_grad",
    "fdr_k",
    "featurize",
    "featurize_backprop",
    "generate",
    "generator_backprop",
    "load_config",
    "make_reference",
    "normalized_term",
    "parse_config",
    "post_train",
    "pretrain_regression",
    "queue_commit",
    "queue_contents",
    "queue_stats_with_batch",
    "sample_target",
    "sqrt_psd",
    "stats_from_features",
    "trace_sqrt_product",
    "warm_start",
    "__version__",
]
