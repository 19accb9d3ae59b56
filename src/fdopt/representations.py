"""Fixed feature maps and the stop-gradient-normalized multi-map loss.

Four synthetic families stand in for heavyweight pretrained feature
extractors: identity, affine, tanh random features, and quadratic
(monomials up to degree two). Random-map parameters are a pure function of
(kind, seed, in_dim, out_dim, scale): a stream is seeded with
derive_seed("rep-params", kind, seed, in_dim, out_dim, scale), then W
(out_dim x in_dim, row-major) and b (out_dim) are drawn as standard
normals times scale, in that order.

The training loss sums per-map terms fd_i / (sg(fd_i) + c): the
denominator is treated as a constant during differentiation, so each map
contributes its raw distance gradient times grad_scale = w_i / (fd_i + c).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DataError, NonFiniteDataError
from .rng import SplitMix64, derive_seed

__all__ = [
    "KINDS",
    "RepresentationSpec",
    "RepresentationEnsemble",
    "rep_params",
    "featurize",
    "featurize_backprop",
    "normalized_term",
    "ensemble_loss",
]

KINDS = ("identity", "affine", "tanh_rf", "quadratic")

DEFAULT_NORMALIZATION = 0.01


def quadratic_out_dim(n: int) -> int:
    return n + n * (n + 1) // 2


@dataclass(frozen=True)
class RepresentationSpec:
    kind: str
    seed: int
    in_dim: int
    out_dim: int
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown representation kind {self.kind!r}")
        if self.in_dim < 1 or self.out_dim < 1:
            raise DataError(
                f"dims must be >= 1, got in={self.in_dim} out={self.out_dim}"
            )
        if self.seed < 0:
            raise DataError(f"seed must be unsigned, got {self.seed}")
        if not (self.scale > 0.0):
            raise DataError(f"scale must be > 0, got {self.scale}")
        if self.kind == "identity" and self.in_dim != self.out_dim:
            raise DataError(
                f"identity requires in_dim = out_dim, got {self.in_dim} "
                f"vs {self.out_dim}"
            )
        if self.kind == "quadratic" and self.out_dim != quadratic_out_dim(self.in_dim):
            raise DataError(
                f"quadratic with in_dim {self.in_dim} requires out_dim "
                f"{quadratic_out_dim(self.in_dim)}, got {self.out_dim}"
            )

    @property
    def label(self) -> str:
        return f"{self.kind}_{self.out_dim}d_s{self.seed}"


@lru_cache(maxsize=64)
def _frozen_params(spec: RepresentationSpec) -> tuple[np.ndarray, np.ndarray]:
    """Parameters are a pure function of the RepresentationSpec, so draw
    them once and hand out read-only views; featurize hits this every step."""
    stream = SplitMix64(
        derive_seed(
            "rep-params", spec.kind, spec.seed, spec.in_dim, spec.out_dim, spec.scale
        )
    )
    w = spec.scale * stream.normal_matrix(spec.out_dim, spec.in_dim)
    b = spec.scale * stream.normals(spec.out_dim)
    w.setflags(write=False)
    b.setflags(write=False)
    return w, b


def rep_params(spec: RepresentationSpec) -> tuple[np.ndarray, np.ndarray]:
    """(W, b) for the random affine families; identity/quadratic have none."""
    if spec.kind not in ("affine", "tanh_rf"):
        raise DataError(f"{spec.kind} representation has no drawn parameters")
    w, b = _frozen_params(spec)
    return w.copy(), b.copy()


def _check_samples(spec: RepresentationSpec, samples: np.ndarray) -> np.ndarray:
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != spec.in_dim:
        raise DataError(
            f"samples must be B x {spec.in_dim} for {spec.kind}, got {samples.shape}"
        )
    if not np.isfinite(samples).all():
        raise NonFiniteDataError("samples contain non-finite entries")
    return samples


def featurize(spec: RepresentationSpec, samples: np.ndarray) -> np.ndarray:
    return feature_map(spec, _check_samples(spec, samples))


def feature_map(spec: RepresentationSpec, samples: np.ndarray) -> np.ndarray:
    """featurize for a float64 B x in_dim matrix the caller has checked."""
    if spec.kind == "identity":
        return samples.copy()
    if spec.kind == "quadratic":
        iu_i, iu_j = np.triu_indices(spec.in_dim)
        return np.concatenate([samples, samples[:, iu_i] * samples[:, iu_j]], axis=1)
    w, b = _frozen_params(spec)
    pre = samples @ w.T + b
    return np.tanh(pre) if spec.kind == "tanh_rf" else pre


def featurize_backprop(
    spec: RepresentationSpec, samples: np.ndarray, feature_grads: np.ndarray
) -> np.ndarray:
    """Backprop of featurize at `samples`: feature gradients to sample gradients."""
    samples = _check_samples(spec, samples)
    feature_grads = np.asarray(feature_grads, dtype=np.float64)
    if feature_grads.shape != (samples.shape[0], spec.out_dim):
        raise DataError(
            f"feature_grads must be {samples.shape[0]} x {spec.out_dim}, "
            f"got {feature_grads.shape}"
        )
    return feature_map_backprop(
        spec, samples, feature_map(spec, samples), feature_grads
    )


def feature_map_backprop(
    spec: RepresentationSpec,
    samples: np.ndarray,
    features: np.ndarray,
    feature_grads: np.ndarray,
) -> np.ndarray:
    """featurize_backprop on checked inputs, reusing the forward's features."""
    if spec.kind == "identity":
        return feature_grads.copy()
    if spec.kind == "quadratic":
        n = spec.in_dim
        iu_i, iu_j = np.triu_indices(n)
        g_lin = feature_grads[:, :n]
        g_quad = feature_grads[:, n:]
        # x_i x_j contributes x_j to column i and x_i to column j; the two
        # adds coincide on the diagonal, giving the required 2 x_i.
        out = g_lin.T.copy()
        np.add.at(out, iu_i, (g_quad * samples[:, iu_j]).T)
        np.add.at(out, iu_j, (g_quad * samples[:, iu_i]).T)
        return out.T
    w, _ = _frozen_params(spec)
    if spec.kind == "tanh_rf":
        feature_grads = feature_grads * (1.0 - features * features)
    return feature_grads @ w


@dataclass(frozen=True)
class RepresentationEnsemble:
    specs: tuple[RepresentationSpec, ...]
    weights: tuple[float, ...] = ()
    c: float = DEFAULT_NORMALIZATION

    def __post_init__(self):
        specs = tuple(self.specs)
        if not specs:
            raise DataError("ensemble needs at least one representation")
        weights = tuple(float(w) for w in self.weights) or (1.0,) * len(specs)
        if len(weights) != len(specs):
            raise DataError(
                f"{len(weights)} weights for {len(specs)} representations"
            )
        if any(not (w > 0.0) for w in weights):
            raise DataError("weights must be > 0")
        if not (self.c > 0.0):
            raise DataError(f"normalization constant must be > 0, got {self.c}")
        dims = {s.in_dim for s in specs}
        if len(dims) != 1:
            raise DataError(f"representations disagree on in_dim: {sorted(dims)}")
        object.__setattr__(self, "specs", specs)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "c", float(self.c))

    @property
    def in_dim(self) -> int:
        return self.specs[0].in_dim

    def __len__(self) -> int:
        return len(self.specs)


def normalized_term(fd_value: float, c: float) -> tuple[float, float]:
    """Stop-gradient normalization fd/(sg(fd) + c).

    Returns (value, grad_scale): the denominator is held constant under
    differentiation, so the term's gradient is grad_scale times the raw
    distance gradient.
    """
    denom = fd_value + c
    return fd_value / denom, 1.0 / denom


def ensemble_loss(
    ensemble: RepresentationEnsemble, per_rep_fd
) -> tuple[float, np.ndarray]:
    """Weighted sum of normalized terms and the per-map gradient scales."""
    per_rep_fd = np.asarray(per_rep_fd, dtype=np.float64)
    if per_rep_fd.shape != (len(ensemble),):
        raise DataError(
            f"expected {len(ensemble)} distances, got shape {per_rep_fd.shape}"
        )
    loss = 0.0
    scales = np.empty(len(ensemble))
    for i, (w, fd_i) in enumerate(zip(ensemble.weights, per_rep_fd)):
        value, grad_scale = normalized_term(float(fd_i), ensemble.c)
        loss += w * value
        scales[i] = w * grad_scale
    return loss, scales
