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

from .errors import DataError
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
        # a range error begins with its field; config.py names the key for it
        if self.kind not in KINDS:
            raise DataError(f"kind must be one of {KINDS}, got {self.kind!r}")
        for name in ("in_dim", "out_dim"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise DataError(f"seed must be unsigned, got {self.seed}")
        if not (self.scale > 0.0):
            raise DataError(f"scale must be > 0, got {self.scale}")
        if self.kind == "identity" and self.in_dim != self.out_dim:
            raise DataError(
                f"out_dim must equal in_dim {self.in_dim} for identity, got "
                f"{self.out_dim}"
            )
        if self.kind == "quadratic" and self.out_dim != quadratic_out_dim(self.in_dim):
            raise DataError(
                f"out_dim must be {quadratic_out_dim(self.in_dim)} for quadratic "
                f"with in_dim {self.in_dim}, got {self.out_dim}"
            )


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


@lru_cache(maxsize=64)
def _upper_pairs(in_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(in_dim), the quadratic map's monomial pairs, read-only."""
    pairs = np.triu_indices(in_dim)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def rep_params(spec: RepresentationSpec) -> tuple[np.ndarray, np.ndarray]:
    """(W, b) for the random affine families; identity/quadratic have none."""
    if spec.kind not in ("affine", "tanh_rf"):
        raise DataError(f"{spec.kind} representation has no drawn parameters")
    w, b = _frozen_params(spec)
    return w.copy(), b.copy()


def featurize(spec: RepresentationSpec, samples: np.ndarray) -> np.ndarray:
    """Features of a finite float64 B x in_dim matrix, which the caller has
    checked (split_stats checks a matrix, the features reader a file)."""
    if spec.kind == "identity":
        return samples.copy()
    if spec.kind == "quadratic":
        iu_i, iu_j = _upper_pairs(spec.in_dim)
        return np.concatenate([samples, samples[:, iu_i] * samples[:, iu_j]], axis=1)
    w, b = _frozen_params(spec)
    pre = samples @ w.T
    pre += b
    if spec.kind == "tanh_rf":
        np.tanh(pre, out=pre)
    return pre


def featurize_backprop(
    spec: RepresentationSpec,
    samples: np.ndarray,
    features: np.ndarray,
    feature_grads: np.ndarray,
) -> np.ndarray:
    """Backprop of featurize at `samples`, whose forward gave `features`:
    B x out_dim feature gradients to B x in_dim sample gradients."""
    if spec.kind == "identity":
        return feature_grads.copy()
    if spec.kind == "quadratic":
        n = spec.in_dim
        iu_i, iu_j = _upper_pairs(n)
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
                f"weights must number {len(specs)}, one per representation, "
                f"got {len(weights)}"
            )
        if any(not (w > 0.0) for w in weights):
            raise DataError("weights must be > 0")
        if not (self.c > 0.0):
            raise DataError(f"c must be > 0, got {self.c}")
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
