"""Frechet distance between Gaussian-summarized populations and its gradient.

The distance between populations summarized by (mu_r, sigma_r) and
(mu_g, sigma_g) is

    ||mu_r - mu_g||^2 + Tr(sigma_r) + Tr(sigma_g) - 2 Tr((sigma_r sigma_g)^{1/2})

with the trace term evaluated through the symmetric congruence
R sigma_g R, R = sigma_r^{1/2}, which is precomputed once per reference.

Covariances use the population divisor (1/n) everywhere. The EMA estimator
recovers its covariance as M - mu mu^T, which is a population form; mixing
divisors would make the queue and EMA estimators disagree in the large-N
limit. Note that some external FID tools use 1/(n-1) instead.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NonFiniteDataError, NumericalError
from .symlin import check_symmetric, congruence_eig, sqrt_psd

log = logging.getLogger("fdopt.frechet")


@dataclass(frozen=True, eq=False)
class GaussianStats:
    """First and second moments of a feature population.

    weight is the effective sample count (rows for empirical stats, EMA mass
    for blended stats); it is bookkeeping only and does not enter the
    distance.
    """

    mu: np.ndarray
    sigma: np.ndarray
    weight: float

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        if mu.ndim != 1 or mu.size == 0:
            raise DataError(f"mu must be a nonempty vector, got shape {mu.shape}")
        if not np.isfinite(mu).all():
            raise NonFiniteDataError("mu contains non-finite entries")
        sigma = check_symmetric(self.sigma, name="sigma")
        if sigma.shape[0] != mu.size:
            raise DataError(
                f"mu has dim {mu.size} but sigma has shape {sigma.shape}"
            )
        if not (self.weight >= 0.0):
            raise DataError(f"weight must be >= 0, got {self.weight}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "weight", float(self.weight))

    @classmethod
    def trusted(cls, mu: np.ndarray, sigma: np.ndarray, weight: float):
        """Wrap float64 moments the caller built finite and exactly symmetric,
        without checking them again."""
        stats = object.__new__(cls)
        object.__setattr__(stats, "mu", mu)
        object.__setattr__(stats, "sigma", sigma)
        object.__setattr__(stats, "weight", weight)
        return stats

    @property
    def dim(self) -> int:
        return self.mu.size


@dataclass(frozen=True, eq=False)
class ReferenceStats:
    """Reference-side stats with the covariance square root cached."""

    stats: GaussianStats
    sigma_root: np.ndarray

    @property
    def dim(self) -> int:
        return self.stats.dim


def make_reference(stats: GaussianStats) -> ReferenceStats:
    root = sqrt_psd(stats.sigma, "reference sigma")
    return ReferenceStats(stats=stats, sigma_root=root)


def stats_from_features(features: np.ndarray) -> GaussianStats:
    """Column mean and population covariance (divisor n) of an n x d matrix."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise DataError(f"features must be 2-D, got shape {features.shape}")
    n, d = features.shape
    if n < 1 or d < 1:
        raise DataError(f"features must be nonempty, got shape {features.shape}")
    finite_rows = np.isfinite(features).all(axis=1)
    if not finite_rows.all():
        bad = int(np.nonzero(~finite_rows)[0][0])
        raise NonFiniteDataError(f"features row {bad} contains non-finite entries")
    stats = population_stats(features)
    # validated again: finite rows can still overflow the covariance
    return GaussianStats(stats.mu, stats.sigma, stats.weight)


def population_stats(features: np.ndarray) -> GaussianStats:
    """stats_from_features for a finite float64 n x d matrix, unchecked."""
    n = features.shape[0]
    mu = features.mean(axis=0)
    centered = features - mu
    sigma = centered.T @ centered / n
    return GaussianStats.trusted(mu, 0.5 * (sigma + sigma.T), float(n))


def fd(ref: ReferenceStats, gen: GaussianStats) -> float:
    """Frechet distance; tiny clamp-induced negatives are floored to zero."""
    return _value(ref, gen)[0]


def _value(ref: ReferenceStats, gen: GaussianStats):
    """fd value plus the eigenpairs of R sigma_g R, which the gradient reuses."""
    if ref.dim != gen.dim:
        raise DataError(f"dimension mismatch: ref dim {ref.dim} vs gen dim {gen.dim}")
    w, v = congruence_eig(ref.sigma_root, gen.sigma)
    mean_term = float(np.sum((ref.stats.mu - gen.mu) ** 2))
    trace_ref = float(np.trace(ref.stats.sigma))
    trace_gen = float(np.trace(gen.sigma))
    cross = float(np.sqrt(np.maximum(w, 0.0)).sum())
    raw = mean_term + trace_ref + trace_gen - 2.0 * cross
    return _report_fd(raw, trace_ref, trace_gen), w, v


def _report_fd(raw: float, trace_ref: float, trace_gen: float) -> float:
    slack = 1e-6 * (abs(trace_ref) + abs(trace_gen)) + 1e-12
    if raw < -slack:
        raise NumericalError(
            f"frechet distance {raw:.6e} is negative beyond clamp slack {slack:.2e}; "
            "inputs likely violate the PSD contract"
        )
    if raw < 0.0:
        log.debug("raw frechet distance %.6e floored to 0", raw)
        return 0.0
    return raw


@dataclass(frozen=True, eq=False)
class FdGradient:
    """Gradient of fd with respect to generated-population statistics.

    d_sigma uses the full-matrix convention: perturbing sigma entries (i, j)
    and (j, i) together by h changes fd by 2 h d_sigma[i, j]. degenerate is
    set when the congruence spectrum had to be floored.
    """

    d_mu: np.ndarray
    d_sigma: np.ndarray
    degenerate: bool = field(default=False)


def default_grad_floor(ref: ReferenceStats) -> float:
    return 1e-10 * max(float(np.trace(ref.stats.sigma)), 0.0) / ref.dim


def fd_grad_stats(
    ref: ReferenceStats, gen: GaussianStats, eps_floor: float | None = None
) -> FdGradient:
    """Closed-form gradient: d_mu = 2 (mu_g - mu_r),
    d_sigma = I - R C^{-1/2} R with C = R sigma_g R floored at eps_floor."""
    return fd_with_grad(ref, gen, eps_floor)[1]


def fd_with_grad(
    ref: ReferenceStats, gen: GaussianStats, eps_floor: float | None = None
):
    """fd value and gradient from a single eigendecomposition."""
    if eps_floor is None:
        eps_floor = default_grad_floor(ref)
    value, w, v = _value(ref, gen)
    degenerate = bool(w.min() < eps_floor)
    # tiny absolute floor keeps the inverse root finite even for a zero-trace
    # reference
    floored = np.maximum(w, max(eps_floor, 1e-300))
    inv_root = (v / np.sqrt(floored)) @ v.T
    root = ref.sigma_root
    d_sigma = np.eye(ref.dim) - root @ inv_root @ root
    d_sigma = 0.5 * (d_sigma + d_sigma.T)
    d_mu = 2.0 * (gen.mu - ref.stats.mu)
    return value, FdGradient(d_mu=d_mu, d_sigma=d_sigma, degenerate=degenerate)
