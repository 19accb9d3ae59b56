"""Frechet distance between Gaussian-summarized populations and its gradient.

The distance between populations summarized by (mu_r, sigma_r) and
(mu_g, sigma_g) is

    ||mu_r - mu_g||^2 + Tr(sigma_r) + Tr(sigma_g) - 2 Tr((sigma_r sigma_g)^{1/2})

with the trace term evaluated through the symmetric congruence
R sigma_g R, R = sigma_r^{1/2}, which is precomputed once per reference.

A population's Moments take its rows a block of BLOCK_ROWS at a time, so
memory stays O(BLOCK_ROWS x d) whatever the row count. Each block gets its
own two-pass mean and centred scatter, merged into the running moments
(Chan, Golub & LeVeque, "Algorithms for computing the sample variance",
1983): for running (n_a, mu_a, S_a) and block (n_b, mu_b, S_b), with
delta = mu_b - mu_a and n = n_a + n_b,

    mu = mu_a + delta n_b / n,    S = S_a + S_b + delta delta^T n_a n_b / n,

and sigma = S / n at the end. The first block is taken as-is, so a
population of at most BLOCK_ROWS rows gets exactly the dense two-pass
result.

The estimators merge a held history summary with the live batch by the
same update, in fraction form (see merge_moments).

Covariances use the population divisor (1/n) everywhere, so a batch's
covariance merges with a history's without rescaling. Note that some
external FID tools use 1/(n-1) instead.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NonFiniteDataError, NumericalError
from .representations import featurize
from .symlin import check_symmetric, congruence_eig, eig_sym, psd_root

log = logging.getLogger("fdopt.frechet")


@dataclass(frozen=True, eq=False)
class GaussianStats:
    """First and second moments of a feature population, checked.

    weight is the population's row count; it is bookkeeping only and does
    not enter the distance. sigma is checked finite and symmetric here, not
    PSD: fdopt builds it as a scatter divided by n, PSD up to rounding, and
    read_stats rejects a file whose covariance has an eigenvalue below the
    rounding tolerance symlin.psd_tolerance.
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

    @property
    def dim(self) -> int:
        return self.mu.size


@dataclass(frozen=True, eq=False)
class ReferenceStats:
    """Reference-side stats with the covariance square root and trace cached."""

    stats: GaussianStats
    sigma_root: np.ndarray
    trace: float

    @property
    def dim(self) -> int:
        return self.stats.dim


def make_reference(stats: GaussianStats) -> ReferenceStats:
    trace = float(np.trace(stats.sigma))
    w, v = eig_sym(stats.sigma, "reference sigma")
    return ReferenceStats(stats, psd_root(w, v, trace, "reference sigma"), trace)


# Rows per block of a population's moments, and of the generator's sample
# forward. It is the trainer's default population size (warm_start_count),
# so by default each of the trainer's evaluations is one block.
BLOCK_ROWS = 4096


def check_rows(rows, what: str, dim: int | None = None, first: int = 0) -> np.ndarray:
    """rows as a nonempty float64 n x d matrix (d = dim when given) with every
    entry finite; the first non-finite row is named by its index plus first,
    the index of rows' first row in the split they come from."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
        raise DataError(f"{what} must be a nonempty n x d matrix, got shape {rows.shape}")
    if dim is not None and rows.shape[1] != dim:
        raise DataError(f"{what} must be n x {dim}, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        bad = first + int(np.argmin(np.isfinite(rows).all(axis=1)))
        raise NonFiniteDataError(f"{what} row {bad} contains non-finite entries")
    return rows


def split_stats(specs, split, what: str) -> list[GaussianStats]:
    """Mean and population covariance (divisor n) of featurize(spec, split)
    for each spec, in one pass, a block at a time. An iterator yields blocks
    that come checked from formats.read_feature_blocks, so only their width
    is checked against in_dim; any other split is a matrix, checked here
    (check_rows)."""
    dim = specs[0].in_dim
    if not isinstance(split, Iterator):
        split = row_blocks(check_rows(split, what, dim))
    sums = [Moments() for _ in specs]
    for block in split:
        if block.shape[1] != dim:
            raise DataError(f"{what} must be n x {dim}, got shape {block.shape}")
        for spec, moments in zip(specs, sums):
            moments.add(featurize(spec, block), owned=True)
    if not sums[0].n:
        raise DataError(f"{what} has no rows")
    return [moments.stats() for moments in sums]


def row_blocks(rows: np.ndarray):
    """Views of rows' successive BLOCK_ROWS-row blocks."""
    for start in range(0, rows.shape[0], BLOCK_ROWS):
        yield rows[start : start + BLOCK_ROWS]


class Moments:
    """Running row count n, mean mu and centred scatter S of nonempty finite
    float64 blocks of rows, each merged in as in the module docstring. Owned
    blocks were made for this accumulator and are centred in place."""

    def __init__(self, blocks=(), owned: bool = False):
        self.n = 0
        for block in blocks:
            self.add(block, owned)

    def add(self, block: np.ndarray, owned: bool = False) -> None:
        block_n, block_mu, block_s = block_scatter(block, owned)
        if self.n == 0:
            self.n, self.mu, self.scatter = block_n, block_mu, block_s
            return
        total = self.n + block_n
        self.mu, self.scatter = merge_moments(
            self.mu, self.scatter, block_mu, block_s, block_n / total,
            self.n * block_n / total,
        )
        self.n = total

    def stats(self) -> GaussianStats:
        """The stats, sigma = S / n, checked: finite rows can overflow them."""
        sigma = self.scatter / self.n
        return GaussianStats(self.mu, 0.5 * (sigma + sigma.T), float(self.n))


def block_scatter(block: np.ndarray, owned: bool = False):
    """(n, mu, S) of one nonempty finite float64 block, unchecked: its
    two-pass mean and centred scatter. An owned block is centred in place."""
    mu = block.mean(axis=0)
    centered = np.subtract(block, mu, out=block if owned else None)
    return block.shape[0], mu, centered.T @ centered


def merge_moments(mu_a, s_a, mu_b, s_b, frac_b: float, cross: float):
    """The pairwise update of the module docstring, with delta = mu_b - mu_a:
    (mu_a + frac_b delta, s_a + s_b + cross delta delta^T), s_a updated in
    place. Scatters take frac_b = n_b / n and cross = n_a n_b / n; weighted
    covariances (1 - f) sigma_a and f sigma_b take frac_b = f and
    cross = f (1 - f)."""
    delta = mu_b - mu_a
    s_a += s_b
    s_a += np.outer(delta, delta * cross)
    return mu_a + delta * frac_b, s_a


def fd(ref: ReferenceStats, gen: GaussianStats) -> float:
    """Frechet distance; tiny clamp-induced negatives are floored to zero.
    gen is a GaussianStats or a training step's estimators.Estimate."""
    return _value(ref, gen)[0]


def _value(ref: ReferenceStats, gen: GaussianStats):
    """fd value plus the eigenpairs of R sigma_g R, which the gradient reuses."""
    if ref.dim != gen.mu.size:
        raise DataError(
            f"dimension mismatch: ref dim {ref.dim} vs gen dim {gen.mu.size}"
        )
    w, v = congruence_eig(ref.sigma_root, gen.sigma)
    mean_term = float(np.sum((ref.stats.mu - gen.mu) ** 2))
    trace_ref = ref.trace
    trace_gen = float(np.trace(gen.sigma))
    cross = float(np.sqrt(np.maximum(w, 0.0)).sum())
    raw = mean_term + trace_ref + trace_gen - 2.0 * cross
    slack = 1e-6 * (abs(trace_ref) + abs(trace_gen)) + 1e-12
    if raw < -slack:
        raise NumericalError(
            f"frechet distance {raw:.6e} is negative beyond clamp slack {slack:.2e}; "
            "inputs likely violate the PSD contract"
        )
    if raw < 0.0:
        log.debug("raw frechet distance %.6e floored to 0", raw)
    return max(raw, 0.0), w, v


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


def fd_with_grad(ref: ReferenceStats, gen: GaussianStats):
    """fd value and closed-form gradient from a single eigendecomposition:
    d_mu = 2 (mu_g - mu_r), d_sigma = I - R C^{-1/2} R with C = R sigma_g R
    and its spectrum floored at 1e-10 Tr(sigma_r) / d.

    On exactly null directions of C (a batch of fewer rows than d), d_sigma
    is large, yet the sample gradient it backpropagates to equals that of
    the pseudo-inverse root on C's range, to rounding: the centred rows lie
    in the range of sigma_g, so the floored directions enter only through
    rounding. For an eigenvalue within a few orders of the floor, the
    gradient depends on the floor, which is a chosen constant."""
    floor = 1e-10 * max(ref.trace, 0.0) / ref.dim
    value, w, v = _value(ref, gen)
    degenerate = bool(w.min() < floor)
    # tiny absolute floor keeps the inverse root finite even for a zero-trace
    # reference
    floored = np.maximum(w, max(floor, 1e-300))
    inv_root = (v / np.sqrt(floored)) @ v.T
    root = ref.sigma_root
    # I - R C^{-1/2} R, with the identity added on the diagonal in place
    d_sigma = -(root @ inv_root @ root)
    d_sigma.flat[:: ref.dim + 1] += 1.0
    d_sigma = 0.5 * (d_sigma + d_sigma.T)
    d_mu = 2.0 * (gen.mu - ref.stats.mu)
    return value, FdGradient(d_mu=d_mu, d_sigma=d_sigma, degenerate=degenerate)
