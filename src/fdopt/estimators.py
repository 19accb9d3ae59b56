"""Decoupled population estimators: a feature queue and an EMA.

Both estimators let the statistics that enter the distance aggregate far
more samples than one optimizer batch. A state holds a summary of its
history, a mean mu_h and a centred covariance sigma_h, and a step merges
the live batch's two-pass moments (mu_b, sigma_b) into it with the
pairwise update that frechet applies between blocks (merge_moments):

    delta = mu_h - mu_b,    mu = mu_b + a delta,
    sigma = a sigma_h + (1 - a) sigma_b + a (1 - a) delta delta^T.

The history fraction a is beta for the EMA, and N / (N + B) for a queue of
N rows and a batch of B rows, where the merge gives the statistics of the
N + B rows. At a = 0 (beta = 0) the result is the batch's own statistics,
bit for bit. Only the live batch carries gradient; the history is held
constant during backprop, so one formula serves both kinds:

    grad(x_i) = ((1 - a) / B) (d_mu + 2 d_sigma (x_i - mu)),

matching the update order, which a training step keeps for each map

    merge history + batch -> loss -> backward -> step -> commit batch

The kinds differ only in their commit. The EMA keeps the merged statistics
as its summary. The queue writes the batch over its B oldest rows and keeps
running sums of its stored rows about a fixed shift c, the mean of the
stored rows when the sums were last rebuilt:

    S1 = sum_i (x_i - c),    S2 = sum_i (x_i - c)(x_i - c)^T,

with summary mu_h = c + m and sigma_h = S2 / N - m m^T, m = S1 / N. A
commit adds the pushed rows to the sums and subtracts the evicted ones (the
add/remove updates of Chan, Golub & LeVeque, 1983), so a step costs
O(B d^2) whatever the capacity. Rounding error in those updates
accumulates, so once a capacity's worth of rows has been pushed since the
last rebuild (one full turnover), the sums are rebuilt exactly from the
stored rows, at O(N d^2) once per turnover. The rebuild depends only on the
number of rows pushed, so runs stay deterministic. Shifting by c keeps
m m^T small next to the scatter, so the subtraction does not cancel when
the features sit far from the origin.

An estimator kind, Ema(beta) or Queue(capacity), is a frozen value that
checks its parameter when it is made. Its warm_states builds one state per
representation from the warm-start evaluation, so a summary always exists:
an EmaState starts from that population's statistics, a QueueState fills
its ring with the population's last capacity rows. The caller owns a
state, and its commit updates it in place.

Inputs are checked where they enter: beta and capacity by their kind, the
warm-start rows by QueueState, and by the trainer's config that its
estimator is an Ema or a Queue and that batch_size <= capacity <=
warm_start_count. estimate, backprop_estimate and
commit are the training loop's kernels; they take a finite B x d batch of
the state's dimension and check nothing again. So estimate returns a plain
Estimate(mu, sigma), not a GaussianStats, which always holds checked
statistics; fd, fd_with_grad and commit read either one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .frechet import (
    GaussianStats,
    Moments,
    block_scatter,
    check_rows,
    merge_moments,
    row_blocks,
)
from .representations import featurize

__all__ = [
    "Ema",
    "Queue",
    "QueueState",
    "EmaState",
    "Estimate",
    "estimate",
    "backprop_estimate",
]


@dataclass(frozen=True)
class Ema:
    """An exponential moving summary of history fraction beta in [0, 1)."""

    beta: float = 0.999

    def __post_init__(self):
        if not (0.0 <= self.beta < 1.0):
            raise DataError(f"beta must lie in [0, 1), got {self.beta}")

    def warm_states(self, specs, rows: np.ndarray, stats) -> list[EmaState]:
        """One EmaState per spec, from the warm evaluation's stats in it."""
        return [EmaState(self.beta, s) for s in stats]


@dataclass(frozen=True)
class Queue:
    """A FIFO ring of the last capacity >= 1 generated feature rows."""

    capacity: int = 1024

    def __post_init__(self):
        if self.capacity < 1:
            raise DataError(f"capacity must be >= 1, got {self.capacity}")

    def warm_states(self, specs, rows: np.ndarray, stats) -> list[QueueState]:
        """One QueueState per spec, from the last capacity warm rows in it."""
        tail = rows[-self.capacity :]
        return [QueueState(self.capacity, featurize(spec, tail)) for spec in specs]


class QueueState:
    """FIFO ring of the most recent generated feature rows, filled with the
    last capacity rows of the warm-start samples (at least that many).

    buffer holds capacity rows and cursor points at the oldest one (the next
    write slot). shift, s1 and s2 are the running sums of the stored rows
    (see the module docstring), and pushed counts the rows committed since
    they were last rebuilt. mu and sigma summarize the stored rows.
    """

    def __init__(self, capacity: int, samples: np.ndarray):
        samples = check_rows(samples, "warm-start samples")
        if samples.shape[0] < capacity:
            raise DataError(
                f"queue warm start needs >= {capacity} rows, got {samples.shape[0]}"
            )
        self.buffer = samples[-capacity:].copy()
        self.cursor = 0
        _rebuild(self)

    @property
    def capacity(self) -> int:
        return self.buffer.shape[0]

    def history(self, b: int) -> float:
        """History fraction N / (N + B) of the merge with b batch rows."""
        return self.capacity / (self.capacity + b)

    def commit(self, batch: np.ndarray, stats: Estimate) -> None:
        """Overwrite the B oldest rows with the batch (stats is not needed).
        The sums lose the evicted rows and gain the pushed ones, or are
        rebuilt once a capacity's worth of rows has been pushed since the
        last rebuild."""
        b = batch.shape[0]
        slots = (self.cursor + np.arange(b)) % self.capacity
        self.cursor = (self.cursor + b) % self.capacity
        self.pushed += b
        if self.pushed >= self.capacity:
            self.buffer[slots] = batch
            _rebuild(self)
            return
        evicted = self.buffer[slots] - self.shift
        added = batch - self.shift
        self.buffer[slots] = batch
        self.s1 = self.s1 + added.sum(axis=0) - evicted.sum(axis=0)
        self.s2 += added.T @ added
        self.s2 -= evicted.T @ evicted
        _summarize(self)


class EmaState:
    """Exponential moving summary, first the warm-start population's stats:
    each commit keeps the merge of the previous summary (fraction beta) with
    the batch."""

    def __init__(self, beta: float, stats: GaussianStats):
        self.beta = float(beta)
        self.mu, self.sigma = stats.mu, stats.sigma

    def history(self, b: int) -> float:
        """History fraction beta, whatever the batch size."""
        return self.beta

    def commit(self, batch: np.ndarray, stats: Estimate) -> None:
        """Keep the step's merged statistics as the summary (the batch is
        already in them)."""
        self.mu, self.sigma = stats.mu, stats.sigma


def _rebuild(q: QueueState) -> None:
    """Rebuild the sums exactly from the stored rows, about their mean."""
    moments = Moments(row_blocks(q.buffer))
    q.shift, q.s2 = moments.mu, moments.scatter
    # S1 = 0: c is the rows' mean. Its rounding error, that of any computed
    # mean, reaches sigma only through m m^T as the rows drift from c
    q.s1 = np.zeros_like(q.shift)
    q.pushed = 0
    _summarize(q)


def _summarize(q: QueueState) -> None:
    m = q.s1 / q.capacity
    sigma = q.s2 / q.capacity - np.outer(m, m)
    q.mu, q.sigma = q.shift + m, 0.5 * (sigma + sigma.T)


# ---------------------------------------------------------------------------
# kernels: one pass per featurized batch, on inputs the caller has checked


class Estimate(NamedTuple):
    """One step's mean and covariance entering the distance, float64 and
    exactly symmetric; finite when the batch and its squares are."""

    mu: np.ndarray
    sigma: np.ndarray


def estimate(state, batch: np.ndarray) -> Estimate:
    """Statistics entering the distance: the state's history summary merged
    with the moments of a finite B x d batch (see the module docstring)."""
    b = batch.shape[0]
    a = state.history(b)
    _, mu_b, sigma = block_scatter(batch)
    # divided by B as Moments.stats does, so that a = 0 gives the batch's
    # own statistics bit for bit
    sigma /= b
    sigma *= 1.0 - a
    mu, sigma = merge_moments(mu_b, sigma, state.mu, a * state.sigma, a, a * (1.0 - a))
    return Estimate(mu, 0.5 * (sigma + sigma.T))


def backprop_estimate(
    state, batch: np.ndarray, mu: np.ndarray, d_mu: np.ndarray, d_sigma: np.ndarray
) -> np.ndarray:
    """Gradient on the batch rows from gradients on the estimated stats,
    whose mean is mu; d_sigma must be exactly symmetric:

        grad(x_i) = ((1 - a) / B) (d_mu + 2 d_sigma (x_i - mu)).
    """
    b = batch.shape[0]
    scale = (1.0 - state.history(b)) / b
    return scale * (d_mu + 2.0 * (batch - mu) @ d_sigma)
