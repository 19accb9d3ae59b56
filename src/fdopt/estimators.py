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

matching the update order

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

The caller owns a state: warm_start and commit_estimate update it in place
and return it, and the state must not be read as it was before its commit.

Inputs are checked where they enter: at warm_start, the state constructors
and the trainer's config. estimate, backprop_estimate and commit_estimate
are the training loop's kernels; they take a finite B x d batch of the
state's dimension and check only that the state was warm-started.
"""

from __future__ import annotations

from dataclasses import dataclass

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

__all__ = [
    "QueueState",
    "EmaState",
    "queue_contents",
    "warm_start",
    "held_stats",
    "estimate",
    "backprop_estimate",
    "commit_estimate",
]


@dataclass(eq=False)
class QueueState:
    """FIFO ring of the most recent generated feature rows.

    buffer holds capacity rows and cursor points at the oldest one (the next
    write slot). shift, s1 and s2 are the running sums of the stored rows
    (see the module docstring), and pushed counts the rows committed since
    they were last rebuilt. mu and sigma summarize the stored rows; they
    are None until warm_start fills the ring.
    """

    buffer: np.ndarray
    cursor: int = 0
    shift: np.ndarray | None = None
    s1: np.ndarray | None = None
    s2: np.ndarray | None = None
    pushed: int = 0
    mu: np.ndarray | None = None
    sigma: np.ndarray | None = None

    @property
    def capacity(self) -> int:
        return self.buffer.shape[0]

    @property
    def dim(self) -> int:
        return self.buffer.shape[1]

    @classmethod
    def empty(cls, capacity: int, dim: int) -> "QueueState":
        if capacity < 1 or dim < 1:
            raise DataError(
                f"queue needs capacity >= 1 and dim >= 1, got ({capacity}, {dim})"
            )
        return cls(np.zeros((capacity, dim)))

    def history(self, b: int) -> tuple[float, float]:
        """(history fraction, row count) of the merge with b batch rows."""
        n = self.capacity
        return n / (n + b), float(n + b)


@dataclass(eq=False)
class EmaState:
    """Exponential moving summary: each commit keeps the merge of the
    previous summary (fraction beta) with the batch. mu and sigma are None
    until warm_start."""

    beta: float
    dim: int
    mu: np.ndarray | None = None
    sigma: np.ndarray | None = None

    @classmethod
    def empty(cls, beta: float, dim: int) -> "EmaState":
        if not (0.0 <= beta < 1.0):
            raise DataError(f"beta must lie in [0, 1), got {beta}")
        if dim < 1:
            raise DataError(f"dim must be >= 1, got {dim}")
        return cls(float(beta), dim)

    def history(self, b: int) -> tuple[float, float]:
        """(history fraction, effective mass 1/(1-beta) in batches)."""
        return self.beta, 1.0 / (1.0 - self.beta)


def queue_contents(q: QueueState) -> np.ndarray:
    """Stored rows, oldest first."""
    return q.buffer[(q.cursor + np.arange(q.capacity)) % q.capacity]


def warm_start(state, samples: np.ndarray):
    """Fill a state from base-model samples; returns the state.

    Queue: the most recent `capacity` rows fill the ring (requires at least
    that many). EMA: the summary becomes the mean and covariance of all rows.
    """
    if not isinstance(state, (QueueState, EmaState)):
        raise DataError(f"unknown estimator type {type(state).__name__}")
    samples = check_rows(samples, "warm-start samples", state.dim)
    if isinstance(state, EmaState):
        stats = Moments(row_blocks(samples)).stats()
        state.mu, state.sigma = stats.mu, stats.sigma
        return state
    if samples.shape[0] < state.capacity:
        raise DataError(
            f"queue warm start needs >= {state.capacity} rows, got {samples.shape[0]}"
        )
    state.buffer[:] = samples[-state.capacity :]
    state.cursor = 0
    _rebuild(state)
    return state


def held_stats(state) -> GaussianStats:
    """Statistics of a warm state's history summary: those of a queue's
    stored rows, or the EMA's running summary."""
    _require_warm(state)
    # with no batch rows the merge is the history itself
    _, weight = state.history(0)
    # validated: finite rows can still overflow the covariance
    return GaussianStats(state.mu, state.sigma, weight)


def _require_warm(state) -> None:
    if state.mu is None:
        raise DataError(
            f"{type(state).__name__} holds no history; call warm_start before "
            "computing statistics"
        )


def _rebuild(q: QueueState) -> None:
    """Rebuild the sums exactly from the stored rows, about their mean."""
    moments = Moments(row_blocks(q.buffer))
    q.shift, q.s2 = moments.mu, moments.scatter
    # S1 = 0: c is the rows' mean. Its rounding error, that of any computed
    # mean, reaches sigma only through m m^T as the rows drift from c
    q.s1 = np.zeros(q.dim)
    q.pushed = 0
    _summarize(q)


def _summarize(q: QueueState) -> None:
    m = q.s1 / q.capacity
    sigma = q.s2 / q.capacity - np.outer(m, m)
    q.mu, q.sigma = q.shift + m, 0.5 * (sigma + sigma.T)


def _queue_push(q: QueueState, batch: np.ndarray) -> None:
    """Overwrite the B oldest rows with the batch. The sums lose the evicted
    rows and gain the pushed ones, or are rebuilt once a capacity's worth of
    rows has been pushed since the last rebuild."""
    b = batch.shape[0]
    slots = (q.cursor + np.arange(b)) % q.capacity
    q.cursor = (q.cursor + b) % q.capacity
    q.pushed += b
    if q.pushed >= q.capacity:
        q.buffer[slots] = batch
        _rebuild(q)
        return
    evicted = q.buffer[slots] - q.shift
    added = batch - q.shift
    q.buffer[slots] = batch
    q.s1 = q.s1 + added.sum(axis=0) - evicted.sum(axis=0)
    q.s2 += added.T @ added
    q.s2 -= evicted.T @ evicted
    _summarize(q)


# ---------------------------------------------------------------------------
# kernels: one pass per featurized batch, on inputs the caller has checked


def estimate(state, batch: np.ndarray) -> GaussianStats:
    """Statistics entering the distance: the state's history summary merged
    with the moments of a finite B x d batch (see the module docstring)."""
    _require_warm(state)
    b = batch.shape[0]
    a, weight = state.history(b)
    _, mu_b, sigma = block_scatter(batch)
    # divided by B as Moments.stats does, so that a = 0 gives the batch's
    # own statistics bit for bit
    sigma /= b
    sigma *= 1.0 - a
    mu, sigma = merge_moments(mu_b, sigma, state.mu, a * state.sigma, a, a * (1.0 - a))
    return GaussianStats.unchecked(mu, 0.5 * (sigma + sigma.T), weight)


def backprop_estimate(
    state, batch: np.ndarray, mu: np.ndarray, d_mu: np.ndarray, d_sigma: np.ndarray
) -> np.ndarray:
    """Gradient on the batch rows from gradients on the estimated stats,
    whose mean is mu; d_sigma must be exactly symmetric:

        grad(x_i) = ((1 - a) / B) (d_mu + 2 d_sigma (x_i - mu)).
    """
    b = batch.shape[0]
    scale = (1.0 - state.history(b)[0]) / b
    return scale * (d_mu + 2.0 * (batch - mu) @ d_sigma)


def commit_estimate(state, batch: np.ndarray, stats: GaussianStats):
    """The state after the step, updated in place: the batch pushed into the
    queue, or the merged statistics kept as the EMA's summary."""
    if isinstance(state, QueueState):
        _queue_push(state, batch)
    else:
        state.mu, state.sigma = stats.mu, stats.sigma
    return state
