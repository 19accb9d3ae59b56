"""Decoupled population estimators: feature queue and EMA moments.

Both estimators let the statistics that enter the distance aggregate far
more samples than one optimizer batch. Only the live batch carries
gradient; stored queue rows and EMA history are held constant during
backprop, matching the update order

    stats over history + batch -> loss -> backward -> step -> commit batch

States are immutable value types; commit operations return new states, so
blend/read never observes a half-applied update.

The queue keeps running sums of its stored rows about a fixed shift c, the
mean of the stored rows when the sums were last rebuilt:

    S1 = sum_i (x_i - c),    S2 = sum_i (x_i - c)(x_i - c)^T.

With the live batch rows b_j and M = fill + B rows in all, the statistics
are

    m = (S1 + sum_j (b_j - c)) / M,    mu = c + m,
    sigma = (S2 + sum_j (b_j - c)(b_j - c)^T) / M - m m^T,

so a step costs O(B d^2) whatever the capacity. A commit adds the pushed
rows to the sums and subtracts the evicted ones (the add/remove updates of
Chan, Golub & LeVeque, 1983). Rounding error in those updates accumulates,
so once a capacity's worth of rows has been pushed since the last rebuild
(one full turnover), the sums are rebuilt exactly from the stored rows, at
O(N d^2) once per turnover. The rebuild depends only on the number of rows
pushed, so runs stay deterministic. Shifting by c keeps m m^T small next to
the scatter, so the subtraction does not cancel when the features sit far
from the origin.

The public functions check their inputs and run the unchecked kernels at
the end of this module, which the training loop calls directly, once per
representation per step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, NonFiniteDataError
from .frechet import GaussianStats, population_scatter

__all__ = [
    "QueueState",
    "EmaState",
    "queue_contents",
    "queue_stats_with_batch",
    "queue_commit",
    "ema_batch_moments",
    "ema_blend",
    "ema_commit",
    "ema_effective_weight",
    "warm_start",
    "held_stats",
    "estimator_backprop",
]


def _check_batch(batch: np.ndarray, dim: int) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[0] < 1:
        raise DataError(f"batch must be a nonempty B x d matrix, got {batch.shape}")
    if batch.shape[1] != dim:
        raise DataError(f"batch dim {batch.shape[1]} does not match state dim {dim}")
    if not np.isfinite(batch).all():
        raise NonFiniteDataError("batch contains non-finite entries")
    return batch


def _require_warm(state) -> None:
    if isinstance(state, QueueState) and state.fill < state.capacity:
        raise DataError(
            f"queue holds {state.fill}/{state.capacity} rows; call warm_start "
            "before computing statistics"
        )
    if isinstance(state, EmaState) and not state.initialized:
        raise DataError("EMA state is uninitialized; call warm_start first")


@dataclass(frozen=True, eq=False)
class QueueState:
    """FIFO ring of the most recent generated feature rows.

    buffer has capacity rows; fill counts the valid ones and cursor points
    at the oldest row (the next write slot once full). s1 and s2 are the
    running sums of the stored rows about shift (see the module docstring),
    and pushed counts the rows committed since they were last rebuilt.
    """

    buffer: np.ndarray
    fill: int
    cursor: int
    shift: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    pushed: int

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
        return _rebuilt(np.zeros((capacity, dim)), fill=0, cursor=0)


def _rebuilt(buffer: np.ndarray, fill: int, cursor: int) -> QueueState:
    """The queue over buffer with its sums rebuilt exactly from the stored
    rows, about their mean."""
    dim = buffer.shape[1]
    if fill == 0:
        shift, s2 = np.zeros(dim), np.zeros((dim, dim))
    else:
        _, shift, s2 = population_scatter(buffer[:fill])
    # S1 = 0: c is the rows' mean. Its rounding error, that of any computed
    # mean, reaches sigma only through m m^T as the rows drift from c
    return QueueState(buffer, fill, cursor, shift, np.zeros(dim), s2, pushed=0)


def queue_contents(q: QueueState) -> np.ndarray:
    """Stored rows, oldest first."""
    if q.fill < q.capacity:
        return q.buffer[: q.fill]
    idx = (q.cursor + np.arange(q.fill)) % q.capacity
    return q.buffer[idx]


def queue_stats_with_batch(q: QueueState, batch: np.ndarray) -> GaussianStats:
    """Statistics over the stored rows plus the live batch (fill + B rows)."""
    _require_warm(q)
    stats = estimate(q, _check_batch(batch, q.dim))[0]
    # validated again: finite rows can still overflow the covariance
    return GaussianStats(stats.mu, stats.sigma, stats.weight)


def queue_commit(q: QueueState, batch: np.ndarray) -> QueueState:
    """Replace the B oldest rows with the batch (FIFO); returns the new state."""
    batch = _check_batch(batch, q.dim)
    if batch.shape[0] > q.capacity:
        raise DataError(
            f"batch of {batch.shape[0]} rows exceeds queue capacity {q.capacity}"
        )
    return _queue_push(q, batch)


def _queue_push(q: QueueState, batch: np.ndarray) -> QueueState:
    """Fill empty slots first, then overwrite the oldest rows; the sums gain
    the pushed rows and lose the evicted ones, and are rebuilt once a
    capacity's worth of rows has been pushed since the last rebuild."""
    b, capacity = batch.shape[0], q.capacity
    take = min(b, capacity - q.fill)
    evict = (q.cursor + np.arange(b - take)) % capacity
    buffer = q.buffer.copy()
    buffer[q.fill : q.fill + take] = batch[:take]
    buffer[evict] = batch[take:]
    fill, cursor = q.fill + take, (q.cursor + b - take) % capacity
    if q.pushed + b >= capacity:
        return _rebuilt(buffer, fill, cursor)
    added = batch - q.shift
    evicted = q.buffer[evict] - q.shift
    s1 = q.s1 + added.sum(axis=0) - evicted.sum(axis=0)
    s2 = q.s2 + added.T @ added
    s2 -= evicted.T @ evicted
    return QueueState(buffer, fill, cursor, q.shift, s1, s2, q.pushed + b)


@dataclass(frozen=True, eq=False)
class EmaState:
    """Exponential moving first and second moments (mu, M = E[xx^T]).

    The recovered covariance M - mu mu^T stays PSD up to roundoff because
    each committed blend is a convex combination of batch moments, and
    M_b - mu_b mu_b^T >= 0 holds for every batch.
    """

    beta: float
    mu_ema: np.ndarray
    m_ema: np.ndarray
    initialized: bool

    @property
    def dim(self) -> int:
        return self.mu_ema.size

    @classmethod
    def empty(cls, beta: float, dim: int) -> "EmaState":
        if not (0.0 <= beta < 1.0):
            raise DataError(f"beta must lie in [0, 1), got {beta}")
        if dim < 1:
            raise DataError(f"dim must be >= 1, got {dim}")
        return cls(
            beta=float(beta),
            mu_ema=np.zeros(dim),
            m_ema=np.zeros((dim, dim)),
            initialized=False,
        )


def ema_batch_moments(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch moments mu_b = mean(phi), m_b = mean(phi phi^T), symmetrized."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[0] < 1:
        raise DataError(f"batch must be a nonempty B x d matrix, got {batch.shape}")
    if not np.isfinite(batch).all():
        raise NonFiniteDataError("batch contains non-finite entries")
    return _batch_moments(batch)


def _batch_moments(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu_b = batch.mean(axis=0)
    m_b = batch.T @ batch / batch.shape[0]
    return mu_b, 0.5 * (m_b + m_b.T)


def ema_blend(
    s: EmaState, mu_b: np.ndarray, m_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blend batch moments into the running ones without mutating the state.

    Returns (mu_g, m_g, sigma_g) with mu_g = beta mu_ema + (1-beta) mu_b,
    m_g likewise, and sigma_g = m_g - mu_g mu_g^T.
    """
    _require_warm(s)
    mu_b = np.asarray(mu_b, dtype=np.float64)
    m_b = np.asarray(m_b, dtype=np.float64)
    if mu_b.shape != (s.dim,) or m_b.shape != (s.dim, s.dim):
        raise DataError(
            f"moment shapes {mu_b.shape}/{m_b.shape} do not match state dim {s.dim}"
        )
    return _blend(s, mu_b, m_b)


def _blend(s: EmaState, mu_b: np.ndarray, m_b: np.ndarray):
    mu_g = s.beta * s.mu_ema + (1.0 - s.beta) * mu_b
    m_g = s.beta * s.m_ema + (1.0 - s.beta) * m_b
    sigma_g = m_g - np.outer(mu_g, mu_g)
    return mu_g, 0.5 * (m_g + m_g.T), 0.5 * (sigma_g + sigma_g.T)


def ema_commit(s: EmaState, mu_g: np.ndarray, m_g: np.ndarray) -> EmaState:
    """Store blended moments as the new running moments."""
    mu_g = np.asarray(mu_g, dtype=np.float64)
    m_g = np.asarray(m_g, dtype=np.float64)
    if mu_g.shape != (s.dim,) or m_g.shape != (s.dim, s.dim):
        raise DataError(
            f"moment shapes {mu_g.shape}/{m_g.shape} do not match state dim {s.dim}"
        )
    return replace(s, mu_ema=mu_g.copy(), m_ema=m_g.copy(), initialized=True)


def ema_effective_weight(beta: float) -> float:
    """Effective sample mass of the moving average, 1/(1-beta)."""
    return 1.0 / (1.0 - beta)


def warm_start(estimator, samples: np.ndarray):
    """Initialize an estimator from base-model samples.

    Queue: the most recent `capacity` rows fill the buffer (requires at
    least that many). EMA: running moments become the plain mean and second
    moment of all rows.
    """
    if isinstance(estimator, QueueState):
        samples = _check_batch(samples, estimator.dim)
        if samples.shape[0] < estimator.capacity:
            raise DataError(
                f"queue warm start needs >= {estimator.capacity} rows, "
                f"got {samples.shape[0]}"
            )
        return _rebuilt(
            samples[-estimator.capacity :].copy(), fill=estimator.capacity, cursor=0
        )
    if isinstance(estimator, EmaState):
        mu0, m0 = _batch_moments(_check_batch(samples, estimator.dim))
        return replace(estimator, mu_ema=mu0, m_ema=m0, initialized=True)
    raise DataError(f"unknown estimator type {type(estimator).__name__}")


def held_stats(state) -> GaussianStats:
    """Statistics a warm estimator holds before a batch joins: those of its
    stored rows (queue) or of its running moments (EMA)."""
    _require_warm(state)
    if isinstance(state, QueueState):
        stats = _queue_stats(state, np.empty((0, state.dim)))
    else:
        sigma = state.m_ema - np.outer(state.mu_ema, state.mu_ema)
        stats = GaussianStats.trusted(
            state.mu_ema, 0.5 * (sigma + sigma.T), ema_effective_weight(state.beta)
        )
    # validated: finite rows can still overflow the covariance
    return GaussianStats(stats.mu, stats.sigma, stats.weight)


def estimator_backprop(
    kind: str,
    state,
    batch: np.ndarray,
    d_mu: np.ndarray,
    d_sigma: np.ndarray,
) -> np.ndarray:
    """Pull statistic-gradients back to the live batch rows.

    d_mu/d_sigma are gradients with respect to the statistics this
    estimator produced for this batch (d_sigma in the full-matrix
    convention of FdGradient). Only the B live rows receive gradient; see
    backprop_estimate for the formulas.
    """
    d_mu = np.asarray(d_mu, dtype=np.float64)
    d_sigma = np.asarray(d_sigma, dtype=np.float64)
    d_sigma = 0.5 * (d_sigma + d_sigma.T)
    batch = _check_batch(batch, state.dim)
    if d_mu.shape != (state.dim,) or d_sigma.shape != (state.dim, state.dim):
        raise DataError(
            f"gradient shapes {d_mu.shape}/{d_sigma.shape} do not match "
            f"state dim {state.dim}"
        )
    want = {"queue": QueueState, "ema": EmaState}.get(kind)
    if want is None:
        raise DataError(f"unknown estimator kind {kind!r}")
    if not isinstance(state, want):
        raise DataError(f"kind {kind!r} requires state type {want.__name__}")
    _require_warm(state)
    mu = estimate(state, batch)[0].mu
    return backprop_estimate(state, batch, mu, d_mu, d_sigma)


# ---------------------------------------------------------------------------
# kernels: one pass per featurized batch, on inputs the caller has checked


def estimate(state, batch: np.ndarray):
    """(stats, m_g): the statistics entering the distance for a finite B x d
    batch and a warm-started state, and the blended second moment an EMA
    commit stores (None for a queue). stats.mu is the mean backprop needs:
    the combined mean for a queue, the blended mu_g for EMA."""
    if isinstance(state, QueueState):
        return _queue_stats(state, batch), None
    mu_g, m_g, sigma_g = _blend(state, *_batch_moments(batch))
    return GaussianStats.trusted(mu_g, sigma_g, ema_effective_weight(state.beta)), m_g


def _queue_stats(q: QueueState, batch: np.ndarray) -> GaussianStats:
    """Statistics over the stored rows plus the batch, from the running sums."""
    rows = q.fill + batch.shape[0]
    centered = batch - q.shift
    m = (q.s1 + centered.sum(axis=0)) / rows
    sigma = (q.s2 + centered.T @ centered) / rows - np.outer(m, m)
    return GaussianStats.trusted(q.shift + m, 0.5 * (sigma + sigma.T), float(rows))


def backprop_estimate(
    state, batch: np.ndarray, mu: np.ndarray, d_mu: np.ndarray, d_sigma: np.ndarray
) -> np.ndarray:
    """Gradient on the batch rows from gradients on the estimated stats,
    whose mean is mu; d_sigma must be exactly symmetric.

    queue (M = fill + B, mu = combined mean):
        grad(x_i) = (1/M) d_mu + (2/M) d_sigma (x_i - mu)
    ema (a = (1-beta)/B):
        grad(x_i) = a (d_mu - 2 d_sigma mu_g) + 2a d_sigma x_i
    where the -2 a d_sigma mu_g term is the -mu mu^T part of the covariance
    recovery differentiated through the blend.
    """
    b = batch.shape[0]
    if isinstance(state, QueueState):
        m = state.fill + b
        return d_mu / m + (2.0 / m) * (batch - mu) @ d_sigma
    a = (1.0 - state.beta) / b
    return a * (d_mu - 2.0 * d_sigma @ mu) + (2.0 * a) * batch @ d_sigma


def commit_estimate(state, batch: np.ndarray, stats: GaussianStats, m_g):
    """The state after the step: the batch pushed into the queue, or the
    blended EMA moments (stats.mu, m_g) stored."""
    if isinstance(state, QueueState):
        return _queue_push(state, batch)
    return replace(state, mu_ema=stats.mu, m_ema=m_g)
