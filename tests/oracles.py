"""Independent oracles used by the test suite.

These deliberately avoid the package's own numerics: matrix roots come from a
Denman-Beavers iteration on top of numpy's LU-based inverse, eigenvalues from
LAPACK, statistics from numpy reductions, and derivatives from central finite
differences. They must stay independent of the code paths they check.
The helpers at the end serve only tests: readers (a report CSV, a queue's
rows), checked matrix entries to package kernels (sqrt_psd,
stats_from_features), which the program itself calls on inputs checked
where they enter, and a loader for the scripts under scripts/.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from fdopt.errors import DataError
from fdopt.frechet import GaussianStats, Moments, check_rows, row_blocks
from fdopt.symlin import check_symmetric, eig_sym, psd_root


def denman_beavers_sqrt(a: np.ndarray, max_iter: int = 100, tol: float = 1e-13):
    """Matrix square root by the Denman-Beavers coupled iteration."""
    a = np.asarray(a, dtype=np.float64)
    y = a.copy()
    z = np.eye(a.shape[0])
    scale = max(1.0, np.linalg.norm(a))
    for _ in range(max_iter):
        y_next = 0.5 * (y + np.linalg.inv(z))
        z_next = 0.5 * (z + np.linalg.inv(y))
        step = np.linalg.norm(y_next - y) / scale
        y, z = y_next, z_next
        if step < tol:
            break
    return y


def trace_sqrt_product_oracle(ref_root: np.ndarray, gen_cov: np.ndarray) -> float:
    """Forms the congruence explicitly and sums LAPACK eigenvalue roots."""
    inner = ref_root @ gen_cov @ ref_root
    inner = 0.5 * (inner + inner.T)
    w = np.linalg.eigvalsh(inner)
    return float(np.sqrt(np.clip(w, 0.0, None)).sum())


def frechet_oracle(mu_r, sigma_r, mu_g, sigma_g) -> float:
    """FD via a Denman-Beavers root of the congruence, fully independent."""
    root_r = denman_beavers_sqrt(sigma_r)
    cross = denman_beavers_sqrt(root_r @ sigma_g @ root_r)
    return float(
        np.sum((np.asarray(mu_r) - np.asarray(mu_g)) ** 2)
        + np.trace(sigma_r)
        + np.trace(sigma_g)
        - 2.0 * np.trace(cross)
    )


def pinv_fd_gradient(ref, gen):
    """FD's (d_mu, d_sigma) at a reference's root R, mean and trace, with
    the inverse root of C = R sigma_g R taken on C's range: LAPACK
    eigenpairs at or above the trainer's floor 1e-10 Tr(sigma_r) / d kept,
    the rest dropped, so null directions of C contribute nothing."""
    root, d = ref.sigma_root, ref.dim
    c = root @ gen.sigma @ root
    w, v = np.linalg.eigh(0.5 * (c + c.T))
    keep = w >= 1e-10 * ref.trace / d
    inv_root = (v[:, keep] / np.sqrt(w[keep])) @ v[:, keep].T
    return 2.0 * (gen.mu - ref.stats.mu), np.eye(d) - root @ inv_root @ root


def population_stats_oracle(rows: np.ndarray):
    """Mean and population covariance via numpy reductions."""
    rows = np.asarray(rows, dtype=np.float64)
    mu = rows.mean(axis=0)
    if rows.shape[0] == 1:
        cov = np.zeros((rows.shape[1], rows.shape[1]))
    else:
        cov = np.cov(rows, rowvar=False, bias=True)
        cov = np.atleast_2d(cov)
    return mu, cov


def ema_replay_oracle(mu0, m0, batch_moments, beta):
    """Closed-form geometric combination of warm-start and batch moments."""
    t = len(batch_moments)
    mu = np.asarray(mu0, dtype=np.float64) * beta**t
    m = np.asarray(m0, dtype=np.float64) * beta**t
    for k, (mu_b, m_b) in enumerate(batch_moments):
        w = (1.0 - beta) * beta ** (t - 1 - k)
        mu = mu + w * np.asarray(mu_b)
        m = m + w * np.asarray(m_b)
    return mu, m


def central_difference(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        bumped = x.copy()
        bumped[idx] = x[idx] + step
        hi = f(bumped)
        bumped[idx] = x[idx] - step
        lo = f(bumped)
        grad[idx] = (hi - lo) / (2.0 * step)
        it.iternext()
    return grad


def symmetric_matrix_difference(f, sigma: np.ndarray, step: float = 1e-5):
    """Gradient of f under paired symmetric perturbations.

    Returns g with g[i, j] such that perturbing (i, j) and (j, i) together by
    h changes f by 2 h g[i, j], matching the full-matrix convention.
    """
    d = sigma.shape[0]
    grad = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            bumped = sigma.copy()
            bumped[i, j] += step
            if i != j:
                bumped[j, i] += step
            hi = f(bumped)
            bumped = sigma.copy()
            bumped[i, j] -= step
            if i != j:
                bumped[j, i] -= step
            lo = f(bumped)
            slope = (hi - lo) / (2.0 * step)
            if i == j:
                grad[i, i] = slope
            else:
                grad[i, j] = grad[j, i] = 0.5 * slope
    return grad


def adam_scalar_replay(grads, lr, beta1, beta2, eps, weight_decay, x0=0.0):
    """Hand-rolled decoupled-weight-decay Adam on a scalar parameter."""
    x = float(x0)
    m = 0.0
    v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        x = x - lr * weight_decay * x - lr * m_hat / (np.sqrt(v_hat) + eps)
    return x


def mlp_forward_oracle(weights, biases, z):
    """Per-sample, per-unit forward pass with explicit loops."""
    z = np.asarray(z, dtype=np.float64)
    out = np.zeros((z.shape[0], weights[-1].shape[0]))
    for row in range(z.shape[0]):
        h = z[row]
        for layer, (w, b) in enumerate(zip(weights, biases)):
            nxt = np.zeros(w.shape[0])
            for unit in range(w.shape[0]):
                acc = b[unit]
                for k in range(w.shape[1]):
                    acc += w[unit, k] * h[k]
                nxt[unit] = acc
            if layer < len(weights) - 1:
                nxt = np.tanh(nxt)
            h = nxt
        out[row] = h
    return out


def relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    scale = max(1e-12, float(np.max(np.abs(expected))))
    return float(np.max(np.abs(actual - expected)) / scale)


def parse_report_csv(text: str):
    """Parse a report CSV back into ([(name, fd_gen, fd_val, ratio)], fdr_k)."""
    lines = text.strip().split("\n")
    if not lines or lines[0] != "rep,fd_gen,fd_val,fdr":
        raise DataError("report CSV missing expected header")
    rows = []
    fdr_k = None
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 4:
            raise DataError(f"malformed report row: {line!r}")
        if cells[0] == "FDRK":
            fdr_k = float(cells[3])
        else:
            rows.append((cells[0], float(cells[1]), float(cells[2]), float(cells[3])))
    if fdr_k is None:
        raise DataError("report CSV missing FDRK row")
    return rows, fdr_k


def queue_contents(q) -> np.ndarray:
    """A queue state's stored rows, oldest first."""
    return q.buffer[(q.cursor + np.arange(q.capacity)) % q.capacity]


def sqrt_psd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """The package's symmetric PSD root (eig_sym, psd_root) of a checked a."""
    a = check_symmetric(a, name)
    w, v = eig_sym(a, name)
    return psd_root(w, v, float(np.trace(a)), name)


def stats_from_features(features: np.ndarray) -> GaussianStats:
    """The package's blocked Moments of a checked n x d matrix: its column
    mean and population covariance (divisor n)."""
    return Moments(row_blocks(check_rows(features, "features"))).stats()


def load_script(name: str):
    """scripts/<name>.py, loaded by path as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
