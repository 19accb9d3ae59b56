"""Computations the benchmark checks fdopt against, made apart from fdopt.

Files are decoded with NumPy from the layouts documented in the README,
generator samples come from a plain NumPy forward pass, feature maps are
rebuilt from the drawn parameters alone, moments are NumPy reductions and
the Frechet distance uses LAPACK (``numpy.linalg.eigh``) for both matrix
roots, as the congruence oracle of ``tests/oracles.py`` does. Nothing here
calls fdopt's numerics; the only fdopt inputs are the frozen random-map
parameters (``representations.rep_params``) and the mixture a config
describes.
"""

from __future__ import annotations

import importlib.util
import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np

_TESTS_ORACLES = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"


def _load_test_oracles():
    spec = importlib.util.spec_from_file_location("fdopt_test_oracles", _TESTS_ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_oracles = _load_test_oracles()


def _header(payload: bytes, magic: bytes, path) -> None:
    if payload[:4] != magic:
        raise ValueError(f"{path}: magic {payload[:4]!r}, expected {magic!r}")


def read_fdf1(path) -> np.ndarray:
    """FDF1: magic, u32 n, u32 d, then n*d little-endian float32, row-major."""
    payload = Path(path).read_bytes()
    _header(payload, b"FDF1", path)
    n, d = struct.unpack_from("<II", payload, 4)
    rows = np.frombuffer(payload, dtype="<f4", offset=12)
    if rows.size != n * d:
        raise ValueError(f"{path}: {rows.size} floats for a {n} x {d} header")
    return rows.reshape(n, d).astype(np.float64)


def read_fds1(path):
    """FDS1: magic, u32 d, f64 weight, d f64 mean, d*d f64 covariance."""
    payload = Path(path).read_bytes()
    _header(payload, b"FDS1", path)
    (d,) = struct.unpack_from("<I", payload, 4)
    (weight,) = struct.unpack_from("<d", payload, 8)
    values = np.frombuffer(payload, dtype="<f8", offset=16)
    if values.size != d + d * d:
        raise ValueError(f"{path}: {values.size} doubles for dimension {d}")
    return weight, values[:d].copy(), values[d:].reshape(d, d).copy()


def read_fdc1(path):
    """FDC1: magic, u32 L, L x (u32 in, u32 out), per layer f64 W then b."""
    payload = Path(path).read_bytes()
    _header(payload, b"FDC1", path)
    (layers,) = struct.unpack_from("<I", payload, 4)
    dims = [struct.unpack_from("<II", payload, 8 + 8 * i) for i in range(layers)]
    pos = 8 + 8 * layers
    weights, biases = [], []
    for fan_in, fan_out in dims:
        w = np.frombuffer(payload, dtype="<f8", count=fan_in * fan_out, offset=pos)
        pos += 8 * fan_in * fan_out
        b = np.frombuffer(payload, dtype="<f8", count=fan_out, offset=pos)
        pos += 8 * fan_out
        weights.append(w.reshape(fan_out, fan_in))
        biases.append(b)
    if pos != len(payload):
        raise ValueError(f"{path}: {len(payload) - pos} trailing bytes")
    return weights, biases


def mlp(weights, biases, z: np.ndarray) -> np.ndarray:
    """tanh hidden layers, identity output layer."""
    h = z
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w.T + b
        if i < len(weights) - 1:
            h = np.tanh(h)
    return h


def features(spec, rows: np.ndarray, params=None) -> np.ndarray:
    """The four feature families from their definitions in the README.

    params is (W, b) for affine and tanh_rf. Quadratic monomials are built
    in a different column order from fdopt's; the distance does not depend
    on the order of coordinates.
    """
    if spec.kind == "identity":
        return rows
    if spec.kind == "quadratic":
        n = rows.shape[1]
        products = [rows[:, i] * rows[:, j] for j in range(n) for i in range(j + 1)]
        return np.column_stack([rows] + products)
    w, b = params
    pre = rows @ w.T + b
    return np.tanh(pre) if spec.kind == "tanh_rf" else pre


# mean and population (divisor n) covariance
moments = _oracles.population_stats_oracle


def psd_root(sigma: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (sigma + sigma.T))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


class Fd(NamedTuple):
    value: float
    cross: float  # Tr((R sigma_g R)^{1/2}), R = sigma_r^{1/2}
    congruence_eigs: np.ndarray  # eigenvalues of R sigma_g R
    ref_norm: float  # Frobenius norm of sigma_r
    gen_norm: float  # spectral norm of sigma_g


def frechet(ref, gen) -> Fd:
    """FD between (mu, sigma) pairs; the cross term from LAPACK eigenvalues."""
    (mu_r, sigma_r), (mu_g, sigma_g) = ref, gen
    root = psd_root(sigma_r)
    inner = root @ sigma_g @ root
    eigs = np.linalg.eigvalsh(0.5 * (inner + inner.T))
    cross = float(np.sqrt(np.clip(eigs, 0.0, None)).sum())
    value = np.sum((mu_r - mu_g) ** 2) + np.trace(sigma_r) + np.trace(sigma_g) - 2.0 * cross
    return Fd(float(value), cross, eigs, float(np.linalg.norm(sigma_r)),
              float(np.linalg.norm(sigma_g, 2)))


def mixture_rows(means, covs, weights, count: int, rng) -> np.ndarray:
    """Gaussian-mixture draws: component by weight, then a Cholesky offset."""
    comp = rng.choice(len(weights), size=count, p=weights)
    out = np.empty((count, means.shape[1]))
    for k in range(len(weights)):
        mask = comp == k
        eps = rng.standard_normal((int(mask.sum()), means.shape[1]))
        out[mask] = means[k] + eps @ np.linalg.cholesky(covs[k]).T
    return out
