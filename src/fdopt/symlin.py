"""Dense symmetric eigendecomposition and the PSD primitives built on it.

Everything here is pure-function and double precision. The eigensolver is
LAPACK's symmetric driver (``np.linalg.eigh``), so a run is
byte-reproducible on a given machine and BLAS build. A matrix is checked
once where it enters (check_symmetric, in GaussianStats and MixtureTarget) or
built exactly symmetric (a training step's estimators.Estimate), and not
again here. Callers use eigenvectors only through V f(w) V^T, which does
not depend on their signs.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import DataError, NonFiniteDataError, NumericalError

log = logging.getLogger("fdopt.symlin")

SYMMETRY_TOL = 1e-10


def check_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate finiteness/shape/symmetry; return a symmetrized f64 copy."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DataError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise DataError(f"{name} must have positive dimension")
    finite = np.isfinite(a)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise NonFiniteDataError(
            f"{name}[{i}][{j}] = {a[i, j]} is not finite"
        )
    gap = np.abs(a - a.T)
    bound = SYMMETRY_TOL * np.maximum(1.0, np.abs(a))
    if (gap > bound).any():
        i, j = np.argwhere(gap > bound)[0]
        raise DataError(
            f"{name} is not symmetric: entry ({i},{j}) = {a[i, j]!r} vs "
            f"({j},{i}) = {a[j, i]!r}"
        )
    return 0.5 * (a + a.T)


def eig_sym(a: np.ndarray, name: str = "matrix"):
    """(eigenvalues ascending, orthonormal eigenvectors as columns) of a
    float64 matrix the caller has checked (check_symmetric) or made exactly
    symmetric, with A = V diag(w) V^T; the input is not checked again. A
    LAPACK failure is raised as NumericalError naming the matrix."""
    return _lapack(np.linalg.eigh, a, name)


def eigvals_sym(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """eig_sym's eigenvalues alone, ascending, from LAPACK's values-only
    routine (eigvalsh)."""
    return _lapack(np.linalg.eigvalsh, a, name)


def _lapack(solver, a: np.ndarray, name: str):
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition of {name} failed: {exc}") from exc


def psd_tolerance(trace: float, dim: int) -> float:
    """The most negative eigenvalue a dim x dim PSD matrix of the given trace
    may show from rounding: -1e-8 * trace / dim."""
    return -1e-8 * max(trace, 0.0) / dim


def psd_root(w: np.ndarray, v: np.ndarray, trace: float, name: str) -> np.ndarray:
    """Symmetric root V diag(sqrt(w)) V^T from the eigenpairs of a matrix
    with the given trace.

    Eigenvalues below psd_tolerance trigger a warning in the computation
    log; all negative eigenvalues are clamped to zero before the root.
    """
    threshold = psd_tolerance(trace, w.size)
    low = float(w.min())
    if low < threshold:
        log.warning(
            "psd_root: eigenvalue %.6e of %s below tolerance %.6e; clamping",
            low, name, threshold,
        )
    roots = np.sqrt(np.maximum(w, 0.0))
    out = (v * roots) @ v.T
    return 0.5 * (out + out.T)


def congruence_eig(ref_root: np.ndarray, gen_cov: np.ndarray):
    """Eigenpairs of the symmetric congruence R C R, R = ref_root, C = gen_cov.

    Callers clamp negative eigenvalues to zero; clamps larger than
    1e-8 * trace are reported in the computation log. The congruence is
    symmetrized here and nothing is checked: callers pass a checked root and
    covariance of one dimension, as float64 arrays.
    """
    inner = ref_root @ gen_cov @ ref_root
    inner = 0.5 * (inner + inner.T)
    w, v = eig_sym(inner, "congruence R C R")
    worst = -float(w.min())
    if worst > 0.0 and worst > 1e-8 * abs(float(np.trace(inner))):
        log.warning("congruence_eig: clamping eigenvalue of magnitude %.6e", worst)
    return w, v

