"""Dense symmetric eigendecomposition and the PSD primitives built on it.

Everything here is pure-function and double precision. The eigensolver is
LAPACK's symmetric driver (``np.linalg.eigh``) behind an input check, so a
run is byte-reproducible on a given machine and BLAS build. Callers use
eigenvectors only through V f(w) V^T, which does not depend on their signs.
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
    symmetric matrix, with A = V diag(w) V^T. A LAPACK failure is raised as
    NumericalError naming the matrix."""
    return eig_symmetrized(check_symmetric(a, name), name)


def eig_symmetrized(a: np.ndarray, name: str):
    """eig_sym for a float64 matrix the caller has already checked or made
    exactly symmetric; the input is not checked again."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition of {name} failed: {exc}") from exc


def sqrt_psd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition (see psd_root)."""
    a = check_symmetric(a, name)
    w, v = eig_symmetrized(a, name)
    return psd_root(w, v, float(np.trace(a)), name)


def psd_root(w: np.ndarray, v: np.ndarray, trace: float, name: str) -> np.ndarray:
    """Symmetric root V diag(sqrt(w)) V^T from the eigenpairs of a matrix
    with the given trace.

    Eigenvalues below -1e-8 * trace/dim trigger a warning in the computation
    log; all negative eigenvalues are clamped to zero before the root.
    """
    threshold = -1e-8 * max(trace, 0.0) / w.size
    low = float(w.min())
    if low < threshold:
        log.warning(
            "sqrt_psd: eigenvalue %.6e of %s below tolerance %.6e; clamping",
            low, name, threshold,
        )
    roots = np.sqrt(np.maximum(w, 0.0))
    out = (v * roots) @ v.T
    return 0.5 * (out + out.T)


def congruence_eig(ref_root: np.ndarray, gen_cov: np.ndarray):
    """Eigenpairs of the symmetric congruence R C R, R = ref_root, C = gen_cov.

    Callers clamp negative eigenvalues to zero; clamps larger than
    1e-8 * trace are reported in the computation log. The congruence is
    symmetrized here, so only its shape is checked; callers pass a checked
    root and covariance.
    """
    ref_root = np.asarray(ref_root, dtype=np.float64)
    gen_cov = np.asarray(gen_cov, dtype=np.float64)
    if ref_root.shape != gen_cov.shape:
        raise DataError(
            f"dimension mismatch: ref_root {ref_root.shape} vs gen_cov {gen_cov.shape}"
        )
    inner = ref_root @ gen_cov @ ref_root
    inner = 0.5 * (inner + inner.T)
    w, v = eig_symmetrized(inner, "congruence R C R")
    worst = -float(w.min())
    if worst > 1e-8 * abs(float(np.trace(inner))):
        log.warning("congruence_eig: clamping eigenvalue of magnitude %.6e", worst)
    return w, v


def trace_sqrt_product(ref_root: np.ndarray, gen_cov: np.ndarray) -> float:
    """Tr((R C R)^{1/2}) for R = ref_root, C = gen_cov, via eigenvalues.

    Equals Tr((R^2 C)^{1/2}) when both R^2 and C are PSD. Negative
    eigenvalues of the congruence are clamped to zero.
    """
    ref_root = check_symmetric(ref_root, "ref_root")
    gen_cov = check_symmetric(gen_cov, "gen_cov")
    w, _ = congruence_eig(ref_root, gen_cov)
    return float(np.sqrt(np.maximum(w, 0.0)).sum())
