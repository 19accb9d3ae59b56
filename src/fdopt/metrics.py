"""Normalized distance ratios: FDr per representation and the FDr^K mean.

FDr divides FD(generated, train) by FD(validation, train) in the same
feature space, so a score of 1.0 means "as far from the training set as
held-out data", and the validation split itself scores exactly 1.0. FDr^K
is the arithmetic mean over K representation spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .frechet import fd, make_reference, split_stats
from .representations import RepresentationEnsemble

__all__ = [
    "FdrRow",
    "FdrReport",
    "CALIBRATION_SIZES",
    "fd_ratio",
    "fdr_k",
    "build_report",
]

# Population sizes for the held-out calibration demo on the bundled task.
# With 2-8 feature dimensions an FD between same-size splits is sampling
# noise with only a handful of effective degrees of freedom, so the ratio
# of two independent splits does not concentrate anywhere. Keeping the
# reference split small makes its sampling error the shared noise floor of
# both the numerator and the denominator; a held-out split then scores
# close to 1 (deviation shrinks like sqrt(train_size / val_size)).
CALIBRATION_SIZES = {"train": 64, "val": 131_072, "gen": 131_072}


def fd_ratio(gen_fd: float, val_fd: float) -> float:
    if not (val_fd > 0.0):
        raise DataError(
            f"validation distance {val_fd} is not positive; cannot normalize"
        )
    return gen_fd / val_fd


def fdr_k(ratios) -> float:
    ratios = np.asarray(ratios, dtype=np.float64)
    if ratios.ndim != 1 or ratios.size == 0:
        raise DataError(f"need at least one ratio, got shape {ratios.shape}")
    return float(ratios.mean())


@dataclass(frozen=True)
class FdrRow:
    name: str
    fd_gen: float
    fd_val: float
    ratio: float


@dataclass(frozen=True)
class FdrReport:
    rows: tuple[FdrRow, ...]
    fdr_k: float


def rep_labels(ensemble: RepresentationEnsemble) -> tuple[str, ...]:
    return tuple(f"rep{i}_{s.kind}" for i, s in enumerate(ensemble.specs))


def build_report(
    ensemble: RepresentationEnsemble,
    train_stats,
    val_split,
    gen_split,
) -> FdrReport:
    """Assemble per-representation ratios against shared train statistics.

    train_stats holds one GaussianStats per representation, in ensemble
    order and in that representation's feature space. val_split and
    gen_split hold raw samples, each a matrix or an iterable of row blocks
    (a features file's, say), featurized here so that all three populations
    go through identical maps; split_stats reads each split once, a block at
    a time.
    """
    if len(train_stats) != len(ensemble):
        raise DataError(
            f"{len(train_stats)} train stats for {len(ensemble)} representations"
        )
    names = rep_labels(ensemble)
    refs = []
    for name, spec, stats in zip(names, ensemble.specs, train_stats):
        if stats.dim != spec.out_dim:
            raise DataError(
                f"{name}: train stats have dim {stats.dim}, representation "
                f"produces {spec.out_dim}"
            )
        refs.append(make_reference(stats))
    val_stats = split_stats(ensemble.specs, val_split, "val samples")
    gen_stats = split_stats(ensemble.specs, gen_split, "gen samples")
    rows = []
    for name, ref, val, gen in zip(names, refs, val_stats, gen_stats):
        fd_val = fd(ref, val)
        fd_gen = fd(ref, gen)
        # FD of a split against itself is rounding noise on the scale of the
        # traces, not exactly 0
        tol = 1e-9 * (ref.trace + float(np.trace(val.sigma)))
        if fd_val <= tol:
            raise DataError(
                f"{name}: validation split is indistinguishable from the "
                f"reference (FD = {fd_val:.3e} <= {tol:.3e}); ratio undefined"
            )
        rows.append(FdrRow(name, fd_gen, fd_val, fd_ratio(fd_gen, fd_val)))
    return FdrReport(rows=tuple(rows), fdr_k=fdr_k([row.ratio for row in rows]))
