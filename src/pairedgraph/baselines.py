"""Classical comparison tests: paired Hotelling's T2 and the paired t-test."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from .core import PairedSample, ValidationError

__all__ = [
    "DimensionError",
    "SingularCovarianceError",
    "ZeroVarianceError",
    "HotellingReport",
    "hotelling_paired",
    "paired_t_test",
    "bonferroni",
]

_RCOND_FLOOR = 1e-12


class DimensionError(ValidationError):
    """The test needs more pairs than dimensions (n > d)."""


class SingularCovarianceError(ValidationError):
    """The difference covariance is numerically singular."""


class ZeroVarianceError(RuntimeError):
    """The differences are constant and nonzero, so t is unbounded."""


@dataclass(frozen=True)
class HotellingReport:
    t2: float
    f_stat: float
    df1: int
    df2: int
    p: float


def hotelling_paired(sample: PairedSample) -> HotellingReport:
    """Paired Hotelling's T2 on the within-pair differences.

    T2 = n * dbar' S^-1 dbar with S the unbiased covariance of the
    differences; T2 * (n - d) / (d * (n - 1)) follows F(d, n - d).
    """
    n, d = sample.n, sample.d
    if n <= d:
        raise DimensionError(
            f"paired Hotelling's T2 needs n > d, got n={n}, d={d}"
        )
    diffs = sample.x - sample.y
    if not diffs.any():
        # Identical samples: no evidence of difference, regardless of S.
        return HotellingReport(t2=0.0, f_stat=0.0, df1=d, df2=n - d, p=1.0)
    dbar = diffs.mean(axis=0)
    cov = np.atleast_2d(np.cov(diffs, rowvar=False, ddof=1))
    svals = np.linalg.svd(cov, compute_uv=False)
    if svals[0] <= 0.0 or svals[-1] / svals[0] < _RCOND_FLOOR:
        raise SingularCovarianceError(
            "difference covariance is numerically singular "
            f"(reciprocal condition {0.0 if svals[0] <= 0 else svals[-1] / svals[0]:.2e})"
        )
    t2 = float(n * dbar @ np.linalg.solve(cov, dbar))
    f_stat = t2 * (n - d) / (d * (n - 1))
    p = float(sps.f.sf(f_stat, d, n - d))
    return HotellingReport(t2=t2, f_stat=float(f_stat), df1=d, df2=n - d, p=p)


def paired_t_test(x, y) -> tuple[float, float]:
    """Two-sided paired t-test on two 1-D samples; returns (t, p)."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValidationError("paired t-test needs samples of equal length")
    if x.size < 2:
        raise ValidationError("paired t-test needs at least 2 pairs")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValidationError("paired t-test needs finite values")
    diffs = x - y
    sd = float(diffs.std(ddof=1))
    if sd == 0.0:
        if float(diffs.mean()) == 0.0:
            return 0.0, 1.0
        raise ZeroVarianceError("differences are constant and nonzero")
    t = float(diffs.mean() / (sd / np.sqrt(diffs.size)))
    p = float(2.0 * sps.t.sf(abs(t), diffs.size - 1))
    return t, p


def bonferroni(pvals, alpha: float) -> np.ndarray:
    """Reject p_j at family level alpha iff p_j <= alpha / len(pvals)."""
    p = np.asarray(pvals, dtype=float).ravel()
    if p.size == 0:
        raise ValidationError("need at least one p-value")
    if ((p < 0) | (p > 1)).any() or not np.isfinite(p).all():
        raise ValidationError("p-values must lie in [0, 1]")
    if not 0 < alpha <= 1:
        raise ValidationError("alpha must lie in (0, 1]")
    return p <= alpha / p.size
