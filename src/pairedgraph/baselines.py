"""The classical comparison test: paired Hotelling's T2."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import fdtrc

from .core import PairedSample, ValidationError

__all__ = [
    "DimensionError",
    "SingularCovarianceError",
    "HotellingReport",
    "hotelling_paired",
]

_RCOND_FLOOR = 1e-12


class DimensionError(ValidationError):
    """The test needs more pairs than dimensions (n > d)."""


class SingularCovarianceError(ValidationError):
    """The difference covariance is numerically singular."""


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
    # fdtrc is the ufunc behind scipy.stats' f.sf; it is NaN below the
    # support, where the survival function is 1
    p = float(fdtrc(d, n - d, f_stat)) if f_stat > 0 else 1.0
    return HotellingReport(t2=t2, f_stat=float(f_stat), df1=d, df2=n - d, p=p)

