"""Goodness-of-fit statistics: SSE, R-squared, adjusted R-squared, RMSE.

RMSE uses the degrees-of-freedom denominator sqrt(SSE / (N - P)), the
curve-fitting-toolbox convention, so SSE / RMSE^2 == N - P holds exactly
on every report. R-squared may be negative (a fit worse than the mean);
constant data makes it undefined, which is reported as a flag rather than
an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .errors import LengthMismatchError, TooFewPointsError


@dataclass(frozen=True)
class GofReport:
    sse: float
    r_squared: float
    adjusted_r_squared: float
    rmse: float
    n_points: int
    n_params: int
    degenerate_variance: bool = False  # SST == 0: R-squared undefined


def fit_statistics(y, f, n_params):
    """(SSE, SST, R-squared, RMSE) of model values ``f`` against data ``y``.

    Array-level, so stitched per-part predictions score like one fit.
    R-squared is NaN when SST is 0; RMSE is NaN when N <= ``n_params``.
    """
    resid = y - f
    sse = float(resid @ resid)
    centered = y - np.mean(y)
    sst = float(centered @ centered)
    dof = len(y) - n_params
    rmse = float(np.sqrt(sse / dof)) if dof > 0 else np.nan
    r2 = 1.0 - sse / sst if sst > 0 else np.nan
    return sse, sst, r2, rmse


def gof_report(series, params):
    """Statistics of one fitted parameter set against its series."""
    y = np.asarray(series.ordinate, dtype=float)
    f = models.evaluate(params, series.abscissa)
    if len(f) != len(y):
        raise LengthMismatchError("model values and ordinate lengths differ")
    n = len(y)
    p = params.n_params
    if n <= p:
        raise TooFewPointsError(f"need more points ({n}) than parameters ({p})")
    sse, sst, r2, rmse = fit_statistics(y, f, p)
    if sst == 0.0:
        return GofReport(sse, np.nan, np.nan, rmse, n, p, degenerate_variance=True)
    if n - p - 1 > 0:
        adj = 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)
    else:
        adj = np.nan
    return GofReport(sse, r2, adj, rmse, n, p)
