"""Goodness-of-fit statistics: SSE, R-squared, adjusted R-squared, RMSE.

``gof_report`` is the one place that turns data and model values into
statistics; ``sigfit fit`` and every pipeline channel score through it.
It works on arrays, so the stitched predictions of a per-segment fit score
like one fit. RMSE uses the degrees-of-freedom denominator
sqrt(SSE / (N - P)), the curve-fitting-toolbox convention, so
SSE / RMSE^2 == N - P holds exactly on every report. R-squared may be
negative (a fit worse than the mean). An undefined statistic is NaN, never
an error: R-squared when the data are constant (SST = 0), RMSE when
N <= P, adjusted R-squared in either case. JSON has no NaN, so
``nan_to_none`` writes each one as None (``null``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import LengthMismatchError


def nan_to_none(fields):
    """``fields`` (a dict) with each NaN float as None."""
    return {k: None if isinstance(v, float) and np.isnan(v) else v for k, v in fields.items()}


@dataclass(frozen=True)
class GofReport:
    sse: float
    r_squared: float
    adjusted_r_squared: float
    rmse: float
    n_points: int
    n_params: int

    @property
    def degenerate_variance(self):
        """R-squared is undefined because SST == 0: the data are constant."""
        return bool(np.isnan(self.r_squared))

    def to_dict(self):
        return nan_to_none(asdict(self))


def gof_report(y, f, n_params):
    """Statistics of model values ``f`` against data ``y``, fitted with ``n_params``."""
    y = np.asarray(y, dtype=float)
    if len(f) != len(y):
        raise LengthMismatchError("model values and ordinate lengths differ")
    n = len(y)
    resid = y - f
    sse = float(resid @ resid)
    centered = y - np.mean(y)
    sst = float(centered @ centered)
    dof = n - n_params
    r2 = 1.0 - sse / sst if sst > 0 else np.nan
    adj = 1.0 - (1.0 - r2) * (n - 1) / (dof - 1) if dof > 1 else np.nan
    rmse = float(np.sqrt(sse / dof)) if dof > 0 else np.nan
    return GofReport(sse, r2, adj, rmse, n, n_params)
