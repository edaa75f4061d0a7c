"""Family selection by segment-wise area between sample and reference curves.

Each channel is tiled into fixed-size segments (default 20 points). Per
segment, every candidate family contributes a reference curve; the
discrete Riemann sum of the absolute gap |f - g| accumulates into a
per-family total, and families rank ascending by that total.

Reference-curve construction per segment works on the segment's abscissa
rescaled to [0, 1], which keeps the fixed forms on a sane scale:

* ``sinusoidal``   single-term sum-of-sines, fitted (a channel's segments
  fit in lockstep, see ``_sinusoidal_references``)
* ``parabolic``    y = 2*sqrt(a*x), scale a fitted in closed form
* any model family tag: fitted per segment by ``solver.fit_series`` with
  one term; the fixed ``exponential`` (y = e^x) and ``sine`` curves have
  nothing to fit

Absolute differences are used because real channels cross the reference
curves and signed areas would cancel. The first point of a segment has no
left neighbor, so its rectangle takes the following gap; all widths come
from the segment's own (unnormalized) abscissa.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import models, solver
from .errors import InvalidParamsError, LengthMismatchError, SegmentTooSmallError
from .ingest import ChannelSeries

log = logging.getLogger(__name__)

DEFAULT_SEGMENT_SIZE = 20

TABLE_CANDIDATES = ("sinusoidal", "exponential", "parabolic")

EQUATION_LABELS = {
    "sinusoidal": "y = sin x",
    "exponential": "y = e^x",
    "parabolic": "y^2 = 4ax",
    "sum-of-sines": "y = sum A_i sin(B_i x + C_i)",
    "fourier": "y = a0 + sum a_i cos(i w x) + b_i sin(i w x)",
    "polynomial": "y = a_1 x^k + ... + a_k x + a_{k+1}",
    "weibull": "Weibull density",
    "scaled-exponential": "y = p e^{q x}",
    "sine": "y = sin x",
}


@dataclass(frozen=True)
class Segment:
    abscissa: np.ndarray
    ordinate: np.ndarray

    @property
    def length(self):
        return len(self.ordinate)

    def unit_abscissa(self):
        x = self.abscissa
        return (x - x[0]) / (x[-1] - x[0])


@dataclass(frozen=True)
class AreaReport:
    family: str
    per_segment: tuple
    total: float


def segment(series, segment_size=DEFAULT_SEGMENT_SIZE):
    """Tile a series into ordered segments of ``segment_size`` points.

    All segments except possibly the last have exactly ``segment_size``
    points; a single trailing orphan point is merged into the final
    segment so every segment keeps at least 2 points. Concatenating the
    segments reproduces the series.
    """
    if segment_size < 2:
        raise SegmentTooSmallError(f"segment size {segment_size} < 2")
    n = len(series.ordinate)
    if n < 2:
        raise SegmentTooSmallError("series shorter than 2 points")
    x = np.asarray(series.abscissa, dtype=float)
    y = np.asarray(series.ordinate, dtype=float)
    bounds = list(range(0, n, segment_size)) + [n]
    if bounds[-1] - bounds[-2] == 1:  # orphan point joins the last full segment
        bounds.pop(-2)
    return [Segment(x[lo:hi], y[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def area_between(seg, f_values, g_values):
    """Discrete Riemann sum of |f - g| over one segment.

    Widths are consecutive abscissa gaps; the first point uses the
    following gap so every point owns a rectangle.
    """
    f = np.asarray(f_values, dtype=float)
    g = np.asarray(g_values, dtype=float)
    if len(f) != seg.length or len(g) != seg.length:
        raise LengthMismatchError("curve values must align with the segment")
    widths = np.empty(seg.length)
    widths[1:] = np.diff(seg.abscissa)
    widths[0] = widths[1] if seg.length > 1 else 0.0
    return float(np.abs(f - g) @ widths)


_SEGMENT_FIT_CONFIG = solver.SolverConfig(max_iterations=100)


def _level_sine(y):
    return models.SumOfSines(((float(np.mean(y)), 1e-3, np.pi / 2.0),))


def _sinusoidal_references(segments):
    """Fitted one-term sine curve on each segment's unit abscissa.

    Segments of 6 or more points start from the spectral guess, shorter
    ones from a level sine; segments under 3 points keep that start. The
    fits of equal-length segments run in lockstep, one ``fit_many`` per
    length, with the same results as one ``solver.fit`` each.
    """
    units = [seg.unit_abscissa() for seg in segments]
    fitted = [None] * len(segments)
    groups = {}  # segment length -> [(segment position, fit problem)]
    for k, (seg, u) in enumerate(zip(segments, units)):
        series = ChannelSeries(u, seg.ordinate)
        if seg.length >= 6:
            guess = models.initial_guess("sum-of-sines", series, 1)
        else:
            guess = _level_sine(seg.ordinate)
        if seg.length >= guess.n_params:
            groups.setdefault(seg.length, []).append((k, solver.FitProblem(series, guess)))
        else:
            fitted[k] = guess
    for group in groups.values():
        results = solver.fit_many([problem for _, problem in group], _SEGMENT_FIT_CONFIG)
        for (k, _), result in zip(group, results):
            fitted[k] = result.params
    return [models.evaluate(params, u) for params, u in zip(fitted, units)]


def reference_curve(candidate, seg):
    """Candidate curve values on one segment's unit abscissa."""
    u = seg.unit_abscissa()
    y = seg.ordinate
    if candidate == "sinusoidal":
        return _sinusoidal_references([seg])[0]
    if candidate == "parabolic":
        return models.evaluate(models.Parabola.seed(u, y, 1), u)
    if candidate in models.FAMILIES:
        result = solver.fit_series(ChannelSeries(u, y), candidate, 1, _SEGMENT_FIT_CONFIG)
        return models.evaluate(result.params, u)
    raise InvalidParamsError(f"unknown candidate {candidate!r}")


def rank_families(series, candidates=TABLE_CANDIDATES, segment_size=DEFAULT_SEGMENT_SIZE):
    """Rank candidate families ascending by total area between curves.

    A candidate whose per-segment fit fails is excluded with a warning;
    the ranking never fails as a whole. Smallest total wins.
    """
    if not candidates:
        raise InvalidParamsError("need at least one candidate family")
    segments = segment(series, segment_size)
    results = []
    for candidate in candidates:
        try:
            if candidate == "sinusoidal":  # the channel's segments fit in lockstep
                curves = _sinusoidal_references(segments)
            else:
                curves = [reference_curve(candidate, seg) for seg in segments]
            per_segment = [area_between(seg, seg.ordinate, g) for seg, g in zip(segments, curves)]
        except Exception as exc:  # noqa: BLE001 - candidate exclusion is the contract
            log.warning("candidate %r excluded: %s: %s", candidate, type(exc).__name__, exc)
            continue
        results.append((candidate, AreaReport(candidate, tuple(per_segment), sum(per_segment))))
    results.sort(key=lambda item: item[1].total)
    return results


RANKING_CSV_HEADER = "family,equation,total_area"


def ranking_csv(rankings):
    """CSV mirroring the family/equation/area layout, ascending by area."""
    lines = [RANKING_CSV_HEADER]
    for family, report in rankings:
        label = EQUATION_LABELS.get(family, family)
        lines.append(f'{family},"{label}",{report.total:.17g}')
    return "\n".join(lines) + "\n"
