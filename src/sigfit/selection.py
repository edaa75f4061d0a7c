"""Family selection by segment-wise area between sample and reference curves.

Each channel is tiled into fixed-size segments (default 20 points). Per
segment, every candidate family contributes a reference curve; the
discrete Riemann sum of the absolute gap |f - g| accumulates into a
per-family total, and families rank ascending by that total.

Segments are ``ingest.ChannelSeries`` slices of the channel. Reference-curve
construction per segment works on the segment rescaled to [0, 1] by
``ChannelSeries.on_unit_interval``, which keeps the fixed forms on a sane
scale:

* ``sinusoidal``   y = a sin(w x) + b cos(w x), fitted over w alone with
  (a, b) projected out (``_ProjectedSine``)
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
from .errors import InvalidParamsError, LengthMismatchError, SegmentTooSmallError, TooFewPointsError
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
class AreaReport:
    family: str
    per_segment: tuple
    total: float


def segment(series, segment_size=DEFAULT_SEGMENT_SIZE):
    """Tile a series into ordered ``ChannelSeries`` of ``segment_size`` points.

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
    return [ChannelSeries(x[lo:hi], y[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def area_between(seg, f_values, g_values):
    """Discrete Riemann sum of |f - g| over one segment.

    Widths are consecutive abscissa gaps; the first point uses the
    following gap so every point owns a rectangle.
    """
    f = np.asarray(f_values, dtype=float)
    g = np.asarray(g_values, dtype=float)
    n = len(seg)
    if len(f) != n or len(g) != n:
        raise LengthMismatchError("curve values must align with the segment")
    widths = np.empty(n)
    widths[1:] = np.diff(seg.abscissa)
    widths[0] = widths[1] if n > 1 else 0.0
    return float(np.abs(f - g) @ widths)


_SEGMENT_FIT_CONFIG = solver.SolverConfig(max_iterations=100)


@dataclass(frozen=True, eq=False)
class _ProjectedSine:
    """f(x) = a sin(w x) + b cos(w x) on one segment, with w the only parameter.

    At each w, (a, b) is the least-squares fit to ``y``, solved from the
    2 x 2 normal equations by Cramer's rule: variable projection (Golub &
    Pereyra, SIAM J. Numer. Anal. 10(2), 1973). The Jacobian is Kaufman's
    (BIT 15, 1975), the N x 1 column P (dPhi/dw) (a, b), where Phi = [sin(w x),
    cos(w x)] and P projects onto the complement of its span. It is exact
    where the residual vanishes, and J'F is the exact half-gradient of chi2
    at every w. A singular system (w = 0, say) gives non-finite values with
    no warning, so ``solver.fit`` rejects that trial like any other. The
    class has the surface ``solver.fit`` reads and no more.
    """

    w: float
    y: np.ndarray  # the ordinate that (a, b) fit

    n_params = 1

    def validate(self):
        """Every w is valid; a singular or non-finite one gives non-finite values."""

    def param_vector(self):
        return np.array([self.w])

    def with_vector(self, vec):
        return _ProjectedSine(float(vec[0]), self.y)

    def feasible(self, v):
        return True

    @staticmethod
    def _solve(v, s, c, gram):
        """The least-squares (a, b) of a s + b c = v, from the Gram entries of s and c."""
        ss, sc, cc, det = gram
        vs, vc = v @ s, v @ c
        return (cc * vs - sc * vc) / det, (ss * vc - sc * vs) / det

    def _fit(self, v, x):
        s, c = np.sin(v[0] * x), np.cos(v[0] * x)
        ss, sc, cc = s @ s, s @ c, c @ c
        gram = (ss, sc, cc, ss * cc - sc * sc)
        return s, c, gram, self._solve(self.y, s, c, gram)

    def eval_vec(self, v, x):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s, c, _, (a, b) = self._fit(v, x)
            return a * s + b * c

    def jac_vec(self, v, x):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s, c, gram, (a, b) = self._fit(v, x)
            d = x * (a * c - b * s)  # dPhi/dw (a, b)
            p, q = self._solve(d, s, c, gram)
            return (d - p * s - q * c)[:, None]


def _sinusoidal_reference(unit):
    """The fitted a sin(w x) + b cos(w x) on a segment rescaled to [0, 1].

    w starts at the frequency of the spectral one-term guess on 6 or more
    points and of the level sine on 3 to 5; a segment under 3 points keeps
    the level sine, unfitted.
    """
    level = models.SumOfSines(((float(np.mean(unit.ordinate)), 1e-3, np.pi / 2.0),))
    if len(unit) < 3:
        return models.evaluate(level, unit.abscissa)
    start = models.initial_guess("sum-of-sines", unit, 1) if len(unit) >= 6 else level
    model = _ProjectedSine(start.terms[0][1], np.asarray(unit.ordinate, dtype=float))
    result = solver.fit(solver.FitProblem(unit, model), _SEGMENT_FIT_CONFIG)
    return models.evaluate(result.params, unit.abscissa)


def reference_curve(candidate, seg):
    """Candidate curve values on one segment rescaled to [0, 1]."""
    unit = seg.on_unit_interval()
    if candidate == "sinusoidal":
        return _sinusoidal_reference(unit)
    if candidate == "parabolic":
        return models.evaluate(models.Parabola.seed(unit.abscissa, unit.ordinate, 1), unit.abscissa)
    if candidate in models.FAMILIES:
        result = solver.fit_series(unit, candidate, 1, _SEGMENT_FIT_CONFIG)
        return models.evaluate(result.params, unit.abscissa)
    raise InvalidParamsError(f"unknown candidate {candidate!r}")


def _reference_curves(candidate, series, segments):
    """One candidate's (segments, curves): a tail too short for it to seed joins the one before."""
    curves = [reference_curve(candidate, seg) for seg in segments[:-1]]
    try:
        return segments, curves + [reference_curve(candidate, segments[-1])]
    except TooFewPointsError:  # only the tail can be short; a lone segment fails again below
        start = sum(map(len, segments[:-2]))
    joined = ChannelSeries(series.abscissa[start:], series.ordinate[start:])
    return segments[:-2] + [joined], curves[:-1] + [reference_curve(candidate, joined)]


def rank_families(series, candidates=TABLE_CANDIDATES, segment_size=DEFAULT_SEGMENT_SIZE):
    """Rank candidate families ascending by total area between curves.

    A candidate whose per-segment fit fails is excluded with a warning (a
    tail too short for it to seed joins the segment before it instead);
    the ranking never fails as a whole. Smallest total wins.
    """
    if not candidates:
        raise InvalidParamsError("need at least one candidate family")
    tiles = segment(series, segment_size)
    results = []
    for candidate in candidates:
        try:
            segments, curves = _reference_curves(candidate, series, tiles)
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
