"""Curve model families: evaluation, analytic Jacobians, initial guesses.

Every family is a frozen dataclass exposing the same small surface:
``family`` tag, ``n_params``, ``param_vector()``, ``from_vector()`` /
``with_vector()``, ``validate()``, the raw-vector trio ``eval_vec``,
``jac_vec`` and ``feasible``, its start ``seed()``, its ``canonical()``
form and the ``rescaled()`` retry start. ``evaluate``, ``jacobian``,
``initial_guess`` and ``canonicalize`` make one method call, so solver and
pipeline code never special-case model types.

Each family states each decision once: its invariant only in
``feasible`` (``validate`` applies it to the family's own vector), and,
for the scalar-field families, its parameter layout only in the order of
its dataclass fields. The nested families (sum-of-sines, Fourier,
polynomial) flatten their terms themselves.

Canonical parameter orders (frozen; feature-vector layout depends on them):

* SumOfSines          A_1, B_1, C_1, ..., A_n, B_n, C_n
* Fourier             a0, a_1, b_1, ..., a_n, b_n, omega (omega last)
* Polynomial          coefficients in descending degree
* Weibull             gamma, mu, alpha, amp
* Weibull2            beta, lam
* Parabola            a
* ScaledExponential   scale, rate
* Sine, Exponential   no parameters
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import _kernels
from .errors import DomainError, InvalidParamsError, TooFewPointsError


class _Family:
    """What every family shares: the scalar-field layout, the invariant
    check, canonical form and the rescaled retry start.

    The defaults lay the parameters out as the dataclass fields, in
    declaration order; the nested families override ``n_params``,
    ``param_vector`` and ``from_vector``. Each family adds
    ``eval_vec(v, x)`` and ``jac_vec(v, x)``: values and Jacobian at a raw
    parameter vector ``v`` in canonical order, without a dataclass rebuild,
    and the classmethod ``seed(x, y, n_terms)``: its starting point for a
    fit to ``y`` over ``x``. ``feasible(v)`` is the family's one statement
    of its invariant, which ``rule`` puts in words: the solver uses it to
    reject trial steps without exceptions, and ``validate`` applies it to
    ``param_vector()``.
    """

    @property
    def n_params(self):
        return len(fields(self))

    def param_vector(self):
        return np.asarray([getattr(self, f.name) for f in fields(self)], dtype=float)

    @classmethod
    def from_vector(cls, vec):
        return cls(*(float(v) for v in vec))

    def with_vector(self, vec):
        return self.from_vector(vec)

    def feasible(self, v):
        return True

    def validate(self):
        """Raise InvalidParamsError unless the family's own vector is feasible."""
        if not self.feasible(self.param_vector()):
            raise InvalidParamsError(f"{self.family} requires {self.rule}")

    def canonical(self):
        """The deterministic representative of equivalent parameter sets."""
        return self

    def rescaled(self):
        """The retry start after a non-finite model: every parameter halved."""
        return self.with_vector(0.5 * self.param_vector())


def _flat_terms(terms, width, family):
    """The terms laid end to end; a flat vector cannot show a term of the wrong width."""
    if any(len(t) != width for t in terms):
        raise InvalidParamsError(f"each {family} term has {width} values")
    return [v for t in terms for v in t]


@dataclass(frozen=True)
class SumOfSines(_Family):
    """f(x) = sum_i A_i * sin(B_i * x + C_i)."""

    terms: tuple  # of (amplitude, angular_frequency, phase)

    family = "sum-of-sines"
    rule = "at least one (amplitude, frequency, phase) term"

    @property
    def n_params(self):
        return 3 * len(self.terms)

    def param_vector(self):
        return np.asarray(_flat_terms(self.terms, 3, self.family), dtype=float)

    @classmethod
    def from_vector(cls, vec):
        vec = np.asarray(vec, dtype=float)
        return cls(tuple((vec[3 * i], vec[3 * i + 1], vec[3 * i + 2]) for i in range(len(vec) // 3)))

    def feasible(self, v):
        return v.size >= 3

    def eval_vec(self, v, x):
        return _kernels.sumsines_eval(x, v)

    def jac_vec(self, v, x):
        return _kernels.sumsines_jac(x, v)

    @classmethod
    def seed(cls, x, y, n_terms):
        """Greedy tone seeding: pick the strongest residual frequency, refit
        all amplitudes and phases jointly by linear least squares, repeat.

        The first term starts at a small fraction of a period over the span:
        there sin(Bx) and cos(Bx) span nearly {x, 1}, so the term carries the
        level and linear trend the zero-mean family otherwise lacks, while the
        arc stays curved enough for its three partials to be independent.
        """
        _require_points(y, 3 * n_terms)
        span = max(float(x[-1] - x[0]), 1.0)
        columns = {}  # w -> (sin(w x), cos(w x)), built once per frequency

        def refit(freqs):
            """Least-squares sin/cos coefficients of y on ``freqs``, and the residual."""
            for w in freqs:
                if w not in columns:
                    columns[w] = (np.sin(w * x), np.cos(w * x))
            design = np.column_stack([col for w in freqs for col in columns[w]])
            coef, *_ = np.linalg.lstsq(design, y, rcond=None)
            return coef, y - design @ coef

        freqs = [0.3 / span]
        coef, residual = refit(freqs)  # current with freqs throughout
        want = max(n_terms, 2) if n_terms == 1 else n_terms
        while len(freqs) < want:
            w = _dominant_frequency(x, residual)
            if w is None:
                break
            freqs.append(w)
            coef, residual = refit(freqs)
        # cyclic reassignment: re-pick each tone against the others' residual,
        # so a slot wasted on leakage moves to a genuinely missed tone
        for _ in range(2 if len(freqs) > 2 else 0):
            for i in range(1, len(freqs)):
                w = _dominant_frequency(x, refit(freqs[:i] + freqs[i + 1 :])[1])
                if w is not None:
                    freqs[i] = w
            coef, residual = refit(freqs)
        if len(freqs) > 1:
            # the level slot must defend its place: on level-free data it is
            # better spent on one more tone
            w = _dominant_frequency(x, refit(freqs[1:])[1])
            if w is not None:
                challenger = [w] + freqs[1:]
                coef_c, residual_c = refit(challenger)
                if np.sum(residual_c**2) < np.sum(residual**2):
                    freqs, coef = challenger, coef_c
        terms = [
            (math.hypot(float(coef[2 * i]), float(coef[2 * i + 1])),
             float(w),
             math.atan2(float(coef[2 * i + 1]), float(coef[2 * i])))
            for i, w in enumerate(freqs)
        ]
        if n_terms == 1:
            # a lone term goes to whichever component dominates
            return cls((max(terms, key=lambda t: abs(t[0])),))
        scale = max(float(np.std(y)), 1.0)
        i = 0
        while len(terms) < n_terms:  # short spectra: pad with distinct frequencies
            i += 1
            terms.append((1e-3 * scale, (0.5 + 0.25 * i) * np.pi / span, 0.0))
        return cls(tuple(terms[:n_terms]))

    def canonical(self):
        """Amplitude >= 0, frequency >= 0, phase in [-pi, pi], sorted by frequency.

        Sign/phase flips and reordering leave the curve unchanged; fixing them
        makes vectors of independently fitted samples comparable.
        """
        terms = []
        for a, b, c in self.terms:
            if b < 0:
                a, b, c = -a, -b, -c
            if a < 0:
                a, c = -a, c + np.pi
            c = math.remainder(c, 2.0 * np.pi)  # wraps into [-pi, pi]
            terms.append((a, b, c))
        terms.sort(key=lambda t: (t[1], -t[0], t[2]))
        return SumOfSines(tuple(terms))

    def rescaled(self):
        """Amplitudes halved, to pull evaluation back into range."""
        return SumOfSines(tuple((0.5 * a, b, c) for a, b, c in self.terms))


@dataclass(frozen=True)
class Fourier(_Family):
    """f(x) = a0 + sum_i a_i*cos(i*omega*x) + b_i*sin(i*omega*x).

    ``omega`` is the fundamental frequency, fitted with the coefficients.
    """

    a0: float
    terms: tuple  # of (a_i, b_i)
    omega: float

    family = "fourier"
    rule = "a0, omega and at least one (a_i, b_i) term"

    @property
    def n_params(self):
        return 2 * len(self.terms) + 2

    def param_vector(self):
        flat = [self.a0] + _flat_terms(self.terms, 2, self.family) + [self.omega]
        return np.asarray(flat, dtype=float)

    @classmethod
    def from_vector(cls, vec):
        vec = np.asarray(vec, dtype=float)
        n = (len(vec) - 2) // 2
        terms = tuple((vec[2 * i + 1], vec[2 * i + 2]) for i in range(n))
        return cls(float(vec[0]), terms, float(vec[-1]))

    def feasible(self, v):
        return v.size >= 4

    def eval_vec(self, v, x):
        return _kernels.fourier_eval(x, v)

    def jac_vec(self, v, x):
        return _kernels.fourier_jac(x, v)

    @classmethod
    def seed(cls, x, y, n_terms):
        _require_points(y, 2 * n_terms + 2)
        n = len(y)
        dx = (x[-1] - x[0]) / (n - 1) if n > 1 else 1.0
        omega = 2.0 * np.pi / (n * dx)
        spectrum = np.fft.rfft(y - np.mean(y))
        terms = []
        for i in range(1, n_terms + 1):
            if i < len(spectrum):
                c = (2.0 / n) * spectrum[i] * np.exp(-1j * i * omega * x[0])
                terms.append((float(c.real), float(-c.imag)))
            else:
                terms.append((0.0, 0.0))
        return cls(float(np.mean(y)), tuple(terms), float(omega))


@dataclass(frozen=True)
class Polynomial(_Family):
    """f(x) = c_1*x^k + ... + c_k*x + c_{k+1}, coefficients descending.

    Discretized polynomial curves pair f with a band 0 <= y - f(x) <= w of
    width w; that width is documentation only here, nothing fits it.
    """

    coeffs: tuple

    family = "polynomial"
    rule = "at least one coefficient, the leading one nonzero above degree 0"

    @property
    def n_params(self):
        return len(self.coeffs)

    def param_vector(self):
        return np.asarray(self.coeffs, dtype=float)

    @classmethod
    def from_vector(cls, vec):
        return cls(tuple(float(v) for v in vec))

    def feasible(self, v):
        return v.size == 1 or v.size > 1 and v[0] != 0.0

    def eval_vec(self, v, x):
        return _kernels.horner_eval(x, v)

    def jac_vec(self, v, x):
        # row i = [x_i^k, ..., x_i, 1]
        return np.vander(x, N=v.size, increasing=False)

    @classmethod
    def seed(cls, x, y, n_terms):
        _require_points(y, n_terms + 1)
        return cls(tuple(np.polyfit(x, y, n_terms)))


@dataclass(frozen=True)
class Weibull(_Family):
    """Weibull density with location and an amplitude multiplier.

    f(x) = amp * (gamma/alpha) * z^(gamma-1) * exp(-z^gamma), z = (x-mu)/alpha,
    and 0 for x < mu. ``amp`` scales the unit-mass density up to data range.
    """

    gamma: float
    mu: float
    alpha: float
    amp: float = 1.0

    family = "weibull"
    rule = "gamma > 0 and alpha > 0"

    def feasible(self, v):
        return v[0] > 0.0 and v[2] > 0.0

    def eval_vec(self, v, x):
        return _kernels.weibull_eval(x, v)

    def jac_vec(self, v, x):
        return _kernels.weibull_jac(x, v)

    @classmethod
    def seed(cls, x, y, n_terms):
        """Peak-anchored seed: bump at the strongest crest, half-max width.

        The usual peak-function start (anchor at the smoothed maximum, width
        from the half-maximum crossings) with a gamma=2 skew default.
        """
        _require_points(y, 4)
        span = max(float(x[-1] - x[0]), 1.0)
        if len(y) >= 5:
            kernel = np.ones(5) / 5.0
            smooth = np.convolve(y, kernel, mode="same")
        else:
            smooth = y
        k = int(np.argmax(smooth))
        peak = float(smooth[k])
        half = peak / 2.0
        left = k
        while left > 0 and smooth[left] > half:
            left -= 1
        right = k
        while right < len(y) - 1 and smooth[right] > half:
            right += 1
        width = float(x[right] - x[left]) if right > left else span / 4.0
        gamma = 2.0
        alpha = max(width, 1e-9 * span, 1e-12)
        mu = float(x[k]) - alpha / np.sqrt(2.0)  # gamma=2 mode sits at mu + alpha/sqrt(2)
        peak_density = 0.8577 / alpha  # unit-mass gamma=2 mode height
        return cls(gamma, mu, alpha, peak / peak_density)


@dataclass(frozen=True)
class Weibull2(_Family):
    """Two-parameter Weibull in survival form: F(t) = exp(-(lam*t)^beta)."""

    beta: float
    lam: float

    family = "weibull2"
    rule = "beta > 0 and lam > 0"

    def feasible(self, v):
        return v[0] > 0.0 and v[1] > 0.0

    @staticmethod
    def _scaled(v, x):
        t = v[1] * x
        if np.any(t < 0):
            raise DomainError("weibull2 survival defined for t >= 0")
        return t

    def eval_vec(self, v, x):
        t = self._scaled(v, x)
        with np.errstate(over="ignore"):  # (lam*t)^beta = inf survives as exp(-inf) = 0
            return np.exp(-(t ** v[0]))

    def jac_vec(self, v, x):
        beta, lam = v[0], v[1]
        t = self._scaled(v, x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            tb = t**beta
            f = np.exp(-tb)
            jac = np.zeros((x.size, 2))
            pos = t > 0
            jac[pos, 0] = -f[pos] * tb[pos] * np.log(t[pos])
            jac[pos, 1] = -f[pos] * beta * tb[pos] / lam
        return jac

    @classmethod
    def seed(cls, x, y, n_terms):
        _require_points(y, 2)
        scale = max(float(np.mean(np.abs(x))), 1e-12)
        return cls(1.0, 1.0 / scale)


@dataclass(frozen=True)
class Parabola(_Family):
    """Real branch of y^2 = 4ax, i.e. y = 2*sqrt(a*x)."""

    a: float

    family = "parabola"

    @staticmethod
    def _arg(v, x):
        arg = 4.0 * v[0] * x
        if np.any(arg < 0):
            raise DomainError("parabola real branch needs a*x >= 0")
        return arg

    def eval_vec(self, v, x):
        return np.sqrt(self._arg(v, x))

    def jac_vec(self, v, x):
        arg = self._arg(v, x)
        with np.errstate(divide="ignore"):
            col = np.where(arg > 0, 2.0 * x / np.sqrt(np.where(arg > 0, arg, 1.0)), 0.0)
        return col[:, None]

    @classmethod
    def seed(cls, x, y, n_terms):
        """Closed-form least squares of y = 2*sqrt(a*x) over a (a >= 0)."""
        _require_points(y, 1)
        if np.any(x < 0):
            raise DomainError("parabola real branch needs x >= 0")
        denom = 2.0 * float(np.sum(x))
        s = float(np.sum(y * np.sqrt(x))) / denom if denom > 0 else 0.0
        return cls(max(s, 0.0) ** 2)


@dataclass(frozen=True)
class ScaledExponential(_Family):
    """f(x) = scale * exp(rate * x)."""

    scale: float
    rate: float

    family = "scaled-exponential"

    def eval_vec(self, v, x):
        with np.errstate(over="ignore"):
            return v[0] * np.exp(v[1] * x)

    def jac_vec(self, v, x):
        with np.errstate(over="ignore"):
            e = np.exp(v[1] * x)
        return np.column_stack([e, v[0] * x * e])

    @classmethod
    def seed(cls, x, y, n_terms):
        _require_points(y, 2)
        pos = y > 0
        if pos.sum() >= 2:
            rate, log_scale = np.polyfit(x[pos], np.log(y[pos]), 1)
            return cls(float(np.exp(log_scale)), float(rate))
        scale = float(np.mean(np.abs(y)))
        return cls(scale if scale > 0 else 1.0, 0.0)


class _FixedCurve(_Family):
    """A reference curve with nothing to fit."""

    @classmethod
    def seed(cls, x, y, n_terms):
        return cls()

    def jac_vec(self, v, x):
        return np.zeros((x.size, 0))


@dataclass(frozen=True)
class Sine(_FixedCurve):
    """Fixed reference curve y = sin(x); no parameters."""

    family = "sine"

    def eval_vec(self, v, x):
        return np.sin(x)


@dataclass(frozen=True)
class Exponential(_FixedCurve):
    """Fixed reference curve y = e^x; no parameters."""

    family = "exponential"

    def eval_vec(self, v, x):
        with np.errstate(over="ignore"):
            return np.exp(x)


FAMILIES = {
    cls.family: cls
    for cls in (
        SumOfSines,
        Fourier,
        Polynomial,
        Weibull,
        Weibull2,
        Parabola,
        ScaledExponential,
        Sine,
        Exponential,
    )
}
SEED_POINTS_PER_PARAM = 2  # every family's seed wants this many points per parameter


def _as_x(abscissa):
    x = np.asarray(abscissa, dtype=float)
    if x.size == 0:
        raise InvalidParamsError("abscissa must be non-empty")
    return x


def evaluate(params, abscissa):
    """Pointwise model values f(x_i) for one parameter set."""
    params.validate()
    return params.eval_vec(params.param_vector(), _as_x(abscissa))


def jacobian(params, abscissa):
    """N x P matrix of partials in the family's canonical parameter order."""
    params.validate()
    return params.jac_vec(params.param_vector(), _as_x(abscissa))


def _require_points(y, n_params):
    need = SEED_POINTS_PER_PARAM * n_params
    if len(y) < need:
        raise TooFewPointsError(
            f"need at least {need} points to seed {n_params} parameters, got {len(y)}"
        )


def _projection_peak(x, residual, w0, half_width):
    grid = w0 + half_width * np.linspace(-1.0, 1.0, 25)
    grid = grid[grid > 0]
    if len(grid) == 0:
        return w0
    power = np.abs(np.exp(-1j * np.outer(grid, x)) @ residual)
    return float(grid[np.argmax(power)])


def _dominant_frequency(x, residual):
    """Refined angular frequency of the strongest DFT peak, or None.

    The coarse bin comes from the magnitude spectrum (uniform spacing at
    the mean gap assumed); the frequency is then polished by maximizing
    projection power on a two-stage zoom grid. Sub-percent bin accuracy
    matters: a slightly off frequency leaves coherent leakage that can
    outrank genuinely smaller tones.
    """
    n = len(residual)
    if n < 3:
        return None
    dx = (x[-1] - x[0]) / (n - 1)
    mags = np.abs(np.fft.rfft(residual))
    k = int(np.argmax(mags[1:])) + 1  # DC carries no tone
    if mags[k] == 0.0:
        return None
    bin_width = 2.0 * np.pi / (n * dx)
    w = _projection_peak(x, residual, k * bin_width, 0.6 * bin_width)
    return _projection_peak(x, residual, w, 0.06 * bin_width)


def _family_class(family):
    try:
        return FAMILIES[family]
    except KeyError:
        raise InvalidParamsError(f"unknown model family: {family!r}") from None


def initial_guess(family, series, n_terms=1):
    """A feasible starting point aimed at the basin of a good fit.

    ``n_terms`` is the term count for sum-of-sines/fourier and the degree
    for polynomial; other families ignore it.
    """
    x = np.asarray(series.abscissa, dtype=float)
    y = np.asarray(series.ordinate, dtype=float)
    return _family_class(family).seed(x, y, n_terms)


def canonicalize(params):
    """Deterministic representative of the parameter sets giving one curve."""
    return params.canonical()


def params_to_dict(params):
    """JSON-ready dict: family tag plus the ordered coefficient array."""
    return {"family": params.family, "coefficients": [float(v) for v in params.param_vector()]}


def params_from_dict(d):
    return _family_class(d["family"]).from_vector(np.asarray(d["coefficients"], dtype=float))
