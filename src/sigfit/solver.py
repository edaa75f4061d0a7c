"""Chi-square minimization: Gauss-Newton, Levenberg-Marquardt, trust region.

All three algorithms share one convergence contract: stop when the
chi-square change stays within ``_CHI2_ABS_TOL + _CHI2_REL_TOL * chi2`` on
two successive accepted iterations (``converged``). A fit whose chi-square
gained no more than ``_STALL_REL_TOL * chi2`` over the last
``_STALL_WINDOW`` accepted iterations stops as ``stalled``: such a tail
only crawls towards the iteration cap. The checks run after each accepted
iteration in that order, converged first, then stalled, then the cap
(``max-iterations``). Accepted chi-square values are
non-increasing for every algorithm (Gauss-Newton backtracks by step
halving; LM and the dogleg trust region reject ascent steps outright).
Trial steps that leave a family's feasible set or produce non-finite
values are rejected like any other failed step.

The residual convention is F = f - y, so chi2 = F.F is the sum of squared
errors. Values and Jacobians come from the model's ``eval_vec`` and
``jac_vec`` alone: any object with the family surface that ``fit`` reads
(``n_params``, ``validate``, ``param_vector``, ``with_vector``,
``feasible``, ``eval_vec``, ``jac_vec``) can be fitted, as ``selection``'s
projected sine is. ``fit`` is the one minimization loop.

Index-abscissa fits put column norms of J five orders of magnitude apart
(amplitude columns O(1), frequency columns O(A*x)), which makes identity
damping hover without progress. Every algorithm therefore works in the
column-equilibrated variables z = s*d, s = sqrt(diag(J'J)) (Moré's
scaling), built once per iteration by ``_equilibrate``: A = J'J/(s s'),
g = J'F/s. Gauss-Newton solves A z = -g by a rank-revealing SVD, so
deficiency surfaces as an error code instead of garbage steps; LM solves
(A + mu*I) z = -g, which is positive definite and takes an LU solve, so
damping is relative to diag(J'J); the dogleg trust region works on (A, g),
starting from radius max(1, |scaled initial params|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .errors import (
    DomainError,
    InvalidParamsError,
    LengthMismatchError,
    NonFiniteValueError,
    TooFewPointsError,
)

GAUSS_NEWTON = "gauss-newton"
LEVENBERG_MARQUARDT = "levenberg-marquardt"
TRUST_REGION = "trust-region"
ALGORITHMS = (GAUSS_NEWTON, LEVENBERG_MARQUARDT, TRUST_REGION)

CONVERGED = "converged"
MAX_ITERATIONS = "max-iterations"
SINGULAR_NORMAL_MATRIX = "singular-normal-matrix"
STEP_TOO_SMALL = "step-too-small"
STALLED = "stalled"

# fixed schedule, read by fit at call time
_CHI2_ABS_TOL = 1e-10
_CHI2_REL_TOL = 1e-8
_MU_INITIAL = 1e-3  # relative damping: mu multiplies diag(J'J)
_MU_INCREASE = 10.0
_MU_DECREASE = 0.1
_MIN_STEP_NORM = 1e-12
_MU_CEILING = 1e32
_GN_MAX_HALVINGS = 40
_STALL_WINDOW = 40  # accepted iterations
_STALL_REL_TOL = 1e-5  # chi2 gained over the window, relative to chi2


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str = LEVENBERG_MARQUARDT
    max_iterations: int = 400

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise InvalidParamsError(f"unknown algorithm {self.algorithm!r}")
        if self.max_iterations < 1:
            raise InvalidParamsError("max_iterations must be >= 1")


@dataclass(frozen=True)
class FitProblem:
    """A series and the parameters to start from."""

    series: object  # anything with .abscissa and .ordinate
    initial: object  # a models.* parameter set, or an object with its fit surface


@dataclass(frozen=True)
class FitResult:
    params: object
    chi2: float
    reduced_chi2: float
    iterations: int
    termination: str
    trace: tuple = ()  # accepted chi2 per iteration, starting value included
    evaluations: int = 0  # eval_vec calls: the start and every trial, rejected ones included


def _equilibrate(ata, grad):
    """J'J and J'F in the column-equilibrated variables, and the scale s.

    Returns J'J / (s s'), J'F / s and s = sqrt(diag(J'J)), with the zero
    entries of s (zero Jacobian columns) set to 1. A step z in these
    variables is the step z / s in the parameters.
    """
    s = np.sqrt(ata.diagonal())
    s = np.where(s > 0, s, 1.0)
    return ata / (s[:, None] * s[None, :]), grad / s, s


def _svd_solve(a, b):
    """The least-squares solution of a z = b over a's numerical range, and a's rank."""
    u, s, vt = np.linalg.svd(a)
    tol = s[0] * len(s) * np.finfo(float).eps if s[0] > 0 else 0.0
    rank = int(np.sum(s > tol))
    if rank < len(s):  # s is descending: keep its leading part
        u, s, vt = u[:, :rank], s[:rank], vt[:rank]
    return vt.T @ ((u.T @ b) / s), rank


def _damped_step(ah, gh, mu):
    """The LM step z of (ah + mu*I) z = -gh.

    With mu > 0 the matrix is positive definite and takes an LU solve. One
    that LU cannot solve (mu has underflowed to 0 and ah is singular) takes
    the SVD solve.
    """
    damped = ah.copy()
    damped.flat[:: len(gh) + 1] += mu
    try:
        return np.linalg.solve(damped, -gh)
    except np.linalg.LinAlgError:
        return _svd_solve(damped, -gh)[0]


def _dogleg(gn_step, grad, quad, radius):
    """Dogleg point for the quadratic model m(d) = 2 g.d + d.quad.d, |d| <= radius.

    gn_step may be None (singular normal matrix); then only the steepest
    descent leg is used.
    """
    if gn_step is not None and np.linalg.norm(gn_step) <= radius:
        return gn_step
    curvature = float(grad @ quad @ grad)
    if curvature <= 0.0:
        return -radius * grad / max(np.linalg.norm(grad), 1e-300)
    t = float(grad @ grad) / curvature
    cauchy = -t * grad
    cnorm = np.linalg.norm(cauchy)
    if gn_step is None or cnorm >= radius:
        return cauchy * (radius / max(cnorm, 1e-300))
    diff = gn_step - cauchy
    a = float(diff @ diff)
    b = 2.0 * float(cauchy @ diff)
    c = float(cauchy @ cauchy) - radius * radius
    disc = max(b * b - 4.0 * a * c, 0.0)
    s = (-b + np.sqrt(disc)) / (2.0 * a) if a > 0 else 0.0
    return cauchy + s * diff


def fit(problem, config=None):
    """Minimize chi-square over the problem's parameters.

    Accepted chi-square values are non-increasing; the termination reason
    is always recorded. A non-finite model or chi-square at the starting
    point, or a non-finite model at an accepted point, raises
    NonFiniteValueError (``fit_series`` retries from a rescaled start);
    non-finite or infeasible trial points are simply rejected.
    ``evaluations`` counts the model evaluations: the start and
    every trial, rejected ones included.
    """
    config = config or SolverConfig()
    config.validate()
    x = np.asarray(problem.series.abscissa, dtype=float)
    y = np.asarray(problem.series.ordinate, dtype=float)
    if x.shape != y.shape:
        raise LengthMismatchError("abscissa and ordinate lengths differ")
    params = problem.initial
    params.validate()
    p = params.n_params
    n = len(y)
    if n < p:
        raise TooFewPointsError(f"{n} points cannot constrain {p} parameters")
    eval_vec, jac_vec, feasible = params.eval_vec, params.jac_vec, params.feasible
    evaluations = 0

    def try_residuals(vec):
        """Residuals, or None for infeasible/non-finite trials."""
        nonlocal evaluations
        if not feasible(vec):
            return None
        evaluations += 1
        try:
            f = eval_vec(vec, x)
        except (InvalidParamsError, DomainError):
            return None
        r = f - y
        return r if np.isfinite(r).all() else None

    vec = params.param_vector()
    fvec = try_residuals(vec)
    with np.errstate(over="ignore"):
        chi2 = np.inf if fvec is None else float(fvec @ fvec)
    if not np.isfinite(chi2):
        raise NonFiniteValueError("model or chi-square is non-finite at the initial parameters")
    trace = [chi2]

    if p == 0:
        return FitResult(params, chi2, chi2 / n, 0, CONVERGED, tuple(trace), evaluations)

    termination = MAX_ITERATIONS
    iterations = 0
    small_count = 0
    window = _STALL_WINDOW
    mu = None
    radius = 0.0  # set on the first trust-region iteration

    for _ in range(config.max_iterations):
        jac = jac_vec(vec, x)
        if not np.isfinite(jac).all():
            raise NonFiniteValueError("jacobian is non-finite at the current parameters")
        grad = jac.T @ fvec  # half the chi2 gradient
        if chi2 == 0.0 or not grad.any():
            termination = CONVERGED
            break
        ah, gh, s = _equilibrate(jac.T @ jac, grad)

        accepted = None  # (vec, fvec, chi2)
        if config.algorithm == GAUSS_NEWTON:
            z, rank = _svd_solve(ah, -gh)
            if rank < p:
                termination = SINGULAR_NORMAL_MATRIX
                break
            d = z / s
            scale = 1.0
            for _h in range(_GN_MAX_HALVINGS):
                trial = vec + scale * d
                ft = try_residuals(trial)
                if ft is not None:
                    c = float(ft @ ft)
                    if c <= chi2:
                        accepted = (trial, ft, c)
                        break
                scale *= 0.5
            if accepted is None:
                termination = STEP_TOO_SMALL
                break

        elif config.algorithm == LEVENBERG_MARQUARDT:
            if mu is None:
                mu = _MU_INITIAL
            while True:
                d = _damped_step(ah, gh, mu) / s
                if math.sqrt(d @ d) < _MIN_STEP_NORM:
                    # stagnant step: counts as a zero-change iteration
                    accepted = (vec, fvec, chi2)
                    break
                trial = vec + d  # the vector evaluated is the one accepted
                ft = try_residuals(trial)
                c = float(ft @ ft) if ft is not None else np.inf
                if c <= chi2:
                    mu *= _MU_DECREASE
                    accepted = (trial, ft, c)
                    break
                mu *= _MU_INCREASE
                if mu > _MU_CEILING:
                    termination = STEP_TOO_SMALL
                    break
            if accepted is None:
                break

        else:  # trust region: dogleg in the equilibrated variables
            z, rank = _svd_solve(ah, -gh)
            gn = z if rank == p else None
            if radius == 0.0:
                radius = max(1.0, float(np.linalg.norm(vec * s)))
            while True:
                z = _dogleg(gn, gh, ah, radius)
                znorm = float(np.linalg.norm(z))
                if znorm < _MIN_STEP_NORM:
                    termination = STEP_TOO_SMALL
                    break
                trial = vec + z / s
                ft = try_residuals(trial)
                c = float(ft @ ft) if ft is not None else np.inf
                predicted = -(2.0 * float(gh @ z) + float(z @ ah @ z))
                rho = (chi2 - c) / predicted if predicted > 0 else -np.inf
                if rho < 0.25:
                    radius = 0.25 * znorm
                elif rho > 0.75 and znorm >= 0.99 * radius:
                    radius = 2.0 * radius
                if c <= chi2:
                    accepted = (trial, ft, c)
                    break
            if accepted is None:
                break

        vec, fvec, new_chi2 = accepted
        delta = chi2 - new_chi2
        chi2 = new_chi2
        iterations += 1
        trace.append(chi2)
        if delta <= _CHI2_ABS_TOL + _CHI2_REL_TOL * chi2:
            small_count += 1
            if small_count >= 2:
                termination = CONVERGED
                break
        else:
            small_count = 0
        if iterations >= window and trace[-1 - window] - chi2 <= _STALL_REL_TOL * chi2:
            termination = STALLED
            break

    out_params = params.with_vector(vec)
    reduced = chi2 / (n - p) if n > p else np.inf
    return FitResult(out_params, chi2, reduced, iterations, termination, tuple(trace), evaluations)


def fit_series(series, family, n_terms=1, config=None):
    """Seed the family on the series and fit it, retrying once on overflow.

    When the model or its Jacobian is non-finite (``NonFiniteValueError``),
    the fit runs once more from the family's ``rescaled()`` start; a second
    failure raises. ``n_terms`` is passed to ``models.initial_guess``.
    """
    guess = models.initial_guess(family, series, n_terms)
    try:
        return fit(FitProblem(series, guess), config)
    except NonFiniteValueError:
        return fit(FitProblem(series, guess.rescaled()), config)
