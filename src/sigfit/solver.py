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
errors. Values and Jacobians come from the family's ``eval_vec`` and
``jac_vec`` alone.

Index-abscissa fits put column norms of J five orders of magnitude apart
(amplitude columns O(1), frequency columns O(A*x)), which makes identity
damping hover without progress. Every algorithm therefore works in the
column-equilibrated variables z = s*d, s = sqrt(diag(J'J)) (Moré's
scaling), built once per iteration by ``_equilibrate``: A = J'J/(s s'),
g = J'F/s. Gauss-Newton solves A z = -g by a rank-revealing SVD, so
deficiency surfaces as an error code instead of garbage steps; LM solves
(A + mu*I) z = -g, which is positive definite and takes an LU solve, so
damping is relative to diag(J'J); the dogleg trust region works on (A, g),
starting from radius max(1, |scaled initial params|). ``fit`` and
``fit_many`` take their LM step from the one ``_damped_step``.
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

# fixed schedule, read by fit and fit_many at call time
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
    initial: object  # a models.* parameter set


@dataclass(frozen=True)
class FitResult:
    params: object
    chi2: float
    reduced_chi2: float
    iterations: int
    termination: str
    trace: tuple = ()  # accepted chi2 per iteration, starting value included


def _equilibrate(ata, grad):
    """J'J and J'F in the column-equilibrated variables, and the scale s.

    Returns J'J / (s s'), J'F / s and s = sqrt(diag(J'J)), with the zero
    entries of s (zero Jacobian columns) set to 1. Takes one system, (P, P)
    and (P,), or a stack of them, (B, P, P) and (B, P). A step z in these
    variables is the step z / s in the parameters.
    """
    s = np.sqrt(ata.diagonal(axis1=-2, axis2=-1))
    s = np.where(s > 0, s, 1.0)
    return ata / (s[..., :, None] * s[..., None, :]), grad / s, s


def _svd_solve(a, b):
    """The least-squares solution of a z = b over a's numerical range, and a's rank."""
    u, s, vt = np.linalg.svd(a)
    tol = s[0] * len(s) * np.finfo(float).eps if s[0] > 0 else 0.0
    rank = int(np.sum(s > tol))
    if rank < len(s):  # s is descending: keep its leading part
        u, s, vt = u[:, :rank], s[:rank], vt[:rank]
    return vt.T @ ((u.T @ b) / s), rank


def _damped_step(ah, gh, mu):
    """The LM step z of (ah + mu*I) z = -gh, for one system or a stack of them.

    With mu > 0 the matrix is positive definite and takes an LU solve. A
    stacked solve fails as a whole when one slice fails, so on LinAlgError
    each system is solved alone; one that LU cannot solve (mu has underflowed
    to 0 and ah is singular) takes the SVD solve.
    """
    p = gh.shape[-1]
    damped = ah.copy()
    damped.reshape(*ah.shape[:-2], -1)[..., :: p + 1] += np.asarray(mu)[..., None]
    try:
        return np.linalg.solve(damped, -gh[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if gh.ndim == 1:
            return _svd_solve(damped, -gh)[0]
        return np.array([_damped_step(a, g, m) for a, g, m in zip(ah, gh, mu)])


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
    is always recorded. Non-finite model values at the starting point or
    at an accepted point raise NonFiniteValueError (``fit_series`` retries
    from a rescaled start); non-finite or infeasible trial points are simply
    rejected.
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

    def try_residuals(vec):
        """Residuals, or None for infeasible/non-finite trials."""
        if not feasible(vec):
            return None
        try:
            f = eval_vec(vec, x)
        except (InvalidParamsError, DomainError):
            return None
        r = f - y
        return r if np.isfinite(r).all() else None

    vec = params.param_vector()
    fvec = try_residuals(vec)
    if fvec is None:
        raise NonFiniteValueError("model is non-finite at the initial parameters")
    chi2 = float(fvec @ fvec)
    trace = [chi2]

    if p == 0:
        return FitResult(params, chi2, chi2 / n, 0, CONVERGED, tuple(trace))

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
    return FitResult(out_params, chi2, reduced, iterations, termination, tuple(trace))


def _dots(rows):
    """Row-wise ``r @ r`` of a (B, N) stack, through the same BLAS dot."""
    return (rows[:, None, :] @ rows[:, :, None])[:, 0, 0]


class _Lockstep:
    """The unfinished problems of a ``fit_many`` batch, one row each.

    ``ah``, ``gh`` and ``scale`` hold the row's equilibrated J'J and J'F
    and its scale s (``_equilibrate``) at the row's current point.
    ``trace`` holds the row's accepted chi2 values, the one after ``k``
    accepted iterations in column ``k``: it is the result's trace and the
    stall window at once.
    """

    __slots__ = (
        "index", "x", "y", "vec", "fvec", "chi2", "mu", "small", "iterations",
        "ah", "gh", "scale", "trace",
    )

    def take(self, keep):
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)[keep])


def fit_many(problems, config=None):
    """Levenberg-Marquardt over many sum-of-sines problems in lockstep.

    The problems share one point count and one term count; abscissa,
    ordinate and start are each problem's own. One round takes one
    damped trial step for every unfinished problem: the family's
    ``eval_vec`` and ``jac_vec`` take the stacked rows, and the Jacobians
    (B, N, P), normal matrices (B, P, P) and solves are stacked, while mu, the
    counters, the stall window and the termination stay per problem.
    Finished problems leave the batch. This pays off when per-call numpy
    overhead dominates, as on short segments; large fits are bound by their
    sines and gain nothing, and a batch of one runs ``fit`` itself.

    Each result equals ``fit(problem, config)`` field for field, trace
    included. Another algorithm or family, or mixed shapes, raise up front.
    Any other failure (an invalid start, too few points, a non-finite model
    or Jacobian) is answered by a plain loop of ``fit``, raising what it raises.
    """
    config = config or SolverConfig()
    config.validate()
    if config.algorithm != LEVENBERG_MARQUARDT:
        raise InvalidParamsError(
            f"fit_many runs {LEVENBERG_MARQUARDT} only, not {config.algorithm!r}"
        )
    problems = list(problems)
    for problem in problems:  # the one family whose kernels take stacked rows
        family = problem.initial.family
        if family != models.SumOfSines.family:
            raise InvalidParamsError(f"fit_many fits sum-of-sines only, not {family!r}")
    if len(problems) >= 2:  # with fewer, one round costs more than a fit step
        n = len(problems[0].series.ordinate)
        p = problems[0].initial.n_params
        if any((len(q.series.ordinate), q.initial.n_params) != (n, p) for q in problems):
            raise LengthMismatchError("fit_many needs one point count and one term count")
        results = _lockstep(problems, config, n, p)
        if results is not None:
            return results
    return [fit(problem, config) for problem in problems]


def _lockstep(problems, config, n, p):
    """The results of ``fit_many``, or None where a problem would fail."""
    try:
        for problem in problems:
            problem.initial.validate()
    except InvalidParamsError:
        return None
    if n < p or any(len(q.series.abscissa) != n for q in problems):
        return None
    window = _STALL_WINDOW
    eval_vec, jac_vec = problems[0].initial.eval_vec, problems[0].initial.jac_vec
    b = _Lockstep()
    b.index = np.arange(len(problems))
    b.x = np.array([np.asarray(q.series.abscissa, dtype=float) for q in problems]).reshape(-1, n)
    b.y = np.array([np.asarray(q.series.ordinate, dtype=float) for q in problems]).reshape(-1, n)
    b.vec = np.array([q.initial.param_vector() for q in problems]).reshape(-1, p)
    b.fvec = eval_vec(b.vec, b.x) - b.y
    if not np.isfinite(b.fvec).all():
        return None
    b.chi2 = _dots(b.fvec)
    b.mu = np.full(len(problems), _MU_INITIAL)
    b.small = np.zeros(len(problems), dtype=int)
    b.iterations = np.zeros(len(problems), dtype=int)
    # the stall check reads column `iterations - window` from the first round
    # on (and uses it from iteration `window` on), so that column must exist
    b.trace = np.zeros((len(problems), max(config.max_iterations, window) + 1))
    b.trace[:, 0] = b.chi2
    results = [None] * len(problems)

    def finish(mask, termination):
        for k in np.flatnonzero(mask).tolist():
            i = int(b.index[k])
            chi2 = float(b.chi2[k])
            reduced = chi2 / (n - p) if n > p else np.inf
            params = problems[i].initial.with_vector(b.vec[k])
            iterations = int(b.iterations[k])
            trace = tuple(b.trace[k, : iterations + 1].tolist())
            results[i] = FitResult(params, chi2, reduced, iterations, termination, trace)

    moved = True
    while b.index.size:
        # each row starts, or resumes, an iteration: the Jacobian at its
        # current point is the one fit took there. A rejected trial leaves
        # the point unchanged, so after a round with no accepted step the
        # equilibrated system is kept; after any other round the whole stack
        # takes a new one (on 3-parameter segments, picking out the rows
        # that moved costs more than the rows it saves)
        if moved:
            jac = jac_vec(b.vec, b.x)
            if not np.isfinite(jac).all():
                return None
            jac_t = jac.transpose(0, 2, 1)
            grad = (jac_t @ b.fvec[:, :, None])[:, :, 0]  # half the chi2 gradient
            b.ah, b.gh, b.scale = _equilibrate(jac_t @ jac, grad)
            # chi2 >= 0, so chi2.all() says no chi2 is zero
            if not (b.chi2.all() and grad.any(axis=1).all()):
                going = (b.chi2 != 0.0) & grad.any(axis=1)
                finish(~going, CONVERGED)
                b.take(going)
                if not b.index.size:
                    break
        rows = np.arange(b.index.size)
        d = _damped_step(b.ah, b.gh, b.mu) / b.scale
        stagnant = np.sqrt(_dots(d)) < _MIN_STEP_NORM  # zero-change iterations
        trial = b.vec + d
        ft = eval_vec(trial, b.x) - b.y
        finite = np.isfinite(ft).all(axis=1)
        if finite.all():
            c = _dots(ft)
        else:
            c = np.full(len(finite), np.inf)
            c[finite] = _dots(ft[finite])
        accept = ~stagnant & (c <= b.chi2)
        advanced = stagnant | accept
        reject = ~advanced
        b.mu = np.where(accept, b.mu * _MU_DECREASE, np.where(reject, b.mu * _MU_INCREASE, b.mu))
        b.vec = np.where(accept[:, None], trial, b.vec)
        b.fvec = np.where(accept[:, None], ft, b.fvec)
        moved = accept.any()
        new_chi2 = np.where(accept, c, b.chi2)
        small_step = b.chi2 - new_chi2 <= _CHI2_ABS_TOL + _CHI2_REL_TOL * new_chi2
        b.chi2 = new_chi2
        b.iterations += advanced
        b.small = np.where(advanced, np.where(small_step, b.small + 1, 0), b.small)
        # a row that did not advance rewrites its latest value in place
        b.trace[rows, b.iterations] = new_chi2
        # only a row that advanced this round can reach any of the three
        # counts: a row leaves the batch in the round it does
        converged = b.small >= 2
        before = b.trace[rows, b.iterations - window]  # read only where iterations >= window
        stalled = (b.iterations >= window) & (before - new_chi2 <= _STALL_REL_TOL * new_chi2)
        stuck = reject & (b.mu > _MU_CEILING)
        done = converged | stalled | stuck | (b.iterations >= config.max_iterations)
        if done.any():
            finish(converged, CONVERGED)
            finish(stalled & ~converged, STALLED)
            finish(done & ~converged & ~stalled & ~stuck, MAX_ITERATIONS)
            finish(stuck, STEP_TOO_SMALL)
            b.take(~done)
    return results


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
