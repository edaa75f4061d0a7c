"""Chi-square minimization: Gauss-Newton, Levenberg-Marquardt, trust region.

All three algorithms share one convergence contract: stop when the
chi-square change stays within ``chi2_abs_tol + chi2_rel_tol * chi2`` on
two successive accepted iterations. Accepted chi-square values are
non-increasing for every algorithm (Gauss-Newton backtracks by step
halving; LM and the dogleg trust region reject ascent steps outright).
Trial steps that leave a family's feasible set or produce non-finite
values are rejected like any other failed step.

The weighted residual convention is F_i = (f(x_i) - y_i) / sigma_i, so
chi2 = F.F and the damped normal step is d = -(J'J + mu*I)^{-1} J'F.
Every normal solve goes through one shared routine: damped systems are
positive definite by construction and use an LU solve; the undamped
Gauss-Newton system gets a rank-revealing SVD so deficiency surfaces as
an error code instead of garbage steps.

Index-abscissa fits put column norms of J five orders of magnitude apart
(amplitude columns O(1), frequency columns O(A*x)), which makes identity
damping hover without progress. ``fit`` therefore works in the
column-equilibrated variables: damping is relative to diag(J'J) and the
trust region is measured in the scaled space. ``lm_step`` keeps the
literal mu*I contract for direct use.
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
    SingularNormalMatrixError,
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

_MU_CEILING = 1e32
_GN_MAX_HALVINGS = 40


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str = LEVENBERG_MARQUARDT
    max_iterations: int = 400
    chi2_abs_tol: float = 1e-10
    chi2_rel_tol: float = 1e-8
    initial_mu: float = 1e-3  # relative damping: mu multiplies diag(J'J)
    mu_increase: float = 10.0
    mu_decrease: float = 0.1
    initial_trust_radius: float = 0.0  # 0 means auto: max(1, |initial params|)
    min_step_norm: float = 1e-12

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise InvalidParamsError(f"unknown algorithm {self.algorithm!r}")
        if self.max_iterations < 1:
            raise InvalidParamsError("max_iterations must be >= 1")
        if not (self.chi2_abs_tol > 0 and self.chi2_rel_tol > 0 and self.min_step_norm > 0):
            raise InvalidParamsError("tolerances must be positive")
        if not (self.mu_increase > 1.0 > self.mu_decrease > 0.0):
            raise InvalidParamsError("need mu_increase > 1 > mu_decrease > 0")


@dataclass(frozen=True)
class FitProblem:
    """Series, starting parameters and optional per-point sigma weights."""

    series: object  # anything with .abscissa and .ordinate
    initial: object  # a models.* parameter set
    weights: np.ndarray | None = None  # sigma_i, defaults to 1

    @property
    def family(self):
        return self.initial.family

    def sigma(self):
        n = len(self.series.ordinate)
        if self.weights is None:
            return np.ones(n)
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (n,):
            raise LengthMismatchError("weights length must match the series")
        if np.any(w <= 0):
            raise InvalidParamsError("all sigma weights must be > 0")
        return w


@dataclass(frozen=True)
class FitResult:
    params: object
    chi2: float
    reduced_chi2: float
    iterations: int
    termination: str
    trace: tuple = ()  # accepted chi2 per iteration, starting value included

    @property
    def converged(self):
        return self.termination == CONVERGED


def chi_square(series, params, weights=None):
    """Sum over points of (y_i - f(x_i))^2 / sigma_i^2; SSE when sigma = 1."""
    y = np.asarray(series.ordinate, dtype=float)
    f = models.evaluate(params, series.abscissa)
    if len(f) != len(y):
        raise LengthMismatchError("model values and ordinate lengths differ")
    r = y - f
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != y.shape:
            raise LengthMismatchError("weights length must match the series")
        r = r / w
    return float(r @ r)


def chi_square_gradient(series, params, weights=None):
    """-2 sum_i (y_i - f_i) / sigma_i^2 * df_i/dalpha, per parameter."""
    y = np.asarray(series.ordinate, dtype=float)
    f = models.evaluate(params, series.abscissa)
    if len(f) != len(y):
        raise LengthMismatchError("model values and ordinate lengths differ")
    jac = models.jacobian(params, series.abscissa)
    r = y - f
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != y.shape:
            raise LengthMismatchError("weights length must match the series")
        r = r / (w * w)
    return -2.0 * (jac.T @ r)


def _solve_normal(a, b, mu_is_zero):
    """Solve the (already damped) normal system a d = b.

    The system is symmetrically equilibrated first (unit diagonal), which
    leaves the solution unchanged but tames the huge column-norm spread of
    index-abscissa fits. Damped systems are positive definite and take the
    LU fast path; the undamped system is checked for rank via SVD, raising
    SingularNormalMatrixError on deficiency. Both LM and GN steps flow
    through here, so mu = 0 LM steps and GN steps match bit for bit.
    """
    p = a.shape[0]
    scale = np.sqrt(a.diagonal())
    if not (scale > 0).all():
        scale[~(scale > 0)] = 1.0
    ah = a / (scale[:, None] * scale)
    bh = b / scale
    if not mu_is_zero:
        try:
            return np.linalg.solve(ah, bh) / scale
        except np.linalg.LinAlgError:
            pass
    u, s, vt = np.linalg.svd(ah)
    tol = s[0] * p * np.finfo(float).eps if s[0] > 0 else 0.0
    rank = int(np.sum(s > tol))
    if rank < p:
        if mu_is_zero:
            raise SingularNormalMatrixError(f"normal matrix rank {rank} < {p} at mu=0")
        keep = s > tol
        return (vt[keep].T @ ((u[:, keep].T @ bh) / s[keep])) / scale
    return (vt.T @ ((u.T @ bh) / s)) / scale


def lm_step(jacobian, residuals, mu):
    """Solve (J'J + mu*I) d = -J'F for the damped trial step d.

    mu = 0 is exactly the Gauss-Newton step; rank deficiency there raises
    SingularNormalMatrixError so LM callers can raise mu instead of
    crashing.
    """
    jac = np.asarray(jacobian, dtype=float)
    f = np.asarray(residuals, dtype=float)
    if jac.ndim != 2 or jac.shape[0] != f.shape[0]:
        raise LengthMismatchError("jacobian rows must match residual length")
    if mu < 0:
        raise InvalidParamsError("mu must be >= 0")
    p = jac.shape[1]
    if p == 0:
        return np.zeros(0)
    a = jac.T @ jac
    if mu > 0:
        a = a + mu * np.eye(p)
    return _solve_normal(a, -(jac.T @ f), mu == 0)


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
    at an accepted point raise NonFiniteValueError (retry with a rescaled
    guess); non-finite or infeasible trial points are simply rejected.
    """
    config = config or SolverConfig()
    config.validate()
    x = np.asarray(problem.series.abscissa, dtype=float)
    y = np.asarray(problem.series.ordinate, dtype=float)
    sigma = problem.sigma()
    unit_sigma = problem.weights is None
    params = problem.initial
    params.validate()
    p = params.n_params
    n = len(y)
    if n < p:
        raise TooFewPointsError(f"{n} points cannot constrain {p} parameters")
    eval_vec, jac_vec, feasible = params.eval_vec, params.jac_vec, params.feasible

    def try_residuals(vec):
        """Weighted residuals, or None for infeasible/non-finite trials."""
        if not feasible(vec):
            return None
        try:
            f = eval_vec(vec, x)
        except (InvalidParamsError, DomainError):
            return None
        r = f - y if unit_sigma else (f - y) / sigma
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
    mu = None
    radius = config.initial_trust_radius if config.initial_trust_radius > 0 else 0.0

    for _ in range(config.max_iterations):
        jac = jac_vec(vec, x)
        if not unit_sigma:
            jac = jac / sigma[:, None]
        if not np.isfinite(jac).all():
            raise NonFiniteValueError("jacobian is non-finite at the current parameters")
        grad = jac.T @ fvec  # half the chi2 gradient
        if chi2 == 0.0 or not grad.any():
            termination = CONVERGED
            break
        ata = jac.T @ jac

        accepted = None  # (vec, fvec, chi2)
        if config.algorithm == GAUSS_NEWTON:
            try:
                d = _solve_normal(ata, -grad, True)
            except SingularNormalMatrixError:
                termination = SINGULAR_NORMAL_MATRIX
                break
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
                mu = config.initial_mu  # relative to diag(J'J), i.e. mu*I when equilibrated
            damp = ata.diagonal().copy()
            if not (damp > 0).all():
                damp[~(damp > 0)] = float(damp.max()) * 1e-14 + 1e-300
            neg_grad = -grad
            while True:
                damped = ata.copy()
                damped.reshape(-1)[:: p + 1] += mu * damp  # the diagonal, in place
                d = _solve_normal(damped, neg_grad, False)
                if math.sqrt(d @ d) < config.min_step_norm:
                    # stagnant step: counts as a zero-change iteration
                    accepted = (vec, fvec, chi2)
                    break
                trial = vec + d  # the vector evaluated is the one accepted
                ft = try_residuals(trial)
                c = float(ft @ ft) if ft is not None else np.inf
                if c <= chi2:
                    mu *= config.mu_decrease
                    accepted = (trial, ft, c)
                    break
                mu *= config.mu_increase
                if mu > _MU_CEILING:
                    termination = STEP_TOO_SMALL
                    break
            if accepted is None:
                break

        else:  # trust region: dogleg in the equilibrated variables
            # per-parameter scale: unit-diagonal (equilibrated) variables tame
            # the column-norm spread of index-abscissa fits
            dscale = np.sqrt(np.diag(ata))
            dscale[~(dscale > 0)] = 1.0
            ah = ata / np.outer(dscale, dscale)
            gh = grad / dscale
            try:
                gn = _solve_normal(ah, -gh, True)
            except SingularNormalMatrixError:
                gn = None
            if radius == 0.0:
                radius = max(1.0, float(np.linalg.norm(vec * dscale)))
            while True:
                z = _dogleg(gn, gh, ah, radius)
                znorm = float(np.linalg.norm(z))
                if znorm < config.min_step_norm:
                    termination = STEP_TOO_SMALL
                    break
                trial = vec + z / dscale
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
        if delta <= config.chi2_abs_tol + config.chi2_rel_tol * chi2:
            small_count += 1
            if small_count >= 2:
                termination = CONVERGED
                break
        else:
            small_count = 0

    out_params = params.with_vector(vec)
    reduced = chi2 / (n - p) if n > p else np.inf
    return FitResult(out_params, chi2, reduced, iterations, termination, tuple(trace))


def fit_series(series, family, n_terms=1, config=None, weights=None):
    """Convenience wrapper: initial guess + fit in one call."""
    guess = models.initial_guess(family, series, n_terms)
    return fit(FitProblem(series, guess, weights), config)
