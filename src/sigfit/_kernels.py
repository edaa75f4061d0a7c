"""Hot numerical kernels: model values and Jacobians.

Two interchangeable backends. The default compiles the loop kernels with
numba's ``@njit`` (cached to disk); setting ``SIGFIT_DISABLE_NUMBA=1`` in
the environment, or a missing numba install, selects the vectorized
pure-numpy path instead. ``BACKEND`` records which one is active. Both
implementations stay importable (``*_numpy`` names and the ``numba_impls``
dict) so tests and benchmarks can compare them directly.

Parameter packing conventions (one flat float64 vector per family):

* sum of sines   ``[A1, B1, C1, ..., An, Bn, Cn]``
* fourier        ``[a0, a1, b1, ..., an, bn, omega]``
* polynomial     ``[c_k, ..., c_1, c_0]`` descending degree (Horner order)
* weibull        ``[gamma, mu, alpha, amp]``
"""

import math
import os

import numpy as np


# One-slot memo of the latest sum-of-sines point: copies of (x, p), then
# arg = outer(x, B) + C and sin(arg). A solver evaluates a trial point and,
# once it is accepted, takes the Jacobian at that same point, so the sines
# are computed once. A hit needs bit-equal values, never mere identity: a
# caller that mutates x or p in place gets a fresh computation. The slot is
# one tuple, replaced whole, so a reader always sees a consistent entry.
_sines_memo = None


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _sines(x, p):
    """(arg, sin(arg)) at (x, p), from the memo when the values repeat."""
    global _sines_memo
    memo = _sines_memo
    if memo is not None and _same(memo[1], p) and _same(memo[0], x):
        return memo[2], memo[3]
    arg = x[:, None] * p[1::3] + p[2::3]
    s = np.sin(arg)
    _sines_memo = (np.array(x), np.array(p), arg, s)
    return arg, s


def sumsines_eval_numpy(x, p):
    return _sines(x, p)[1] @ p[0::3]


def sumsines_jac_numpy(x, p):
    n = p.shape[0] // 3
    arg, s = _sines(x, p)
    ac = p[0::3] * np.cos(arg)
    jac = np.empty((x.shape[0], 3 * n))
    jac[:, 0::3] = s
    jac[:, 1::3] = ac * x[:, None]
    jac[:, 2::3] = ac
    return jac


def fourier_eval_numpy(x, p):
    n = (p.shape[0] - 2) // 2
    w = p[-1]
    harmonics = np.outer(x, w * np.arange(1, n + 1))
    return p[0] + np.cos(harmonics) @ p[1:-1:2] + np.sin(harmonics) @ p[2:-1:2]


def fourier_jac_numpy(x, p):
    n = (p.shape[0] - 2) // 2
    w = p[-1]
    i = np.arange(1, n + 1)
    harmonics = np.outer(x, w * i)
    c = np.cos(harmonics)
    s = np.sin(harmonics)
    jac = np.empty((x.shape[0], 2 * n + 2))
    jac[:, 0] = 1.0
    jac[:, 1:-1:2] = c
    jac[:, 2:-1:2] = s
    # d/dw = sum_i i*x*(-a_i sin(iwx) + b_i cos(iwx))
    jac[:, -1] = x * ((c * (i * p[2:-1:2])).sum(axis=1) - (s * (i * p[1:-1:2])).sum(axis=1))
    return jac


def horner_eval_numpy(x, coeffs):
    return np.polyval(coeffs, x)


def weibull_eval_numpy(x, p):
    g, mu, alpha, amp = p[0], p[1], p[2], p[3]
    out = np.zeros(x.shape[0])
    z = (x - mu) / alpha
    pos = z > 0
    with np.errstate(over="ignore", under="ignore"):
        logz = np.log(z[pos])
        t = np.exp(g * logz)
        out[pos] = amp * (g / alpha) * np.exp((g - 1.0) * logz - t)
    edge = z == 0
    if edge.any():
        if g > 1.0:
            out[edge] = 0.0
        elif g == 1.0:
            out[edge] = amp / alpha
        else:
            out[edge] = np.inf
    return out


def weibull_jac_numpy(x, p):
    g, mu, alpha, amp = p[0], p[1], p[2], p[3]
    jac = np.zeros((x.shape[0], 4))
    z = (x - mu) / alpha
    pos = z > 0
    zp = z[pos]
    with np.errstate(over="ignore", under="ignore"):
        logz = np.log(zp)
        t = np.exp(g * logz)
        base = (g / alpha) * np.exp((g - 1.0) * logz - t)  # density with amp=1
        f = amp * base
        jac[pos, 0] = f * (1.0 / g + logz * (1.0 - t))
        jac[pos, 1] = f * (g * t - (g - 1.0)) / (alpha * zp)
        jac[pos, 2] = -f * g * (1.0 - t) / alpha
        jac[pos, 3] = base
    return jac


_numpy_impls = {
    "sumsines_eval": sumsines_eval_numpy,
    "sumsines_jac": sumsines_jac_numpy,
    "fourier_eval": fourier_eval_numpy,
    "fourier_jac": fourier_jac_numpy,
    "horner_eval": horner_eval_numpy,
    "weibull_eval": weibull_eval_numpy,
    "weibull_jac": weibull_jac_numpy,
}

numba_impls = {}

_disabled = os.environ.get("SIGFIT_DISABLE_NUMBA", "").strip().lower() in {"1", "true", "yes"}

if not _disabled:
    try:
        from numba import njit
    except ImportError:
        _disabled = True

if not _disabled:

    @njit(cache=True)
    def _sumsines_eval_nb(x, p):
        n = p.shape[0] // 3
        out = np.empty(x.shape[0])
        for j in range(x.shape[0]):
            acc = 0.0
            for t in range(n):
                acc += p[3 * t] * math.sin(p[3 * t + 1] * x[j] + p[3 * t + 2])
            out[j] = acc
        return out

    @njit(cache=True)
    def _sumsines_jac_nb(x, p):
        n = p.shape[0] // 3
        jac = np.empty((x.shape[0], 3 * n))
        for j in range(x.shape[0]):
            for t in range(n):
                arg = p[3 * t + 1] * x[j] + p[3 * t + 2]
                c = math.cos(arg)
                jac[j, 3 * t] = math.sin(arg)
                jac[j, 3 * t + 1] = p[3 * t] * c * x[j]
                jac[j, 3 * t + 2] = p[3 * t] * c
        return jac

    @njit(cache=True)
    def _fourier_eval_nb(x, p):
        n = (p.shape[0] - 2) // 2
        w = p[-1]
        out = np.empty(x.shape[0])
        for j in range(x.shape[0]):
            acc = p[0]
            for i in range(1, n + 1):
                arg = i * w * x[j]
                acc += p[2 * i - 1] * math.cos(arg) + p[2 * i] * math.sin(arg)
            out[j] = acc
        return out

    @njit(cache=True)
    def _fourier_jac_nb(x, p):
        n = (p.shape[0] - 2) // 2
        w = p[-1]
        jac = np.empty((x.shape[0], 2 * n + 2))
        for j in range(x.shape[0]):
            jac[j, 0] = 1.0
            dw = 0.0
            for i in range(1, n + 1):
                arg = i * w * x[j]
                c = math.cos(arg)
                s = math.sin(arg)
                jac[j, 2 * i - 1] = c
                jac[j, 2 * i] = s
                dw += i * x[j] * (p[2 * i] * c - p[2 * i - 1] * s)
            jac[j, 2 * n + 1] = dw
        return jac

    @njit(cache=True)
    def _horner_eval_nb(x, coeffs):
        out = np.empty(x.shape[0])
        for j in range(x.shape[0]):
            acc = coeffs[0]
            for k in range(1, coeffs.shape[0]):
                acc = acc * x[j] + coeffs[k]
            out[j] = acc
        return out

    @njit(cache=True)
    def _weibull_eval_nb(x, p):
        g, mu, alpha, amp = p[0], p[1], p[2], p[3]
        out = np.zeros(x.shape[0])
        for j in range(x.shape[0]):
            z = (x[j] - mu) / alpha
            if z > 0.0:
                logz = math.log(z)
                t = math.exp(g * logz)
                out[j] = amp * (g / alpha) * math.exp((g - 1.0) * logz - t)
            elif z == 0.0:
                if g > 1.0:
                    out[j] = 0.0
                elif g == 1.0:
                    out[j] = amp / alpha
                else:
                    out[j] = np.inf
        return out

    @njit(cache=True)
    def _weibull_jac_nb(x, p):
        g, mu, alpha, amp = p[0], p[1], p[2], p[3]
        jac = np.zeros((x.shape[0], 4))
        for j in range(x.shape[0]):
            z = (x[j] - mu) / alpha
            if z > 0.0:
                logz = math.log(z)
                t = math.exp(g * logz)
                base = (g / alpha) * math.exp((g - 1.0) * logz - t)
                f = amp * base
                jac[j, 0] = f * (1.0 / g + logz * (1.0 - t))
                jac[j, 1] = f * (g * t - (g - 1.0)) / (alpha * z)
                jac[j, 2] = -f * g * (1.0 - t) / alpha
                jac[j, 3] = base
        return jac

    @njit(cache=True)
    def _cholesky_solve(a, b):
        """Solve PD system a x = b in place; returns (x, ok)."""
        p = a.shape[0]
        chol = np.zeros((p, p))
        for i in range(p):
            for j in range(i + 1):
                acc = a[i, j]
                for k in range(j):
                    acc -= chol[i, k] * chol[j, k]
                if i == j:
                    if acc <= 0.0:
                        return b, False
                    chol[i, i] = math.sqrt(acc)
                else:
                    chol[i, j] = acc / chol[j, j]
        x = b.copy()
        for i in range(p):  # forward: L z = b
            acc = x[i]
            for k in range(i):
                acc -= chol[i, k] * x[k]
            x[i] = acc / chol[i, i]
        for i in range(p - 1, -1, -1):  # backward: L' x = z
            acc = x[i]
            for k in range(i + 1, p):
                acc -= chol[k, i] * x[k]
            x[i] = acc / chol[i, i]
        return x, True

    @njit(cache=True)
    def _sumsines_lm_core_nb(
        x, y, p0, max_iterations, abs_tol, rel_tol, mu0, mu_up, mu_down, mu_ceiling, min_step
    ):
        """Levenberg-Marquardt driver for sum-of-sines with unit weights.

        Mirrors the generic python driver step for step: relative damping in
        the column-equilibrated variables, accept on non-increase (mu *=
        mu_down), reject on increase (mu *= mu_up), stagnant steps count as
        zero-change iterations, convergence after two successive small
        chi-square changes. Termination codes: 0 converged, 1 max
        iterations, 3 step too small, 90 non-finite jacobian (caller
        raises), 99 solver breakdown (caller falls back to python).
        """
        p = p0.copy()
        n_par = p.shape[0]
        f = _sumsines_eval_nb(x, p)
        r = f - y
        chi2 = r @ r
        trace = np.empty(max_iterations + 1)
        trace[0] = chi2
        n_trace = 1
        mu = mu0
        small = 0
        term = 1
        iterations = 0
        for _ in range(max_iterations):
            jac = _sumsines_jac_nb(x, p)
            if not np.all(np.isfinite(jac)):
                return p, chi2, iterations, 90, trace, n_trace
            grad = jac.T @ r
            if chi2 == 0.0 or not np.any(grad != 0.0):
                term = 0
                break
            ata = jac.T @ jac
            damp = np.empty(n_par)
            dmax = 0.0
            for i in range(n_par):
                damp[i] = ata[i, i]
                if ata[i, i] > dmax:
                    dmax = ata[i, i]
            for i in range(n_par):
                if damp[i] <= 0.0:
                    damp[i] = dmax * 1e-14 + 1e-300
            accepted = False
            new_chi2 = chi2
            while True:
                a = ata.copy()
                for i in range(n_par):
                    a[i, i] += mu * damp[i]
                scale = np.empty(n_par)
                for i in range(n_par):
                    scale[i] = math.sqrt(a[i, i]) if a[i, i] > 0.0 else 1.0
                for i in range(n_par):
                    for j in range(n_par):
                        a[i, j] /= scale[i] * scale[j]
                b = np.empty(n_par)
                for i in range(n_par):
                    b[i] = -grad[i] / scale[i]
                z, ok = _cholesky_solve(a, b)
                if not ok:
                    return p, chi2, iterations, 99, trace, n_trace
                d = z / scale
                dnorm = math.sqrt(d @ d)
                if dnorm < min_step:
                    accepted = True  # stagnant: zero-change iteration
                    break
                trial = p + d
                ft = _sumsines_eval_nb(x, trial)
                rt = ft - y
                c = rt @ rt
                if np.isfinite(c) and c <= chi2:
                    mu *= mu_down
                    p = trial
                    r = rt
                    new_chi2 = c
                    accepted = True
                    break
                mu *= mu_up
                if mu > mu_ceiling:
                    term = 3
                    break
            if not accepted:
                break
            delta = chi2 - new_chi2
            chi2 = new_chi2
            iterations += 1
            trace[n_trace] = chi2
            n_trace += 1
            if delta <= abs_tol + rel_tol * chi2:
                small += 1
                if small >= 2:
                    term = 0
                    break
            else:
                small = 0
        return p, chi2, iterations, term, trace, n_trace

    numba_impls = {
        "sumsines_eval": _sumsines_eval_nb,
        "sumsines_jac": _sumsines_jac_nb,
        "fourier_eval": _fourier_eval_nb,
        "fourier_jac": _fourier_jac_nb,
        "horner_eval": _horner_eval_nb,
        "weibull_eval": _weibull_eval_nb,
        "weibull_jac": _weibull_jac_nb,
        "sumsines_lm_core": _sumsines_lm_core_nb,
    }

BACKEND = "numpy" if _disabled else "numba"
_active = _numpy_impls if _disabled else numba_impls

sumsines_eval = _active["sumsines_eval"]
sumsines_jac = _active["sumsines_jac"]
fourier_eval = _active["fourier_eval"]
fourier_jac = _active["fourier_jac"]
horner_eval = _active["horner_eval"]
weibull_eval = _active["weibull_eval"]
weibull_jac = _active["weibull_jac"]
# the compiled LM driver has no numpy twin; the generic python driver in
# sigfit.solver is its fallback path
sumsines_lm_core = numba_impls.get("sumsines_lm_core")
