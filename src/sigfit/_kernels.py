"""Hot numerical kernels: model values and Jacobians, vectorized numpy.

Callers look each kernel up on this module at call time, so a wrapper set
on a name (a tracer, a counting test double) sees every call. Each kernel
takes one series ``x (N,)`` and one parameter vector. The sum-of-sines pair
shares a one-slot memo of the last point's sines.

Parameter packing conventions (one flat float64 vector per family):

* sum of sines   ``[A1, B1, C1, ..., An, Bn, Cn]``
* fourier        ``[a0, a1, b1, ..., an, bn, omega]``
* polynomial     ``[c_k, ..., c_1, c_0]`` descending degree (Horner order)
* weibull        ``[gamma, mu, alpha, amp]``
"""

import numpy as np

BACKEND = "numpy"

# One-slot memo of the latest sum-of-sines point: copies of (x, p), then
# arg = x * B + C (an outer product) and sin(arg). A solver evaluates a
# trial point and, once it is accepted, takes the Jacobian at that same
# point, so the sines are computed once. A hit needs bit-equal values,
# never mere identity: a caller that mutates x or p in place gets a fresh
# computation. The slot is one tuple, replaced whole, so a reader always
# sees a consistent entry.
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


def sumsines_eval(x, p):
    return _sines(x, p)[1] @ p[0::3]


def sumsines_jac(x, p):
    arg, s = _sines(x, p)
    ac = p[0::3] * np.cos(arg)
    jac = np.empty((x.shape[0], p.shape[0]))
    jac[:, 0::3] = s
    jac[:, 1::3] = ac * x[:, None]
    jac[:, 2::3] = ac
    return jac


def fourier_eval(x, p):
    n = (p.shape[0] - 2) // 2
    w = p[-1]
    harmonics = np.outer(x, w * np.arange(1, n + 1))
    return p[0] + np.cos(harmonics) @ p[1:-1:2] + np.sin(harmonics) @ p[2:-1:2]


def fourier_jac(x, p):
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


def horner_eval(x, coeffs):
    return np.polyval(coeffs, x)


def weibull_eval(x, p):
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


def weibull_jac(x, p):
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
