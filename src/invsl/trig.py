"""Entire-in-lambda trigonometric kernels and closed-form integrals.

Everything here is written in terms of quantities that are even in rho
(``cos(rho*t)`` and ``sin(rho*t)/rho``), so callers never have to worry about
the branch of ``rho = sqrt(lambda)`` or about removable singularities at
``rho = 0``.
"""

from __future__ import annotations

import math

import numpy as np

_SMALL = 1e-4


def sinc(z):
    """sin(z)/z, analytic continuation at z = 0, complex-safe."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < _SMALL
    zs = z[small]
    z2 = zs * zs
    out[small] = 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    zb = z[~small]
    out[~small] = np.sin(zb) / zb
    return out


# cos(w) and sin(w)/w at w = sqrt(z2) are the entire series sum (-z2)^k/(2k)!
# and sum (-z2)^k/(2k+1)!.  On |z2| <= _TAYLOR_RADIUS they are summed through
# k = _TAYLOR_DEGREE: the first omitted term, 4^-8/16! ~ 7e-19, is below eps/8,
# and the sum of the kept terms' moduli is at most cosh(1/2) ~ 1.13.
_TAYLOR_RADIUS = 1.0 / 4.0
_TAYLOR_DEGREE = 7
_COS = [(-1) ** k / math.factorial(2 * k) for k in range(_TAYLOR_DEGREE + 1)]
_SINC = [(-1) ** k / math.factorial(2 * k + 1) for k in range(_TAYLOR_DEGREE + 1)]


def cos_sinc_sqrt(z2):
    """cos(w) and sin(w)/w at w = sqrt(z2), in the dtype of the input.

    Both are entire in z2, so one code path serves float64 and complex128:
    where |z2| <= _TAYLOR_RADIUS, one Horner evaluation of the Taylor
    polynomials in z2 (no sqrt, no sign and no division).  Only the elements
    beyond that radius take the direct formula, in complex arithmetic (cos and
    sin of w from the real trig and hyperbolic parts of w), cast back to the
    input's dtype.  Every element's value depends on that element alone.
    """
    z2 = np.asarray(z2)
    if not np.iscomplexobj(z2):
        z2 = z2.astype(float, copy=False)
    # the first Horner step, z2 c7 + c6, into arrays even for a 0-d z2
    cos_w, sinc_w = (np.multiply(z2, c[-1], out=np.empty_like(z2)) for c in (_COS, _SINC))
    cos_w += _COS[-2]
    sinc_w += _SINC[-2]
    # Products are formed in place, except for a one-element input: numpy
    # rounds an in-place complex product of one element in its scalar loop,
    # without the fused multiply-add of its vector loop, apart from the same
    # element in a batch.
    prod = (np.empty_like(z2),) * 2 if z2.size == 1 else (cos_w, sinc_w)
    for a, b in zip(_COS[-3::-1], _SINC[-3::-1]):
        np.add(np.multiply(cos_w, z2, out=prod[0]), a, out=cos_w)
        np.add(np.multiply(sinc_w, z2, out=prod[1]), b, out=sinc_w)
    far = np.abs(z2) > _TAYLOR_RADIUS
    if np.any(far):
        w = np.sqrt(z2[far].astype(complex))
        cx, sx = np.cos(w.real), np.sin(w.real)
        chy, shy = np.cosh(w.imag), np.sinh(w.imag)
        cos_far, sin_far = np.empty((2,) + w.shape, dtype=complex)
        cos_far.real, cos_far.imag = cx * chy, -sx * shy
        sin_far.real, sin_far.imag = sx * chy, cx * shy
        sinc_far = sin_far / w
        if not np.iscomplexobj(z2):
            cos_far, sinc_far = cos_far.real, sinc_far.real
        cos_w[far], sinc_w[far] = cos_far, sinc_far
    return cos_w, sinc_w


def overlap_sin_sin(mu, rho, length=np.pi):
    """Integral of sin(mu t) sin(rho t) over [0, length]."""
    mu = np.asarray(mu, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    d, s = (mu - rho) * length, (mu + rho) * length
    return 0.5 * length * (sinc(d) - sinc(s))


def overlap_cos_cos(mu, rho, length=np.pi):
    """Integral of cos(mu t) cos(rho t) over [0, length]."""
    mu = np.asarray(mu, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    d, s = (mu - rho) * length, (mu + rho) * length
    return 0.5 * length * (sinc(d) + sinc(s))


def poly_sin(m, rho, length=np.pi):
    """Integral of t^m sin(rho t) over [0, length] (entire in lambda = rho^2 for odd use sites)."""
    return _poly_trig(m, rho, length, 1)


def poly_cos(m, rho, length=np.pi):
    """Integral of t^m cos(rho t) over [0, length]."""
    return _poly_trig(m, rho, length, 0)


def _poly_trig(m, rho, length, s):
    """Integral of t^m sin(rho t) (s = 1) or t^m cos(rho t) (s = 0): the power
    series where |rho| length < 0.5, the recurrence elsewhere."""
    rho = np.asarray(rho, dtype=complex)
    out = np.empty_like(rho)
    small = np.abs(rho) * length < 0.5
    if np.any(small):
        out[small] = _poly_series(m, rho[small], length, s)
    if np.any(~small):
        out[~small] = _poly_trig_recur(m, rho[~small], length)[1 - s]
    return out


def _poly_trig_recur(m, rho, length):
    # S_m = (-L^m cos(rho L) + m C_{m-1})/rho ;  C_m = (L^m sin(rho L) - m S_{m-1})/rho
    s_prev = (1.0 - np.cos(rho * length)) / rho
    c_prev = np.sin(rho * length) / rho
    if m == 0:
        return s_prev, c_prev
    for k in range(1, m + 1):
        lk = length**k
        s_k = (-lk * np.cos(rho * length) + k * c_prev) / rho
        c_k = (lk * np.sin(rho * length) - k * s_prev) / rho
        s_prev, c_prev = s_k, c_k
    return s_prev, c_prev


def _poly_series(m, rho, length, s, tol=1e-18):
    # sum_k (-1)^k rho^(2k+s) L^(m+2k+s+1) / ((2k+s)! (m+2k+s+1))
    out = np.zeros_like(rho)
    term_pow = (rho if s else np.ones_like(rho)) * length ** (m + s + 1)
    k = 0
    fact = 1.0
    while True:
        denom = fact * (m + 2 * k + s + 1)
        contrib = (-1.0) ** k * term_pow / denom
        out = out + contrib
        if np.all(np.abs(contrib) < tol * (1.0 + np.abs(out))):
            break
        k += 1
        fact *= (2 * k + s - 1) * (2 * k + s)
        term_pow = term_pow * (rho * length) ** 2
        if k > 60:
            break
    return out


def poly_poly(m, n, length=np.pi):
    """Integral of t^(m+n) over [0, length]."""
    return length ** (m + n + 1) / (m + n + 1)


def gauss_nodes(a, b, panels, order=12):
    """Nodes and weights of composite Gauss-Legendre quadrature on [a, b]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    x = (mid[:, None] + half * nodes[None, :]).ravel()
    w = (half * np.broadcast_to(weights, (panels, order))).ravel()
    return x, w


def synth_series(tags, coeffs, t):
    """Sum of coeff * basis(t) over ("sin", v), ("cos", v) and ("poly", m) tags.

    `coeffs` may carry leading axes (one series per row, say); the last axis
    runs over the tags, and each series is summed in tag order.
    """
    coeffs = np.asarray(coeffs)
    out = np.zeros(coeffs.shape[:-1] + np.shape(t), dtype=complex)
    for (kind, v), c in zip(tags, np.moveaxis(coeffs, -1, 0)):
        c = c[..., None]
        if kind == "sin":
            out += c * np.sin(v * t)
        elif kind == "cos":
            out += c * np.cos(v * t)
        elif kind == "poly":
            out += c * t**v
    return out
