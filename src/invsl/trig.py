"""Entire-in-lambda trigonometric kernels and closed-form integrals.

Everything here is written in terms of quantities that are even in rho
(``cos(rho*t)`` and ``sin(rho*t)/rho``), so callers never have to worry about
the branch of ``rho = sqrt(lambda)`` or about removable singularities at
``rho = 0``.  Each function has one evaluation: `sinc` and `cos_sinc_sqrt`
their closed forms (the cell propagator's Taylor polynomials live in `ode`),
`poly_trig` a power series below |rho| length = 1 (its coefficients tabled
once per degrees, s and length) and a recurrence above.
`synth_series` sums a series over a probe family (`moments.ProbeFamily`),
in float64 where `exact_real` finds its coefficients real.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def exact_real(a):
    """`a` as a float64 array when its imaginary parts are all exactly zero,
    else as it is, so that a real problem carried in complex128 is computed
    in real arithmetic."""
    a = np.asarray(a)
    return a.real if np.iscomplexobj(a) and not np.any(a.imag) else a


def sinc(z):
    """sin(z)/z, with its limit 1 at z = 0, complex-safe."""
    z = np.asarray(z, dtype=complex)
    return np.divide(np.sin(z), z, out=np.ones_like(z), where=z != 0)


def cos_sinc_sqrt(z2):
    """cos(w) and sin(w)/w at w = sqrt(z2), in the dtype of the input.

    Both are even in w, so the branch of the root does not matter: they are
    taken in complex arithmetic and cast back to a real input's dtype.  Every
    element's value depends on that element alone.
    """
    z2 = np.asarray(z2)
    w = np.sqrt(z2.astype(complex))
    cos_w, sinc_w = np.cos(w), sinc(w)
    if not np.iscomplexobj(z2):
        cos_w, sinc_w = cos_w.real, sinc_w.real
    return cos_w, sinc_w


def overlap(mu, rho, sign, length=np.pi):
    """Integral over [0, length] of cos(mu t) cos(rho t) (sign = +1) or of
    sin(mu t) sin(rho t) (sign = -1): half the integral of
    cos((mu - rho) t) + sign cos((mu + rho) t), in sinc form."""
    mu = np.asarray(mu, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    d, s = (mu - rho) * length, (mu + rho) * length
    combine = np.add if sign > 0 else np.subtract
    return 0.5 * length * combine(sinc(d), sinc(s))


def poly_trig(degrees, rho, s, sin_l, cos_l, length=np.pi):
    """Integrals of t^m sin(rho t) (s = 1) or t^m cos(rho t) (s = 0) over
    [0, length], one row per degree m of `degrees`, given sin_l =
    sin(rho length) and cos_l = cos(rho length) in the shape of rho: the power
    series where |rho| length < 1, one recurrence elsewhere.

    The recurrence runs on every element, the small ones at rho = 1 so that
    it divides by no zero, and the series then overwrites the small ones.
    """
    small = np.abs(rho) * length < 1.0
    table = _poly_trig_recur(max(degrees), np.where(small, 1.0, rho), length, sin_l, cos_l)[1 - s]
    out = np.array([table[m] for m in degrees], dtype=complex)
    if np.any(small):
        out[:, small] = _poly_series(tuple(degrees), rho[small], length, s)
    return out


def _poly_trig_recur(m, rho, length, sin_l, cos_l):
    """The integrals S_k of t^k sin(rho t) and C_k of t^k cos(rho t) over
    [0, length], as two lists over k = 0..m, by the upward recurrence from
    sin_l = sin(rho length) and cos_l = cos(rho length).  It divides by rho,
    so it loses accuracy where |rho| length is small."""
    # S_k = (-L^k cos(rho L) + k C_{k-1})/rho ;  C_k = (L^k sin(rho L) - k S_{k-1})/rho
    s_k, c_k = [(1.0 - cos_l) / rho], [sin_l / rho]
    for k in range(1, m + 1):
        lk = length**k
        s_k.append((-lk * cos_l + k * c_k[-1]) / rho)
        c_k.append((lk * sin_l - k * s_k[-2]) / rho)
    return s_k, c_k


# _poly_series sums its terms k = 0 .. _SERIES_TERMS - 1: on |rho| length <
# 1 the first omitted term is at most 1/20! ~ 4e-19 of the first, below
# eps/8.  The recurrence takes over at |rho| length = 1, where it keeps
# about 14 digits of the integrals of degree 4 (at 0.5 it kept 13).
_SERIES_TERMS = 10


@functools.lru_cache(maxsize=64)
def _series_table(degrees, s, length):
    """The Horner coefficients 1/((2k+s)! (m+2k+s+1)) of `_poly_series`, one
    (len(degrees), 1) array per term k, and the factors L^(m+s+1) of its
    degrees m; computed once per argument tuple and returned read-only."""
    m = np.array(degrees)[:, None]
    coefs = np.stack([1.0 / (math.factorial(2 * k + s) * (m + 2 * k + s + 1))
                      for k in range(_SERIES_TERMS)])
    scale = length ** (m + s + 1)
    coefs.setflags(write=False)
    scale.setflags(write=False)
    return coefs, scale


def _poly_series(degrees, rho, length, s):
    # sum_k (-1)^k rho^(2k+s) L^(m+2k+s+1) / ((2k+s)! (m+2k+s+1)), one row
    # per degree m over rho: one Horner pass in -(rho L)^2
    coefs, scale = _series_table(degrees, s, length)
    y = -(rho * length) ** 2
    out = np.zeros((len(degrees),) + y.shape, dtype=np.result_type(y, float))
    for coef in coefs[::-1]:
        out *= y
        out += coef
    out *= rho**s
    out *= scale
    return out


def poly_poly(m, n, length=np.pi):
    """Integral of t^(m+n) over [0, length]."""
    return length ** (m + n + 1) / (m + n + 1)


@functools.cache
def _legendre_rule(order):
    """Nodes and weights of the `order`-point Gauss-Legendre rule on [-1, 1],
    computed once per order (each `leggauss` is an eigenvalue solve) and
    returned read-only, so no caller can change the shared arrays."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_nodes(a, b, panels, order=12):
    """Nodes and weights of composite Gauss-Legendre quadrature on [a, b]."""
    nodes, weights = _legendre_rule(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    x = (mid[:, None] + half * nodes[None, :]).ravel()
    w = (half * np.broadcast_to(weights, (panels, order))).ravel()
    return x, w


def synth_series(family, coeffs, t):
    """Sum of coeff * phi(t) over the functions phi of a probe family
    (`moments.ProbeFamily`), in its column order: t^m over its degrees, then
    sin(mu t) or cos(mu t) over its frequencies.

    `coeffs` may carry leading axes (one series per row, say); the last axis
    runs over the family's functions, and each series is summed in order.
    The sum is complex, or float64 when `exact_real` finds `coeffs` real.
    """
    coeffs = exact_real(coeffs)
    wave = np.sin if family.kind == "sin" else np.cos
    funcs = [t**m for m in family.degrees] + [wave(mu * t) for mu in family.mu]
    out = np.zeros(coeffs.shape[:-1] + np.shape(t), dtype=np.result_type(coeffs, float))
    for phi, c in zip(funcs, np.moveaxis(coeffs, -1, 0)):
        out += c[..., None] * phi
    return out
