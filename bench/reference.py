"""Independent reference values for the benchmark's output checks.

Nothing here calls into `invsl`.  The propagator multiplies the exact
constant-coefficient transfer matrices of all cells in real arithmetic and
reduces their product pairwise (log2 m vectorized steps), so it shares no
code and no evaluation order with the package's cell-by-cell loop.  Roots are
found by plain bisection on the signed-sqrt axis from a scan grid that is
offset from the package's own, so a root lost by the package shows up as an
index shift here.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 192  # lambdas per vectorized block; keeps temporaries near 10 MB


def _monodromy(slopes: np.ndarray, h: float, lam: np.ndarray):
    """Entries (a, b, c, d) of the product of all cell matrices acting on (y, y')."""
    mu2 = lam[:, None] - slopes[None, :]
    w = np.sqrt(np.abs(mu2)) * h
    osc = mu2 >= 0
    a = np.where(osc, np.cos(w), np.cosh(w))
    s = np.where(osc, np.sin(w), np.sinh(w))
    tiny = w < 1e-8
    b = np.where(tiny, h, s * h / np.where(tiny, 1.0, w))
    c = -mu2 * b
    d = a.copy()
    while a.shape[1] > 1:
        if a.shape[1] % 2:
            one = np.ones((a.shape[0], 1))
            zero = np.zeros((a.shape[0], 1))
            a, b = np.hstack([a, one]), np.hstack([b, zero])
            c, d = np.hstack([c, zero]), np.hstack([d, one])
        a0, b0, c0, d0 = a[:, 0::2], b[:, 0::2], c[:, 0::2], d[:, 0::2]
        a1, b1, c1, d1 = a[:, 1::2], b[:, 1::2], c[:, 1::2], d[:, 1::2]
        a, b, c, d = (a1 * a0 + b1 * c0, a1 * b0 + b1 * d0,
                      c1 * a0 + d1 * c0, c1 * b0 + d1 * d0)
    return a[:, 0], b[:, 0], c[:, 0], d[:, 0]


def _polyval(coeffs, lam):
    out = np.zeros_like(lam)
    for c in coeffs[::-1]:
        out = out * lam + c
    return out


class Problem:
    """Real potential antiderivative on [0, X] with a polynomial left condition
    (y, y^[1])(0) = (p1, -p2) and the right condition r1 y^[1](X) + r2 y(X) = 0.

    p1, p2, r1 and r2 are coefficient lists in ascending order; constants are
    one-element lists.
    """

    def __init__(self, samples, interval, p1, p2, r1, r2):
        samples = np.asarray(samples, dtype=float)
        self.sig0, self.sig_end = float(samples[0]), float(samples[-1])
        self.h = interval / (samples.size - 1)
        self.slopes = np.diff(samples) / self.h
        self.p1, self.p2 = (np.asarray(v, dtype=float) for v in (p1, p2))
        self.r1, self.r2 = (np.asarray(v, dtype=float) for v in (r1, r2))

    def end_values(self, lam):
        """(y(X), y^[1](X)) of the left solution for real lambdas."""
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        y, yq = np.empty_like(lam), np.empty_like(lam)
        for lo in range(0, lam.size, _CHUNK):
            sl = slice(lo, lo + _CHUNK)
            part = lam[sl]
            y0 = _polyval(self.p1, part)
            v0 = -_polyval(self.p2, part) + self.sig0 * y0
            a, b, c, d = _monodromy(self.slopes, self.h, part)
            y[sl] = a * y0 + b * v0
            yq[sl] = (c * y0 + d * v0) - self.sig_end * y[sl]
        return y, yq

    def delta(self, lam):
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        y, yq = self.end_values(lam)
        return _polyval(self.r1, lam) * yq + _polyval(self.r2, lam) * y


def eigenvalues(delta, count: int, s_lo: float, s_hi: float,
                s_step: float = 0.04) -> np.ndarray:
    """First `count` real zeros of `delta` above lambda = -s_lo**2.

    The scan runs on s with lambda = s|s| over [s_lo, s_hi], extending the
    upper end until `count` sign changes are bracketed; the brackets are then
    bisected to rounding level.
    """
    while True:
        s = np.arange(s_lo, s_hi, s_step) + 0.37 * s_step
        fv = delta(s * np.abs(s))
        idx = np.nonzero(np.signbit(fv[:-1]) != np.signbit(fv[1:]))[0]
        if idx.size >= count:
            break
        s_hi += 0.5 * (s_hi - s_lo)
    idx = idx[:count]
    return bisect(delta, s[idx], s[idx + 1])


def bisect(delta, a, b) -> np.ndarray:
    """Zeros bracketed by the signed-sqrt intervals [a, b], as lambdas."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    fa, fb = delta(a * np.abs(a)), delta(b * np.abs(b))
    if np.any(np.signbit(fa) == np.signbit(fb)):
        raise ValueError("an interval does not bracket a sign change")
    for _ in range(64):
        m = 0.5 * (a + b)
        if np.all(np.abs(b - a) <= 4e-16 * np.maximum(np.abs(m), 1.0)):
            break
        fm = delta(m * np.abs(m))
        left = np.signbit(fm) == np.signbit(fa)
        a = np.where(left, m, a)
        fa = np.where(left, fm, fa)
        b = np.where(left, b, m)
    m = 0.5 * (a + b)
    return m * np.abs(m)


def richardson(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """Continuum limit of eigenvalues computed on m and 2m cells (error O(h^2))."""
    return (4.0 * fine - coarse) / 3.0


def _simpson(values, length=np.pi):
    n = values.shape[-1] - 1
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return (values * w).sum(axis=-1) * length / (3 * n)


def deltas_from_kernels(j, g, a, p: int, lam):
    """(Delta0, Delta1) at real lambda > 0 from Cauchy data {J, G, A} on (0, pi).

    The representation is the package's transformation-operator form; the
    integrals use Simpson's rule (the grid must have an even cell count).
    """
    lam = np.asarray(lam, dtype=float)
    rho = np.sqrt(lam)[:, None]
    t = np.linspace(0.0, np.pi, j.size)[None, :]
    sin_over, cos_t = np.sin(rho * t) / rho, np.cos(rho * t)
    sin_pi, cos_pi = np.sin(rho[:, 0] * np.pi) / rho[:, 0], np.cos(rho[:, 0] * np.pi)
    odd, even = _polyval(a[0::2], lam), _polyval(a[1::2], lam)
    if p % 2:
        n1 = (p - 1) // 2
        d1 = lam ** (n1 + 1) * (-sin_pi + _simpson(j * sin_over)) + odd
        d0 = lam**n1 * (cos_pi + _simpson(g * cos_t)) + even
    else:
        n2 = p // 2
        d1 = lam**n2 * (-cos_pi + _simpson(j * cos_t)) + odd
        d0 = lam**n2 * (-sin_pi + _simpson(g * sin_over)) + even
    return d0, d1


def rel_l2(a, b, length=np.pi) -> float:
    """Relative L2 distance of two uniform-grid functions (trapezoid weights)."""
    a, b = np.asarray(a), np.asarray(b)
    w = np.full(a.size, length / (a.size - 1))
    w[0] = w[-1] = 0.5 * w[0]
    num = np.sqrt(np.sum(w * np.abs(a - b) ** 2))
    return float(num / max(np.sqrt(np.sum(w * np.abs(b) ** 2)), 1e-300))
