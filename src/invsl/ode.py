"""Cauchy problems for the regularized quasi-derivative system.

The stored antiderivative is piecewise linear, so the potential q = sigma' is
constant on every grid cell and y'' = (s_k - lambda) y holds exactly inside
cell k, with a closed-form constant-coefficient 2x2 transfer matrix (the
Pruess piecewise-constant-coefficient method).  Endpoint values come from the
monodromy matrix, the ordered product of all cell matrices, reduced pairwise
in log2(m) vectorized steps over the whole lambda batch; node-by-node
trajectories, forward from x = 0, come from a down-sweep over the levels of
that same tree.  Cost is independent of |lambda| and the Lagrange identity
(det of the monodromy = 1) holds to rounding.  On the real axis (real sigma,
every lambda of the batch real) the cell matrices and their product are
computed in float64, elsewhere in complex128; endpoint values are returned
as complex128 in both cases.

A classical RK4 path over the same piecewise-linear sigma is kept as an
independent cross-check (`rk4_node_values`); it converges at order 4 to the
exact propagator as the per-cell substep count grows.
"""

from __future__ import annotations

import numpy as np

from .errors import StepFailure
from .trig import cos_sinc_sqrt
from .types import SigmaFunction


def _cell_matrices(sigma: SigmaFunction, lam):
    """Every cell's transfer matrix [[c, sn], [msn, c]] for (y, y'), as entries.

    Returns (c, sn, msn, c): arrays of shape (m,) + lam.shape in the (m00,
    m01, m10, m11) order.  A real `lam` gives real entries from the real part
    of sigma (the caller checks that sigma is real).
    """
    h = sigma.dx
    slopes = np.diff(sigma.samples if np.iscomplexobj(lam) else sigma.samples.real) / h
    mu2 = lam[None] - slopes.reshape((-1,) + (1,) * lam.ndim)
    c, sinc = cos_sinc_sqrt(mu2 * (h * h))
    sn = h * sinc
    return c, sn, -mu2 * sn, c


# Lambdas per reduction block: the working set is (cells x block) per matrix
# entry, so memory stays bounded on dense scans of thousands of lambdas.  64
# timed fastest of 32-1400 at 256-1024 cells and 1400 lambdas (Xeon, 2 MB L2
# per core); at 512 cells a block of 256 makes one entry's array 2 MB.
_BLOCK = 64


def _matmul(a, b):
    """Entry-wise 2x2 products a @ b over stacked (m00, m01, m10, m11) arrays."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _tree(mats):
    """Levels of the ordered product T[n-1] ... T[1] T[0] along axis 0, leaves first.

    Every level but the last is padded with the identity to even length and
    its pairs multiply into the next level; the last level is the product.
    """
    levels = []
    while mats[0].shape[0] > 1:
        if mats[0].shape[0] % 2:
            one = np.ones_like(mats[0][:1])
            zero = np.zeros_like(one)
            mats = tuple(np.concatenate((x, e)) for x, e in zip(mats, (one, zero, zero, one)))
        levels.append(mats)
        mats = _matmul(tuple(x[1::2] for x in mats), tuple(x[0::2] for x in mats))
    levels.append(mats)
    return levels


def _apply(mats, vec):
    """Entry-wise 2x2 matrix-vector products over stacked arrays."""
    m00, m01, m10, m11 = mats
    y, v = vec
    return m00 * y + m01 * v, m10 * y + m11 * v


def _sweep(levels, vec):
    """Vectors at every node of the product that the tree levels hold.

    `vec` is the vector at the first node, and the later child of every pair
    starts where its earlier child takes the pair's start.  Returns the
    vectors at the start of every leaf, padding included, and the one at the
    end of the product, as (y, y') with a leading node axis.
    """
    vals = tuple(x[None] for x in vec)
    last = _apply(levels[-1], vals)
    for mats in reversed(levels[:-1]):
        vals = tuple(x[:mats[0].shape[0] // 2] for x in vals)
        moved = _apply(tuple(x[0::2] for x in mats), vals)
        vals = tuple(np.stack(pair, axis=1).reshape((-1,) + pair[0].shape[1:])
                     for pair in zip(vals, moved))
    return vals, last


def _real_axis(sigma: SigmaFunction, *arrays) -> bool:
    """True when sigma is real and no array has a nonzero imaginary part."""
    return sigma.is_real() and not any(np.any(np.imag(x)) for x in arrays)


def monodromy(sigma: SigmaFunction, lams):
    """Transfer matrix of (y, y^{[1]}) from x = 0 to x = X for a batch of lambdas.

    Returns M of shape (2, 2) + lam.shape: the solution with (y, y^{[1]})(0)
    = (a, b) ends at M @ (a, b), so the columns are C and S and det M = 1.
    The cell matrices are reduced pairwise in log2(m) vectorized steps, over
    blocks of lambdas.

    When sigma is real and no lambda has a nonzero imaginary part, the cell
    matrices and the tree are float64 (cos/cosh and sin/sinh by the sign of
    mu^2), otherwise complex128; both run the same code and M is complex128.
    """
    lam = np.atleast_1d(np.asarray(lams))
    real = _real_axis(sigma, lam)
    lam = lam.real.astype(float, copy=False) if real else lam.astype(complex, copy=False)
    flat = lam.ravel()
    out = np.empty((4, flat.size), dtype=lam.dtype)
    for start in range(0, flat.size, _BLOCK):
        mats = _tree(_cell_matrices(sigma, flat[start:start + _BLOCK]))[-1]
        out[:, start:start + _BLOCK] = [x[0] for x in mats]
    if not np.all(np.isfinite(out)):
        raise StepFailure("propagation produced non-finite values; lambda or sigma out of range")
    return _to_quasi(out.reshape((4,) + lam.shape), sigma.samples[0], sigma.samples[-1])


def node_values(sigma: SigmaFunction, lams, y0, yq0):
    """(y, y^{[1]}) at every node for a batch of lambdas, forward from x = 0.

    The solution takes the values (y0, yq0) at x = 0; they broadcast against
    the lambdas and may depend on them.  The same cell matrices as in
    `monodromy` are reduced by the same tree, whose levels a down-sweep then
    applies to the start vector: 2 log2(m) vectorized steps per block of
    lambdas.  Returns (y, yq), each of shape (m + 1,) + lam.shape: float64
    when sigma, the lambdas and the start values are real, complex128
    otherwise.
    """
    lam = np.atleast_1d(np.asarray(lams))
    y0, yq0 = (np.broadcast_to(np.asarray(x), lam.shape) for x in (y0, yq0))
    real = _real_axis(sigma, lam, y0, yq0)
    dtype = float if real else complex
    lam, y0, yq0 = (x.real.astype(float) if real else x.astype(complex) for x in (lam, y0, yq0))
    sig = sigma.samples.real if real else sigma.samples
    # y' = y^[1] + sigma y at x = 0
    flat = lam.ravel()
    start_y = y0.ravel()
    start_v = yq0.ravel() + sig[0] * start_y
    out = np.empty((2, sigma.m + 1, flat.size), dtype=dtype)
    for start in range(0, flat.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        levels = _tree(_cell_matrices(sigma, flat[block]))
        leaves, last = _sweep(levels, (start_y[block], start_v[block]))
        out[:, :-1, block] = [x[:sigma.m] for x in leaves]
        out[:, -1, block] = [x[0] for x in last]
    if not np.all(np.isfinite(out)):
        raise StepFailure("propagation produced non-finite values; lambda or sigma out of range")
    out = out.reshape(out.shape[:2] + lam.shape)
    sig = sig.reshape((-1,) + (1,) * lam.ndim)
    return out[0], out[1] - sig * out[0]


def _to_quasi(t, sig0, sig1):
    """[[1, 0], [-sig1, 1]] T [[1, 0], [sig0, 1]]: (y, y') -> (y, y^{[1]}) at both ends."""
    t00, t01, t10, t11 = t
    m00 = t00 + sig0 * t01
    return np.array([[m00, t01], [t10 + sig0 * t11 - sig1 * m00, t11 - sig1 * t01]])


def rk4_node_values(sigma: SigmaFunction, lam, y0, yq0, refine=1):
    """(y, y^{[1]}) at every node for one lambda by classical RK4, forward from x = 0.

    The quasi-derivative system is integrated with linearly interpolated sigma,
    `refine` times the substeps that |rho| h needs, independently of the cell
    matrices of `monodromy` and `node_values`; it converges to them at order 4.
    """
    lam = complex(lam)
    h = sigma.dx
    sig = sigma.samples
    slopes = np.diff(sig) / h
    # |rho| h <= 0.02 per substep, times `refine`
    nsub = max(1, int(np.ceil(np.sqrt(abs(lam)) * h / 0.02))) * max(1, int(refine))
    hs = h / nsub

    def rhs(sig_x, y, yq):
        return yq + sig_x * y, -sig_x * yq - (sig_x * sig_x + lam) * y

    ys = np.empty(sigma.m + 1, dtype=complex)
    yqs = np.empty_like(ys)
    y, yq = complex(y0), complex(yq0)
    ys[0], yqs[0] = y, yq
    for k in range(sigma.m):
        for j in range(nsub):
            s0 = sig[k] + slopes[k] * (j * hs)
            sh = sig[k] + slopes[k] * ((j + 0.5) * hs)
            s1 = sig[k] + slopes[k] * ((j + 1) * hs)
            k1 = rhs(s0, y, yq)
            k2 = rhs(sh, y + 0.5 * hs * k1[0], yq + 0.5 * hs * k1[1])
            k3 = rhs(sh, y + 0.5 * hs * k2[0], yq + 0.5 * hs * k2[1])
            k4 = rhs(s1, y + hs * k3[0], yq + hs * k3[1])
            y = y + hs / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            yq = yq + hs / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        ys[k + 1], yqs[k + 1] = y, yq
    if not (np.isfinite(y) and np.isfinite(yq)):
        raise StepFailure("RK4 propagation produced non-finite values")
    return ys, yqs


def endpoint_data(sigma: SigmaFunction, lams) -> dict:
    """Endpoint values of both fundamental solutions for a batch of lambdas.

    Returns S, S1, C, C1 at x = X (value and quasi-derivative), all read from
    one monodromy matrix.  This is the workhorse used by the
    characteristic-function layer.
    """
    m = monodromy(sigma, lams)
    return {"C": m[0, 0], "S": m[0, 1], "C1": m[1, 0], "S1": m[1, 1]}
