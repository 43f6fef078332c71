"""Cauchy problems for the regularized quasi-derivative system.

The stored antiderivative is piecewise linear, so the potential q = sigma' is
constant on every grid cell and y'' = (s_k - lambda) y holds exactly inside
cell k, with a closed-form constant-coefficient 2x2 transfer matrix (the
Pruess piecewise-constant-coefficient method).  Its entries cos(w) and
sin(w)/w at w^2 = (lambda - s_k) h^2 are entire in w^2, so no branch of the
square root enters.  Where every cell of a lambda is small they are Taylor
polynomials in w^2, expanded in powers of lambda h^2, so that the cells of a
block of lambdas are one matrix product (`_cell_writer`); elsewhere they are
`cos_sinc_sqrt` cell by cell.  Endpoint values come from the monodromy
matrix, the ordered product of all cell matrices, reduced pairwise in
log2(m) vectorized steps over the whole lambda batch; node-by-node trajectories, forward from x = 0, come from
a down-sweep over the levels of that same tree, which all blocks of lambdas
write in place into one workspace per call.  The cells are stored in the
tree's leaf order (`_leaf_order`, bit reversal for m a power of two): every
level's pairs are its first half and its second half, contiguous rows, and
an odd level carries its last factor up unchanged, as an FFT stores its
input for contiguous butterflies.  The pairs and their association are
those of adjacent cells, so the order changes no result.  Cost is
independent of |lambda| and the Lagrange identity (det of the monodromy = 1)
holds to rounding.  On the real axis (real sigma, every lambda of the batch
real) the cell matrices and their product are computed in float64,
elsewhere in complex128; endpoint values are returned as complex128 in both
cases.

A classical RK4 path over the same piecewise-linear sigma is kept as an
independent cross-check (`rk4_node_values`); it converges at order 4 to the
exact propagator as the per-cell substep count grows.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import StepFailure
from .trig import _COS, _SINC, _TAYLOR_DEGREE, _TAYLOR_RADIUS, cos_sinc_sqrt
from .types import SigmaFunction


# Inside cos_sinc_sqrt's Taylor radius the entries c = cos(w), sn = h sin(w)/w
# and msn = -(z2 / h) sin(w)/w of a cell matrix are polynomials in z2 =
# (lambda - s) h^2 = x - t, x = lambda h^2 and t = s h^2, of degree D, D and
# D + 1 (D = _TAYLOR_DEGREE, the truncation of cos_sinc_sqrt).  Expanded,
# each is sum_ij (-t)^i _SHIFT[entry, i, j] x^j at h = 1: _SHIFT[:, i, j]
# holds the coefficients of z2^(i + j) times binomial(i + j, j).  Where |x| +
# |t| <= _TAYLOR_RADIUS the moduli of the expanded terms sum to at most
# cosh(1/2) times the entry's scale (1, h and (|x| + |t|) / h), so the
# expanded sums are as accurate as the polynomials in z2, to a few roundings
# of that scale.
_POWERS = _TAYLOR_DEGREE + 2
_SHIFT = np.array([[[math.comb(i + j, j) * a[i + j] if i + j < _POWERS else 0.0
                     for j in range(_POWERS)] for i in range(_POWERS)]
                   for a in (_COS + [0.0], _SINC + [0.0], [0.0] + [-b for b in _SINC])])


def _real_view(a):
    """The float64 view of a complex128 array (real and imaginary parts side
    by side in its last axis), or the float64 array itself."""
    return a.view(float) if np.iscomplexobj(a) else a


def _cell_writer(slopes, h):
    """write(lam, out): the transfer matrix [[c, sn], [msn, c]] of (y, y') over
    every cell of these slopes, for a 1-D `lam`, into `out`, shape (4, cells,
    lambdas), as its (m00, m01, m10, m11) entries.

    A lambda with |lambda| h^2 + max |s| h^2 <= _TAYLOR_RADIUS puts every cell
    inside the radius of cos_sinc_sqrt and takes the expanded polynomials
    (`taylor`): _SHIFT times the powers of x gives the polynomials in -t of
    every lambda, and one matrix product with the powers of -t, computed once
    here, their values at every cell.  Both products are real: complex
    powers of x and polynomials enter as their float64 views, complex slopes
    as the real and the imaginary parts of the powers of -t, the latter
    times i times the polynomials.  The other lambdas take cos_sinc_sqrt on
    every cell (`direct`).  Either way the cells of a lambda depend on that
    lambda and the slopes alone; a single lambda is padded to two columns
    for that, since BLAS rounds a matrix-vector product otherwise than the
    matrix product whose column it would be.
    """
    t = slopes * (h * h)
    near_limit = (_TAYLOR_RADIUS - np.max(np.abs(t))) / (h * h)
    neg_t = np.empty((_POWERS, t.size), t.dtype)
    neg_t[0], neg_t[1] = 1.0, -t
    k = 1
    while k < _POWERS - 1:   # powers k + 1 ... k + n as powers 1 ... n times power k
        n = min(k, _POWERS - 1 - k)
        np.multiply(neg_t[1:n + 1], neg_t[k], out=neg_t[k + 1:k + n + 1])
        k += n
    parts = (neg_t.T,) if not np.iscomplexobj(t) else tuple(
        np.ascontiguousarray(p.T) for p in (neg_t.real, neg_t.imag))
    shift = (_SHIFT * np.array([1.0, h, 1.0 / h])[:, None, None]).reshape(-1, _POWERS)

    def taylor(lam, dst):
        x = np.empty((_POWERS, max(lam.size, 2)), lam.dtype)
        x[0], x[1:] = 1.0, lam * (h * h)
        np.multiply.accumulate(x[1:], out=x[1:])
        poly = (shift @ _real_view(x)).view(x.dtype).reshape(3, _POWERS, -1)
        cells = dst if lam.size > 1 else np.empty(dst.shape[:-1] + (2,), dst.dtype)
        np.matmul(parts[0], _real_view(poly), out=_real_view(cells))
        if len(parts) == 2:
            _real_view(cells)[...] += parts[1] @ _real_view(1j * poly)
        if cells is not dst:
            dst[...] = cells[..., :1]

    def direct(lam, dst):
        mu2 = lam[None] - slopes[:, None]
        c, sinc = cos_sinc_sqrt(mu2 * (h * h))
        dst[0] = c
        np.multiply(sinc, h, out=dst[1])
        np.negative(np.multiply(mu2, dst[1], out=dst[2]), out=dst[2])

    def write(lam, out):
        near = np.abs(lam) <= near_limit
        if np.count_nonzero(near) in (0, lam.size):
            (taylor if near[0] else direct)(lam, out[:3])
        else:
            for cols, part in ((near, taylor), (~near, direct)):
                dst = np.empty((3, slopes.size, np.count_nonzero(cols)), lam.dtype)
                part(lam[cols], dst)
                out[:3, :, cols] = dst
        out[3] = out[0]

    return write


def _slopes(sigma: SigmaFunction, lam):
    """sigma' on every cell: float64 for a real sigma (which a real `lam`
    implies), complex128 otherwise."""
    real = not np.iscomplexobj(lam) or sigma.is_real()
    return np.diff(sigma.samples.real if real else sigma.samples) / sigma.dx


def _cell_matrices(sigma: SigmaFunction, lam):
    """Every cell's transfer matrix, in cell order, for a 1-D `lam`: array (4,
    m, lambdas) of the entries (m00, m01, m10, m11) = (c, sn, msn, c)."""
    out = np.empty((4, sigma.m, lam.size), lam.dtype)
    _cell_writer(_slopes(sigma, lam), sigma.dx)(lam, out)
    return out


@functools.cache
def _leaf_order(m):
    """The cell held by every leaf slot of the product tree of m cells (read-only).

    At every level the earlier factor of each pair sits in the first half,
    the later one in the second half at the same offset, and an odd level's
    unpaired last factor in the last slot; the products keep that order one
    level up.  For m a power of two this is bit reversal.
    """
    if m == 1:
        order = np.zeros(1, dtype=np.intp)
    else:
        pairs = 2 * _leaf_order((m + 1) // 2)[:m // 2]
        order = np.concatenate((pairs, pairs + 1, [m - 1] * (m % 2))).astype(np.intp)
    order.setflags(write=False)
    return order


# Lambdas per reduction block: the working set is (cells x block) per matrix
# entry, so memory stays bounded on dense scans of thousands of lambdas.
# Timed with the cells of one matrix product per block over 1640 lambdas
# with |lambda| <= 1600 at 512 and 1024 cells (`monodromy`, two runs of
# best-of-4 timings, 2-vCPU Xeon, 2 MB L2 per core, one BLAS thread): 96
# was 4-6% faster on the real batch at 512 cells and 48 9% faster on the
# complex one at 1024, but each was slower on two other batches; no block of
# 32-256 beat 64 on all four, so 64 stays.
_BLOCK = 64


def _tree(work, n):
    """Levels of the ordered product T[n-1] ... T[1] T[0] of the n factors that
    work[:, :n] holds in leaf order (slot i holds T[_leaf_order(n)[i]]).

    A level's second half times its first half, row by row, is the first
    half of the next level, right after it in `work`; an odd level's last
    factor is carried up unchanged into the next level's last slot.  The last
    rows of `work` are scratch.  Returns views (4, rows, lambdas), the
    product last.
    """
    levels, lo = [], 0
    while n > 1:
        half = n // 2
        levels.append(work[:, lo:lo + n])
        a, b, scratch = levels[-1][:, half:2 * half], levels[-1][:, :half], work[0, -half:]
        lo += n
        for (i, j), dst in zip(((0, 0), (0, 1), (2, 0), (2, 1)), work[:, lo:lo + half]):
            # entry (i / 2, j) of the 2x2 product a b is a[i] b[j] + a[i + 1] b[j + 2]
            np.multiply(a[i], b[j], dst)
            dst += np.multiply(a[i + 1], b[j + 2], scratch)
        if n % 2:
            work[:, lo + half] = levels[-1][:, n - 1]
        n -= half
    levels.append(work[:, lo:lo + 1])
    return levels


def _blocks(sigma: SigmaFunction, lam, out):
    """(slice, tree levels) of every block of the 1-D `lam`, in one workspace that
    the next block overwrites, its cells written there in leaf order;
    StepFailure at the end unless `out` is finite."""
    m, n, rows = sigma.m, sigma.m, 1 + sigma.m // 2   # the product, the scratch
    while n > 1:   # and every other level
        rows, n = rows + n, (n + 1) // 2
    write = _cell_writer(_slopes(sigma, lam)[_leaf_order(m)], sigma.dx)
    buf = np.empty(4 * rows * min(_BLOCK, lam.size), lam.dtype)
    for start in range(0, lam.size, _BLOCK):
        chunk = lam[start:start + _BLOCK]
        # contiguous for a short last block too, so that every half is
        work = buf[:4 * rows * chunk.size].reshape(4, rows, chunk.size)
        write(chunk, work[:, :m])
        yield slice(start, start + _BLOCK), _tree(work, m)
    if not np.all(np.isfinite(out)):
        raise StepFailure("propagation produced non-finite values; lambda or sigma out of range")


def _sweep(levels, vals):
    """Vectors at every node of the product that the tree levels hold, in place.

    vals[:, 0] holds the vector (y, y') at the first node, and vals, shape
    (2, leaves, lambdas), receives the vector at the start of every leaf, in
    leaf order.  Going down a level, the earlier factor of every pair starts
    where the pair starts, the later one where the earlier one ends, and an
    odd level's carried last factor where it started one level up: the
    starts of a level are (starts, earlier factors times starts, carry).
    Returns the vector at the end of the product, (y, y') of shape (1,
    lambdas) each.
    """
    (m00, m01, m10, m11), (y, v) = levels[-1], vals[:, :1]
    last = m00 * y + m01 * v, m10 * y + m11 * v
    for mats in reversed(levels[:-1]):
        n = mats.shape[1]
        half = n // 2
        if n % 2:
            vals[:, n - 1] = vals[:, half]
        (m00, m01, m10, m11), (y, v) = mats[:, :half], vals[:, :half]
        for dst, a, b in zip(vals[:, half:2 * half], (m00, m10), (m01, m11)):
            np.multiply(a, y, out=dst)
            dst += b * v
    return last


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
    matrices and the tree are float64, otherwise complex128; both run the
    same code (`cos_sinc_sqrt` is entire in mu^2 h^2, whatever its sign) and
    M is complex128.
    """
    lam = np.atleast_1d(np.asarray(lams))
    real = _real_axis(sigma, lam)
    lam = lam.real.astype(float, copy=False) if real else lam.astype(complex, copy=False)
    out = np.empty((4, lam.size), dtype=lam.dtype)
    for block, levels in _blocks(sigma, lam.ravel(), out):
        out[:, block] = levels[-1][:, 0]
    return _to_quasi(out.reshape((4,) + lam.shape), sigma.samples[0], sigma.samples[-1])


def node_values(sigma: SigmaFunction, lams, y0, yq0):
    """(y, y^{[1]}) at every node for a batch of lambdas, forward from x = 0.

    The solution takes the values (y0, yq0) at x = 0; they broadcast against
    the lambdas and may depend on them.  The same cell matrices as in
    `monodromy` are reduced by the same tree, whose levels a down-sweep then
    applies to the start vector: 2 log2(m) vectorized steps per block of
    lambdas, whose node values come out in leaf order and are put back in
    cell order once per block.  Returns (y, yq), each of shape (m + 1,) + lam.shape: float64
    when sigma, the lambdas and the start values are real, complex128
    otherwise.
    """
    lam = np.atleast_1d(np.asarray(lams))
    y0, yq0 = (np.broadcast_to(np.asarray(x), lam.shape) for x in (y0, yq0))
    real = _real_axis(sigma, lam, y0, yq0)
    lam, y0, yq0 = (x.real.astype(float) if real else x.astype(complex) for x in (lam, y0, yq0))
    sig = sigma.samples.real if real else sigma.samples
    # y' = y^[1] + sigma y at x = 0
    start_y = y0.ravel()
    start_v = yq0.ravel() + sig[0] * start_y
    out = np.empty((2, sigma.m + 1, lam.size), dtype=lam.dtype)
    leaves = np.empty((2, sigma.m, min(_BLOCK, lam.size)), dtype=lam.dtype)
    for block, levels in _blocks(sigma, lam.ravel(), out):
        vals = leaves[..., :levels[0].shape[-1]]
        vals[:, 0] = start_y[block], start_v[block]
        last = _sweep(levels, vals)
        out[:, _leaf_order(sigma.m), block] = vals
        out[:, -1, block] = [x[0] for x in last]
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
