"""Cauchy problems for the regularized quasi-derivative system.

The stored antiderivative is piecewise linear, so the potential q = sigma' is
constant on every grid cell and y'' = (s_k - lambda) y holds exactly inside
cell k, with a closed-form constant-coefficient 2x2 transfer matrix (the
Pruess piecewise-constant-coefficient method).  Its entries cos(w) and
sin(w)/w at w^2 = (lambda - s_k) h^2 are entire in w^2, so no branch of the
square root enters.  Endpoint values come from the monodromy matrix, the
ordered product of all cell matrices, reduced pairwise in log2(m) vectorized
steps over the whole lambda batch; node-by-node trajectories, forward from x
= 0, come from a down-sweep over the levels of that same tree, which all
blocks of lambdas write in place into one workspace per call.

With r = |lambda| h^2 + max |s| h^2, the tree of a lambda starts from one of
three levels (`_cells_per_factor`): the groups of four adjacent cells where
16 r <= 1, the pairs where 4 r <= 1, and the closed-form cells of
`trig.cos_sinc_sqrt` elsewhere.  The matrix of a pair and of a group is a
polynomial in lambda h^2, whose coefficients are built once per
SigmaFunction object and level (`_coefficients`), so the factors of a block
of lambdas are one matrix product (`_polynomial_writer`).  One down-sweep
(`factor_values`) returns the solution at the start of every factor of a
level and at X: over the factors of `monodromy`'s level for the
Pruefer-angle count, over the closed-form cells for `node_values`.  Each
lambda takes one path, chosen by |lambda| and sigma alone.  Every level is
stored in the tree's leaf order (`_leaf_order`, bit reversal for a power of
two): every level's pairs are its first half and its second half, contiguous
rows, and an odd level carries its last factor up unchanged, as an FFT
stores its input for contiguous butterflies.  The pairs and their
association are those of adjacent cells, so the order changes no result.
Cost is independent of |lambda| and the Lagrange identity (det of the
monodromy = 1) holds to rounding.  On the real axis (real sigma, every
lambda of the batch real) the factors and their product are computed in
float64, elsewhere in complex128; endpoint values are returned as complex128
in both cases.

A classical RK4 path over the same piecewise-linear sigma is kept as an
independent cross-check (`rk4_node_values`); it converges at order 4 to the
exact propagator as the per-cell substep count grows.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import StepFailure
from .trig import cos_sinc_sqrt
from .types import SigmaFunction


# cos(w) and sin(w)/w at w = sqrt(z2) are the entire series sum (-z2)^k/(2k)!
# and sum (-z2)^k/(2k+1)!.  On |z2| <= _TAYLOR_RADIUS they are summed through
# k = _TAYLOR_DEGREE: the first omitted term, 4^-8/16! ~ 7e-19, is below eps/8,
# and the sum of the kept terms' moduli is at most cosh(1/2) ~ 1.13.
_TAYLOR_RADIUS = 1.0 / 4.0
_TAYLOR_DEGREE = 7
_COS = [(-1) ** k / math.factorial(2 * k) for k in range(_TAYLOR_DEGREE + 1)]
_SINC = [(-1) ** k / math.factorial(2 * k + 1) for k in range(_TAYLOR_DEGREE + 1)]

# Inside that radius the entries c = cos(w), sn = h sin(w)/w and msn =
# -(z2 / h) sin(w)/w of a cell matrix are polynomials in z2 = (lambda - s) h^2
# = x - t, x = lambda h^2 and t = s h^2, of degree D, D and D + 1 (D =
# _TAYLOR_DEGREE).  Expanded, each is sum_ij (-t)^i _UNIT[j, entry, i] x^j at
# h = 1, in the entry order (m00, m01, m10, m11) = (c, sn, msn, c):
# _UNIT[j, :, i] holds the coefficients of z2^(i + j) times binomial(i + j,
# j).  Where |x| + |t| <= _TAYLOR_RADIUS the moduli of the expanded terms sum
# to at most cosh(1/2) times the entry's scale (1, h and (|x| + |t|) / h), so
# the expanded sums are as accurate as the polynomials in z2, to a few
# roundings of that scale.
_POWERS = _TAYLOR_DEGREE + 2
_SERIES = _COS + [0.0], _SINC + [0.0], [0.0] + [-b for b in _SINC], _COS + [0.0]

# k = 2 or 4 adjacent cells make one factor of the pair or the group level.
# Their product is a polynomial in x as well, with coefficients that depend
# on the t of its cells alone.  Where k^2 (|x| + max |t|) <= 1 the factor's
# own w^2 = k^2 (x - t) is at most 1 in modulus on every cell: the transfer
# matrix of y'' = y over the k cells at |x| + max |t| = 1/k^2 majorizes the
# product term by term, so the terms of total degree n in x and the t sum to
# at most 1/(2n)! of the entry's scale (1, kh and k (|x| + max |t|) / h; the
# sum of all terms' moduli is at most cosh(1) ~ 1.54 times it), and keeping
# x^0 ... x^10 leaves out at most 1/20! ~ 4e-19 of the scale, below eps/8.
# (Degree 9 would do for the entries other than m10, which carries z2 / h.)
# Where 4 (|x| + max |t|) <= 1 every cell lies inside the Taylor radius.
_GROUP = 4
_FACTOR_POWERS = 11


def _real_view(a):
    """The float64 view of a complex128 array (real and imaginary parts side
    by side in its last axis), or the float64 array itself."""
    return a.view(float) if np.iscomplexobj(a) else a


def _cell_writer(slopes, h):
    """write(lam, out): the transfer matrix [[c, sn], [msn, c]] of (y, y') over
    every cell of these slopes in closed form (`trig.cos_sinc_sqrt`), for a
    1-D `lam`, into `out`, shape (4, cells, lambdas), as its (m00, m01, m10,
    m11) entries."""
    def write(lam, out):
        mu2 = lam[None] - slopes[:, None]
        c, sinc = cos_sinc_sqrt(mu2 * (h * h))
        out[0] = c
        np.multiply(sinc, h, out=out[1])
        np.negative(np.multiply(mu2, out[1], out=out[2]), out=out[2])
        out[3] = out[0]

    return write


def _polynomial_product(a, b):
    """Coefficients of the 2x2 product a b of matrix polynomials in x, arrays
    (_FACTOR_POWERS, 4, n) of the coefficients of x^0, x^1, ... of (m00, m01,
    m10, m11), truncated after x^(_FACTOR_POWERS - 1)."""
    n = b.shape[2]
    right = np.zeros((2 * _FACTOR_POWERS - 1, 4, n), b.dtype)
    right[_FACTOR_POWERS - 1:] = b
    # shifted[k, :, :, l] = b[k - l], and 0 where l > k
    shifted = np.lib.stride_tricks.sliding_window_view(right, _FACTOR_POWERS, axis=0)[..., ::-1]
    # entry (r, c) of coefficient k of a b: the sum over s and l of a[l, r, s] b[k - l, s, c]
    return np.einsum("lrsn,kscnl->krcn", np.ascontiguousarray(a).reshape(_FACTOR_POWERS, 2, 2, n),
                     shifted.reshape(_FACTOR_POWERS, 2, 2, n, _FACTOR_POWERS)).reshape(_FACTOR_POWERS, 4, n)


# _UNIT[:, :, i] is the cell polynomial, (_FACTOR_POWERS, 4) at h = 1, that
# (-t)^i multiplies, and _PAIR[i _POWERS + j] the product of the later cell's
# _UNIT[..., i] by the earlier one's _UNIT[..., j], flattened: so the product
# of two cells is the powers of their -t, multiplied out, times _PAIR.
_UNIT = np.array([[[math.comb(i + j, j) * a[i + j] if i + j < _POWERS else 0.0
                    for i in range(_POWERS)] for a in _SERIES] for j in range(_FACTOR_POWERS)])
_PAIR = _polynomial_product(np.repeat(_UNIT, _POWERS, axis=2),
                            np.tile(_UNIT, _POWERS)).reshape(4 * _FACTOR_POWERS, -1).T


def _polynomials(t, cells):
    """The matrix polynomials in x at h = 1 of the factors of `cells` = 2 or
    4 adjacent cells with these t, in cell order: array (_FACTOR_POWERS, 4,
    factors) of the coefficients of x^0, x^1, ... of (m00, m01, m10, m11).

    A cell's is _UNIT times the powers of its -t.  The factors are the
    products of the tree's own association, (T3 T2)(T1 T0): a pair is the
    powers of its cells' -t, multiplied out, times _PAIR, an odd m carries
    its last cell up alone, and the groups are truncated polynomial products
    of the pairs, an odd count of pairs padded with the identity, which
    multiplies exactly; so the last factor of an m that `cells` does not
    divide is the tree's carried factor.
    """
    neg_t = np.empty((t.size, _POWERS), t.dtype)
    neg_t[:, 0], neg_t[:, 1:] = 1.0, -t[:, None]
    np.multiply.accumulate(neg_t[:, 1:], axis=1, out=neg_t[:, 1:])
    pairs = t.size // 2
    later, earlier = neg_t[1:2 * pairs:2], neg_t[0:2 * pairs:2]
    poly = (later[:, :, None] * earlier[:, None, :]).reshape(pairs, -1) @ _PAIR
    poly = poly.reshape(pairs, _FACTOR_POWERS, 4).transpose(1, 2, 0)
    if t.size % 2:
        poly = np.concatenate((poly, (_UNIT @ neg_t[-1])[..., None]), axis=2)
    if cells == 2:
        return poly
    if poly.shape[2] % 2:
        poly = np.concatenate((poly, np.zeros((_FACTOR_POWERS, 4, 1))), axis=2)
        poly[0, [0, 3], -1] = 1.0
    return _polynomial_product(poly[..., 1::2], poly[..., 0::2])


def _coefficients(sigma: SigmaFunction, cells):
    """The coefficients of `_polynomials` for the factors of `cells` = 2 or 4
    adjacent cells of sigma, at its h, in the leaf order of the tree over
    them: real arrays (4, factors, powers) of the (m00, m01, m10, m11)
    entries, one for a real sigma and the real and the imaginary parts for a
    complex one.

    Each level is built on its first use and kept (`_memo`).
    """
    memo = _memo(sigma)
    if cells not in memo:
        h = sigma.dx
        poly = _polynomials(_slopes(sigma, 1j) * (h * h), cells)   # complex unless sigma is real
        poly *= np.array([1.0, h, 1.0 / h, 1.0])[:, None]
        poly = poly[..., _leaf_order(poly.shape[2])].transpose(1, 2, 0)
        memo[cells] = tuple(
            np.ascontiguousarray(p) for p in ((poly,) if sigma.is_real() else (poly.real, poly.imag)))
    return memo[cells]


def _polynomial_writer(coefficients, h):
    """write(lam, out): the factor matrices whose polynomial coefficients
    `_coefficients` holds, for a 1-D `lam`, into `out`, shape (4, factors,
    lambdas), as their (m00, m01, m10, m11) entries.

    One real matrix product of the coefficient rows by the powers of x =
    lambda h^2 per entry: complex powers enter as their float64 view, the
    imaginary part of complex coefficients times i times the powers.  The
    factors of a lambda depend on that lambda and the coefficients alone; a
    single lambda is padded to two columns for that, since BLAS rounds a
    matrix-vector product otherwise than the matrix product whose column it
    would be.
    """
    powers = coefficients[0].shape[-1]

    def write(lam, out):
        x = np.empty((powers, max(lam.size, 2)), lam.dtype)
        x[0], x[1:] = 1.0, lam * (h * h)
        np.multiply.accumulate(x[1:], out=x[1:])
        vals = out if lam.size > 1 else np.empty(out.shape[:-1] + (2,), out.dtype)
        np.matmul(coefficients[0], _real_view(x), out=_real_view(vals))
        if len(coefficients) == 2:
            _real_view(vals)[...] += coefficients[1] @ _real_view(1j * x)
        if vals is not out:
            out[...] = vals[..., :1]

    return write


def _cells_per_factor(sigma: SigmaFunction, lam):
    """The level of the tree's factors for every lambda of the 1-D `lam`: 4
    (the groups) where 16 r <= 1, 2 (the pairs) where 4 r <= 1 and 1 (the
    closed-form cells) elsewhere, with r = |lambda| h^2 + max |s| h^2 over
    every cell's complex slope s.  `monodromy` and the count take the level
    of each lambda; `node_values` takes the closed-form cells of level 1
    for every lambda."""
    memo = _memo(sigma)
    if "edges" not in memo:   # the largest |lambda| of the groups and of the pairs
        h2 = sigma.dx * sigma.dx
        t = np.max(np.abs(np.diff(sigma.samples) / sigma.dx)) * h2
        memo["edges"] = (1.0 / _GROUP**2 - t) / h2, (_TAYLOR_RADIUS - t) / h2
    groups, pairs = memo["edges"]
    size = np.abs(lam)
    return np.where(size <= groups, _GROUP, np.where(size <= pairs, 2, 1))


def _memo(sigma: SigmaFunction):
    """The propagator's constants of sigma, kept in its __dict__ (its samples
    are read-only, so they cannot go stale)."""
    return vars(sigma).setdefault("_ode", {})


def _factor_matrices(sigma: SigmaFunction, lam, cells):
    """Every factor's transfer matrix of the level of `cells` cells
    (`_leaves`), in cell order, for a 1-D `lam`: array (4, factors, lambdas)
    of its entries (m00, m01, m10, m11)."""
    write, n, _ = _leaves(sigma, lam, cells)
    vals = np.empty((4, n, lam.size), lam.dtype)
    write(lam, vals)
    out = np.empty_like(vals)
    out[:, _leaf_order(n)] = vals
    return out


def _slopes(sigma: SigmaFunction, lam):
    """sigma' on every cell: float64 for a real sigma (which a real `lam`
    implies), complex128 otherwise."""
    real = not np.iscomplexobj(lam) or sigma.is_real()
    return np.diff(sigma.samples.real if real else sigma.samples) / sigma.dx


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


# Lambdas per reduction block of the cells: the working set is (factors x
# block) per matrix entry, so memory stays bounded on dense scans of
# thousands of lambdas.  Timed with the cells of one matrix product per block
# over 1640 lambdas with |lambda| <= 1600 at 512 and 1024 cells (`monodromy`,
# two runs of best-of-4 timings, 2-vCPU Xeon, 2 MB L2 per core, one BLAS
# thread): 96 was 4-6% faster on the real batch at 512 cells and 48 9% faster
# on the complex one at 1024, but each was slower on two other batches; no
# block of 32-256 beat 64 on all four, so 64 stays.  A level of k cells per
# factor takes k x _BLOCK lambdas per block, the same working set: over 1640
# real lambdas that made the groups 28-41% and the pairs 14-20% faster than
# blocks of 64, at 512 and 1024 cells.
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


def _leaves(sigma: SigmaFunction, lam, cells):
    """(write, n, width): the writer of the n factors of `cells` adjacent
    cells each (the last of fewer where `cells` does not divide m), in the
    tree's leaf order, for lambdas of the dtype of `lam`: the closed-form
    cells for cells = 1, else that level's polynomial coefficients; and the
    lambdas per block of that level."""
    if cells == 1:
        write, n = _cell_writer(_slopes(sigma, lam)[_leaf_order(sigma.m)], sigma.dx), sigma.m
    else:
        coefficients = _coefficients(sigma, cells)
        write, n = _polynomial_writer(coefficients, sigma.dx), coefficients[0].shape[1]
    return write, n, _BLOCK * cells


def _blocks(write, n, width, lam):
    """(slice, tree levels) of every block of `width` lambdas of the 1-D
    `lam`, in one workspace that the next block overwrites, the n factors
    that write(chunk, dst) puts there in leaf order."""
    k, rows = n, 1 + n // 2   # the product, the scratch
    while k > 1:   # and every other level
        rows, k = rows + k, (k + 1) // 2
    buf = np.empty(4 * rows * min(width, lam.size), lam.dtype)
    for start in range(0, lam.size, width):
        chunk = lam[start:start + width]
        # contiguous for a short last block too, so that every half is
        work = buf[:4 * rows * chunk.size].reshape(4, rows, chunk.size)
        write(chunk, work[:, :n])
        yield slice(start, start + width), _tree(work, n)


def _finite(out):
    """`out`, or StepFailure unless it is finite."""
    if not np.all(np.isfinite(out)):
        raise StepFailure("propagation produced non-finite values; lambda or sigma out of range")
    return out


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
    The factors of each lambda's level (`_cells_per_factor`: groups of four
    cells, pairs, or closed-form cells) are reduced pairwise in vectorized
    steps, over blocks of lambdas.

    When sigma is real and no lambda has a nonzero imaginary part, the cell
    matrices and the tree are float64, otherwise complex128; both run the
    same code (`cos_sinc_sqrt` is entire in mu^2 h^2, whatever its sign) and
    M is complex128.
    """
    lam = np.atleast_1d(np.asarray(lams))
    real = _real_axis(sigma, lam)
    lam = lam.real.astype(float, copy=False) if real else lam.astype(complex, copy=False)
    flat = lam.ravel()
    out = np.empty((4, flat.size), dtype=lam.dtype)
    levels = _cells_per_factor(sigma, flat)
    for cells in np.unique(levels)[::-1].tolist():
        cols = np.flatnonzero(levels == cells)
        for block, tree in _blocks(*_leaves(sigma, flat, cells), flat[cols]):
            out[:, cols[block]] = tree[-1][:, 0]
    _finite(out)
    return _to_quasi(out.reshape((4,) + lam.shape), sigma.samples[0], sigma.samples[-1])


def factor_values(sigma: SigmaFunction, lams, y0, yq0, cells):
    """(y, y') at the start of every factor of the product tree and at X for
    a batch of lambdas, forward from x = 0.

    The solution takes the values (y0, yq0) of (y, y^{[1]}) at x = 0; they
    broadcast against the lambdas and may depend on them.  The factors are
    those of `cells` cells each (`_leaves`): the closed-form cells, whose
    starts are the nodes 0, 1, ..., m - 1, or, for the lambdas that
    `_cells_per_factor` gives that level, the pairs, whose starts are the
    nodes 0, 2, ..., 2 (ceil(m / 2) - 1), or the groups of four, whose
    starts are the nodes 0, 4, ..., 4 (ceil(m / 4) - 1); a last factor of
    fewer cells is the tree's carried factor.  The product tree of
    `monodromy` reduces them, and a down-sweep then applies its levels to
    the start vector: 2 log2(factors) vectorized steps per block of
    lambdas, whose values come out in leaf order and are put back in cell
    order once per block.  Returns (y, y'), with y' = y^{[1]} + sigma y (a
    caller converts where it reads y^{[1]}), each of shape (factors + 1,) +
    lam.shape, the value at X last: float64 when sigma, the lambdas and the
    start values are real, complex128 otherwise.
    """
    lam = np.atleast_1d(np.asarray(lams))
    y0, yq0 = (np.broadcast_to(np.asarray(x), lam.shape) for x in (y0, yq0))
    real = _real_axis(sigma, lam, y0, yq0)
    lam, y0, yq0 = (x.real.astype(float) if real else x.astype(complex) for x in (lam, y0, yq0))
    flat, start_y = lam.ravel(), y0.ravel()
    start_v = yq0.ravel() + (sigma.samples[0].real if real else sigma.samples[0]) * start_y
    write, n, width = _leaves(sigma, flat, cells)
    y, v = np.empty((2, n + 1, flat.size), dtype=lam.dtype)
    leaves = np.empty((2, n, min(width, flat.size)), dtype=lam.dtype)
    for block, levels in _blocks(write, n, width, flat):
        vals = leaves[..., :levels[0].shape[-1]]
        vals[:, 0] = start_y[block], start_v[block]
        # checked and put in cell order while the block is in cache
        y[-1, block], v[-1, block] = (x[0] for x in _finite(_sweep(levels, vals)))
        y[_leaf_order(n), block], v[_leaf_order(n), block] = _finite(vals)
    return y.reshape((n + 1,) + lam.shape), v.reshape((n + 1,) + lam.shape)


def node_values(sigma: SigmaFunction, lams, y0, yq0):
    """(y, y^{[1]}) at every node for a batch of lambdas, forward from x = 0:
    `factor_values` over the closed-form cells.  Returns (y, yq), each of
    shape (m + 1,) + lam.shape."""
    y, v = factor_values(sigma, lams, y0, yq0, 1)
    sig = sigma.samples if np.iscomplexobj(y) else sigma.samples.real
    return y, v - sig.reshape((-1,) + (1,) * (y.ndim - 1)) * y


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
