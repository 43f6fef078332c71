"""Cauchy problems for the regularized quasi-derivative system.

The stored antiderivative is piecewise linear, so the potential q = sigma' is
constant on every grid cell and y'' = (s_k - lambda) y holds exactly inside
cell k, with a closed-form constant-coefficient 2x2 transfer matrix (the
Pruess piecewise-constant-coefficient method).  Endpoint values come from the
monodromy matrix, the ordered product of all cell matrices, reduced pairwise
in log2(m) vectorized steps over the whole lambda batch; node-by-node
trajectories come from a down-sweep over the levels of that same tree
(adjugates of suffix products for backward runs).  Cost is independent
of |lambda| and the Lagrange identity (det of the monodromy = 1) holds to
rounding.  On the real axis (real sigma, every lambda of the batch real) the
cell matrices and their product are computed in float64, elsewhere in
complex128; endpoint values are returned as complex128 in both cases.

A classical RK4 path over the same piecewise-linear sigma is kept as an
independent cross-check (`method="rk4"`); it converges at order 4 to the exact
propagator as the per-cell substep count grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepFailure
from .trig import cos_sinc_sqrt
from .types import SigmaFunction, branch_sqrt


@dataclass(frozen=True)
class Trajectory:
    """Samples of (y, y^{[1]}) along the integration interval."""

    x: np.ndarray
    y: np.ndarray
    yq: np.ndarray
    lam: complex
    direction: str = "forward"

    @property
    def end(self):
        return self.y[-1], self.yq[-1]


def _cell_matrices(sigma: SigmaFunction, lam, derivative=False):
    """Every cell's transfer matrix [[c, sn], [msn, c]] for (y, y'), as entries.

    Returns ((c, sn, msn, c), dmats): arrays of shape (m,) + lam.shape in the
    (m00, m01, m10, m11) order, and their lambda-derivatives in the same
    layout when `derivative` is set (None otherwise).  A real `lam` gives real
    entries from the real part of sigma (the caller checks that sigma is real).
    """
    h = sigma.dx
    h2 = h * h
    slopes = np.diff(sigma.samples if np.iscomplexobj(lam) else sigma.samples.real) / h
    mu2 = lam[None] - slopes.reshape((-1,) + (1,) * lam.ndim)
    trig = cos_sinc_sqrt(mu2 * h2, derivative=derivative)
    c = trig[0]
    sn = h * trig[1]
    msn = -mu2 * sn
    if not derivative:
        return (c, sn, msn, c), None
    dc = -0.5 * h * sn
    dsn = h * h2 * trig[2]
    return (c, sn, msn, c), (dc, dsn, -sn - mu2 * dsn, dc)


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


def _tree(mats, dmats=None):
    """Levels of the ordered product T[n-1] ... T[1] T[0] along axis 0, leaves first.

    Every level but the last is padded with the identity to even length and
    its pairs multiply into the next level; the last level is the product.
    `dmats` carries the lambda-derivatives through the same tree by the
    product rule.  Returns the list of (mats, dmats) levels.
    """
    levels = []
    while mats[0].shape[0] > 1:
        if mats[0].shape[0] % 2:
            one = np.ones_like(mats[0][:1])
            zero = np.zeros_like(one)
            mats = tuple(np.concatenate((x, e)) for x, e in zip(mats, (one, zero, zero, one)))
            if dmats is not None:
                dmats = tuple(np.concatenate((x, zero)) for x in dmats)
        levels.append((mats, dmats))
        later = tuple(x[1::2] for x in mats)
        earlier = tuple(x[0::2] for x in mats)
        if dmats is not None:
            dlater = tuple(x[1::2] for x in dmats)
            dearlier = tuple(x[0::2] for x in dmats)
            dmats = tuple(p + q for p, q in zip(_matmul(dlater, earlier),
                                                _matmul(later, dearlier)))
        mats = _matmul(later, earlier)
    levels.append((mats, dmats))
    return levels


def _apply(mats, vec):
    """Entry-wise 2x2 matrix-vector products over stacked arrays."""
    m00, m01, m10, m11 = mats
    y, v = vec
    return m00 * y + m01 * v, m10 * y + m11 * v


def _adjugate(mats):
    """adj [[a, b], [c, d]] = [[d, -b], [-c, a]], the inverse when det = 1."""
    a, b, c, d = mats
    return d, -b, -c, a


def _sweep(levels, vec, backward=False):
    """Vectors at every node of the product that the tree levels hold.

    Forward, `vec` is the vector at the first node, and the later child of
    every pair starts where its earlier child takes the pair's start.
    Backward, `vec` is the vector at the last node, and the earlier child ends
    where the adjugate (det = 1: the inverse) of the later child takes the
    pair's end.  `vec` is (y, y') plus (dy, dy') = 0 when the levels carry
    derivatives.  Returns the vectors at the start (forward) or end
    (backward) of every leaf, padding included, and the one at the opposite
    end of the product, in the layout of `vec` with a leading node axis.
    """
    pick = slice(1, None, 2) if backward else slice(0, None, 2)
    vals = tuple(x[None] for x in vec)
    # the full product gives the node beyond the leaves' starts (ends)
    full, dfull = levels[-1]
    if backward:
        full = _adjugate(full)
    extra = _apply(full, vals[:2])
    if dfull is not None:
        extra += _apply(_adjugate(dfull) if backward else dfull, vals[:2])
    for mats, dmats in reversed(levels[:-1]):
        vals = tuple(x[:mats[0].shape[0] // 2] for x in vals)
        half = tuple(x[pick] for x in mats)
        if backward:
            half = _adjugate(half)
        moved = _apply(half, vals[:2])
        if dmats is not None:
            dhalf = tuple(x[pick] for x in dmats)
            if backward:
                dhalf = _adjugate(dhalf)
            moved += tuple(p + q for p, q in zip(_apply(dhalf, vals[:2]), _apply(half, vals[2:])))
        pairs = zip(moved, vals) if backward else zip(vals, moved)
        vals = tuple(np.stack(pair, axis=1).reshape((-1,) + pair[0].shape[1:]) for pair in pairs)
    return vals, extra


def _real_axis(sigma: SigmaFunction, *arrays) -> bool:
    """True when sigma is real and no array has a nonzero imaginary part."""
    return sigma.is_real() and not any(np.any(np.imag(x)) for x in arrays)


def monodromy(sigma: SigmaFunction, lams, derivative=False):
    """Transfer matrix of (y, y^{[1]}) from x = 0 to x = X for a batch of lambdas.

    Returns M of shape (2, 2) + lam.shape: the solution with (y, y^{[1]})(0)
    = (a, b) ends at M @ (a, b), so the columns are C and S and det M = 1.
    The cell matrices are reduced pairwise in log2(m) vectorized steps, over
    blocks of lambdas.  With `derivative`, returns (M, dM/dlambda).

    When sigma is real and no lambda has a nonzero imaginary part, the cell
    matrices and the tree are float64 (cos/cosh and sin/sinh by the sign of
    mu^2), otherwise complex128; both run the same code and M is complex128.
    """
    lam = np.atleast_1d(np.asarray(lams))
    real = _real_axis(sigma, lam)
    lam = lam.real.astype(float, copy=False) if real else lam.astype(complex, copy=False)
    flat = lam.ravel()
    out = np.empty((8 if derivative else 4, flat.size), dtype=lam.dtype)
    for start in range(0, flat.size, _BLOCK):
        mats, dmats = _tree(*_cell_matrices(sigma, flat[start:start + _BLOCK], derivative))[-1]
        out[:4, start:start + _BLOCK] = [x[0] for x in mats]
        if derivative:
            out[4:, start:start + _BLOCK] = [x[0] for x in dmats]
    if not np.all(np.isfinite(out)):
        raise StepFailure("propagation produced non-finite values; lambda or sigma out of range")
    sig0, sig1 = sigma.samples[0], sigma.samples[-1]
    m = _to_quasi(out[:4].reshape((4,) + lam.shape), sig0, sig1)
    if derivative:
        return m, _to_quasi(out[4:].reshape((4,) + lam.shape), sig0, sig1)
    return m


def node_values(sigma: SigmaFunction, lams, y0, yq0, derivative=False, direction="forward"):
    """(y, y^{[1]}) at every node for a batch of lambdas.

    The solution takes the values (y0, yq0) at x = 0 (forward) or at x = X
    (backward); they broadcast against the lambdas and may depend on them,
    but the lambda-derivatives (with `derivative`) treat them as constants.
    The same cell matrices as in `monodromy` are reduced by the same tree,
    whose levels a down-sweep then applies to the start (or, through
    adjugates, the end) vector: 2 log2(m) vectorized steps per block of
    lambdas.  Returns (y, yq), or (y, yq, dy, dyq) with `derivative`, each of
    shape (m + 1,) + lam.shape: float64 when sigma, the lambdas and the
    start values are real, complex128 otherwise.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    backward = direction == "backward"
    lam = np.atleast_1d(np.asarray(lams))
    y0, yq0 = (np.broadcast_to(np.asarray(x), lam.shape) for x in (y0, yq0))
    real = _real_axis(sigma, lam, y0, yq0)
    dtype = float if real else complex
    lam, y0, yq0 = (x.real.astype(float) if real else x.astype(complex) for x in (lam, y0, yq0))
    sig = sigma.samples.real if real else sigma.samples
    # y' = y^[1] + sigma y at the starting node
    flat = lam.ravel()
    start_y = y0.ravel()
    start_v = yq0.ravel() + (sig[-1] if backward else sig[0]) * start_y
    out = np.empty((4 if derivative else 2, sigma.m + 1, flat.size), dtype=dtype)
    for start in range(0, flat.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        vec = (start_y[block], start_v[block])
        if derivative:
            vec += (np.zeros_like(vec[0]), np.zeros_like(vec[0]))
        levels = _tree(*_cell_matrices(sigma, flat[block], derivative))
        leaves, far = _sweep(levels, vec, backward)
        out[:, slice(1, None) if backward else slice(0, -1), block] = [x[:sigma.m] for x in leaves]
        out[:, 0 if backward else -1, block] = [x[0] for x in far]
    if not np.all(np.isfinite(out)):
        raise StepFailure("propagation produced non-finite values; lambda or sigma out of range")
    out = out.reshape(out.shape[:2] + lam.shape)
    sig = sig.reshape((-1,) + (1,) * lam.ndim)
    res = [out[0], out[1] - sig * out[0]]
    if derivative:
        res += [out[2], out[3] - sig * out[2]]
    return tuple(res)


def _to_quasi(t, sig0, sig1):
    """[[1, 0], [-sig1, 1]] T [[1, 0], [sig0, 1]]: (y, y') -> (y, y^{[1]}) at both ends.

    Linear in T, so it maps the lambda-derivative of T the same way.
    """
    t00, t01, t10, t11 = t
    m00 = t00 + sig0 * t01
    return np.array([[m00, t01], [t10 + sig0 * t11 - sig1 * m00, t11 - sig1 * t01]])


def _substeps(lam, h, refine):
    rho_mag = float(np.max(np.abs(branch_sqrt(np.atleast_1d(lam)))))
    return max(1, int(np.ceil(rho_mag * h / 0.02))) * max(1, int(refine))


def _propagate_rk4(sigma: SigmaFunction, lam, y0, yq0, refine=1, record=False):
    """RK4 on the first-order quasi-derivative system with linearly interpolated sigma."""
    lam = complex(lam)
    h = sigma.dx
    sig = sigma.samples
    slopes = np.diff(sig) / h
    nsub = _substeps(lam, h, refine)
    hs = h / nsub

    def rhs(sig_x, y, yq):
        return yq + sig_x * y, -sig_x * yq - (sig_x * sig_x + lam) * y

    y, yq = complex(y0), complex(yq0)
    if record:
        ys = np.empty(sigma.m + 1, dtype=complex)
        yqs = np.empty_like(ys)
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
        if record:
            ys[k + 1], yqs[k + 1] = y, yq
    if not (np.isfinite(y) and np.isfinite(yq)):
        raise StepFailure("RK4 propagation produced non-finite values")
    if record:
        return {"y": ys, "yq": yqs}
    return {"y": y, "yq": yq}


def solve_cauchy(sigma: SigmaFunction, lam, y0, yq0, direction="forward",
                 method="exact", refine=1) -> Trajectory:
    """Solve the Cauchy problem for one lambda and return the node samples.

    Forward starts from x = 0, backward from x = X (exact method only: the
    node values come from the adjugates of suffix products).
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    if method == "exact":
        y, yq = (x[:, 0] for x in node_values(sigma, [lam], y0, yq0, direction=direction))
    elif method == "rk4":
        if direction == "backward":
            raise ValueError("the RK4 cross-check runs forward only")
        out = _propagate_rk4(sigma, lam, y0, yq0, refine=refine, record=True)
        y, yq = out["y"], out["yq"]
    else:
        raise ValueError(f"unknown method {method!r}")
    return Trajectory(x=sigma.nodes, y=y, yq=yq, lam=complex(lam), direction=direction)


def fundamental_pair(sigma: SigmaFunction, lam, method="exact", refine=1):
    """Trajectories S (y(0)=0, y^{[1]}(0)=1) and C (y(0)=1, y^{[1]}(0)=0)."""
    s = solve_cauchy(sigma, lam, 0.0, 1.0, method=method, refine=refine)
    c = solve_cauchy(sigma, lam, 1.0, 0.0, method=method, refine=refine)
    return s, c


def lambda_derivative(sigma: SigmaFunction, lam, which="S") -> Trajectory:
    """Samples of (d/dlambda y, d/dlambda y^{[1]}) for the fundamental solution `which`."""
    if which not in ("S", "C"):
        raise ValueError("which must be 'S' or 'C'")
    y0, yq0 = (0.0, 1.0) if which == "S" else (1.0, 0.0)
    _, _, dy, dyq = (x[:, 0] for x in node_values(sigma, [lam], y0, yq0, derivative=True))
    return Trajectory(x=sigma.nodes, y=dy, yq=dyq, lam=complex(lam), direction="forward")


def endpoint_data(sigma: SigmaFunction, lams, derivative=False) -> dict:
    """Endpoint values of both fundamental solutions for a batch of lambdas.

    Returns S, S1, C, C1 at x = X (value and quasi-derivative), plus their
    lambda-derivatives when `derivative` is set, all read from one monodromy
    matrix.  This is the workhorse used by the characteristic-function layer.
    """
    res = monodromy(sigma, lams, derivative=derivative)
    m, dm = res if derivative else (res, None)
    out = {"C": m[0, 0], "S": m[0, 1], "C1": m[1, 0], "S1": m[1, 1]}
    if derivative:
        out.update(dC=dm[0, 0], dS=dm[0, 1], dC1=dm[1, 0], dS1=dm[1, 1])
    return out
