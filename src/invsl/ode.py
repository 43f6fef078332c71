"""Cauchy problems for the regularized quasi-derivative system.

The stored antiderivative is piecewise linear, so the potential q = sigma' is
constant on every grid cell and y'' = (s_k - lambda) y holds exactly inside
cell k, with a closed-form constant-coefficient 2x2 transfer matrix (the
Pruess piecewise-constant-coefficient method).  Endpoint values come from the
monodromy matrix, the ordered product of all cell matrices, reduced pairwise
in log2(m) vectorized steps over the whole lambda batch; node-by-node
trajectories apply the same cell matrices one at a time.  Cost is independent
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


def _propagate_exact(sigma: SigmaFunction, lams, y0, v0, dlam=False):
    """Sequential cell-by-cell propagation of (y, y'), recorded at every node.

    `v0` is y'(0) = y^{[1]}(0) + sigma(0) y(0); conversion back to the
    quasi-derivative is the caller's job.  The initial conditions do not
    depend on lambda.  This is the trajectory path; endpoint values come
    from `monodromy`, which tests compare against this loop.
    """
    lam = np.atleast_1d(np.asarray(lams, dtype=complex))
    (c, sn, msn, _), dmats = _cell_matrices(sigma, lam, derivative=dlam)

    ys = np.empty((sigma.m + 1,) + lam.shape, dtype=complex)
    vs = np.empty_like(ys)
    ys[0] = y0
    vs[0] = v0
    if dlam:
        dc, dsn, dmsn, _ = dmats
        dys = np.zeros_like(ys)
        dvs = np.zeros_like(ys)
    for k in range(sigma.m):
        y, v = ys[k], vs[k]
        ys[k + 1] = c[k] * y + sn[k] * v
        vs[k + 1] = msn[k] * y + c[k] * v
        if dlam:
            dy, dv = dys[k], dvs[k]
            dys[k + 1] = dc[k] * y + dsn[k] * v + c[k] * dy + sn[k] * dv
            dvs[k + 1] = dmsn[k] * y + msn[k] * dy + dc[k] * v + c[k] * dv

    if not (np.all(np.isfinite(ys[-1])) and np.all(np.isfinite(vs[-1]))):
        raise StepFailure("propagation produced non-finite values; lambda or sigma out of range")
    out = {"y": ys, "v": vs}
    if dlam:
        out.update(dy=dys, dv=dvs)
    return out


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


def _reduce(mats, dmats=None):
    """Ordered product T[n-1] ... T[1] T[0] along axis 0, by pairwise levels.

    `dmats` carries the lambda-derivatives through the same tree by the
    product rule.  An odd level is padded with the identity.
    """
    while mats[0].shape[0] > 1:
        if mats[0].shape[0] % 2:
            one = np.ones_like(mats[0][:1])
            zero = np.zeros_like(one)
            mats = tuple(np.concatenate((x, e)) for x, e in zip(mats, (one, zero, zero, one)))
            if dmats is not None:
                dmats = tuple(np.concatenate((x, zero)) for x in dmats)
        later = tuple(x[1::2] for x in mats)
        earlier = tuple(x[0::2] for x in mats)
        if dmats is not None:
            dlater = tuple(x[1::2] for x in dmats)
            dearlier = tuple(x[0::2] for x in dmats)
            dmats = tuple(p + q for p, q in zip(_matmul(dlater, earlier),
                                                _matmul(later, dearlier)))
        mats = _matmul(later, earlier)
    return mats, dmats


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
    real = not np.any(lam.imag) and sigma.is_real()
    lam = lam.real.astype(float, copy=False) if real else lam.astype(complex, copy=False)
    flat = lam.ravel()
    out = np.empty((8 if derivative else 4, flat.size), dtype=lam.dtype)
    for start in range(0, flat.size, _BLOCK):
        mats, dmats = _reduce(*_cell_matrices(sigma, flat[start:start + _BLOCK], derivative))
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

    Forward starts from x = 0, backward from x = X; backward integration is
    carried out as forward integration of the reflected system.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    if direction == "backward":
        refl = sigma.reflected()
        traj = solve_cauchy(refl, lam, y0, -np.asarray(yq0, complex), "forward",
                            method=method, refine=refine)
        return Trajectory(x=sigma.nodes, y=traj.y[::-1].copy(), yq=-traj.yq[::-1].copy(),
                          lam=complex(lam), direction="backward")

    if method == "exact":
        v0 = np.asarray(yq0, complex) + sigma.samples[0] * np.asarray(y0, complex)
        out = _propagate_exact(sigma, [lam], y0, v0)
        y = out["y"][:, 0]
        yq = out["v"][:, 0] - sigma.samples * y
    elif method == "rk4":
        out = _propagate_rk4(sigma, lam, y0, yq0, refine=refine, record=True)
        y, yq = out["y"], out["yq"]
    else:
        raise ValueError(f"unknown method {method!r}")
    return Trajectory(x=sigma.nodes, y=y, yq=yq, lam=complex(lam), direction="forward")


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
    v0 = yq0 + sigma.samples[0] * y0
    out = _propagate_exact(sigma, [lam], y0, v0, dlam=True)
    dy = out["dy"][:, 0]
    dyq = out["dv"][:, 0] - sigma.samples * dy
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
