"""Shared fixtures: corpus problems with precomputed spectra and oracles."""

import math
import warnings

import numpy as np
import pytest

from invsl.errors import NonUniqueWarning, RootLoss
from invsl.forward import _muller_polish, extract_cauchy, resample_cauchy, winding_count
from invsl.halfinverse import hl_entire_pair, hl_spectrum
from invsl.ode import (
    _BLOCK,
    _TAYLOR_RADIUS,
    _factor_matrices,
    _real_axis,
    _to_quasi,
    node_values,
)
from invsl.problems import hl_exclusion_instance, roundtrip_corpus
from invsl.reconstruct import default_basis, reconstruct
from invsl.serialize import complex_array, pair_to_complex
from invsl.trig import gauss_nodes
from invsl.types import CauchyData, SigmaFunction, Subspectrum

try:
    from hypothesis import settings
except ImportError:    # test_schemas.py skips itself without hypothesis
    pass
else:
    # every run draws the same examples, and none are stored between runs
    settings.register_profile("deterministic", derandomize=True, database=None)
    settings.load_profile("deterministic")


# |det M - 1| relative to (max |M_ij|)^2, the scale of the rounding in
# m00 m11 - m01 m10; measured max 3.0e-14 over |lambda| <= 1e3 (33x headroom).
DET_RTOL = 1e-12


class RoundTrip:
    """One two-sided corpus problem with everything the inverse tests need."""

    def __init__(self, name, problem, count=40):
        self.name = name
        self.problem = problem
        self.spectrum = hl_spectrum(problem, count)
        self.sigma_left, self.sigma_right = problem.halves()
        self.left_pair = problem.left_pair
        self.f = hl_entire_pair(self.sigma_right, problem.right_pair)
        self.oracle = extract_cauchy(self.sigma_left, self.left_pair)

    def oracle_on(self, grid_m):
        return resample_cauchy(self.oracle, grid_m)


@pytest.fixture(scope="session")
def rt_problems():
    return [RoundTrip(name, prob) for name, prob in roundtrip_corpus()]


@pytest.fixture(scope="session")
def rt_free(rt_problems):
    return rt_problems[0]


@pytest.fixture(scope="session")
def rt_robin(rt_problems):
    return rt_problems[1]


@pytest.fixture(scope="session")
def exclusion_case():
    prob = hl_exclusion_instance()
    return RoundTrip("hl_exclusion", prob, count=52)


def rectangle_zeros(delta, rect, depth=0):
    """Zeros of delta in a rectangle ((re_lo, re_hi), (im_lo, im_hi)), in no
    set order: the argument principle on halves of the rectangle, split
    across its longer side until each holds one zero and is under 0.05
    wide, then a Muller polish from its center.  The oracle of
    `circle_zeros` on small windows; it costs about 10^5 delta points per
    zero."""
    count = winding_count(delta, rect)
    if count == 0:
        return []
    (re_lo, re_hi), (im_lo, im_hi) = rect
    width, height = re_hi - re_lo, im_hi - im_lo
    center = 0.5 * (re_lo + re_hi) + 0.5j * (im_lo + im_hi)
    if count == 1 and (max(width, height) < 0.05 or depth >= 24):
        return [_muller_polish(delta, center, 0.25 * max(width, height, 1e-9))]
    if max(width, height) < 1e-9 or depth >= 24:
        return [center] * count
    # a split line may pass through a zero; retry with shifted fractions
    for frac in (0.5, 0.53, 0.47, 0.41, 0.61):
        if width >= height:
            mid = re_lo + frac * width
            rects = [((re_lo, mid), (im_lo, im_hi)), ((mid, re_hi), (im_lo, im_hi))]
        else:
            mid = im_lo + frac * height
            rects = [((re_lo, re_hi), (im_lo, mid)), ((re_lo, re_hi), (mid, im_hi))]
        try:
            return [z for r in rects for z in rectangle_zeros(delta, r, depth + 1)]
        except RootLoss:
            continue
    raise RootLoss("could not isolate zeros by rectangle subdivision")


def reflected(sigma):
    """Antiderivative of the reflected potential: -sigma(X - x)."""
    return SigmaFunction(-sigma.samples[::-1].copy(), sigma.interval_length)


def no_common_zero(f, lams, tol=1e-9):
    """True when the entire pair f has no common zero among `lams`."""
    f1, f2 = f(lams)
    scale = 1.0 + np.abs(f1) + np.abs(f2)
    return bool(np.all((np.abs(f1) > tol * scale) | (np.abs(f2) > tol * scale)))


def scaled(h, c):
    """The product-space element c h."""
    return CauchyData(c * h.j, c * h.g, c * h.a)


def conjugate(data):
    """The moment relation's element u = conj([J, G, A]) of Cauchy data."""
    return CauchyData(np.conj(data.j), np.conj(data.g), np.conj(data.a))


def gauss_panels(f, a, b, panels, order=12):
    """Composite Gauss-Legendre quadrature of a (vector-valued) callable."""
    x, w = gauss_nodes(a, b, panels, order)
    return np.tensordot(f(x), w, axes=([-1], [0]))


def fundamental_nodes(sigma, lam):
    """Node values (s, s1, c, c1) at one lambda of the fundamental solutions S,
    with (y, y^{[1]})(0) = (0, 1), and C, with (1, 0): one `node_values` batch."""
    y, yq = node_values(sigma, [lam, lam], [0.0, 1.0], [1.0, 0.0])
    return y[:, 0], yq[:, 0], y[:, 1], yq[:, 1]


def every_node_count(sigma, left, right, lam):
    """Reference `invsl.forward.count_below`: the sign changes of the left
    solution at every node (`node_values`), its end angle against the right
    condition's and the lifts, for lambdas whose cells have (lambda - s) h^2
    < pi^2, none of which holds two zeros.  The count of `forward` reads the
    nodes of the groups of four cells where it can, so tests compare it with
    this one."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    assert (np.max(lam) - np.min(np.diff(sigma.samples.real)) / sigma.dx) * sigma.dx**2 < np.pi**2
    lifts = left.roots_below(lam), right.roots_below(lam)
    y, yq = node_values(sigma, lam, left.p1(lam).real, -left.p2(lam).real)
    signs = np.vstack((left.p1_sign(lifts[0]) < 0, np.signbit(y[1:])))
    # a zero at X changes sign against the node before it
    signs[-1] = np.where(y[-1] == 0, ~signs[-2], signs[-1])
    changes = np.count_nonzero(signs[1:] != signs[:-1], axis=0)
    r1, r2 = right.p1(lam).real, right.p2(lam).real
    up = np.where((y[-1] > 0) | ((y[-1] == 0) & (yq[-1] > 0)), 1, -1)
    turn = up * -right.p1_sign(lifts[1]) * (y[-1] * r2 + yq[-1] * r1)
    return changes + (turn > 0) + lifts[0] + lifts[1]


def long_double_cells(sigma, lams):
    """The entries (c, sn, msn) of every cell's closed-form matrix [[c, sn],
    [msn, c]] at a 1-D batch of lambdas, shape (m, lambdas) each, in
    np.clongdouble: cos w, h sin(w)/w and -(w^2/h) sin(w)/w at w^2 = (lambda
    - s) h^2.  cos and sin of w = a + ib come from the real long-double
    functions of a and b (cosh b and sinh b from one exp(b), to a
    long-double rounding of cosh b), which numpy evaluates several times
    faster than the complex ones."""
    lam = np.atleast_1d(np.asarray(lams, dtype=complex))
    h = np.longdouble(sigma.dx)
    mu2 = lam.astype(np.clongdouble)[None] - (np.diff(sigma.samples.astype(np.clongdouble)) / h)[:, None]
    w = np.sqrt(mu2 * h * h)
    a, e = w.real, np.exp(w.imag)
    cos_a, sin_a, cosh_b, sinh_b = np.cos(a), np.sin(a), 0.5 * (e + 1 / e), 0.5 * (e - 1 / e)
    c = cos_a * cosh_b - 1j * (sin_a * sinh_b)
    sinc = (sin_a * cosh_b + 1j * (cos_a * sinh_b)) / np.where(w == 0, 1, w) + (w == 0)
    return c, h * sinc, -mu2 * h * sinc


def sequential_cells(sigma, lams, y0, v0):
    """Reference propagator: the cell matrices applied one at a time, recorded at every node.

    `v0` is y'(0) = y^{[1]}(0) + sigma(0) y(0); the start values do not
    depend on lambda, but `y0` and `v0` may hold several start vectors in a
    leading axis (shape (k, 1)) that broadcast against the lambdas.  The
    result holds y and y' (keys "y", "v"), shape (m + 1,) + the broadcast
    shape, in np.clongdouble.  The cells (`long_double_cells`) and their
    products are formed in long double, so the loop adds next to no rounding
    of its own, and tests compare the product tree of `invsl.ode` with it.
    """
    lam = np.atleast_1d(np.asarray(lams, dtype=complex))
    c, sn, msn = long_double_cells(sigma, lam)
    ys = np.empty((sigma.m + 1,) + np.broadcast_shapes(np.shape(y0), np.shape(v0), lam.shape),
                  dtype=np.clongdouble)
    vs = np.empty_like(ys)
    ys[0] = y0
    vs[0] = v0
    for k in range(sigma.m):
        y, v = ys[k], vs[k]
        ys[k + 1] = c[k] * y + sn[k] * v
        vs[k + 1] = msn[k] * y + c[k] * v
    return {"y": ys, "v": vs}


def _interleaved_tree(work, n):
    """Reference product tree: the pairs of every level are adjacent rows (2j,
    2j + 1), and an odd level is padded with the identity."""
    levels, lo = [], 0
    while n > 1:
        if n % 2:
            work[:, lo + n] = [[1], [0], [0], [1]]
            n += 1
        levels.append(work[:, lo:lo + n])
        lo, n = lo + n, n // 2
        a, b, scratch = levels[-1][:, 1::2], levels[-1][:, 0::2], work[0, -n:]
        for (i, j), dst in zip(((0, 0), (0, 1), (2, 0), (2, 1)), work[:, lo:lo + n]):
            np.multiply(a[i], b[j], dst)
            dst += np.multiply(a[i + 1], b[j + 2], scratch)
    levels.append(work[:, lo:lo + 1])
    return levels


def _interleaved_sweep(levels, vec):
    """Reference down-sweep over `_interleaved_tree`'s levels: every pair's
    start and its earlier child's end, interleaved; leaves in cell order."""
    def apply(mats, y, v):
        return mats[0] * y + mats[1] * v, mats[2] * y + mats[3] * v

    vals = np.stack(vec)[:, None]
    last = apply(levels[-1], *vals)
    for mats in reversed(levels[:-1]):
        vals = vals[:, :mats.shape[1] // 2]
        vals = np.stack((vals, np.stack(apply(mats[:, 0::2], *vals))), axis=2)
        vals = vals.reshape(2, mats.shape[1], -1)
    return vals, last


def _interleaved_blocks(factors, lam):
    """(slice, levels of `_interleaved_tree`) per block of `_BLOCK` lambdas,
    from factors(chunk), the block's factors in cell order, shape (4, n,
    chunk size)."""
    for start in range(0, lam.size, _BLOCK):
        mats = factors(lam[start:start + _BLOCK])
        rows, k = 1, mats.shape[1]
        while k > 1:
            k += k % 2
            rows, k = rows + k, k // 2
        work = np.empty((4, rows + (mats.shape[1] + 1) // 2, mats.shape[2]), lam.dtype)
        work[:, :mats.shape[1]] = mats
        yield slice(start, start + _BLOCK), _interleaved_tree(work, mats.shape[1])


def reference_levels(sigma, lam):
    """Cells per factor of every lambda, as `invsl.ode` chooses its levels:
    4 where 16 r <= 1, 2 where 4 r <= 1, 1 elsewhere, with r = |lambda| h^2
    + max |s| h^2."""
    h2 = sigma.dx * sigma.dx
    t = np.max(np.abs(np.diff(sigma.samples) / sigma.dx)) * h2
    return np.select([np.abs(lam) <= (1 / 16 - t) / h2, np.abs(lam) <= (_TAYLOR_RADIUS - t) / h2], [4, 2], 1)


def interleaved_monodromy(sigma, lam):
    """Reference `invsl.ode.monodromy` for a 1-D batch, by the interleaved tree
    over the same factors (`invsl.ode._factor_matrices`, in cell order): the
    groups of four cells, the pairs or the closed-form cells, by
    `reference_levels`."""
    real = _real_axis(sigma, lam)
    lam = lam.real.astype(float) if real else lam.astype(complex)
    out = np.empty((4, lam.size), dtype=lam.dtype)
    rule = reference_levels(sigma, lam)
    for cells in (4, 2, 1):
        cols = np.flatnonzero(rule == cells)
        for block, levels in _interleaved_blocks(
                lambda chunk: _factor_matrices(sigma, chunk, cells), lam[cols]):
            out[:, cols[block]] = levels[-1][:, 0]
    return _to_quasi(out, sigma.samples[0], sigma.samples[-1])


def interleaved_node_values(sigma, lam, y0, yq0):
    """Reference `invsl.ode.node_values` for a 1-D batch and scalar start
    values, by the interleaved tree and sweep over the closed-form cells."""
    real = _real_axis(sigma, lam, y0, yq0)
    dtype = float if real else complex
    lam = lam.real.astype(dtype) if real else lam.astype(dtype)
    sig = sigma.samples.real if real else sigma.samples
    start = np.full(lam.size, y0, dtype), np.full(lam.size, yq0 + sig[0] * y0, dtype)
    out = np.empty((2, sigma.m + 1, lam.size), dtype=dtype)
    for block, levels in _interleaved_blocks(lambda chunk: _factor_matrices(sigma, chunk, 1), lam):
        leaves, last = _interleaved_sweep(levels, (start[0][block], start[1][block]))
        out[:, :-1, block] = leaves[:, :sigma.m]
        out[:, -1, block] = [x[0] for x in last]
    return out[0], out[1] - sig[:, None] * out[0]


def poly_series_loop(degrees, rho, length, s, terms=10):
    """The power series of `invsl.trig.poly_trig` (|rho| length < 1), one row
    per degree m over rho, by one Horner pass whose coefficients are formed
    at every step: the evaluation that the tabled one replaced, kept as its
    bit-for-bit oracle."""
    m = np.array(degrees)[:, None]
    y = -(rho * length) ** 2
    out = 0.0
    for k in range(terms - 1, -1, -1):
        out = out * y + 1.0 / (math.factorial(2 * k + s) * (m + 2 * k + s + 1))
    return out * rho**s * length ** (m + s + 1)


def stability_noise_loop(omegas, trials, n, seed):
    """The rho noise of `invsl.reconstruct.stability_experiment`, drawn trial
    by trial (n real parts, then n imaginary parts) and rescaled to its
    omega, as the element-wise loop that its one draw replaced."""
    rng = np.random.default_rng(seed)
    noise = np.zeros((len(omegas) * trials, n), dtype=complex)
    for i, omega in enumerate(np.repeat(omegas, trials)):
        draw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if omega > 0:
            noise[i] = draw * (omega / np.linalg.norm(draw))
    return noise


def xi_identity_residual_complex(rhos):
    """`invsl.moments.xi_identity_residual` on the unscaled rows sin(rho x)
    and cos(rho x), always in complex128: the evaluation that the scaled,
    float64-where-real one replaced, kept as its oracle."""
    rho = np.atleast_1d(np.asarray(rhos, dtype=complex))
    panels = int(max(24, 4 * np.ceil(np.max(np.abs(rho)))))
    x2, w2 = gauss_nodes(0.0, 2 * np.pi, panels, 12)
    f2 = np.sin(rho[:, None] * x2[None, :])
    lhs = (np.conj(f2) * w2[None, :]) @ f2.T
    n = x2.size // 2
    x1, w1 = x2[:n], w2[:n]
    a_part = f2[:, :n] * np.cos(rho[:, None] * np.pi)
    b_part = -np.cos(rho[:, None] * x1[None, :]) * np.sin(rho[:, None] * np.pi)
    rhs = (np.conj(a_part) * w1[None, :]) @ a_part.T + (np.conj(b_part) * w1[None, :]) @ b_part.T
    norms = np.sqrt(np.abs(np.diag(lhs)))
    return float(np.max(np.abs(lhs - 2.0 * rhs) / np.maximum(np.outer(norms, norms), 1e-300)))


def sequential_stability(p, f, subspectrum, grid, omegas, trials=20, seed=0, reg=0.0):
    """Reference stability experiment: one `reconstruct` per trial, in sequence.

    Draws the noise in the order of `invsl.reconstruct.stability_experiment`
    and solves every perturbed subspectrum on its own (its own f-evaluation,
    design and SVD), over the default basis of the unperturbed subspectrum,
    so tests compare the stacked solve with it.
    """
    noise = iter(stability_noise_loop(omegas, trials, len(subspectrum), seed))
    basis = default_basis(subspectrum, p)
    base = reconstruct(p, f, subspectrum, grid, reg=reg, basis=basis)
    rho0 = subspectrum.rhos
    w = base.weights()

    def l2(vec):
        return float(np.sqrt(np.sum(w * np.abs(vec) ** 2).real))

    rows = []
    for omega in omegas:
        for trial in range(trials):
            rho = rho0 + next(noise)
            pert = Subspectrum(rho * rho)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonUniqueWarning)
                res = reconstruct(p, f, pert, grid, reg=reg, basis=basis)
            dj, dg, da = res.j - base.j, res.g - base.g, res.a - base.a
            rows.append({
                "omega": float(omega),
                "trial": trial,
                "err_u": float(np.sqrt(abs(
                    np.sum(w * (np.abs(dj) ** 2 + np.abs(dg) ** 2)) + np.sum(np.abs(da) ** 2)))),
                "err_j": l2(dj),
                "err_g": l2(dg),
                "err_a": float(np.max(np.abs(da))) if da.size else 0.0,
            })
    summary = {}
    for omega in omegas:
        sel = [r["err_u"] for r in rows if r["omega"] == float(omega)]
        summary[float(omega)] = {
            "median_err_u": float(np.median(sel)),
            "ratio_vs_omega": float(np.median(sel) / omega) if omega > 0 else 0.0,
        }
    pos = [summary[float(o)]["ratio_vs_omega"] for o in omegas if o > 0]
    fitted_c = float(max(pos)) if pos else 0.0
    return {"rows": rows, "summary": summary, "fitted_c": fitted_c, "seed": seed}


def rel_l2(a, b, length=np.pi):
    """Relative L2 distance of two grid functions (trapezoid weights)."""
    a = np.asarray(a)
    b = np.asarray(b)
    m = a.size - 1
    w = np.full(a.size, length / m)
    w[0] = w[-1] = 0.5 * length / m
    num = np.sqrt(np.sum(w * np.abs(a - b) ** 2).real)
    den = np.sqrt(np.sum(w * np.abs(b) ** 2).real)
    return num / max(den, 1e-300)


def assert_json_close(fresh, golden, bounds, path=""):
    """Assert that two parsed JSON documents agree up to stated rounding bounds.

    Key sets, list lengths and every leaf outside ``bounds`` must be identical.
    ``bounds`` maps a dotted field path (``"fit.cond"``) to a function of the
    golden values (a complex array) giving the allowed |fresh - golden|, one
    number or one per entry; the field then passes when every entry is within.
    """
    where = path or "<root>"
    if path in bounds:
        f = complex_array(fresh)
        g = complex_array(golden)
        assert f.shape == g.shape, f"{where}: length {f.size}, golden has {g.size}"
        dev = np.abs(f - g)
        bound = np.broadcast_to(bounds[path](g), dev.shape)
        bad = ~(dev <= bound)  # a NaN fails too
        if bad.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                excess = np.where(bad, np.nan_to_num(dev, nan=np.inf) / bound, 0.0)
            k = int(np.argmax(excess))
            raise AssertionError(f"{where}[{k}]: |fresh - golden| = {dev[k]:.3e} "
                                 f"exceeds its bound {bound[k]:.3e}")
    elif isinstance(golden, dict):
        assert isinstance(fresh, dict), f"{where}: {fresh!r:.80}, golden is an object"
        assert fresh.keys() == golden.keys(), \
            f"{where}: keys differ by {sorted(fresh.keys() ^ golden.keys())}"
        for key in golden:
            assert_json_close(fresh[key], golden[key], bounds, f"{path}.{key}" if path else key)
    elif isinstance(golden, list):
        assert isinstance(fresh, list), f"{where}: {fresh!r:.80}, golden is a list"
        assert len(fresh) == len(golden), f"{where}: length {len(fresh)}, golden has {len(golden)}"
        for k, (a, b) in enumerate(zip(fresh, golden)):
            assert_json_close(a, b, bounds, f"{path}[{k}]")
    else:
        assert type(fresh) is type(golden) and fresh == golden, \
            f"{where}: {fresh!r}, golden has {golden!r}"


# The element-wise JSON helpers that `invsl.serialize` vectorized, kept as
# the oracles of the vectorized ones.

def complex_array_loop(values):
    return np.array([pair_to_complex(v) for v in values], dtype=complex)


def complex_to_pair(z):
    return [complex(z).real, complex(z).imag]


def encode_array_loop(arr):
    return [complex_to_pair(z) for z in np.asarray(arr).ravel()]


def jsonable_loop(value):
    if isinstance(value, dict):
        return {str(k): jsonable_loop(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable_loop(v) for v in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.complexfloating, complex)):
        return complex_to_pair(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if np.isfinite(v) else repr(v)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [jsonable_loop(v) for v in value.ravel()]
    return value
