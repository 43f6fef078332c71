"""Shared fixtures: corpus problems with precomputed spectra and oracles."""

import warnings

import numpy as np
import pytest

from invsl.errors import NonUniqueWarning, RootLoss
from invsl.forward import _muller_polish, extract_cauchy, resample_cauchy, winding_count
from invsl.halfinverse import hl_entire_pair, hl_spectrum
from invsl.moments import _as_grid
from invsl.ode import _cell_matrices, node_values
from invsl.problems import hl_exclusion_instance, roundtrip_corpus
from invsl.reconstruct import default_basis, reconstruct
from invsl.serialize import complex_array, complex_to_pair, pair_to_complex
from invsl.trig import gauss_nodes
from invsl.types import HpVector, SigmaFunction, Subspectrum

try:
    from hypothesis import settings
except ImportError:    # test_schemas.py skips itself without hypothesis
    pass
else:
    # every run draws the same examples, and none are stored between runs
    settings.register_profile("deterministic", derandomize=True, database=None)
    settings.load_profile("deterministic")


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
    return HpVector(c * h.h1, c * h.h2, c * h.scalars)


def gauss_panels(f, a, b, panels, order=12):
    """Composite Gauss-Legendre quadrature of a (vector-valued) callable."""
    x, w = gauss_nodes(a, b, panels, order)
    return np.tensordot(f(x), w, axes=([-1], [0]))


def fundamental_nodes(sigma, lam):
    """Node values (s, s1, c, c1) at one lambda of the fundamental solutions S,
    with (y, y^{[1]})(0) = (0, 1), and C, with (1, 0): one `node_values` batch."""
    y, yq = node_values(sigma, [lam, lam], [0.0, 1.0], [1.0, 0.0])
    return y[:, 0], yq[:, 0], y[:, 1], yq[:, 1]


def sequential_cells(sigma, lams, y0, v0):
    """Reference propagator: the cell matrices applied one at a time, recorded at every node.

    `v0` is y'(0) = y^{[1]}(0) + sigma(0) y(0), and the result holds y and y'
    (keys "y", "v"), shape (m + 1,) + lam.shape; the initial values do not
    depend on lambda.  The product tree of `invsl.ode` reorders the same cell
    products, so tests compare it with this loop.
    """
    lam = np.atleast_1d(np.asarray(lams, dtype=complex))
    c, sn, msn, _ = _cell_matrices(sigma, lam)
    ys = np.empty((sigma.m + 1,) + lam.shape, dtype=complex)
    vs = np.empty_like(ys)
    ys[0] = y0
    vs[0] = v0
    for k in range(sigma.m):
        y, v = ys[k], vs[k]
        ys[k + 1] = c[k] * y + sn[k] * v
        vs[k + 1] = msn[k] * y + c[k] * v
    return {"y": ys, "v": vs}


def sequential_stability(p, f, subspectrum, grid, omegas, trials=20, seed=0, reg=0.0):
    """Reference stability experiment: one `reconstruct` per trial, in sequence.

    Draws the noise in the order of `invsl.reconstruct.stability_experiment`
    and solves every perturbed subspectrum on its own (its own f-evaluation,
    design and SVD), over the default basis of the unperturbed subspectrum,
    so tests compare the stacked solve with it.
    """
    rng = np.random.default_rng(seed)
    t = _as_grid(grid)
    basis = default_basis(subspectrum, p)
    base = reconstruct(p, f, subspectrum, t, reg=reg, basis=basis)
    rho0 = subspectrum.rhos
    w = base.weights()

    def l2(vec):
        return float(np.sqrt(np.sum(w * np.abs(vec) ** 2).real))

    rows = []
    for omega in omegas:
        for trial in range(trials):
            noise = rng.standard_normal(len(subspectrum)) + 1j * rng.standard_normal(len(subspectrum))
            if omega > 0:
                noise *= omega / np.linalg.norm(noise)
            else:
                noise = np.zeros_like(noise)
            rho = rho0 + noise
            pert = Subspectrum(rho * rho)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonUniqueWarning)
                res = reconstruct(p, f, pert, t, reg=reg, basis=basis)
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
