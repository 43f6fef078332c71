"""Shared fixtures: corpus problems with precomputed spectra and oracles."""

import warnings

import numpy as np
import pytest

from invsl.errors import NonUniqueWarning
from invsl.forward import extract_cauchy, resample_cauchy
from invsl.halfinverse import hl_entire_pair, hl_spectrum
from invsl.moments import _as_grid
from invsl.ode import _cell_matrices, node_values
from invsl.problems import hl_exclusion_instance, roundtrip_corpus
from invsl.reconstruct import default_basis, reconstruct
from invsl.serialize import complex_array
from invsl.types import Subspectrum


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
    w = base.u.weights()

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
            du = res.u - base.u
            rows.append({
                "omega": float(omega),
                "trial": trial,
                "err_u": float(np.sqrt(abs(
                    np.sum(w * (np.abs(du.h1) ** 2 + np.abs(du.h2) ** 2))
                    + np.sum(np.abs(du.scalars) ** 2)))),
                "err_j": l2(res.cauchy.j - base.cauchy.j),
                "err_g": l2(res.cauchy.g - base.cauchy.g),
                "err_a": float(np.max(np.abs(res.cauchy.a - base.cauchy.a)))
                if res.cauchy.a.size else 0.0,
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
