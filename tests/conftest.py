"""Shared fixtures: corpus problems with precomputed spectra and oracles."""

import numpy as np
import pytest

from invsl.forward import extract_cauchy, resample_cauchy
from invsl.halfinverse import hl_entire_pair, hl_spectrum
from invsl.ode import _cell_matrices
from invsl.problems import hl_exclusion_instance, roundtrip_corpus
from invsl.serialize import complex_array


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


def sequential_cells(sigma, lams, y0, v0, dlam=False):
    """Reference propagator: the cell matrices applied one at a time, recorded at every node.

    `v0` is y'(0) = y^{[1]}(0) + sigma(0) y(0), and the result holds y and y'
    (keys "y", "v", plus "dy", "dv" with `dlam`), shape (m + 1,) + lam.shape;
    the initial values do not depend on lambda.  The product tree of
    `invsl.ode` reorders the same cell products, so tests compare it with
    this loop.
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
    out = {"y": ys, "v": vs}
    if dlam:
        out.update(dy=dys, dv=dvs)
    return out


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
