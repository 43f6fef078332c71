import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    fundamental_nodes,
    interleaved_monodromy,
    interleaved_node_values,
    sequential_cells,
)
import invsl
from invsl import ode
from invsl.errors import StepFailure
from invsl.ode import (
    _BLOCK,
    _cell_matrices,
    _leaf_order,
    _tree,
    endpoint_data,
    monodromy,
    node_values,
    rk4_node_values,
)
from invsl.problems import sigma_random_smooth, sigma_step
from invsl.trig import _TAYLOR_RADIUS, cos_sinc_sqrt
from invsl.types import SigmaFunction


@pytest.fixture(scope="module")
def sig0():
    return SigmaFunction.zero(np.pi, 512)


class TestClosedForms:
    def test_free_sine(self, sig0):
        y, yq = (v[:, 0] for v in node_values(sig0, [1.0], 0.0, 1.0))
        assert abs(y[-1]) <= 1e-8
        assert abs(yq[-1] + 1.0) <= 1e-8
        assert np.max(np.abs(y - np.sin(sig0.nodes))) <= 1e-10

    def test_constant_sigma_shift(self):
        # q = sigma' = 0, so y = sin(rho x)/rho and only the quasi-derivative shifts
        c, rho = 0.7, 2.0
        sig = SigmaFunction(np.full(513, c, dtype=complex), np.pi)
        y, yq = (v[:, 0] for v in node_values(sig, [rho**2], 0.0, 1.0))
        x = sig.nodes
        assert np.max(np.abs(y - np.sin(rho * x) / rho)) <= 1e-10
        assert np.max(np.abs(yq - (np.cos(rho * x) - c * np.sin(rho * x) / rho))) <= 1e-10

    def test_lambda_zero(self, sig0):
        s, s1, c, c1 = fundamental_nodes(sig0, 0.0)
        assert np.max(np.abs(s - sig0.nodes)) <= 1e-10
        assert np.max(np.abs(s1 - 1.0)) <= 1e-10
        assert np.max(np.abs(c - 1.0)) <= 1e-10
        assert np.max(np.abs(c1)) <= 1e-10

    def test_fundamental_pair_lam4(self, sig0):
        s, _, c, c1 = fundamental_nodes(sig0, 4.0)
        assert abs(s[-1]) <= 1e-8                        # sin(2 pi)/2
        assert abs(c[-1] - 1.0) <= 1e-8                  # cos(2 pi)
        assert abs(c1[-1]) <= 1e-8


class TestStepSigma:
    def test_endpoint_vs_refined_rk4(self):
        sig = sigma_step(512, height=1.0)
        coarse = rk4_node_values(sig, 4.0, 0.0, 1.0, refine=1)
        fine = rk4_node_values(sig, 4.0, 0.0, 1.0, refine=4)
        assert abs(coarse[0][-1] - fine[0][-1]) <= 1e-6
        assert abs(coarse[1][-1] - fine[1][-1]) <= 1e-6

    def test_exact_path_matches_rk4_oracle(self):
        # dual-route check: cell-exact propagator vs refined RK4 on the same object
        sig = sigma_step(256, height=1.0)
        for lam in (1.0, 4.0, 17.3, -2.0, 2.5 + 0.4j):
            ex = [v[-1, 0] for v in node_values(sig, [lam], 0.3, -0.8)]
            rk = [v[-1] for v in rk4_node_values(sig, lam, 0.3, -0.8, refine=8)]
            assert abs(ex[0] - rk[0]) <= 2e-9 * max(1, abs(rk[0]))
            assert abs(ex[1] - rk[1]) <= 2e-9 * max(1, abs(rk[1]))


class TestWronskian:
    def test_twenty_random_draws(self):
        rng = np.random.default_rng(11)
        for k in range(20):
            kind = k % 3
            if kind == 0:
                sig = sigma_random_smooth(512, scale=rng.uniform(0.2, 1.0), seed=k)
            elif kind == 1:
                sig = sigma_step(512, height=rng.uniform(-1, 1.5),
                                 at=rng.uniform(0.3, 0.7) * np.pi)
            else:
                sig = SigmaFunction(rng.standard_normal(513) * 0.4 + 0j, np.pi)
            lam = rng.uniform(0.2, 80) + (rng.uniform(-0.5, 0.5) if k % 2 else 0.0) * 1j
            s, s1, c, c1 = fundamental_nodes(sig, lam)
            residual = np.max(np.abs(c * s1 - c1 * s - 1.0))
            assert residual <= 1e-8


class TestProperties:
    def test_conjugate_symmetry_for_real_sigma(self):
        sig = sigma_random_smooth(256, scale=0.7, seed=9)
        lam = 3.0 + 1.2j
        e = endpoint_data(sig, [lam, np.conj(lam)])
        for key in ("S", "C", "S1", "C1"):
            assert abs(e[key][1] - np.conj(e[key][0])) <= 1e-10 * max(1, abs(e[key][0]))

    def test_rk4_order_at_least_three(self):
        # fixed piecewise-linear object; halving the substep cuts the endpoint
        # error by >= 8 (order >= 3; classical RK4 gives ~16)
        sig = sigma_random_smooth(64, scale=0.8, seed=2)
        lam = 9.0
        ref = [v[-1, 0] for v in node_values(sig, [lam], 0.0, 1.0)]   # cell-exact
        errs = []
        for refine in (1, 2, 4):
            y, yq = rk4_node_values(sig, lam, 0.0, 1.0, refine=refine)
            errs.append(abs(y[-1] - ref[0]) + abs(yq[-1] - ref[1]))
        assert errs[0] / errs[1] >= 8
        assert errs[1] / errs[2] >= 8

    def test_step_failure_on_overflow(self):
        sig = SigmaFunction.zero(np.pi, 64)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StepFailure):
                node_values(sig, [-1e8], 0.0, 1.0)

    def test_determinism(self):
        sig = sigma_random_smooth(128, seed=5)
        a = node_values(sig, [7.7], 0.1, 0.9)
        b = node_values(sig, [7.7], 0.1, 0.9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# Tree against loop: the pairwise product reorders the same cell products, so
# the two agree to a few hundred eps of the largest entry per lambda, growing
# with the cell count (measured max 7.0e-14 over these cases, 14x headroom).
TREE_RTOL = 1e-12
# |det M - 1| relative to (max |M_ij|)^2, the scale of the rounding in
# m00 m11 - m01 m10; measured max 3.0e-14 over |lambda| <= 1e3 (33x headroom).
DET_RTOL = 1e-12


def _sequential_endpoints(sig, lam):
    """endpoint_data's quantities from the last node of the recorded cell loop."""
    out = {}
    for name, (y0, yq0) in (("S", (0.0, 1.0)), ("C", (1.0, 0.0))):
        rec = sequential_cells(sig, lam, y0, yq0 + sig.samples[0] * y0)
        y = rec["y"][-1]
        out[name], out[name + "1"] = y, rec["v"][-1] - sig.samples[-1] * y
    return out


def _normwise_dev(a, b, keys):
    scale = np.max([np.abs(b[k]) for k in keys], axis=0)
    return np.max([np.abs(a[k] - b[k]) for k in keys], axis=0) / scale


class TestMonodromy:
    # SigmaFunction needs at least 16 cells; 17 and 257 pad odd levels of the tree
    @pytest.mark.parametrize("m", [16, 17, 257, 512])
    @pytest.mark.parametrize("batch", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 1400])
    def test_matches_sequential_loop(self, m, batch):
        sig = sigma_random_smooth(m, scale=0.8, seed=m)
        rng = np.random.default_rng(batch)
        real = rng.uniform(-20.0, 1000.0, batch)
        for lam in (real, real + 1j * rng.uniform(-3.0, 3.0, batch)):
            tree = endpoint_data(sig, lam)
            loop = _sequential_endpoints(sig, lam)
            assert tree["S"].shape == lam.shape
            assert np.max(_normwise_dev(tree, loop, ["S", "S1", "C", "C1"])) <= TREE_RTOL

    @pytest.mark.parametrize("n", range(1, 10))
    def test_short_products(self, n):
        # the tree on 1-9 factors placed in leaf order (one is a no-op, odd
        # levels carry their last factor; beyond three the leaf order is no
        # longer the cell order)
        rng = np.random.default_rng(n)
        mats = rng.standard_normal((n, 2, 2, 5)) + 1j * rng.standard_normal((n, 2, 2, 5))
        work = np.empty((4, 4 * n, 5), complex)   # room for every level and the scratch
        work[:, :n] = mats.transpose(1, 2, 0, 3).reshape(4, n, 5)[:, _leaf_order(n)]
        prod = _tree(work, n)[-1]
        for col in range(5):
            ref = np.eye(2)
            for k in range(n):
                ref = mats[k, :, :, col] @ ref
            got = np.array([x[0, col] for x in prod]).reshape(2, 2)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("m", [16, 17, 33, 100, 257, 512, 1024])
    @pytest.mark.parametrize("batch", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_bit_identical_to_the_interleaved_tree(self, m, batch):
        # contiguous halves in leaf order multiply the same pairs in the same
        # association as adjacent rows in cell order, so the propagator's
        # results equal the interleaved reference to the last bit
        sig = sigma_random_smooth(m, scale=0.8, seed=m)
        rng = np.random.default_rng(batch)
        real = rng.uniform(-20.0, 1000.0, batch)
        for lam in (real, real + 1j * rng.uniform(-3.0, 3.0, batch)):
            assert np.array_equal(monodromy(sig, lam), interleaved_monodromy(sig, lam))
            got, ref = node_values(sig, lam, 0.3, -0.8), interleaved_node_values(sig, lam, 0.3, -0.8)
            assert all(np.array_equal(g, r) for g, r in zip(got, ref))

    @pytest.mark.parametrize("m", [16, 17, 257, 512])
    @pytest.mark.parametrize("batch", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 1400])
    def test_real_path_matches_complex_path(self, m, batch):
        # an imaginary part far below rounding sends the same lambdas through
        # the complex128 tree
        sig = sigma_random_smooth(m, scale=0.8, seed=m)
        lam = np.random.default_rng(batch).uniform(-20.0, 1000.0, batch)
        real = endpoint_data(sig, lam)
        cplx = endpoint_data(sig, lam + 1e-200j)
        assert real["S"].dtype == np.complex128
        assert np.max(_normwise_dev(real, cplx, ["S", "S1", "C", "C1"])) <= TREE_RTOL

    def test_arithmetic_follows_inputs(self, monkeypatch):
        # the dtype of the cell workspace that the product tree reduces
        seen = []
        tree = ode._tree

        def record(work, n):
            seen.append(work.dtype)
            return tree(work, n)

        monkeypatch.setattr(ode, "_tree", record)
        sig = sigma_random_smooth(64, scale=0.8, seed=3)
        sig_c = SigmaFunction(sig.samples + 0.1j * np.sin(sig.nodes), sig.interval_length)
        cases = [(sig, [1.0, 2.0 + 0j], np.float64), (sig, [1.0, 2.0 + 1e-200j], np.complex128),
                 (sig_c, [1.0, 2.0], np.complex128)]
        for s, lam, dtype in cases:
            seen.clear()
            monodromy(s, np.array(lam))
            assert seen == [dtype]

    def test_unit_determinant(self):
        # Lagrange identity over |lambda| <= 1e3: the real axis (float64 tree),
        # where the entries reach e^(pi sqrt(1000)) on the negative side, and
        # three rays of complex rho (complex128 tree)
        sig = sigma_random_smooth(512, scale=0.8, seed=7)
        rho = np.linspace(0.0, np.sqrt(1000.0), 500)
        rays = np.concatenate([(rho + 1j * b) ** 2 for b in (0.25, 0.5, 1.0)])
        for lam in (np.linspace(-1000.0, 1000.0, 2001), rays[np.abs(rays) <= 1000.0]):
            m = monodromy(sig, lam)
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            scale = np.max(np.abs(m.reshape(4, -1)), axis=0) ** 2
            assert np.max(np.abs(det - 1.0) / scale) <= DET_RTOL

    def test_step_failure_on_overflow(self):
        sig = SigmaFunction.zero(np.pi, 64)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StepFailure):
                endpoint_data(sig, [1.0, -1e8])

    def test_cells_straddling_the_taylor_radius(self):
        # lambdas at which some cells take the Taylor polynomial of
        # cos_sinc_sqrt (|z2| <= R) and the others its direct formula: det M
        # = 1 and the RK4 cross-check, on the real axis (both signs) and off it
        sig = sigma_random_smooth(64, scale=0.8, seed=4)
        h = sig.dx
        slopes = np.diff(sig.samples.real) / h
        ring = _TAYLOR_RADIUS / h**2 * np.array([1.0, -1.0, np.exp(0.5j), np.exp(2.5j)])
        lam = np.median(slopes) + ring
        far = np.abs((lam[None] - slopes[:, None]) * h * h) > _TAYLOR_RADIUS
        assert np.all(np.any(far, axis=0)) and np.all(np.any(~far, axis=0))
        for batch in (lam[:2].real, lam[2:]):
            m = monodromy(sig, batch)
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            scale = np.max(np.abs(m.reshape(4, -1)), axis=0) ** 2
            assert np.max(np.abs(det - 1.0) / scale) <= DET_RTOL
            for k, lv in enumerate(batch):
                ends = m[:, 0, k] * 0.3 + m[:, 1, k] * -0.8
                rk = [v[-1] for v in rk4_node_values(sig, lv, 0.3, -0.8, refine=8)]
                assert np.max(np.abs(ends - rk)) <= 2e-9 * max(1.0, np.max(np.abs(rk)))


EPS = np.finfo(float).eps
# a smooth sigma, a step whose one steep cell has |s| h^2 = 0.8 R (R =
# _TAYLOR_RADIUS), so that only |lambda| h^2 <= 0.2 R takes the product, and
# a complex sigma
_SMOOTH = sigma_random_smooth(512, scale=0.8, seed=2)
TAYLOR_SIGMAS = {
    "smooth": _SMOOTH,
    "step": sigma_step(512, height=0.8 * _TAYLOR_RADIUS * 512 / np.pi),
    "complex": SigmaFunction(_SMOOTH.samples + 0.3j * np.sin(2.0 * _SMOOTH.nodes), np.pi),
}


def _cell_slopes(sig):
    return np.diff(sig.samples.real if sig.is_real() else sig.samples) / sig.dx


def _taylor_edge(sig):
    """The |lambda| at which |lambda| h^2 + max |s| h^2 = _TAYLOR_RADIUS."""
    return _TAYLOR_RADIUS / sig.dx**2 - np.max(np.abs(_cell_slopes(sig)))


class TestTaylorCells:
    """The cells of a lambda with |lambda| h^2 + max |s| h^2 <= R, from the
    Taylor polynomials of cos_sinc_sqrt expanded in powers of lambda h^2 (one
    matrix product per block of lambdas)."""

    @pytest.mark.parametrize("name", list(TAYLOR_SIGMAS))
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_match_cos_sinc_sqrt(self, name, kind, monkeypatch):
        # every entry within 8 eps of its scale (1, h and (|lambda| + |s|) h)
        # of cos_sinc_sqrt's cells, out to the edge
        sig = TAYLOR_SIGMAS[name]
        h, slopes, edge = sig.dx, _cell_slopes(sig), _taylor_edge(sig) * (1.0 - 1e-12)
        rng = np.random.default_rng(5)
        lam = edge * rng.uniform(-1.0, 1.0, 64)
        if kind == "complex":
            lam = edge * rng.uniform(0.0, 1.0, 64) * np.exp(1j * rng.uniform(-np.pi, np.pi, 64))
        lam[:2] = edge, -edge
        if not sig.is_real():
            lam = lam.astype(complex)
        calls = []
        monkeypatch.setattr(ode, "cos_sinc_sqrt", calls.append)
        got = _cell_matrices(sig, lam)
        assert not calls
        mu2 = lam[None] - slopes[:, None]
        c, sinc = cos_sinc_sqrt(mu2 * h * h)
        ref = c, sinc * h, -mu2 * sinc * h, c
        scales = 1.0, h, (np.abs(lam)[None] + np.abs(slopes)[:, None]) * h, 1.0
        for g, r, scale in zip(got, ref, scales):
            assert np.max(np.abs(g - r) / scale) <= 8 * EPS

    @pytest.mark.parametrize("name", list(TAYLOR_SIGMAS))
    def test_against_mpmath_on_the_edge(self, name):
        # |lambda| h^2 + max |s| h^2 = R on four rays, at the steepest cell and
        # three others, against 30 digits (measured at most 2 eps of the scale)
        mpmath = pytest.importorskip("mpmath")
        sig = TAYLOR_SIGMAS[name]
        h, slopes, edge = sig.dx, _cell_slopes(sig), _taylor_edge(sig) * (1.0 - 1e-12)
        rays = edge * np.exp(1j * np.array([0.7, -2.0]))
        batches = [np.array([edge, -edge]).astype(slopes.dtype), rays]
        cells = [int(np.argmax(np.abs(slopes))), 0, 100, 300]
        with mpmath.workdps(30):
            for lam in batches:
                got = _cell_matrices(sig, lam)
                for k in cells:
                    for j, lv in enumerate(lam):
                        z2 = (mpmath.mpc(complex(lv)) - mpmath.mpc(complex(slopes[k]))) * mpmath.mpf(h) ** 2
                        w = mpmath.sqrt(z2)
                        ref = mpmath.cos(w), mpmath.sinc(w) * h, -z2 / h * mpmath.sinc(w)
                        scales = 1.0, h, (abs(lv) + abs(slopes[k])) * h
                        for g, r, scale in zip(got[:3, k, j], ref, scales):
                            assert abs(complex(g) - complex(r)) <= 4 * EPS * scale

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_the_edge_splits_the_paths(self, dtype, monkeypatch):
        # lambdas a relative 1e-12 inside the edge take the product, those as
        # far outside take cos_sinc_sqrt, on every cell and only they
        sig = sigma_random_smooth(64, scale=0.8, seed=3)
        edge = _taylor_edge(sig)
        lam = (edge * np.array([1 - 1e-12, -(1 - 1e-12), 1 + 1e-12, -(1 + 1e-12)])).astype(dtype)
        calls = []

        def record(z2):
            calls.append(z2)
            return cos_sinc_sqrt(z2)

        monkeypatch.setattr(ode, "cos_sinc_sqrt", record)
        _cell_matrices(sig, lam)
        mu2 = lam[None, 2:] - _cell_slopes(sig)[:, None]
        assert len(calls) == 1 and np.array_equal(calls[0], mu2 * (sig.dx * sig.dx))

    @pytest.mark.parametrize("batch", [1, 2, 63, 64, 65, 129])
    @pytest.mark.parametrize("kind", ["real", "complex lambda", "complex sigma"])
    def test_batch_equals_single_lambdas(self, batch, kind):
        # lambdas on both sides of the edge, so that blocks mix the product
        # and cos_sinc_sqrt: every column equals its lambda run alone, bit
        # for bit (BLAS rounds no column by the width of the product)
        sig = sigma_random_smooth(257, scale=0.8, seed=6)
        if kind == "complex sigma":
            sig = SigmaFunction(sig.samples + 0.2j * np.sin(sig.nodes), np.pi)
        rng = np.random.default_rng(batch)
        lam = _taylor_edge(sig) * rng.uniform(-1.3, 1.3, batch)
        if kind == "complex lambda":
            lam = lam + 1j * rng.uniform(-3.0, 3.0, batch)
        if batch > 60:
            near = np.abs(lam) <= _taylor_edge(sig)
            assert np.any(near[:64]) and not np.all(near[:64])
        mono = monodromy(sig, lam)
        y, yq = node_values(sig, lam, 0.3, -0.8)
        for k, lv in enumerate(lam):
            assert np.array_equal(monodromy(sig, [lv])[..., 0], mono[..., k])
            yk, yqk = node_values(sig, [lv], 0.3, -0.8)
            assert np.array_equal(yk[:, 0], y[:, k]) and np.array_equal(yqk[:, 0], yq[:, k])


class TestLeafOrder:
    def test_permutation_ending_with_the_last_cell(self):
        for m in [*range(1, 40), 100, 257, 512, 1024, 1025]:
            order = _leaf_order(m)
            assert np.array_equal(np.sort(order), np.arange(m)) and order[-1] == m - 1
            assert not order.flags.writeable

    def test_bit_reversal_at_powers_of_two(self):
        for k in range(11):
            reversed_bits = [int(format(i, f"0{k}b")[::-1] or "0", 2) for i in range(2**k)]
            assert np.array_equal(_leaf_order(2**k), reversed_bits)


def _nodewise_dev(got, ref):
    """Largest deviation over nodes and components, per lambda, relative to
    the largest reference entry of that lambda."""
    scale = np.max([np.max(np.abs(r), axis=0) for r in ref], axis=0)
    return np.max([np.max(np.abs(g - r), axis=0) for g, r in zip(got, ref)], axis=0) / scale


class TestNodeValues:
    # the down-sweep over the tree levels against the sequential cell loop:
    # both apply the same cell matrices, in another order (measured max
    # 1.4e-14 over these cases)
    @pytest.mark.parametrize("m", [16, 17, 257, 512])
    def test_matches_sequential_loop(self, m):
        sig = sigma_random_smooth(m, scale=0.8, seed=m)
        rng = np.random.default_rng(m)
        real = rng.uniform(-20.0, 1000.0, _BLOCK + 1)
        for lam in (real, real + 1j * rng.uniform(-3.0, 3.0, real.size)):
            got = node_values(sig, lam, 0.3, -0.8)
            rec = sequential_cells(sig, lam, 0.3, -0.8 + sig.samples[0] * 0.3)
            ref = (rec["y"], rec["v"] - sig.samples[:, None] * rec["y"])
            assert got[0].shape == (m + 1, lam.size)
            assert got[0].dtype == (np.float64 if lam is real else np.complex128)
            assert np.max(_nodewise_dev(got, ref)) <= TREE_RTOL

    def test_lambda_dependent_start(self):
        # one batch with a start vector per lambda equals single-lambda runs
        sig = sigma_random_smooth(64, scale=0.8, seed=1)
        lam = np.linspace(-3.0, 40.0, 7)
        y, yq = node_values(sig, lam, np.cos(lam), np.sin(lam))
        for k, lv in enumerate(lam):
            yk, yqk = node_values(sig, [lv], np.cos(lv), np.sin(lv))
            assert np.array_equal(yk[:, 0], y[:, k]) and np.array_equal(yqk[:, 0], yq[:, k])


# Four stability experiments (2 x 20 trials, N = 40) of a library caller in a
# fresh process; prints the minor page faults of each, own process only.
_FAULT_SCRIPT = """
import json, resource, sys
from invsl.halfinverse import hl_entire_pair
from invsl.problems import roundtrip_corpus
from invsl.reconstruct import stability_experiment
from invsl.types import Subspectrum
name, pairs = json.load(sys.stdin)
problem = dict(roundtrip_corpus())[name]
f = hl_entire_pair(problem.halves()[1], problem.right_pair)
sub = Subspectrum([complex(*z) for z in pairs])
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    stability_experiment(1, f, sub, 128, omegas=[1e-3, 1e-2], trials=20, seed=0)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts glibc's page faults")
def test_repeated_propagation_does_not_fault_memory_in_again(rt_free):
    # the product tree of every block lives in one workspace per call, so under
    # glibc's default allocator thresholds repeated calls stop paging after the
    # first ones (a tree allocated level by level took 12,000-15,000 faults on
    # each of calls 2-4); the spectrum comes from the parent process, because
    # computing it first would raise the thresholds and hide the faults
    src = str(Path(invsl.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    stdin = json.dumps([rt_free.name, [[z.real, z.imag] for z in rt_free.spectrum.lambdas]])
    run = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT], input=stdin, env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    faults = json.loads(run.stdout)
    assert max(faults[1:]) <= 2000, faults
