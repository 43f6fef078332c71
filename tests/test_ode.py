import numpy as np
import pytest

from conftest import fundamental_nodes, sequential_cells
from invsl import ode
from invsl.errors import StepFailure
from invsl.ode import (
    _BLOCK,
    _tree,
    endpoint_data,
    monodromy,
    node_values,
    rk4_node_values,
)
from invsl.problems import sigma_random_smooth, sigma_step
from invsl.trig import cos_sinc_sqrt
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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_short_products(self, n):
        # the tree on 1-3 factors (one is a no-op, three pads with the identity)
        rng = np.random.default_rng(n)
        mats = rng.standard_normal((n, 2, 2, 5)) + 1j * rng.standard_normal((n, 2, 2, 5))
        prod = _tree(tuple(mats[:, i, j] for i in (0, 1) for j in (0, 1)))[-1]
        for col in range(5):
            ref = np.eye(2)
            for k in range(n):
                ref = mats[k, :, :, col] @ ref
            got = np.array([x[0, col] for x in prod]).reshape(2, 2)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

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
        seen = []

        def record(z2):
            seen.append(z2.dtype)
            return cos_sinc_sqrt(z2)

        monkeypatch.setattr(ode, "cos_sinc_sqrt", record)
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
