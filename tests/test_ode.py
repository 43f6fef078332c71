import numpy as np
import pytest

from conftest import sequential_cells
from invsl import ode
from invsl.errors import StepFailure
from invsl.ode import (
    _BLOCK,
    _tree,
    endpoint_data,
    fundamental_pair,
    lambda_derivative,
    monodromy,
    node_values,
    solve_cauchy,
)
from invsl.problems import sigma_random_smooth, sigma_step
from invsl.trig import cos_sinc_sqrt
from invsl.types import SigmaFunction


@pytest.fixture(scope="module")
def sig0():
    return SigmaFunction.zero(np.pi, 512)


class TestClosedForms:
    def test_free_sine(self, sig0):
        t = solve_cauchy(sig0, 1.0, 0.0, 1.0)
        assert abs(t.y[-1]) <= 1e-8
        assert abs(t.yq[-1] + 1.0) <= 1e-8
        assert np.max(np.abs(t.y - np.sin(t.x))) <= 1e-10

    def test_constant_sigma_shift(self):
        # q = sigma' = 0, so y = sin(rho x)/rho and only the quasi-derivative shifts
        c, rho = 0.7, 2.0
        sig = SigmaFunction(np.full(513, c, dtype=complex), np.pi)
        t = solve_cauchy(sig, rho**2, 0.0, 1.0)
        assert np.max(np.abs(t.y - np.sin(rho * t.x) / rho)) <= 1e-10
        assert np.max(np.abs(t.yq - (np.cos(rho * t.x) - c * np.sin(rho * t.x) / rho))) <= 1e-10

    def test_lambda_zero(self, sig0):
        s, c = fundamental_pair(sig0, 0.0)
        assert np.max(np.abs(s.y - s.x)) <= 1e-10
        assert np.max(np.abs(s.yq - 1.0)) <= 1e-10
        assert np.max(np.abs(c.y - 1.0)) <= 1e-10
        assert np.max(np.abs(c.yq)) <= 1e-10

    def test_fundamental_pair_lam4(self, sig0):
        s, c = fundamental_pair(sig0, 4.0)
        assert abs(s.y[-1]) <= 1e-8                      # sin(2 pi)/2
        assert abs(c.y[-1] - 1.0) <= 1e-8                # cos(2 pi)
        assert abs(c.yq[-1]) <= 1e-8


class TestStepSigma:
    def test_endpoint_vs_refined_rk4(self):
        sig = sigma_step(512, height=1.0)
        coarse = solve_cauchy(sig, 4.0, 0.0, 1.0, method="rk4", refine=1)
        fine = solve_cauchy(sig, 4.0, 0.0, 1.0, method="rk4", refine=4)
        assert abs(coarse.y[-1] - fine.y[-1]) <= 1e-6
        assert abs(coarse.yq[-1] - fine.yq[-1]) <= 1e-6

    def test_exact_path_matches_rk4_oracle(self):
        # dual-route check: cell-exact propagator vs refined RK4 on the same object
        sig = sigma_step(256, height=1.0)
        for lam in (1.0, 4.0, 17.3, -2.0, 2.5 + 0.4j):
            ex = solve_cauchy(sig, lam, 0.3, -0.8)
            rk = solve_cauchy(sig, lam, 0.3, -0.8, method="rk4", refine=8)
            assert abs(ex.y[-1] - rk.y[-1]) <= 2e-9 * max(1, abs(rk.y[-1]))
            assert abs(ex.yq[-1] - rk.yq[-1]) <= 2e-9 * max(1, abs(rk.yq[-1]))


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
            s, c = fundamental_pair(sig, lam)
            residual = np.max(np.abs(c.y * s.yq - c.yq * s.y - 1.0))
            assert residual <= 1e-8


class TestLambdaDerivative:
    def test_closed_form_at_free(self, sig0):
        # d/dlambda [sin(rho pi)/rho] at lambda = 1 equals -pi/2
        d = lambda_derivative(sig0, 1.0, "S")
        assert d.y[-1] == pytest.approx(-np.pi / 2, rel=1e-7)

    def test_finite_difference_cross_check(self):
        sig = sigma_random_smooth(256, scale=0.6, seed=4)
        lam, h = 2 + 0.5j, 1e-5
        e = endpoint_data(sig, [lam - h, lam + h, lam], derivative=True)
        for key in ("S", "C", "S1", "C1"):
            fd = (e[key][1] - e[key][0]) / (2 * h)
            assert abs(fd - e["d" + key][2]) <= 1e-5 * max(1, abs(fd))

    def test_regular_at_lambda_zero(self, sig0):
        d = lambda_derivative(sig0, 0.0, "C")
        assert np.all(np.isfinite(d.y)) and np.all(np.isfinite(d.yq))


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
        ref = solve_cauchy(sig, lam, 0.0, 1.0)          # cell-exact reference
        errs = []
        for refine in (1, 2, 4):
            t = solve_cauchy(sig, lam, 0.0, 1.0, method="rk4", refine=refine)
            errs.append(abs(t.y[-1] - ref.y[-1]) + abs(t.yq[-1] - ref.yq[-1]))
        assert errs[0] / errs[1] >= 8
        assert errs[1] / errs[2] >= 8

    def test_backward_is_reflected_forward(self, sig0):
        t = solve_cauchy(sig0, 4.0, 1.0, 0.0, direction="backward")
        assert np.max(np.abs(t.y - np.cos(2 * (np.pi - t.x)))) <= 1e-10

    def test_step_failure_on_overflow(self):
        sig = SigmaFunction.zero(np.pi, 64)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StepFailure):
                solve_cauchy(sig, -1e8, 0.0, 1.0)

    def test_determinism(self):
        sig = sigma_random_smooth(128, seed=5)
        a = solve_cauchy(sig, 7.7, 0.1, 0.9)
        b = solve_cauchy(sig, 7.7, 0.1, 0.9)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.yq, b.yq)


# Tree against loop: the pairwise product reorders the same cell products, so
# the two agree to a few hundred eps of the largest entry per lambda, growing
# with the cell count (measured max 7.0e-14 over these cases, 14x headroom).
TREE_RTOL = 1e-12
# |det M - 1| relative to (max |M_ij|)^2, the scale of the rounding in
# m00 m11 - m01 m10; measured max 3.0e-14 over |lambda| <= 1e3 (33x headroom).
DET_RTOL = 1e-12


def _sequential_endpoints(sig, lam, derivative):
    """endpoint_data's quantities from the last node of the recorded cell loop."""
    out = {}
    for name, (y0, yq0) in (("S", (0.0, 1.0)), ("C", (1.0, 0.0))):
        rec = sequential_cells(sig, lam, y0, yq0 + sig.samples[0] * y0, dlam=derivative)
        y = rec["y"][-1]
        out[name], out[name + "1"] = y, rec["v"][-1] - sig.samples[-1] * y
        if derivative:
            dy = rec["dy"][-1]
            out["d" + name], out["d" + name + "1"] = dy, rec["dv"][-1] - sig.samples[-1] * dy
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
            for derivative in (False, True):
                tree = endpoint_data(sig, lam, derivative=derivative)
                loop = _sequential_endpoints(sig, lam, derivative)
                keys = ["S", "S1", "C", "C1"]
                assert tree["S"].shape == lam.shape
                assert np.max(_normwise_dev(tree, loop, keys)) <= TREE_RTOL
                if derivative:
                    dkeys = ["d" + k for k in keys]
                    assert np.max(_normwise_dev(tree, loop, dkeys)) <= TREE_RTOL

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_short_products(self, n):
        # the tree on 1-3 factors (one is a no-op, three pads with the identity)
        rng = np.random.default_rng(n)
        mats = rng.standard_normal((n, 2, 2, 5)) + 1j * rng.standard_normal((n, 2, 2, 5))
        dmats = rng.standard_normal((n, 2, 2, 5))
        prod, dprod = _tree(tuple(mats[:, i, j] for i in (0, 1) for j in (0, 1)),
                            tuple(dmats[:, i, j] for i in (0, 1) for j in (0, 1)))[-1]
        for col in range(5):
            ref, dref = np.eye(2), np.zeros((2, 2))
            for k in range(n):
                a, da = mats[k, :, :, col], dmats[k, :, :, col]
                ref, dref = a @ ref, da @ ref + a @ dref
            got = np.array([x[0, col] for x in prod]).reshape(2, 2)
            dgot = np.array([x[0, col] for x in dprod]).reshape(2, 2)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
            assert np.max(np.abs(dgot - dref)) <= 1e-14 * np.max(np.abs(dref))

    @pytest.mark.parametrize("m", [16, 17, 257, 512])
    @pytest.mark.parametrize("batch", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 1400])
    def test_real_path_matches_complex_path(self, m, batch):
        # an imaginary part far below rounding sends the same lambdas through
        # the complex128 tree
        sig = sigma_random_smooth(m, scale=0.8, seed=m)
        lam = np.random.default_rng(batch).uniform(-20.0, 1000.0, batch)
        for derivative in (False, True):
            real = endpoint_data(sig, lam, derivative=derivative)
            cplx = endpoint_data(sig, lam + 1e-200j, derivative=derivative)
            keys = ["S", "S1", "C", "C1"]
            assert real["S"].dtype == np.complex128
            assert np.max(_normwise_dev(real, cplx, keys)) <= TREE_RTOL
            if derivative:
                dkeys = ["d" + k for k in keys]
                assert np.max(_normwise_dev(real, cplx, dkeys)) <= TREE_RTOL

    def test_arithmetic_follows_inputs(self, monkeypatch):
        seen = []

        def record(z2, derivative=False):
            seen.append(z2.dtype)
            return cos_sinc_sqrt(z2, derivative)

        monkeypatch.setattr(ode, "cos_sinc_sqrt", record)
        sig = sigma_random_smooth(64, scale=0.8, seed=3)
        sig_c = SigmaFunction(sig.samples + 0.1j * np.sin(sig.nodes), sig.interval_length)
        cases = [(sig, [1.0, 2.0 + 0j], np.float64), (sig, [1.0, 2.0 + 1e-200j], np.complex128),
                 (sig_c, [1.0, 2.0], np.complex128)]
        for s, lam, dtype in cases:
            seen.clear()
            monodromy(s, np.array(lam), derivative=True)
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
            with pytest.raises(StepFailure):
                endpoint_data(sig, [-1e8], derivative=True)


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
            got = node_values(sig, lam, 0.3, -0.8, derivative=True)
            rec = sequential_cells(sig, lam, 0.3, -0.8 + sig.samples[0] * 0.3, dlam=True)
            s = sig.samples[:, None]
            ref = (rec["y"], rec["v"] - s * rec["y"], rec["dy"], rec["dv"] - s * rec["dy"])
            assert got[0].shape == (m + 1, lam.size)
            assert got[0].dtype == (np.float64 if lam is real else np.complex128)
            assert np.max(_nodewise_dev(got[:2], ref[:2])) <= TREE_RTOL
            assert np.max(_nodewise_dev(got[2:], ref[2:])) <= TREE_RTOL
            plain = node_values(sig, lam, 0.3, -0.8)
            assert np.array_equal(plain[0], got[0]) and np.array_equal(plain[1], got[1])

    @pytest.mark.parametrize("m", [16, 17, 257, 512])
    def test_backward_matches_reflected_loop(self, m):
        # adjugates of suffix products against the loop on the reflected
        # system, which runs from x = X as a forward problem (y^[1] changes sign)
        sig = sigma_random_smooth(m, scale=0.8, seed=m)
        refl = sig.reflected()
        rng = np.random.default_rng(m)
        real = rng.uniform(-20.0, 1000.0, _BLOCK + 1)
        for lam in (real, real + 1j * rng.uniform(-3.0, 3.0, real.size)):
            got = node_values(sig, lam, 0.3, -0.8, derivative=True, direction="backward")
            rec = sequential_cells(refl, lam, 0.3, 0.8 + refl.samples[0] * 0.3, dlam=True)
            s = refl.samples[:, None]
            ref = (rec["y"][::-1], -(rec["v"] - s * rec["y"])[::-1],
                   rec["dy"][::-1], -(rec["dv"] - s * rec["dy"])[::-1])
            assert np.max(_nodewise_dev(got[:2], ref[:2])) <= TREE_RTOL
            assert np.max(_nodewise_dev(got[2:], ref[2:])) <= TREE_RTOL

    def test_lambda_dependent_start(self):
        # one batch with a start vector per lambda equals single-lambda runs
        sig = sigma_random_smooth(64, scale=0.8, seed=1)
        lam = np.linspace(-3.0, 40.0, 7)
        y, yq = node_values(sig, lam, np.cos(lam), np.sin(lam))
        for k, lv in enumerate(lam):
            yk, yqk = node_values(sig, [lv], np.cos(lv), np.sin(lv))
            assert np.array_equal(yk[:, 0], y[:, k]) and np.array_equal(yqk[:, 0], yq[:, k])
