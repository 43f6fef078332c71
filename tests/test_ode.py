import numpy as np
import pytest

from invsl.errors import StepFailure
from invsl.ode import (
    _BLOCK,
    _propagate_exact,
    _reduce,
    endpoint_data,
    fundamental_pair,
    lambda_derivative,
    monodromy,
    solve_cauchy,
)
from invsl.problems import sigma_random_smooth, sigma_step
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
        rec = _propagate_exact(sig, lam, y0, yq0 + sig.samples[0] * y0, dlam=derivative)
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
        prod, dprod = _reduce(tuple(mats[:, i, j] for i in (0, 1) for j in (0, 1)),
                              tuple(dmats[:, i, j] for i in (0, 1) for j in (0, 1)))
        for col in range(5):
            ref, dref = np.eye(2), np.zeros((2, 2))
            for k in range(n):
                a, da = mats[k, :, :, col], dmats[k, :, :, col]
                ref, dref = a @ ref, da @ ref + a @ dref
            got = np.array([x[0, col] for x in prod]).reshape(2, 2)
            dgot = np.array([x[0, col] for x in dprod]).reshape(2, 2)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
            assert np.max(np.abs(dgot - dref)) <= 1e-14 * np.max(np.abs(dref))

    def test_unit_determinant(self):
        # Lagrange identity over |lambda| <= 1e3: the real axis, where the
        # entries reach e^(pi sqrt(1000)) on the negative side, and three rays
        # of complex rho
        sig = sigma_random_smooth(512, scale=0.8, seed=7)
        rho = np.linspace(0.0, np.sqrt(1000.0), 500)
        lam = np.concatenate([np.linspace(-1000.0, 1000.0, 2001)]
                             + [(rho + 1j * b) ** 2 for b in (0.25, 0.5, 1.0)])
        lam = lam[np.abs(lam) <= 1000.0]
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
