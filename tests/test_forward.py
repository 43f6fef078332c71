import numpy as np
import pytest

from conftest import fundamental_nodes
from invsl.errors import IllConditioned, PoleProximity
from invsl.forward import (
    char_delta,
    char_pair,
    extract_cauchy,
    find_eigenvalues,
    make_delta,
    resample_cauchy,
    weyl,
    refine_brackets,
    winding_count,
    _solve_family,
)
from invsl.halfinverse import hl_entire_pair
from invsl.problems import sigma_bump, sigma_step
from invsl.reconstruct import deltas_from_cauchy
from invsl.types import BoundaryPolyPair, EntirePair, SigmaFunction

SIG0 = SigmaFunction.zero(np.pi, 512)
PAIR_FREE = BoundaryPolyPair([1.0], [0.0])
F_DIR = EntirePair.constant(0.0, 1.0)
F_NEU = EntirePair.constant(1.0, 0.0)


def brute_scan_roots(fn, rho_grid):
    """Independent oracle: dense scan plus plain bisection on lambda."""
    lam_grid = rho_grid**2
    vals = np.real(np.asarray(fn(lam_grid.astype(complex))))
    roots = []
    for i in np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]:
        lo, hi = lam_grid[i], lam_grid[i + 1]
        flo = vals[i]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = float(np.real(fn(np.array([mid + 0j]))[0]))
            if (fm < 0) == (flo < 0):
                lo, flo = mid, fm
            else:
                hi = mid
            if hi - lo < 1e-13 * (1 + abs(hi)):
                break
        roots.append(0.5 * (lo + hi))
    return np.array(roots)


class TestCharPair:
    def test_free_closed_forms(self):
        lam = np.array([4.0, 2.5, 0.25], dtype=complex)
        d0, d1 = char_pair(SIG0, PAIR_FREE, lam)
        rho = np.sqrt(lam)
        assert np.max(np.abs(d1 + rho * np.sin(rho * np.pi))) <= 1e-10
        assert np.max(np.abs(d0 - np.cos(rho * np.pi))) <= 1e-10

    def test_lambda_zero_values(self):
        # S(x,0)=x, C(x,0)=1 so Delta1 = -b0 and Delta0 = 1 - b0 pi
        pair = BoundaryPolyPair([1.0], [0.7])
        d0, d1 = char_pair(SIG0, pair, np.array([0.0 + 0j]))
        assert d1[0] == pytest.approx(-0.7, abs=1e-10)
        assert d0[0] == pytest.approx(1 - 0.7 * np.pi, abs=1e-10)

    def test_compositional_oracle_p3(self):
        sig = sigma_step(512, height=1.0)
        pair = BoundaryPolyPair([0.2, 1.0], [0.5, 0.1])
        lam = np.array([2.5 + 0j])
        d0, d1 = char_pair(sig, pair, lam)
        s, s1, c, c1 = fundamental_nodes(sig, 2.5)
        p1, p2 = pair.p1(lam[0]), pair.p2(lam[0])
        assert d1[0] == pytest.approx(p1 * c1[-1] - p2 * s1[-1], rel=1e-12)
        assert d0[0] == pytest.approx(p1 * c[-1] - p2 * s[-1], rel=1e-12)


class TestCharDelta:
    def test_dirichlet_and_neumann_kinds(self):
        lam = np.array([2.0, 5.5], dtype=complex)
        rho = np.sqrt(lam)
        assert np.allclose(char_delta(SIG0, PAIR_FREE, F_DIR, lam),
                           np.cos(rho * np.pi), atol=1e-10)
        assert np.allclose(char_delta(SIG0, PAIR_FREE, F_NEU, lam),
                           -rho * np.sin(rho * np.pi), atol=1e-10)

    def test_half_problem_composite_zero_set(self):
        # zero potential on both halves with free ends: the composite
        # characteristic function vanishes exactly where rho sin(2 rho pi) does
        f = hl_entire_pair(SigmaFunction.zero(np.pi, 128), PAIR_FREE)
        delta = lambda lam: np.asarray(char_delta(SIG0, PAIR_FREE, f, lam))
        grid = np.linspace(0.05, 6.0, 4000)
        found = brute_scan_roots(delta, grid)
        expected = brute_scan_roots(lambda lam: np.sqrt(lam) * np.sin(2 * np.sqrt(lam) * np.pi),
                                    grid)
        assert found.size == expected.size
        assert np.max(np.abs(found - expected)) <= 1e-6


class TestFindEigenvalues:
    def test_dirichlet_closed_form(self):
        delta, _ = make_delta(SIG0, PAIR_FREE, F_DIR)
        spec = find_eigenvalues(delta, (-1.0, 150.0))
        exact = (np.arange(1, 11) - 0.5) ** 2
        assert np.max(np.abs(spec.lambdas[:10].real - exact)) <= 1e-9

    def test_neumann_includes_zero(self):
        delta, _ = make_delta(SIG0, PAIR_FREE, F_NEU)
        spec = find_eigenvalues(delta, (-1.0, 100.0))
        exact = np.arange(0, 10) ** 2
        assert np.max(np.abs(spec.lambdas[:10].real - exact)) <= 1e-9

    def test_refine_evaluates_only_open_brackets(self):
        # criterion 01's zero-potential problem with lambda = n^2, n >= 0; the
        # scan grid on the signed-sqrt axis misses every root, and the bracket
        # [-1e-4, 1e-4] of lambda = 0, where delta is flat to second order in
        # s, converges like the others because refinement runs in lambda
        delta, _ = make_delta(SIG0, PAIR_FREE, F_NEU)
        s = np.linspace(-0.31, 11.69, 601)
        lam = np.sign(s) * s * s
        fv = np.real(delta(lam))
        idx = np.nonzero(np.signbit(fv[:-1]) != np.signbit(fv[1:]))[0]
        exact = np.arange(0.0, 12.0) ** 2
        assert idx.size == exact.size
        sizes = []

        def counted(lam):
            sizes.append(np.size(lam))
            return delta(lam)

        roots = refine_brackets(counted, lam[idx], lam[idx + 1], fv[idx], fv[idx + 1])
        assert sizes[0] == idx.size and sizes[-1] < idx.size
        assert all(later <= earlier for earlier, later in zip(sizes, sizes[1:]))
        assert np.max(np.abs(roots - exact) / (1.0 + exact)) <= 1e-12

    def test_step_sigma_vs_dense_scan(self):
        sig = sigma_step(512, height=1.0)
        delta, _ = make_delta(sig, PAIR_FREE, F_DIR)
        spec = find_eigenvalues(delta, (0.01, 144.0))
        oracle = brute_scan_roots(delta, np.arange(0.1, 12.0, 1e-3))
        n = min(len(spec), oracle.size)
        assert np.max(np.abs(spec.lambdas[:n].real - oracle[:n])) <= 1e-6

    def test_complex_window_synthetic(self):
        zeros = np.array([2 + 1j, 5.0 + 0j, 8 - 0.5j])

        def delta(lam):
            lam = np.asarray(lam, dtype=complex)
            out = np.ones_like(lam)
            for z in zeros:
                out = out * (lam - z)
            return out * np.exp(0.01 * lam)

        spec = find_eigenvalues(delta, (0.0, 10.0), imag_band=2.0)
        assert len(spec) == 3
        found = np.sort_complex(spec.lambdas)
        assert np.max(np.abs(found - np.sort_complex(zeros))) <= 1e-8

    def test_winding_count(self):
        def delta(lam):
            lam = np.asarray(lam, dtype=complex)
            return (lam - 1.0) * (lam - 3.0) * (lam - 2 - 1j)

        assert winding_count(delta, ((0.0, 4.0), (-2.0, 2.0))) == 3
        assert winding_count(delta, ((0.0, 4.0), (-0.5, 0.5))) == 2


class TestWeyl:
    def test_zero_at_quarter(self):
        assert weyl(SIG0, PAIR_FREE, 0.25) == pytest.approx(0.0, abs=1e-10)

    def test_pole_proximity(self):
        with pytest.raises(PoleProximity):
            weyl(SIG0, PAIR_FREE, 4.0)

    def test_step_sigma_matches_raw_trajectories(self):
        sig = sigma_step(512, height=0.8)
        pair = BoundaryPolyPair([1.0], [0.3])
        rng = np.random.default_rng(8)
        lam = rng.uniform(0.3, 40, 20) + 0j
        m = weyl(sig, pair, lam)
        for i, lv in enumerate(lam):
            s, s1, c, c1 = fundamental_nodes(sig, lv)
            p1, p2 = pair.p1(lv), pair.p2(lv)
            direct = (p1 * c[-1] - p2 * s[-1]) / (p1 * c1[-1] - p2 * s1[-1])
            assert m[i] == pytest.approx(direct, rel=1e-10)

    def test_poles_are_delta1_zeros(self):
        sig = sigma_bump(256, amp=0.4)
        pair = BoundaryPolyPair([1.0], [0.3])
        delta1, _ = make_delta(sig, pair, None)
        zeros = find_eigenvalues(delta1, (-2.0, 60.0))

        def recip(lam):
            d0, d1 = char_pair(sig, pair, np.asarray(lam, dtype=complex))
            # real arithmetic can round d0 to 0.0 at a pole
            with np.errstate(divide="ignore", invalid="ignore"):
                return d1 / d0

        # the reciprocal Weyl function vanishes exactly at the poles; sign scan
        # crossings at the interlacing poles of d1/d0 are rejected by the
        # residual filter inside find_eigenvalues
        poles = find_eigenvalues(recip, (-2.0, 60.0))
        n = min(len(zeros), len(poles))
        assert n >= 6
        assert np.max(np.abs(zeros.lambdas[:n] - poles.lambdas[:n])) <= 1e-6


class TestNoCommonZeros:
    def test_on_computed_subspectra(self):
        sig = sigma_bump(256, amp=0.5)
        pair = BoundaryPolyPair([1.0], [0.4])
        d1fn, _ = make_delta(sig, pair, None)
        theta = find_eigenvalues(d1fn, (-2.0, 80.0))
        d0, d1 = char_pair(sig, pair, theta.lambdas)
        scale = np.abs(d0) + np.abs(d1)
        assert np.all(np.abs(d0) > 1e-6 * scale)
        delta0 = lambda lam: char_pair(sig, pair, lam)[0]
        mu = find_eigenvalues(delta0, (-2.0, 80.0))
        d0m, d1m = char_pair(sig, pair, mu.lambdas)
        assert np.all(np.abs(d1m) > 1e-6 * (np.abs(d0m) + np.abs(d1m)))

    def test_theta_asymptotics_tail_decays(self):
        # sqrt(theta_n) - (n - N1 - 1) should look square-summable
        pair = BoundaryPolyPair([1.0], [0.4])
        sig = sigma_bump(256, amp=0.5)
        d1fn, _ = make_delta(sig, pair, None)
        theta = find_eigenvalues(d1fn, (-2.0, 1700.0)).take(40)
        n = np.arange(1, 41)
        kappa = np.abs(theta.rhos - (n - pair.n1 - 1))
        tails = np.cumsum((kappa**2)[::-1])[::-1]
        assert np.all(np.diff(tails) <= 1e-15)
        assert tails[20] <= 0.5 * tails[0]


class TestExtractCauchy:
    def test_trivial_pair_exact(self):
        cd = extract_cauchy(SIG0, PAIR_FREE, n_modes=48)
        assert np.max(np.abs(cd.j)) <= 1e-7
        assert np.max(np.abs(cd.g)) <= 1e-7
        assert np.max(np.abs(cd.a)) <= 1e-7

    def test_constant_kernels_for_robin_pair(self):
        # closed form: J = b0, G = -b0, A1 = -b0 for sigma = 0, p1 = 1, p2 = b0
        b0 = 0.4
        cd = extract_cauchy(SIG0, BoundaryPolyPair([1.0], [b0]), n_modes=48)
        assert np.max(np.abs(cd.j - b0)) <= 1e-8
        assert np.max(np.abs(cd.g + b0)) <= 1e-8
        assert cd.a[0] == pytest.approx(-b0, abs=1e-9)

    def test_heldout_closure_p3(self):
        pair = BoundaryPolyPair([0.2, 1.0], [0.5, 0.1])
        cd = extract_cauchy(SIG0, pair, n_modes=48)
        rng = np.random.default_rng(5)
        lam = rng.uniform(0.2, 30, 50) + 0j
        d0r, d1r = deltas_from_cauchy(resample_cauchy(cd, 16384), pair.p, lam)
        d0, d1 = char_pair(SIG0, pair, lam)
        scale = np.maximum(np.abs(d0), np.abs(d1))
        assert np.max(np.abs(d1r - d1) / scale) <= 1e-6
        assert np.max(np.abs(d0r - d0) / scale) <= 1e-6

    def test_heldout_closure_step_sigma(self):
        # kink-bearing kernels cap the harmonic fit near 1e-3; see the ledger
        sig = sigma_step(512, height=1.0)
        cd = extract_cauchy(sig, PAIR_FREE, n_modes=64)
        rng = np.random.default_rng(6)
        lam = rng.uniform(0.2, 30, 50) + 0j
        d0r, d1r = deltas_from_cauchy(resample_cauchy(cd, 4096), 1, lam)
        d0, d1 = char_pair(sig, pair=PAIR_FREE, lam=lam)
        scale = np.maximum(np.abs(d0), np.abs(d1))
        assert np.max(np.abs(d1r - d1) / scale) <= 5e-3
        assert np.max(np.abs(d0r - d0) / scale) <= 5e-3

    def test_ill_conditioned_raise(self):
        rng = np.random.default_rng(0)
        col = rng.standard_normal(40)
        design = np.stack([col, col * (1 + 1e-14), rng.standard_normal(40)], axis=1)
        with pytest.raises(IllConditioned):
            _solve_family(design, rng.standard_normal(40))
