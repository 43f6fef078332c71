import warnings

import numpy as np
import pytest

from conftest import reflected, rel_l2, sequential_cells
from invsl import forward
from invsl.errors import ParityMismatch, RootLoss, StepFailure
from invsl.forward import count_below, find_eigenvalues, make_delta
from invsl.halfinverse import (
    TwoSidedProblem,
    hl_entire_pair,
    hl_reconstruct,
    hl_spectrum,
    psi_mid,
)
from invsl.moments import build_moment_system
from invsl.ode import rk4_node_values
from invsl.problems import (
    hl_exclusion_instance,
    hl_step_instance,
    hl_zero_instance,
    roundtrip_corpus,
    sigma_bump,
    sigma_step,
    two_sided_from_left,
)
from invsl.reconstruct import completeness_ratio
from invsl.types import BoundaryPolyPair, SigmaFunction

SIGR0 = SigmaFunction.zero(np.pi, 128)
# adjugate of the monodromy against the reflected sequential run: both reorder
# the same cell products (measured max 1.6e-13 of |M| |b|, 6x headroom)
PSI_RTOL = 1e-12


class TestPsiMid:
    def test_free_right_neumann(self):
        # r = (1, 0): psi(x) = cos(rho (2pi - x))
        psi, psi_q = psi_mid(SIGR0, BoundaryPolyPair([1.0], [0.0]), np.array([2.25 + 0j]))
        rho = 1.5
        assert psi[0] == pytest.approx(np.cos(rho * np.pi), abs=1e-10)
        assert psi_q[0] == pytest.approx(rho * np.sin(rho * np.pi), abs=1e-10)

    def test_free_right_dirichlet_like(self):
        # r = (0, 1): psi(x) = sin(rho (2pi - x))/rho, so the midpoint value is
        # +sin(rho pi)/rho (and the quasi-derivative is -cos(rho pi))
        psi, psi_q = psi_mid(SIGR0, BoundaryPolyPair([0.0], [1.0]), np.array([2.25 + 0j]))
        rho = 1.5
        assert psi[0] == pytest.approx(np.sin(rho * np.pi) / rho, abs=1e-10)
        assert psi_q[0] == pytest.approx(-np.cos(rho * np.pi), abs=1e-10)

    def test_step_right_reflection_oracle(self):
        # independent route: psi = r1 C(2pi - x) + r2 S(2pi - x) with the
        # reflected antiderivative, fundamental pair integrated by RK4
        sig_right = sigma_step(256, height=0.7, at=0.4 * np.pi)
        right_pair = BoundaryPolyPair([1.0], [0.6])
        lam = 3.3
        psi, psi_q = psi_mid(sig_right, right_pair, np.array([lam + 0j]))
        refl = reflected(sig_right)
        s, s1 = (v[-1] for v in rk4_node_values(refl, lam, 0.0, 1.0, refine=6))
        c, c1 = (v[-1] for v in rk4_node_values(refl, lam, 1.0, 0.0, refine=6))
        r1, r2 = right_pair.p1(lam), right_pair.p2(lam)
        psi_ref = r1 * c + r2 * s
        psi_q_ref = -(r1 * c1 + r2 * s1)
        assert psi[0] == pytest.approx(psi_ref, rel=1e-6)
        assert psi_q[0] == pytest.approx(psi_q_ref, rel=1e-6)

    @pytest.mark.parametrize("imag", [0.0, 1.5])
    def test_adjugate_matches_reflected_route(self, imag):
        # previous route: psi pinned at 2pi and carried to pi as a forward run
        # of the reflected system by the sequential cell loop; by linearity
        # psi = r1 C~ + r2 S~ and psi^[1] = -(r1 C~^[1] + r2 S~^[1])
        prob = hl_exclusion_instance()
        _, sig_right = prob.halves()
        pair = prob.right_pair
        assert prob.r == 3
        lam = np.linspace(-4.0, 650.0, 41) + 1j * imag
        refl = reflected(sig_right)
        ends = []
        for y0, yq0 in ((1.0, 0.0), (0.0, 1.0)):
            rec = sequential_cells(refl, lam, y0, yq0 + refl.samples[0] * y0)
            y = rec["y"][-1]
            ends.append((y, -(rec["v"][-1] - refl.samples[-1] * y)))
        (c, cq), (s, sq) = ends
        r1, r2 = pair.p1(lam), pair.p2(lam)
        ref = (r1 * c + r2 * s, r1 * cq + r2 * sq)
        got = psi_mid(sig_right, pair, lam)
        # rounding scale: |M| |b|
        scale = np.max(np.abs([c, cq, s, sq]), axis=0) * np.maximum(abs(r1), abs(r2))
        for g, r in zip(got, ref):
            assert np.max(np.abs(g - r) / scale) <= PSI_RTOL

    def test_step_failure_on_overflow(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StepFailure):
                psi_mid(SigmaFunction.zero(np.pi, 64), BoundaryPolyPair([1.0], [0.0]),
                        np.array([-1e8 + 0j]))


class TestEntirePair:
    def test_signs_and_joint(self):
        right_pair = BoundaryPolyPair([1.0], [0.0])
        f = hl_entire_pair(SIGR0, right_pair)
        lam = np.array([2.25 + 0j])
        f1, f2 = f(lam)
        assert f1[0] == pytest.approx(-np.cos(1.5 * np.pi), abs=1e-10)
        assert f2[0] == pytest.approx(1.5 * np.sin(1.5 * np.pi), abs=1e-10)
        # joint gives psi_mid's values, f1 with flipped sign
        psi, psi_q = psi_mid(SIGR0, right_pair, lam)
        for got, want in zip(f.joint(lam), (-psi, psi_q)):
            assert np.array_equal(got, want)

    def test_no_common_zeros_on_spectrum(self, exclusion_case):
        f1, f2 = exclusion_case.f(exclusion_case.spectrum.lambdas)
        scale = 1 + np.abs(f1) + np.abs(f2)
        assert np.all((np.abs(f1) > 1e-9 * scale) | (np.abs(f2) > 1e-9 * scale))

    def test_growth_envelope(self, exclusion_case):
        # |f1| <= C rho^(r-1), |f2| <= C rho^r, lower bound at alpha = r - 1;
        # the two near-zero eigenvalues sit below the power-law regime, so the
        # envelope constants are fitted from the third eigenvalue on
        r = exclusion_case.problem.r
        eta = exclusion_case.spectrum.take(30)
        rho = np.abs(eta.rhos)[2:]
        lam = np.abs(eta.lambdas)[2:]
        f1, f2 = exclusion_case.f(eta.lambdas)
        f1, f2 = f1[2:], f2[2:]
        c_up = np.max(np.maximum(np.abs(f1) / rho ** (r - 1), np.abs(f2) / rho**r))
        c_low = np.min((np.abs(f1) ** 2 + np.abs(f2) ** 2 / lam) / lam ** (r - 1))
        assert c_up / max(c_low, 1e-300) < 1e3


class TestSpectrum:
    def test_free_neumann_closed_form(self):
        prob = TwoSidedProblem(SigmaFunction.zero(2 * np.pi, 256),
                               BoundaryPolyPair([1.0], [0.0]),
                               BoundaryPolyPair([1.0], [0.0]))
        spec = hl_spectrum(prob, 12)
        exact = ((np.arange(1, 13) - 1) / 2.0) ** 2
        assert np.max(np.abs(spec.lambdas.real - exact)) <= 1e-8

    def test_asymptotic_drift(self):
        prob = hl_zero_instance()
        spec = hl_spectrum(prob, 30)
        n = np.arange(1, 31)
        kappa = spec.rhos.real - (n / 2 - (prob.p + prob.r) / 4)
        assert np.max(np.abs(kappa[4:])) < 0.05
        assert abs(kappa[-1]) < abs(kappa[4])

    def test_step_left_vs_dense_scan(self):
        prob = hl_step_instance()
        spec = hl_spectrum(prob, 12)
        sigma_left, sigma_right = prob.halves()
        from invsl.forward import char_delta
        f = hl_entire_pair(sigma_right, prob.right_pair)

        def delta(lam):
            return np.asarray(char_delta(sigma_left, prob.left_pair, f, lam))

        from test_forward import brute_scan_roots
        oracle = brute_scan_roots(delta, np.arange(0.05, 5.3, 1e-3))
        # the scan window starts above lambda = 0; match oracle roots to the
        # nearest found eigenvalue instead of assuming aligned indexing
        found = spec.lambdas.real
        for root in oracle:
            assert np.min(np.abs(found - root)) <= 1e-6

    def test_even_degree_rejected(self):
        prob = TwoSidedProblem(SigmaFunction.zero(2 * np.pi, 256),
                               BoundaryPolyPair([1.0], [0.0]),
                               BoundaryPolyPair([0.5], [0.3, 1.0]))
        with pytest.raises(ParityMismatch):
            hl_spectrum(prob, 8)


def _count(prob, lam):
    """The eigenvalue count of a two-sided problem below each lambda."""
    return count_below(prob.sigma_full, prob.left_pair, prob.right_pair, lam)


def _scan_spectrum(prob, count):
    """The first `count` roots of delta by the dense scan, which needs no
    count, of the window (-9, ((pi/X) count + 2)^2) with X = 2 pi."""
    sigma_left, sigma_right = prob.halves()
    delta, _ = make_delta(sigma_left, prob.left_pair, hl_entire_pair(sigma_right, prob.right_pair))
    return find_eigenvalues(delta, (-9.0, (0.5 * count + 2.0) ** 2)).take(count)


@pytest.fixture(scope="module")
def scanned():
    """The two-sided problems of the round trips and the asymptotics, 48 roots each."""
    probs = roundtrip_corpus() + [("hl_exclusion", hl_exclusion_instance()),
                                  ("hl_zero", hl_zero_instance()), ("hl_step", hl_step_instance())]
    return [(name, prob, _scan_spectrum(prob, 48).lambdas.real) for name, prob in probs]


class TestIndexedSpectrum:
    def test_count_is_the_index_between_roots(self, scanned):
        # hl_step_instance is off by one at alternating midpoints without
        # the end-angle term; hl_exclusion_instance needs the lift at the
        # root lambda = -0.5 of r1
        for name, prob, lam in scanned:
            assert lam.size == 48, name
            points = np.concatenate(([lam[0] - 1.0], 0.5 * (lam[1:] + lam[:-1])))
            assert np.array_equal(_count(prob, points), np.arange(48)), name

    def test_roots_match_the_scan_index_by_index(self, scanned):
        for name, prob, lam in scanned:
            spec = hl_spectrum(prob, 48)
            assert not spec.fallback and spec.dropped == 0, name
            assert np.max(np.abs(spec.lambdas - lam) / (1.0 + np.abs(lam))) <= 1e-12, name

    def test_roots_closer_than_one_scan_step(self):
        # a barrier q = 100 on |x - pi| < 0.3 leaves two nearly equal wells,
        # whose eigenvalues pair up 1.8e-4 to 1.1e-3 apart in sqrt(lambda), inside
        # one 0.02 step of the dense scan; r2 = sigma(2pi) makes the right
        # condition y'(2pi) = 0, the mirror image of the left one
        x = np.linspace(0.0, 2 * np.pi, 513)
        sigma = SigmaFunction(100.0 * np.clip(x - (np.pi - 0.3), 0.0, 0.6), 2 * np.pi)
        prob = TwoSidedProblem(sigma, BoundaryPolyPair([1.0], [0.0]),
                               BoundaryPolyPair([1.0], [60.0]))
        spec = hl_spectrum(prob, 6)
        rho = np.sqrt(spec.lambdas.real)
        assert np.all(np.diff(rho)[0::2] < 2e-3)
        sigma_left, sigma_right = prob.halves()
        delta, _ = make_delta(sigma_left, prob.left_pair,
                              hl_entire_pair(sigma_right, prob.right_pair))
        from test_forward import brute_scan_roots
        for k in (0, 2, 4):
            oracle = brute_scan_roots(delta, np.linspace(rho[k] - 1e-3, rho[k + 1] + 1e-3, 2001))
            assert oracle.size == 2
            assert np.max(np.abs(oracle - spec.lambdas.real[k:k + 2])) <= 1e-9
        # the scan sees no sign change across either root of a pair
        scan = _scan_spectrum(prob, 6).lambdas.real
        assert not np.any(np.abs(scan[:, None] - spec.lambdas.real[None, :]) <= 1e-3)

    def test_forced_count_mismatch_raises(self, monkeypatch):
        # a count one too high above a point between two roots certifies a
        # bracket in which delta keeps its sign
        prob = hl_zero_instance(128)
        lam = hl_spectrum(prob, 8).lambdas.real
        cut = 0.5 * (lam[3] + lam[4])
        true_count = forward.count_below
        monkeypatch.setattr(forward, "count_below",
                            lambda *args: true_count(*args) + (np.asarray(args[-1]) > cut))
        with pytest.raises(RootLoss):
            hl_spectrum(prob, 8)

    def test_count_refuses_unresolved_cells(self):
        # 32 cells on (0, 2pi): a cell can hold two zeros once lambda h^2 >= pi^2
        prob = hl_zero_instance(16)
        assert _count(prob, [250.0])[0] > 0
        with pytest.raises(RootLoss):
            _count(prob, [260.0])

    def test_non_herglotz_pair_falls_back_to_the_scan(self):
        # r1' r2 - r1 r2' = -0.2 < 0: the right angle turns the count down;
        # the count over a dense grid is not monotone there, while at the
        # bracket ends it is, and two roots would go missing without the
        # check of the pair
        prob = two_sided_from_left(sigma_bump(256, amp=0.15), BoundaryPolyPair([1.0], [0.2]),
                                   BoundaryPolyPair([-0.5, 1.0], [0.8, -2.0]))
        counts = _count(prob, np.linspace(-6.0, 30.0, 2000))
        assert np.any(np.diff(counts) < 0)
        spec = hl_spectrum(prob, 8)
        assert spec.fallback
        assert np.array_equal(spec.lambdas, _scan_spectrum(prob, 8).lambdas)
        assert not hl_spectrum(hl_exclusion_instance(256), 8).fallback
        # the left end is checked on its own: p1 p2' - p1' p2 = -0.75 < 0
        left = two_sided_from_left(sigma_bump(256, amp=0.15),
                                   BoundaryPolyPair([0.5, 1.0], [0.8, 0.1]),
                                   BoundaryPolyPair([1.0], [0.2]))
        assert hl_spectrum(left, 8).fallback


class TestReconstructDriver:
    def test_drop_zero_and_one_succeed(self, exclusion_case):
        oracle = exclusion_case.oracle_on(128)
        _, sigma_right = exclusion_case.problem.halves()
        for drop in (0, 1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = hl_reconstruct(sigma_right, exclusion_case.problem.right_pair,
                                     1, exclusion_case.spectrum.take(40 + drop), drop, 128)
            assert rel_l2(res.j, oracle.j) <= 1e-3
            assert rel_l2(res.g, oracle.g) <= 1e-3
            assert np.max(np.abs(res.a - oracle.a)) <= 1e-3
            assert res.meta["completeness"]["gram_ratio"] > 1e-8

    def test_rank_evidence_from_the_solved_system(self, exclusion_case):
        # the completeness block reads the moment system the solve built; it
        # must equal the evidence of an independently built system exactly
        _, sigma_right = exclusion_case.problem.halves()
        used = exclusion_case.spectrum.take(41).drop_first(1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = hl_reconstruct(sigma_right, exclusion_case.problem.right_pair,
                                 1, exclusion_case.spectrum.take(41), 1, 128)
        rebuilt = build_moment_system(used, exclusion_case.f, 1, 128)
        assert res.meta["n_rows"] == len(used)
        assert res.meta["completeness"] == completeness_ratio(rebuilt)

    def test_drop_two_collapses(self, exclusion_case):
        _, sigma_right = exclusion_case.problem.halves()
        with pytest.warns(Warning):
            res = hl_reconstruct(sigma_right, exclusion_case.problem.right_pair,
                                 1, exclusion_case.spectrum.take(50), 2, 128)
        assert res.meta["completeness"]["gram_ratio"] <= 1e-8
        assert res.meta["drop_allowed"] == 1

    def test_step_instance_qualitative(self):
        # kink-bearing kernels: the round trip saturates at percent level
        # with forty eigenvalues (see the decisions ledger)
        prob = hl_step_instance()
        spec = hl_spectrum(prob, 40)
        sigma_left, sigma_right = prob.halves()
        from invsl.forward import extract_cauchy, resample_cauchy
        oracle = resample_cauchy(extract_cauchy(sigma_left, prob.left_pair, n_modes=128), 128)
        res = hl_reconstruct(sigma_right, prob.right_pair, 1, spec, 0, 128)
        assert rel_l2(res.j, oracle.j) <= 5e-2
        assert rel_l2(res.g, oracle.g) <= 2.5e-1
        assert np.max(np.abs(res.a - oracle.a)) <= 1e-3


class TestTwoSidedValidation:
    def test_interval_checked(self):
        with pytest.raises(ValueError):
            TwoSidedProblem(SigmaFunction.zero(np.pi, 128),
                            BoundaryPolyPair([1.0], [0.0]),
                            BoundaryPolyPair([1.0], [0.0]))

    def test_halves_roundtrip(self):
        prob = hl_exclusion_instance(m_half=64)
        left, right = prob.halves()
        assert left.m == right.m == 64
        assert abs(left.interval_length - np.pi) < 1e-12
