import warnings

import numpy as np
import pytest

from conftest import every_node_count, fundamental_nodes, rectangle_zeros
from invsl import forward, halfinverse
from invsl.errors import CommonRoot, IllConditioned, PoleProximity, RootLoss
from invsl.forward import (
    char_delta,
    char_pair,
    circle_zeros,
    count_below,
    extract_cauchy,
    find_eigenvalues,
    index_search,
    make_delta,
    resample_cauchy,
    weyl,
    refine_brackets,
    winding_count,
    _solve_family,
)
from invsl.halfinverse import hl_entire_pair, problem_spectrum
from invsl.ode import _cells_per_factor
from invsl.problems import forward_corpus, hl_exclusion_instance, roundtrip_corpus, sigma_bump, sigma_step
from invsl.reconstruct import deltas_from_cauchy
from invsl.types import BoundaryPolyPair, EntirePair, SigmaFunction

SIG0 = SigmaFunction.zero(np.pi, 512)
PAIR_FREE = BoundaryPolyPair([1.0], [0.0])
F_DIR = EntirePair.constant(0.0, 1.0)
F_NEU = EntirePair.constant(1.0, 0.0)
RIGHT_DIR = BoundaryPolyPair([0.0], [1.0])   # the right pair (f1, f2) of F_DIR
RIGHT_NEU = BoundaryPolyPair([1.0], [0.0])   # and of F_NEU


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

    def test_refine_through_a_stalled_secant(self):
        # delta falls from 2.7e172 to -1.9e86 across this bracket, so its
        # secant point rounds onto the upper end, where the bracket does not
        # move; bisection steps stand in until the two ends are within 16
        # orders of magnitude, and Anderson-Bjoerck then reaches index 0
        # (without them refinement returned the upper end, -4032.25)
        sig = SigmaFunction.from_callable(lambda x: 0.3 * np.sin(x), np.pi, 512)
        delta, _ = make_delta(sig, BoundaryPolyPair([1.0], [120.0]), F_DIR)
        ends = np.array([-127.5**2, -63.5**2])
        fa, fb = np.real(delta(ends))
        root = refine_brackets(delta, ends[:1], ends[1:], [fa], [fb])[0]
        deep = find_eigenvalues(delta, (-14500.0, -14300.0)).lambdas
        assert deep.size == 1 and abs(root - deep[0]) <= 1e-12 * abs(deep[0])
        assert abs(root + 14399.70) <= 1e-2

    def test_step_sigma_vs_dense_scan(self):
        sig = sigma_step(512, height=1.0)
        delta, _ = make_delta(sig, PAIR_FREE, F_DIR)
        spec = find_eigenvalues(delta, (0.01, 144.0))
        oracle = brute_scan_roots(delta, np.arange(0.1, 12.0, 1e-3))
        n = min(len(spec), oracle.size)
        assert np.max(np.abs(spec.lambdas[:n].real - oracle[:n])) <= 1e-6

    def test_complex_window_synthetic(self):
        zeros = np.array([2 + 1j, 5.0 + 0j, 8 - 0.5j])
        found = circle_zeros(_with_zeros(zeros), [2.0, 5.0, 8.0])
        assert np.max(np.abs(found - zeros)) <= 1e-8

    def test_two_zeros_in_one_circle_raise(self):
        # the circle around seed 5 (radius 1.5) holds 5 and 5.3
        with pytest.raises(RootLoss, match=r"hold \[1, 2\] zeros"):
            circle_zeros(_with_zeros([2.0, 5.0, 5.3]), [2.0, 5.0])

    def test_zero_between_circles_raises(self):
        # each circle (radius 1.5) holds one zero; the rectangle around them
        # also holds 3.5 + 1.4i
        with pytest.raises(RootLoss, match="holds 3 zeros"):
            circle_zeros(_with_zeros([2.0, 5.0, 3.5 + 1.4j]), [2.0, 5.0])

    def test_winding_count(self):
        delta = _with_zeros([1.0, 3.0, 2 + 1j], growth=0.0)
        assert winding_count(delta, ((0.0, 4.0), (-2.0, 2.0))) == 3
        assert winding_count(delta, ((0.0, 4.0), (-0.5, 0.5))) == 2
        counts = winding_count(delta, circles=([1.0, 2.0, 2.0], [0.5, 1.2, 0.5]))
        assert counts.tolist() == [1, 3, 0]


def _with_zeros(zeros, growth=0.01):
    """An entire function with exactly the given simple zeros."""
    def delta(lam):
        lam = np.asarray(lam, dtype=complex)
        out = np.ones_like(lam)
        for z in zeros:
            out = out * (lam - z)
        return out * np.exp(growth * lam)
    return delta


def complex_sine(x, amp=0.2):
    """sigma of the complex-spectrum tests: (0.3 + amp i) sin x."""
    return (0.3 + amp * 1j) * np.sin(x)


PAIR_ROBIN = BoundaryPolyPair([1.0], [0.3])


class TestComplexSpectrum:
    def test_circles_match_the_rectangle_oracle(self):
        sig = SigmaFunction.from_callable(complex_sine, np.pi, 64)
        spec, reason = problem_spectrum(sig, PAIR_ROBIN, F_DIR, 4)
        assert reason is None and not spec.fallback
        delta, _ = make_delta(sig, PAIR_ROBIN, F_DIR)
        oracle = np.array(sorted(rectangle_zeros(delta, ((-9.0, 14.0), (-1.5, 1.5))),
                                 key=lambda z: z.real))
        assert oracle.size == 4 and np.max(np.abs(oracle.imag)) > 0.1
        assert np.all(np.abs(spec.lambdas - oracle) <= 1e-10 * (1.0 + np.abs(oracle)))

    def test_work_at_512_cells(self, monkeypatch):
        # 12 zeros take 3,251 lambda points of the complex delta: 12 circles
        # of 64, one rectangle of 4 x 600 and the polish
        points = []

        def counting(sigma, pair, f):
            delta, _ = make_delta(sigma, pair, f)
            if sigma.is_real():
                return delta, None
            return (lambda lam: points.append(np.size(lam)) or delta(lam)), None

        monkeypatch.setattr(halfinverse, "make_delta", counting)
        sig = SigmaFunction.from_callable(complex_sine, np.pi, 512)
        spec, reason = problem_spectrum(sig, PAIR_ROBIN, F_DIR, 12)
        assert reason is None and len(spec) == 12
        assert np.all(np.diff(spec.lambdas.real) > 0) and np.any(spec.lambdas.imag != 0)
        assert sum(points) <= 10_000

    def test_polish_calls_at_512_cells(self, monkeypatch):
        # 40 zeros take 175 calls of the complex delta: the circles, the
        # rectangle and the Muller polish, whose three start values take
        # one call per zero (the seeds come from the real part's delta)
        calls = []

        def counting(sigma, pair, f):
            delta, _ = make_delta(sigma, pair, f)
            if sigma.is_real():
                return delta, None
            return (lambda lam: calls.append(np.size(lam)) or delta(lam)), None

        monkeypatch.setattr(halfinverse, "make_delta", counting)
        sig = SigmaFunction.from_callable(lambda x: 0.3 * np.sin(x) + 0.1j * np.sin(2 * x), np.pi, 512)
        spec, reason = problem_spectrum(sig, BoundaryPolyPair([1.0], [0.2]), F_DIR, 40)
        assert reason is None and len(spec) == 40
        assert len(calls) == 175

    def test_hl_right_half_seeds_from_the_real_part(self):
        # a complex sigma whose right half is folded into f: the seeds come
        # from the real part of both halves, joined; the zeros are eigenvalues
        # of the whole problem on (0, 2 pi), where its Robin right end's
        # characteristic function Delta1 + 0.3 Delta0 vanishes
        whole = SigmaFunction.from_callable(complex_sine, 2 * np.pi, 128)
        left, right = whole.halves()
        spec, reason = problem_spectrum(left, PAIR_ROBIN, hl_entire_pair(right, PAIR_ROBIN), 6)
        assert reason is None and np.any(spec.lambdas.imag != 0)
        d0, d1 = char_pair(whole, PAIR_ROBIN, spec.lambdas)
        scale = np.abs(char_pair(whole, PAIR_ROBIN, spec.lambdas + 0.1)[1])
        assert np.all(np.abs(d1 + 0.3 * d0) <= 1e-8 * np.maximum(scale, 1.0))

    def test_a_zero_outside_its_circle_raises(self):
        # Im sigma = 0.5 sin x on (0, 2 pi) moves the lowest eigenvalue from
        # the seed -0.074 to 0.076 - 0.147i, outside its circle of radius 0.20
        whole = SigmaFunction.from_callable(lambda x: complex_sine(x, 0.5), 2 * np.pi, 128)
        left, right = whole.halves()
        with pytest.raises(RootLoss, match="zeros, not one each"):
            problem_spectrum(left, PAIR_ROBIN, hl_entire_pair(right, PAIR_ROBIN), 6)


def test_problem_spectrum_rejects_a_common_root():
    # p1 = p2 = lambda - 1: the pair is checked before any search divides by it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(CommonRoot):
            problem_spectrum(SigmaFunction.zero(np.pi, 64), BoundaryPolyPair([-1, 1], [-1, 1]),
                             EntirePair.constant(0, 1), 4)


def _indexed(sigma, pair, f, right, count):
    delta, _ = make_delta(sigma, pair, f)
    return find_eigenvalues(delta, (-9.0, (count + 2.0) ** 2), count=count,
                            index=index_search(sigma, pair, right, count))


class TestIndexSearch:
    def test_neumann_ends_round_no_angle_to_zero(self):
        # at rho = k + 1/2 phi(pi) is a rounding above 0 on some k (1.9e-15
        # at k = 6, with phi^[1](pi) = -6.5), where arctan2(phi, phi^[1]) mod pi
        # rounded the end angle pi - 3e-16 to 0 and lost one count
        rho = np.arange(40) + 0.5
        assert np.array_equal(count_below(SIG0, PAIR_FREE, RIGHT_NEU, rho**2), np.arange(1, 41))
        spec = _indexed(SIG0, PAIR_FREE, F_NEU, RIGHT_NEU, 40)
        exact = np.arange(40.0) ** 2
        assert not spec.fallback
        assert np.max(np.abs(spec.lambdas.real - exact) / (1.0 + exact)) <= 1e-12

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_a_zero_at_the_right_end_is_a_sign_change(self, monkeypatch, zero):
        # phi(pi) = cos(22.5 pi) = 0 at lambda = 22.5^2, between phi > 0 at
        # the node before and phi^[1](pi) = -22.5 < 0: a y(X) that rounds to
        # +0.0 or to -0.0 counts as the sign change it is, as on either side
        lam = 22.5**2
        sides = count_below(SIG0, PAIR_FREE, RIGHT_NEU, [lam - 1e-6, lam + 1e-6])
        propagate = forward.factor_values
        hits = []

        def rounded_to_zero(*args):
            y, v = propagate(*args)
            assert y[-2, 0] > 0 > v[-1, 0]
            hits.append(args[-1])
            y[-1] = zero
            return y, v

        monkeypatch.setattr(forward, "factor_values", rounded_to_zero)
        assert sides[0] == sides[1] == count_below(SIG0, PAIR_FREE, RIGHT_NEU, [lam])[0]
        assert hits == [4]   # the groups: 16 lambda h^2 = 0.31 <= 1

    def test_dirichlet_right_end_counts_nothing_far_below(self):
        # beta = pi for r1 = 0; with beta = 0 the count stays at 1 as lambda
        # goes to -infinity and the bracket extension never stops
        lam = np.array([-1e4, -100.0, 0.0, 0.3, 2.3])
        assert np.array_equal(count_below(SIG0, PAIR_FREE, RIGHT_DIR, lam), [0, 0, 0, 1, 2])
        spec = _indexed(SIG0, PAIR_FREE, F_DIR, RIGHT_DIR, 40)
        exact = (np.arange(40) + 0.5) ** 2
        assert np.max(np.abs(spec.lambdas.real - exact) / (1.0 + exact)) <= 1e-12

    def test_deep_index_zero_gets_a_narrow_bracket(self):
        # y^[1](0) = -120 y(0) puts index 0 near -120^2, far below the ends;
        # the extension leaves it in s = [-127.5, -63.5], across which delta
        # grows by about 1e87, and false position from there stopped at the
        # upper end, -4032.25, until the bracket was narrowed on the count
        sig = SigmaFunction.from_callable(lambda x: 0.3 * np.sin(x), np.pi, 512)
        pair = BoundaryPolyPair([1.0], [120.0])
        spec = _indexed(sig, pair, F_DIR, RIGHT_DIR, 3)
        delta, _ = make_delta(sig, pair, F_DIR)
        deep = find_eigenvalues(delta, (-14500.0, -14300.0)).lambdas
        assert deep.size == 1 and abs(spec.lambdas[0] - deep[0]) <= 1e-12 * abs(deep[0])

    def test_corpus_and_closed_forms_match_the_scan(self):
        cases = [(name, sig, pair, f) for name, sig, pair, f in forward_corpus()]
        cases += [("zero_dirichlet", SIG0, PAIR_FREE, F_DIR), ("zero_neumann", SIG0, PAIR_FREE, F_NEU)]
        for name, sig, pair, f in cases:
            f1, f2 = (complex(v[0]) for v in f(np.array([0.0])))
            right = BoundaryPolyPair([f1], [f2])
            spec = _indexed(sig, pair, f, right, 40)
            assert spec.fallback == (name == "p3_quadratic"), name
            assert (index_search(sig, pair, right, 40) is None) == spec.fallback, name
            delta, _ = make_delta(sig, pair, f)
            scan = find_eigenvalues(delta, (-9.0, 42.0**2), count=40).lambdas
            assert np.max(np.abs(spec.lambdas - scan) / (1.0 + np.abs(scan))) <= 1e-12, name


def _count_cases(m=None):
    """(name, sigma, left pair, right pair) of the two-sided problems of the
    round trips and of the forward corpus, with its constant f as a right
    pair; sigma resampled to m cells where m is given."""
    cases = [(name, prob.sigma_full, prob.left_pair, prob.right_pair)
             for name, prob in roundtrip_corpus() + [("hl_exclusion", hl_exclusion_instance())]]
    for name, sig, pair, f in forward_corpus():
        f1, f2 = (v[0].real for v in f(np.array([0.0])))
        cases.append((name, sig, pair, BoundaryPolyPair([f1], [f2])))
    if m is not None:
        cases = [(name, SigmaFunction(np.interp(np.linspace(0.0, sig.interval_length, m + 1),
                                                sig.nodes, sig.samples.real), sig.interval_length),
                  left, right) for name, sig, left, right in cases]
    return cases


def _group_edge(sigma, cells=4):
    """The largest |lambda| of the groups of four cells, from 16 (|lambda| +
    max |s|) h^2 = 1, or of the pairs, from 4 (|lambda| + max |s|) h^2 = 1."""
    h2 = sigma.dx**2
    return (1.0 / cells**2 - np.max(np.abs(np.diff(sigma.samples.real))) / sigma.dx * h2) / h2


# count_below and delta of `hl_exclusion_instance` at
# np.linspace(-200, 12000, 41), 7 lambdas on the groups, 16 on the pairs and
# 18 on the cells, as the count's separate per-level sweep gave them; delta
# feeds the bracket refinement, so the sweep must keep every bit
EXCLUSION_COUNTS = [
    0, 22, 42, 55, 65, 74, 82, 89, 96, 102, 108, 114, 119, 124, 129, 134, 138, 143, 147, 151, 155,
    159, 163, 167, 170, 174, 177, 181, 184, 187, 191, 194, 197, 200, 203, 206, 209, 212, 215, 218,
    221,
]
EXCLUSION_DELTAS = [float.fromhex(x) for x in (
    '-0x1.9091e01f686f7p+138', '-0x1.0e3b1ec8b98dap+10', '-0x1.03c2ece74d075p+13',
    '0x1.2a5ebe79680f7p+14', '0x1.8335b780209a4p+13', '-0x1.b75a38b0fba30p+14',
    '-0x1.6ebaeed8c74a3p+15', '0x1.6fa5cdda366cap+12', '-0x1.6c44057b76b47p+16',
    '-0x1.4026ba4a16efbp+15', '-0x1.872d3a6d4d9bcp+16', '-0x1.2f03257ff239dp+17',
    '0x1.6589299dc6742p+17', '-0x1.5bf92a0e5333cp+17', '0x1.e56d570f4d3bap+17',
    '-0x1.bc824237c3041p+17', '-0x1.4c94893a3e4fep+17', '0x1.a48bd5689ab2dp+17',
    '0x1.75881b0e37804p+18', '0x1.84c5d79a9c03fp+18', '0x1.99cc34e11c9f5p+18',
    '0x1.d8cce81821b41p+18', '0x1.d67fbcaa5524ep+18', '0x1.689046e3b1427p+17',
    '-0x1.90e6d1f6545b3p+18', '-0x1.1077f738102a7p+19', '0x1.3d91230d6d385p+18',
    '0x1.0ca35558e7e62p+19', '-0x1.4cabc7fe86e2fp+19', '0x1.a3b3fd24e48d8p+16',
    '0x1.f9358b7cac38cp+18', '-0x1.a0027d1fa486dp+19', '0x1.c2a12e52b2854p+19',
    '-0x1.ad2d7c0d85dacp+19', '0x1.9b6772accb570p+19', '-0x1.ac1ce48da612bp+19',
    '0x1.e3eb840697fa0p+19', '-0x1.15e5941f7d4f5p+20', '0x1.24dd2af46427fp+20',
    '-0x1.e48f7948554d7p+19', '0x1.6380dfe3dc84ap+18',
)]


class TestGroupCount:
    # the count reads the nodes 0, 4, 8, ..., m where every lambda of a batch
    # lies inside the group radius; the every-node count is the reference
    def test_corpora_match_the_every_node_count(self):
        lam = np.linspace(-9.0, 900.0, 301)
        for name, sig, left, right in _count_cases():
            assert np.all(_cells_per_factor(sig, lam) == 4), name
            assert np.array_equal(count_below(sig, left, right, lam),
                                  every_node_count(sig, left, right, lam)), name

    @pytest.mark.parametrize("m", [16, 17, 18, 19, 1023])
    def test_partial_groups_match_the_every_node_count(self, m):
        # a last group of 1, 2 or 3 cells; at m = 16-19 the group radius ends
        # below |lambda| = 2 on [0, pi] and 0.4 on [0, 2 pi], and the cells
        # take the rest, at m = 1023 near 6600 and 1650
        for name, sig, left, right in _count_cases(m):
            lam = np.linspace(-9.0, min(0.9 * np.pi**2 / sig.dx**2 - 3.0, 900.0), 201)
            lam = np.concatenate((lam, np.linspace(-1.0, 1.0, 101) * max(_group_edge(sig), 0.0)))
            assert np.array_equal(count_below(sig, left, right, lam),
                                  every_node_count(sig, left, right, lam)), name

    def test_either_side_of_the_group_edge(self, monkeypatch):
        # the lambdas a relative 1e-12 inside the group edge take the groups,
        # those outside it and inside the pair edge the pairs, those outside
        # that the cells, as in monodromy
        propagate, paths = forward.factor_values, []

        def recorded(sig, lam, y0, yq0, cells):
            paths.append((lam.tolist(), cells))
            return propagate(sig, lam, y0, yq0, cells)

        monkeypatch.setattr(forward, "factor_values", recorded)
        for name, sig, left, right in _count_cases():
            edges = np.array([_group_edge(sig), _group_edge(sig, 2)])
            lam = np.concatenate([e * np.array([1.0 - 1e-12, 1.0 + 1e-12]) for e in edges])
            lam = np.concatenate((lam, -lam))
            paths.clear()
            assert np.array_equal(count_below(sig, left, right, lam),
                                  every_node_count(sig, left, right, lam)), name
            assert paths == [(lam[0::4].tolist(), 4), (lam[[1, 2, 5, 6]].tolist(), 2),
                             (lam[3::4].tolist(), 1)], name

    def test_pair_annulus_matches_the_every_node_count(self):
        # between the group edge and the pair edge the count reads the
        # nodes 0, 2, 4, ..., m: a pair has (lambda - s) (2h)^2 <= 1 < pi^2
        for m in (None, 17, 64):
            for name, sig, left, right in _count_cases(m):
                rings = np.linspace(_group_edge(sig), _group_edge(sig, 2), 203)[1:-1]
                lam = np.concatenate((rings, -rings))
                assert np.all(_cells_per_factor(sig, lam) == 2), name
                assert np.array_equal(count_below(sig, left, right, lam),
                                      every_node_count(sig, left, right, lam)), name

    def test_batch_equals_single_lambdas(self):
        name, sig, left, right = _count_cases(64)[4]
        lam = np.linspace(-9.0, 600.0, 41)
        assert set(_cells_per_factor(sig, lam).tolist()) == {1, 2, 4}
        single = [count_below(sig, left, right, [x])[0] for x in lam]
        assert np.array_equal(count_below(sig, left, right, lam), single)

    def test_counts_and_deltas_keep_every_bit(self):
        prob = hl_exclusion_instance()
        lam = np.linspace(-200.0, 12000.0, 41)
        assert np.array_equal(np.bincount(_cells_per_factor(prob.sigma_full, lam)), [0, 18, 16, 0, 7])
        counts, delta = forward._count_and_delta(prob.sigma_full, prob.left_pair, prob.right_pair, lam)
        assert np.array_equal(counts, EXCLUSION_COUNTS)
        assert np.array_equal(delta, EXCLUSION_DELTAS)

    def test_the_index_hands_delta_at_the_bracket_ends(self, monkeypatch):
        # find_eigenvalues refines from the delta the count formed at the
        # bracket ends, which is the problem's delta there, and calls delta
        # only inside the brackets
        for name, sig, left, right in _count_cases()[:4] + _count_cases(64)[:1]:
            index = index_search(sig, left, right, 48)
            s_lo, s_hi, d_lo, d_hi = forward._index_brackets(*index, 48)
            ends = np.sign(np.concatenate((s_lo, s_hi))) * np.concatenate((s_lo, s_hi)) ** 2
            delta, _ = make_delta(sig, left, EntirePair.of_pair(right))
            ref = np.real(delta(ends))
            assert np.max(np.abs(np.concatenate((d_lo, d_hi)) - ref) / np.abs(ref)) <= 1e-12, name
            seen = []
            spec = find_eigenvalues(lambda x: seen.append(x) or delta(x), None, 48, index=index)
            assert len(spec) == 48 and not np.any(np.isin(np.concatenate(seen), ends)), name


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
        delta1, _ = make_delta(sig, pair, F_NEU)
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
        d1fn, _ = make_delta(sig, pair, F_NEU)
        theta = find_eigenvalues(d1fn, (-2.0, 80.0))
        d0, d1 = char_pair(sig, pair, theta.lambdas)
        scale = np.abs(d0) + np.abs(d1)
        assert np.all(np.abs(d0) > 1e-6 * scale)
        delta0 = lambda lam: char_pair(sig, pair, lam)[0]
        mu = find_eigenvalues(delta0, (-2.0, 80.0))
        d0m, d1m = char_pair(sig, pair, mu.lambdas)
        assert np.all(np.abs(d1m) > 1e-6 * (np.abs(d0m) + np.abs(d1m)))

    def test_theta_asymptotics_tail_decays(self):
        # sqrt(theta_n) - (n - N1 - 1), N1 = p // 2, should look square-summable
        pair = BoundaryPolyPair([1.0], [0.4])
        sig = sigma_bump(256, amp=0.5)
        d1fn, _ = make_delta(sig, pair, F_NEU)
        theta = find_eigenvalues(d1fn, (-2.0, 1700.0)).take(40)
        n = np.arange(1, 41)
        kappa = np.abs(theta.rhos - (n - pair.p // 2 - 1))
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
        d0r, d1r = deltas_from_cauchy(resample_cauchy(cd, 16384), lam)
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
        d0r, d1r = deltas_from_cauchy(resample_cauchy(cd, 4096), lam)
        d0, d1 = char_pair(sig, pair=PAIR_FREE, lam=lam)
        scale = np.maximum(np.abs(d0), np.abs(d1))
        assert np.max(np.abs(d1r - d1) / scale) <= 5e-3
        assert np.max(np.abs(d0r - d0) / scale) <= 5e-3

    def test_ill_conditioned_raise(self):
        rng = np.random.default_rng(0)
        col = rng.standard_normal(40)
        design = np.stack([col, col * (1 + 1e-14), rng.standard_normal(40)], axis=1)
        with pytest.raises(IllConditioned):
            _solve_family(design, rng.standard_normal(40), np.eye(3))
