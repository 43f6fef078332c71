import dataclasses
import importlib
import warnings

import numpy as np
import pytest

from conftest import conjugate, gauss_panels, rel_l2, sequential_stability, stability_noise_loop
from invsl.errors import DuplicateEigenvalue, NonUniqueWarning, PoleProximity
from invsl.forward import char_pair, extract_cauchy, resample_cauchy, weyl_ratio
from invsl.halfinverse import hl_reconstruct, hl_spectrum
from invsl.moments import (
    _component_columns,
    _gram_block,
    build_moment_system,
    build_v,
    probe_family,
    trig_rows,
)
from invsl.reconstruct import (
    ProbeBasis,
    completeness_ratio,
    default_basis,
    deltas_from_cauchy,
    make_probe_basis,
    moment_design,
    reconstruct,
    solve_moment,
    stability_experiment,
)
from invsl.trig import synth_series
from invsl.types import (
    BoundaryPolyPair,
    CauchyData,
    EntirePair,
    SigmaFunction,
    Subspectrum,
    branch_sqrt,
    hp_inner,
)

# the package exports a function of the same name, which hides the module
reconstruct_module = importlib.import_module("invsl.reconstruct")
moments_module = importlib.import_module("invsl.moments")

SIG0 = SigmaFunction.zero(np.pi, 512)
PAIR_FREE = BoundaryPolyPair([1.0], [0.0])
F01 = EntirePair.constant(0.0, 1.0)


def _difference(x, y):
    """The product-space element x - y."""
    return CauchyData(x.j - y.j, x.g - y.g, x.a - y.a)


class TestMomentDesign:
    def test_raw_rows_match_grid_quadrature(self):
        # with identity whitening the design is (phi_i, v_n)/||v_n||;
        # the closed-form integrals must match trapezoid quadrature of the
        # probe functions against build_v's grid rows, for both parities
        f = EntirePair.constant(0.7, -1.3)
        sub = Subspectrum(np.concatenate([[-2.0], (np.arange(1, 9) - 0.3) ** 2]) + 0j)
        m = 4096
        t = np.linspace(0.0, np.pi, m + 1)
        wts = np.full(m + 1, np.pi / m)
        wts[0] = wts[-1] = 0.5 * np.pi / m
        for p in (1, 2, 3, 4):
            probe = make_probe_basis(p, (4, 5))
            n1, n2 = len(probe.h1), len(probe.h2)
            basis = ProbeBasis(probe.h1, probe.h2, p, np.eye(n1), np.eye(n2))
            system = build_moment_system(sub, f, p, m)
            design, _ = moment_design(system, basis)
            raw = design * system.norms[:, None]
            for n, lam in enumerate(sub.lambdas):
                v = build_v(lam, f, p, m)
                # each probe function alone: the series of a unit coefficient
                quad = np.concatenate([
                    [np.sum(wts * synth_series(probe.h1, e, t) * v.j) for e in np.eye(n1)],
                    [np.sum(wts * synth_series(probe.h2, e, t) * v.g) for e in np.eye(n2)],
                    v.a])
                assert np.max(np.abs(raw[n] - quad)) <= 1e-4 * system.norms[n]


def _mp_columns(family, rho, mpmath):
    """The probe columns at 40 digits against the family's own kernel: the
    mode ones in sinc form, the monomial ones from the antiderivative of
    t^m e^(i r t) at r = +-rho (at 80 digits, which covers its cancellation
    for small rho)."""
    pi = mpmath.pi
    sin_form = family.kind == "sin"

    def t_pow_exp(m, r):
        # int_0^pi t^m e^(irt) dt = [e^(irt) sum_k (-1)^k m!/(m-k)! t^(m-k) / (ir)^(k+1)]_0^pi
        def anti(t):
            return mpmath.exp(1j * r * t) * mpmath.fsum(
                (-1) ** k * mpmath.factorial(m) / mpmath.factorial(m - k) * t ** (m - k)
                / (1j * r) ** (k + 1) for k in range(m + 1))
        return anti(pi) - anti(0)

    out = np.empty((rho.size, len(family)), dtype=complex)
    for i, r in enumerate(rho):
        r = mpmath.mpc(complex(r))
        vals = []
        for m in family.degrees:
            if r == 0:
                vals.append(pi ** (m + 1) / (m + 1))     # only the cosine family meets rho = 0
                continue
            with mpmath.workdps(80):
                plus, minus = t_pow_exp(m, r), t_pow_exp(m, -r)
                vals.append((plus - minus) / 2j if sin_form else (plus + minus) / 2)
        sign = -1 if sin_form else 1
        for mu in map(float, family.mu):
            vals.append(pi / 2 * (mpmath.sinc((mu - r) * pi) + sign * mpmath.sinc((mu + r) * pi)))
        out[i] = [complex(val / r if sin_form else val) for val in vals]
    return out


# |column - 40-digit reference| within this many eps of the block's largest
# entry, the trig block and the monomial block each
COLUMNS_EPS = 8


class TestComponentColumns:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("freq_step", [1.0, 0.5])
    def test_matches_mpmath(self, p, freq_step):
        mpmath = pytest.importorskip("mpmath")
        rho = np.array([
            3.0, 3.0 + 1e-12, 2.5, 2.5 - 1e-12,      # on and within 1e-12 of a mode
            2.25, 6.75,                              # halfway between modes at step 1/2
            4.3 + 0.2j, 1.1 - 0.05j, 7.9 - 0.3j,     # complex
            0.1, 0.05 + 0.02j,                       # |rho| pi < 0.5: the series branch
            -1.3j, -0.1j,                            # lambda < 0
            11.0 + 1e-12 - 1e-12j,
        ])
        basis = make_probe_basis(p, (9, 14), freq_step=freq_step)
        with mpmath.workdps(40):
            for family in (basis.h1, basis.h2):
                poly = np.arange(len(family)) < len(family.degrees)
                # rho = 0 rides along where the column of mu = 0 is exact
                rows = rho if family.kind == "sin" else np.append(rho, 0.0)
                got = _component_columns(family, trig_rows(rows))
                ref = _mp_columns(family, rows, mpmath)
                for block in (poly, ~poly):
                    scale = np.max(np.abs(ref[:, block]))
                    dev = np.max(np.abs(got[:, block] - ref[:, block]))
                    assert dev <= COLUMNS_EPS * np.finfo(float).eps * scale

    def test_real_lambda_gives_real_columns(self):
        # every column is entire in lambda = rho^2, so a real lambda of either
        # sign (rho real or imaginary) gives real columns to the last bit
        rows = trig_rows(branch_sqrt(np.array([-7.3, -0.01, 0.04, 1.0, 2.25, 6.1, 17.3])))
        for freq_step in (1.0, 0.5):
            basis = make_probe_basis(1, (9, 14), freq_step=freq_step)
            for family in (basis.h1, basis.h2):
                assert not np.any(_component_columns(family, rows).imag)

    def test_limit_columns_are_exact(self):
        # zero-potential Dirichlet rows rho = n and the column mu = 0 at rho = 0
        cols = _component_columns(probe_family("cos", 6, 0, 1.0), trig_rows([0.0, 1.0, 2.0, 5.0]))
        assert cols[0, 0] == np.pi and cols[1, 1] == cols[2, 2] == cols[3, 5] == np.pi / 2
        cols = _component_columns(probe_family("sin", 6, 0, 1.0), trig_rows([1.0, 4.0]))
        assert cols[0, 0] == np.pi / 2 and cols[1, 3] == np.pi / 8


class TestProbeGram:
    def test_shared_basis_is_immutable(self):
        # one basis per shape and process, so no caller may change it
        basis = make_probe_basis(1, (4, 5))
        assert make_probe_basis(1, (4, 5)) is basis
        for b in (basis.b1, basis.b2):
            with pytest.raises(ValueError):
                b[0, 0] = 0.0

    def test_family_is_shared_by_identity(self):
        # one family per shape and process, shared by the probe bases and the
        # extraction fit; it holds arrays, so == and hash go by identity
        family = probe_family("sin", 64, 3, 1.0)
        assert probe_family("sin", 64, 3, 1.0) is family
        assert make_probe_basis(1, (64, 64)).h1 is family
        assert extract_cauchy(SIG0, PAIR_FREE).series["j"][0] is family
        assert family.kind == "sin" and family.degrees == (0, 1, 2)
        assert len(family) == 67 and np.array_equal(family.mu, np.arange(1.0, 65.0))
        for a in (family.mu, family.coefs, family.col_of):
            with pytest.raises(ValueError):
                a[0] = 0
        cos_family = probe_family("cos", 64, 3, 1.0)
        assert hash(family) == hash(family) and family == family and family != cos_family
        assert {family: 1, cos_family: 0}[family] == 1

    @pytest.mark.parametrize("kind", ["sin", "cos"])
    @pytest.mark.parametrize("freq_step", [1.0, 0.5])
    def test_gram_block_matches_quadrature(self, kind, freq_step):
        family = probe_family(kind, 22, 3, freq_step)

        def funcs(t):
            wave = getattr(np, kind)
            return np.array([t**m for m in family.degrees] + [wave(mu * t) for mu in family.mu])

        ref = gauss_panels(lambda t: funcs(t)[:, None] * funcs(t)[None, :], 0.0, np.pi, 64)
        g = _gram_block(family)
        assert np.array_equal(g, g.T)
        # entry-wise, against the Cauchy-Schwarz scale sqrt(g_ii g_kk)
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        assert np.max(np.abs(g - ref) / scale) <= 1e-12


class TestSolveMoment:
    def test_blank_h1_block_rank_deficient(self):
        # f1 == 0 zeroes the H1 block of every row: the solve reports it
        sub = Subspectrum((np.arange(1, 41) - 0.5) ** 2 + 0j)
        data = solve_moment(build_moment_system(sub, F01, 1, 128), default_basis(sub, 1))
        assert data.meta["deficient"]

    def test_roundtrip_matches_oracle_u(self, rt_free):
        # forward-generated problem: the solved data match the oracle in the
        # product-space norm
        data = solve_moment(build_moment_system(rt_free.spectrum, rt_free.f, 1, 128),
                            default_basis(rt_free.spectrum, 1))
        oracle = rt_free.oracle_on(128)
        err = _difference(data, oracle).norm() / oracle.norm()
        assert err <= 1e-3
        assert data.meta["residual"] <= 1e-8 + 1e-6 * np.linalg.norm(
            np.abs(np.asarray(data.meta["design_shape"])))  # residual is tiny

    def test_moment_residual_invariant_trivial(self):
        # exact-representation case: every equation is satisfied to rounding.
        # f1 == 0 blanks the H1 block, so the solve must truncate the
        # structurally invisible directions.
        sub = Subspectrum((np.arange(1, 41) - 0.5) ** 2 + 0j)
        system = build_moment_system(sub, F01, 1, 128)
        u = conjugate(solve_moment(system, default_basis(sub, 1)))
        worst = 0.0
        for lam, w, n in zip(sub.lambdas, system.ws, system.norms):
            worst = max(worst, abs(hp_inner(u, build_v(lam, F01, 1, 128)) - w) / n)
        assert worst <= 1e-8 + 1e-6 * np.linalg.norm(system.ws)

    def test_moment_residual_invariant_corpus(self, rt_free):
        # on a truncated representation the residual equals the information
        # tail beyond the probe space; see the decisions ledger
        system = build_moment_system(rt_free.spectrum, rt_free.f, 1, 128)
        data = solve_moment(system, default_basis(rt_free.spectrum, 1))
        assert data.meta["residual"] <= 1e-5

    @pytest.mark.parametrize("case", ["roundtrip", "complex"])
    def test_series_resamples_like_reconstruct(self, case, rt_free):
        # the solve's series is the kernels' own, in extract_cauchy's format
        if case == "roundtrip":
            f, sub = rt_free.f, rt_free.spectrum
        else:
            f = EntirePair.constant(1.0, 0.5j)
            sub = Subspectrum((np.arange(1, 31) - 0.25 + 0.05j) ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonUniqueWarning)
            fine, coarse = (reconstruct(1, f, sub, m) for m in (128, 64))
        assert set(fine.series) == {"j", "g"}
        again = resample_cauchy(fine, 64)
        for got, want in ((again.j, coarse.j), (again.g, coarse.g)):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestDeltasFromCauchy:
    def test_zero_data_closed_form(self):
        m = 256
        cd = CauchyData(np.zeros(m + 1), np.zeros(m + 1), [0.0])
        lam = np.array([2.0, 5.5, 0.3], complex)
        d0, d1 = deltas_from_cauchy(cd, lam)
        rho = np.sqrt(lam)
        assert np.allclose(d1, -lam * np.sin(rho * np.pi) / rho, atol=1e-12)
        assert np.allclose(d0, np.cos(rho * np.pi), atol=1e-12)

    def test_matches_direct_after_extraction(self):
        cd = extract_cauchy(SIG0, PAIR_FREE, grid_m=4096)
        d0r, d1r = deltas_from_cauchy(cd, 2.0)
        d0, d1 = char_pair(SIG0, PAIR_FREE, np.array([2.0 + 0j]))
        assert abs(d1r - d1[0]) <= 1e-6 * max(1, abs(d1[0]))
        assert abs(d0r - d0[0]) <= 1e-6 * max(1, abs(d0[0]))

    def test_weyl_pole_guard(self):
        # zero data with p = 1: Delta1 = -lambda sin(rho pi)/rho vanishes at 1
        cd = CauchyData(np.zeros(257), np.zeros(257), [0.0])

        def weyl(lam, on_pole="raise"):
            return weyl_ratio(*deltas_from_cauchy(cd, lam), on_pole=on_pole)

        with pytest.raises(PoleProximity):
            weyl(1.0)
        assert np.isnan(weyl(1.0, on_pole="nan")[0])
        assert np.isnan(weyl(np.array([1.0, 2.0]), on_pole="nan")[0])
        assert weyl(2.25)[0] == pytest.approx(0.0, abs=1e-12)

    def test_finite_at_lambda_zero(self):
        m = 64
        cd = CauchyData(np.ones(m + 1), np.ones(m + 1), [0.3])
        d0, d1 = deltas_from_cauchy(cd, 0.0)
        assert np.isfinite(d0) and np.isfinite(d1)


class TestReconstruct:
    def test_trivial_problem_recovers_zero(self):
        # f1 == 0 leaves the H1 block undetermined; the solve falls back to
        # the minimum-norm choice (zero there) and says so
        sub = Subspectrum((np.arange(1, 41) - 0.5) ** 2 + 0j)
        with pytest.warns(NonUniqueWarning):
            res = reconstruct(1, F01, sub, 128)
        assert np.max(np.abs(res.j)) <= 1e-5
        assert np.max(np.abs(res.g)) <= 1e-5
        assert np.max(np.abs(res.a)) <= 1e-5

    def test_deficient_design_solved_once(self, monkeypatch):
        # one solve, and the one uniqueness rule gives one message: the
        # completeness evidence of the solved system collapsed
        calls = []
        solve = reconstruct_module.solve_moment

        def counting_solve(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(reconstruct_module, "solve_moment", counting_solve)
        sub = Subspectrum((np.arange(1, 41) - 0.5) ** 2 + 0j)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = reconstruct(1, F01, sub, 128)
        assert len(calls) == 1
        gram = res.meta["completeness"]["gram_ratio"]
        texts = [f"completeness evidence collapsed (gram ratio {gram:.2e}); "
                 "the subspectrum does not determine the data"]
        assert [str(w.message) for w in caught if w.category is NonUniqueWarning] == texts
        assert res.meta["warnings"] == texts and res.meta["non_unique"]

    def test_full_pipeline_on_corpus(self, rt_robin):
        res = reconstruct(1, rt_robin.f, rt_robin.spectrum, 128)
        oracle = rt_robin.oracle_on(128)
        assert rel_l2(res.j, oracle.j) <= 1e-3
        assert rel_l2(res.g, oracle.g) <= 1e-3
        assert np.max(np.abs(res.a - oracle.a)) <= 1e-3
        assert not res.meta["non_unique"]
        # Weyl handle agrees with the direct ratio away from poles
        lam = 0.5 * (rt_robin.spectrum.lambdas[3] + rt_robin.spectrum.lambdas[4])
        d0, d1 = char_pair(rt_robin.sigma_left, rt_robin.left_pair, np.array([lam]))
        assert weyl_ratio(*deltas_from_cauchy(res, lam))[0] == pytest.approx(d0[0] / d1[0],
                                                                            rel=2e-2)

    def test_starved_subspectrum_warns(self, rt_free):
        # keeping every other eigenvalue halves the density but not the
        # bandwidth: far fewer equations than the data dimension needs
        sparse = Subspectrum(rt_free.spectrum.lambdas[::2])
        with pytest.warns(NonUniqueWarning):
            reconstruct(1, rt_free.f, sparse, 128)

    @pytest.mark.parametrize("grid", [
        np.linspace(0.0, 1.0, 129),
        np.sort(np.random.default_rng(0).uniform(0.0, np.pi, 129)),
        12.7,
        0,
    ], ids=["unit-interval-array", "random-array", "fraction", "zero"])
    def test_grid_is_a_cell_count(self, grid, rt_free):
        # the grid is a cell count: neither an array of nodes nor a fraction,
        # and at least one cell
        f, spec, right_pair = rt_free.f, rt_free.spectrum, rt_free.problem.right_pair
        calls = [
            lambda: build_moment_system(spec, f, 1, grid),
            lambda: reconstruct(1, f, spec, grid),
            lambda: hl_reconstruct(rt_free.sigma_right, right_pair, 1, spec, 0, grid),
            lambda: stability_experiment(1, f, spec, grid, omegas=[0.0], trials=1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="cell count"):
                call()

    def test_rows_laid_out_once(self, rt_free, monkeypatch):
        # the moment system keeps its layout: the solve and the completeness
        # evidence read it, so with a warm probe-basis cache a reconstruction
        # lays its rows out once, and a stability run once more for its stack
        args = (1, rt_free.f, rt_free.spectrum, 128)
        reconstruct(*args)
        layouts = []
        slot_layout = moments_module.slot_layout

        def counting_layout(*a, **kwargs):
            layouts.append(a[0])
            return slot_layout(*a, **kwargs)

        monkeypatch.setattr(moments_module, "slot_layout", counting_layout)
        monkeypatch.setattr(reconstruct_module, "slot_layout", counting_layout)
        reconstruct(*args)
        assert len(layouts) == 1
        stability_experiment(*args, omegas=[0.0, 1e-3], trials=2)
        assert len(layouts) == 3

    def test_monotone_in_row_count(self, exclusion_case):
        # more eigenvalues never hurt by more than 10%
        errs = []
        oracle = exclusion_case.oracle_on(128)
        for n in (40, 48):
            res = reconstruct(1, exclusion_case.f, exclusion_case.spectrum.take(n), 128)
            errs.append(rel_l2(res.j, oracle.j) + rel_l2(res.g, oracle.g))
        assert errs[1] <= 1.1 * errs[0]

    @pytest.mark.parametrize("n", [39, 41, 47, 49])
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP Q: an odd row count gets the probe basis of the even count "
        "above it, and the solve returns a wrong answer with no warning"))
    def test_odd_row_count_meets_criterion_06(self, n, rt_free):
        # rt_bump_free through hl at drop 0: 40 and 48 rows give 3.8e-4 and
        # 4.0e-4 (cond 12 and 15); 39, 41, 47 and 49 give 41, 16, 19 and 18
        # (cond 1.7e7 to 5.2e7), with non_unique False
        spec = hl_spectrum(rt_free.problem, n)
        res = hl_reconstruct(rt_free.sigma_right, rt_free.problem.right_pair, 1, spec, 0, 128)
        oracle = rt_free.oracle_on(128)
        err = max(rel_l2(res.j, oracle.j), rel_l2(res.g, oracle.g),
                  np.max(np.abs(res.a - oracle.a)))
        assert err <= 1e-3


class TestCompleteness:
    def test_healthy_system(self, rt_free):
        system = build_moment_system(rt_free.spectrum, rt_free.f, 1, 128)
        comp = completeness_ratio(system)
        assert comp["ratio"] > 1e-3
        assert comp["gram_ratio"] > 1e-6


@pytest.fixture(scope="module")
def even_left():
    from invsl.problems import sigma_bump
    sigma_left = sigma_bump(512, amp=0.2)
    left_pair = BoundaryPolyPair([0.9], [0.3, 1.0])    # p = 2
    return sigma_left, left_pair


def _even_spectrum(sigma_left, left_pair, right_pair, count=40):
    from invsl.forward import find_eigenvalues, make_delta
    from invsl.halfinverse import hl_entire_pair
    f = hl_entire_pair(SigmaFunction.zero(np.pi, 512), right_pair)
    delta, _ = make_delta(sigma_left, left_pair, f)
    spec = find_eigenvalues(delta, (-6.0, 540.0)).take(count)
    return f, spec


class TestEvenParity:
    def test_round_trip_with_matching_density(self, even_left):
        # even left degree with a cubic right pair puts the sine family on the
        # quarter-shifted orthogonal basis: the system determines the data
        sigma_left, left_pair = even_left
        from invsl.forward import resample_cauchy
        f, spec = _even_spectrum(sigma_left, left_pair,
                                 BoundaryPolyPair([0.5, 1.0], [0.8, 0.1]))
        res = reconstruct(2, f, spec, 128)
        oracle = resample_cauchy(extract_cauchy(sigma_left, left_pair), 128)
        assert rel_l2(res.j, oracle.j) <= 1e-3
        assert rel_l2(res.g, oracle.g) <= 1e-3
        assert np.max(np.abs(res.a - oracle.a)) <= 1e-3
        assert not res.meta["non_unique"]

    def test_density_deficit_detected(self, even_left):
        # with a linear right pair the same construction misses one element of
        # the quarter-shifted basis: a nonzero element annihilates every row
        # and the rank evidence collapses
        sigma_left, left_pair = even_left
        f, spec = _even_spectrum(sigma_left, left_pair,
                                 BoundaryPolyPair([1.0], [0.4]))
        with pytest.warns(NonUniqueWarning):
            res = reconstruct(2, f, spec, 128)
        assert res.meta["smin_ratio"] <= 1e-10
        comp = completeness_ratio(build_moment_system(spec, f, 2, 128))
        assert comp["gram_ratio"] <= 1e-8


class TestStability:
    def test_zero_noise_is_exact(self, rt_free):
        out = stability_experiment(1, rt_free.f, rt_free.spectrum, 128,
                                   omegas=[0.0], trials=3, seed=1)
        assert max(r["err_u"] for r in out["rows"]) <= 1e-10

    def test_two_levels_scale_linearly(self, rt_free):
        out = stability_experiment(1, rt_free.f, rt_free.spectrum, 128,
                                   omegas=[1e-3, 1e-2], trials=8, seed=2)
        r1 = out["summary"][1e-3]["ratio_vs_omega"]
        r2 = out["summary"][1e-2]["ratio_vs_omega"]
        assert max(r1, r2) / min(r1, r2) <= 3
        assert out["fitted_c"] > 0

    def test_single_rho_perturbation_linear(self, rt_free):
        # bump one rho by delta; the response stays within one constant
        base = reconstruct(1, rt_free.f, rt_free.spectrum, 128)
        responses = []
        for delta in (1e-4, 1e-3):
            rho = rt_free.spectrum.rhos.copy()
            rho[3] += delta
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = reconstruct(1, rt_free.f, Subspectrum(rho * rho), 128)
            responses.append(_difference(res, base).norm() / delta)
        assert max(responses) / min(responses) <= 3


@pytest.fixture(scope="module")
def deficit_case(even_left):
    # the p = 2 construction of test_density_deficit_detected
    sigma_left, left_pair = even_left
    return _even_spectrum(sigma_left, left_pair, BoundaryPolyPair([1.0], [0.4]))


class TestProbeModes:
    @pytest.mark.parametrize("p, case", [(1, "rt_free"), (2, "deficit_case")])
    def test_passed_basis_reports_like_the_default(self, p, case, request):
        # (sine modes, cosine modes) either way: for even p the sine family
        # sits on H2, so a count per component would swap the pair
        data = request.getfixturevalue(case)
        f, spec = (data.f, data.spectrum) if p == 1 else data
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonUniqueWarning)
            default = reconstruct(p, f, spec, 128).meta["probe_modes"]
            passed = reconstruct(p, f, spec, 128, basis=default_basis(spec, p))
        assert passed.meta["probe_modes"] == default

    @pytest.mark.parametrize("p, n, modes, dim", [
        (1, 40, (13, 19), 38),
        (2, 40, (13, 18), 38),
        (3, 80, (28, 39), 75),       # the bandwidth caps the cosine modes at 39
    ])
    def test_counts_pin_default_basis(self, p, n, modes, dim):
        # (sine modes, cosine modes) and the probe dimension of the default
        # basis, on rows rho_n = n/2 + 0.3 spaced like a two-sided spectrum
        sub = Subspectrum((0.5 * np.arange(1, n + 1) + 0.3) ** 2 + 0j)
        basis = default_basis(sub, p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonUniqueWarning)
            meta = reconstruct(p, EntirePair.constant(1.0, 0.5), sub, 128).meta
        assert meta["probe_modes"] == modes
        assert meta["probe_dim"] == basis.dim == dim
        sin_family, cos_family = (basis.h1, basis.h2) if p % 2 else (basis.h2, basis.h1)
        assert (sin_family.kind, cos_family.kind) == ("sin", "cos")
        assert (sin_family.mu.size, cos_family.mu.size) == modes


def _assert_matches_oracle(out, ref):
    """Batched rows against the sequential ones; returns the worst deviations."""
    assert [(r["omega"], r["trial"]) for r in out["rows"]] == \
        [(r["omega"], r["trial"]) for r in ref["rows"]]
    worst_rel = worst_zero = 0.0
    for got, want in zip(out["rows"], ref["rows"]):
        for key in ("err_u", "err_j", "err_g", "err_a"):
            dev = abs(got[key] - want[key])
            if want["omega"] == 0.0:
                assert dev <= 1e-12, (key, got, want)
                worst_zero = max(worst_zero, dev)
            else:
                assert dev <= 1e-10 * abs(want[key]), (key, got, want)
                worst_rel = max(worst_rel, dev / abs(want[key]))
    assert out["summary"].keys() == ref["summary"].keys()
    for omega, entry in ref["summary"].items():
        for key, want in entry.items():
            assert abs(out["summary"][omega][key] - want) <= 1e-10 * abs(want) + 1e-12
    assert out["fitted_c"] == pytest.approx(ref["fitted_c"], rel=1e-10, abs=1e-12)
    return worst_rel, worst_zero


class TestStackedStability:
    def test_matches_sequential_oracle(self, rt_free):
        args = (1, rt_free.f, rt_free.spectrum, 128, [0.0, 1e-3, 1e-2])
        out = stability_experiment(*args, trials=5, seed=3)
        _assert_matches_oracle(out, sequential_stability(*args, trials=5, seed=3))

    def test_matches_sequential_oracle_with_reg(self, rt_free):
        args = (1, rt_free.f, rt_free.spectrum, 128, [1e-3, 1e-2])
        out = stability_experiment(*args, trials=4, seed=5, reg=1e-6)
        _assert_matches_oracle(out, sequential_stability(*args, trials=4, seed=5, reg=1e-6))

    def test_matches_sequential_oracle_when_every_trial_truncates(self, deficit_case,
                                                                  monkeypatch):
        # every perturbed design is rank deficient: each trial takes the
        # keep-mask branch of the truncating solve, as the base solve does
        f, spec = deficit_case
        stacked = []
        solve = reconstruct_module.solve_moment

        def recording_solve(system, *a, **kw):
            out = solve(system, *a, **kw)
            if system.ws.ndim > 1:
                stacked.extend(out)
            return out

        monkeypatch.setattr(reconstruct_module, "solve_moment", recording_solve)
        args = (2, f, spec, 128, [0.0, 1e-3])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonUniqueWarning)
            out = stability_experiment(*args, trials=3, seed=7)
            ref = sequential_stability(*args, trials=3, seed=7)
        assert len(stacked) == 6 and all(data.meta["deficient"] for data in stacked)
        _assert_matches_oracle(out, ref)

    def test_zero_omega_trials_pass_the_simplicity_check(self, rt_free):
        # the zero-omega trials repeat the base eigenvalues and each other
        out = stability_experiment(1, rt_free.f, rt_free.spectrum, 128,
                                   omegas=[0.0], trials=4, seed=1)
        assert len(out["rows"]) == 4
        assert max(r["err_u"] for r in out["rows"]) <= 1e-12

    @pytest.mark.parametrize("omegas, trials, seed", [([0.0, 1e-3, 1e-2], 5, 3),
                                                      ([1e-2], 1, 11), ([1e-3, 0.0], 7, 0)])
    def test_noise_equals_trial_by_trial_draws(self, rt_free, monkeypatch, omegas, trials, seed):
        # the one draw of the stream perturbs every trial's rho exactly as
        # the trial-by-trial loop does, bit for bit
        stacks = []
        build = reconstruct_module.build_moment_system

        def recording_build(subspectrum, *a, **kw):
            if subspectrum.lambdas.ndim > 1:
                stacks.append(subspectrum.lambdas)
            return build(subspectrum, *a, **kw)

        monkeypatch.setattr(reconstruct_module, "build_moment_system", recording_build)
        spec = rt_free.spectrum
        stability_experiment(1, rt_free.f, spec, 128, omegas, trials=trials, seed=seed)
        rho = spec.rhos + stability_noise_loop(omegas, trials, len(spec), seed)
        assert len(stacks) == 1 and stacks[0].tobytes() == (rho * rho).tobytes()

    def test_non_simple_input_raises(self, rt_free):
        lams = rt_free.spectrum.lambdas
        doubled = Subspectrum(np.concatenate([lams, lams[3:4]]))
        with pytest.raises(DuplicateEigenvalue):
            stability_experiment(1, rt_free.f, doubled, 128, omegas=[0.0], trials=2)

    @pytest.mark.parametrize("kwargs", [
        {"omegas": [float("nan")]},
        {"omegas": [float("inf")]},
        {"omegas": [-1e-3]},
        {"omegas": [1e-3, 1e-3]},
        {"omegas": [1e-3], "trials": 0},
    ])
    def test_rejects_bad_noise_plans(self, rt_free, kwargs):
        with pytest.raises(ValueError):
            stability_experiment(1, rt_free.f, rt_free.spectrum, 128, **kwargs)

    @pytest.mark.parametrize("trials", [1, 6])
    def test_work_is_independent_of_trials(self, rt_free, trials, monkeypatch):
        # one f-evaluation and two SVDs for the base solve (its design and
        # its completeness evidence), one of each for the stack of all trials
        f_sizes, svd_shapes = [], []

        def joint(lam):
            f_sizes.append(lam.size)
            return rt_free.f.joint(lam)

        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            svd_shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        f = dataclasses.replace(rt_free.f, joint=joint)
        n = len(rt_free.spectrum)
        stability_experiment(1, f, rt_free.spectrum, 128, omegas=[0.0, 1e-3],
                             trials=trials, seed=2)
        assert f_sizes == [n, 2 * trials * n]
        assert len(svd_shapes) == 3
        assert svd_shapes[2][:2] == (2 * trials, n)


def _other_basis():
    # make_probe_basis is cached, so a second object is a copy
    basis = make_probe_basis(1, (8, 8))
    return dataclasses.replace(basis, b1=basis.b1.copy())


@pytest.mark.parametrize("make", [
    _other_basis,
    lambda: build_moment_system(Subspectrum([1.0, 4.0, 9.0]), F01, 1, 64),
], ids=["ProbeBasis", "MomentSystem"])
def test_array_valued_objects_compare_and_hash_by_identity(make):
    # the generated value equality compared the array fields, which raised
    # ValueError, and hashed them, which raised TypeError
    a, b = make(), make()
    assert a == a and a != b
    assert a in [b, a] and b not in [a]
    assert hash(a) == hash(a) and len({a, b, a}) == 2
