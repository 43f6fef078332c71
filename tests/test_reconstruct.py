import dataclasses
import importlib
import warnings

import numpy as np
import pytest

from conftest import gauss_panels, rel_l2, sequential_stability
from invsl.errors import DuplicateEigenvalue, NonUniqueWarning, PoleProximity
from invsl.forward import char_pair, extract_cauchy, resample_cauchy, weyl_ratio
from invsl.moments import (
    _component_columns,
    _gram_block,
    _tags_for,
    build_moment_system,
    build_v,
    u_from_cauchy,
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
from invsl.trig import (
    overlap_cos_cos,
    overlap_sin_sin,
    poly_cos,
    poly_sin,
    synth_series,
)
from invsl.types import (
    BoundaryPolyPair,
    CauchyData,
    EntirePair,
    SigmaFunction,
    Subspectrum,
    hp_inner,
)

# the package exports a function of the same name, which hides the module
reconstruct_module = importlib.import_module("invsl.reconstruct")

SIG0 = SigmaFunction.zero(np.pi, 512)
PAIR_FREE = BoundaryPolyPair([1.0], [0.0])
F01 = EntirePair.constant(0.0, 1.0)


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
            n1, n2 = len(probe.h1_tags), len(probe.h2_tags)
            basis = ProbeBasis(probe.h1_tags, probe.h2_tags, p, np.eye(n1), np.eye(n2))
            system = build_moment_system(sub, f, p, m)
            design, _ = moment_design(system, basis)
            raw = design * system.norms[:, None]
            for n, lam in enumerate(sub.lambdas):
                v = build_v(lam, f, p, t)
                quad = np.concatenate([
                    [np.sum(wts * synth_series([tag], [1.0], t) * v.h1) for tag in probe.h1_tags],
                    [np.sum(wts * synth_series([tag], [1.0], t) * v.h2) for tag in probe.h2_tags],
                    v.scalars])
                assert np.max(np.abs(raw[n] - quad)) <= 1e-4 * system.norms[n]


def _columns_per_tag(tags, rho, against):
    """The probe columns one closed-form call per tag, in tag order."""
    cols = []
    for kind, v in tags:
        if against == "sin_over_rho":
            cols.append((poly_sin(v, rho) if kind == "poly" else overlap_sin_sin(v, rho)) / rho)
        else:
            cols.append(poly_cos(v, rho) if kind == "poly" else overlap_cos_cos(v, rho))
    return np.stack(cols, axis=1)


class TestComponentColumns:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("freq_step", [1.0, 0.5])
    def test_matches_per_tag_loop_bitwise(self, p, freq_step):
        # real and complex rho, both sides of the series switch of poly_*
        rng = np.random.default_rng(p)
        rho = np.concatenate([np.arange(1, 30) - 0.25, [0.05, 0.1j, 0.3 - 0.2j],
                              np.arange(1, 12) + 1e-3 * rng.standard_normal(11)
                              + 1e-3j * rng.standard_normal(11)]).astype(complex)
        basis = make_probe_basis(p, (9, 14), freq_step=freq_step)
        for tags in (basis.h1_tags, basis.h2_tags):
            for against in ("sin_over_rho", "cos"):
                assert np.array_equal(_component_columns(tags, rho, against),
                                      _columns_per_tag(tags, rho, against))


class TestProbeGram:
    def test_shared_basis_is_immutable(self):
        # one basis per shape and process, so no caller may change it
        basis = make_probe_basis(1, (4, 5))
        assert make_probe_basis(1, (4, 5)) is basis
        assert isinstance(basis.h1_tags, tuple) and isinstance(basis.h2_tags, tuple)
        for b in (basis.b1, basis.b2):
            with pytest.raises(ValueError):
                b[0, 0] = 0.0

    @pytest.mark.parametrize("kind", ["sin", "cos"])
    @pytest.mark.parametrize("freq_step", [1.0, 0.5])
    def test_gram_block_matches_quadrature(self, kind, freq_step):
        tags = _tags_for(kind, 22, 3, freq_step)

        def funcs(t):
            return np.array([t**v if k == "poly" else getattr(np, k)(v * t) for k, v in tags])

        ref = gauss_panels(lambda t: funcs(t)[:, None] * funcs(t)[None, :], 0.0, np.pi, 64)
        g = _gram_block(tags)
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
        # product-space norm of their moment-relation elements
        data = solve_moment(build_moment_system(rt_free.spectrum, rt_free.f, 1, 128),
                            default_basis(rt_free.spectrum, 1))
        u_oracle = u_from_cauchy(rt_free.oracle_on(128))
        err = (u_from_cauchy(data) - u_oracle).norm() / u_oracle.norm()
        assert err <= 1e-3
        assert data.meta["residual"] <= 1e-8 + 1e-6 * np.linalg.norm(
            np.abs(np.asarray(data.meta["design_shape"])))  # residual is tiny

    def test_moment_residual_invariant_trivial(self):
        # exact-representation case: every equation is satisfied to rounding.
        # f1 == 0 blanks the H1 block, so the solve must truncate the
        # structurally invisible directions.
        sub = Subspectrum((np.arange(1, 41) - 0.5) ** 2 + 0j)
        system = build_moment_system(sub, F01, 1, 128)
        u = u_from_cauchy(solve_moment(system, default_basis(sub, 1)))
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

    def test_monotone_in_row_count(self, exclusion_case):
        # more eigenvalues never hurt by more than 10%
        errs = []
        oracle = exclusion_case.oracle_on(128)
        for n in (40, 48):
            res = reconstruct(1, exclusion_case.f, exclusion_case.spectrum.take(n), 128)
            errs.append(rel_l2(res.j, oracle.j) + rel_l2(res.g, oracle.g))
        assert errs[1] <= 1.1 * errs[0]


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
            responses.append((u_from_cauchy(res) - u_from_cauchy(base)).norm() / delta)
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
