"""Acceptance gate: ten criteria, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Shared corpus objects come from conftest session fixtures.
"""

import json
import time
import warnings

import numpy as np
import pytest

from conftest import fundamental_nodes, rel_l2
from invsl.cli import main
from invsl.forward import char_pair, extract_cauchy, find_eigenvalues, make_delta, resample_cauchy
from invsl.halfinverse import hl_reconstruct, hl_spectrum
from invsl.moments import u_from_cauchy, xi_identity_residual
from invsl.problems import (
    forward_corpus,
    hl_step_instance,
    hl_zero_instance,
    sigma_random_smooth,
    sigma_step,
)
from invsl.reconstruct import moment_identity_check, reconstruct, stability_experiment
from invsl.serialize import canonical_dumps, hl_f_descriptor, problem_to_json, two_sided_to_json
from invsl.types import BoundaryPolyPair, EntirePair, SigmaFunction


def report(num, text):
    print(f"PASS criterion {num:2d}: {text}")


def test_criterion_01_closed_form_spectra():
    sig = SigmaFunction.zero(np.pi, 512)
    pair = BoundaryPolyPair([1.0], [0.0])
    delta, _ = make_delta(sig, pair, EntirePair.constant(0.0, 1.0))
    lam = find_eigenvalues(delta, (-1.0, 150.0)).take(12).lambdas.real
    err_d = np.max(np.abs(lam - (np.arange(1, 13) - 0.5) ** 2))
    assert err_d <= 1e-8

    delta, _ = make_delta(sig, pair, EntirePair.constant(1.0, 0.0))
    lam = find_eigenvalues(delta, (-1.0, 130.0)).take(12).lambdas.real
    err_n = np.max(np.abs(lam - np.arange(0, 12) ** 2))
    assert err_n <= 1e-8
    report(1, f"closed-form spectra, abs errors {err_d:.2e} / {err_n:.2e} <= 1e-8")


def test_criterion_02_lagrange_identity():
    rng = np.random.default_rng(21)
    worst = 0.0
    for k in range(20):
        kind = k % 3
        if kind == 0:
            sig = sigma_random_smooth(512, scale=rng.uniform(0.3, 1.2), seed=100 + k)
        elif kind == 1:
            sig = sigma_step(512, height=rng.uniform(-1.5, 1.5), at=rng.uniform(0.25, 0.75) * np.pi)
        else:
            sig = SigmaFunction(0.5 * rng.standard_normal(513) + 0j, np.pi)
        lam = rng.uniform(0.2, 90) + (rng.uniform(-1, 1) * 1j if k % 4 == 0 else 0)
        s, s1, c, c1 = fundamental_nodes(sig, lam)
        worst = max(worst, float(np.max(np.abs(c * s1 - c1 * s - 1.0))))
    assert worst <= 1e-8
    report(2, f"Lagrange identity residual {worst:.2e} <= 1e-8 on 20 draws")


def test_criterion_03_representation_closure():
    rng = np.random.default_rng(22)
    corpus = forward_corpus()
    ps = sorted({pair.p for _, _, pair, _ in corpus})
    assert ps == [1, 2, 3]
    worst = 0.0
    from invsl.reconstruct import deltas_from_cauchy
    for name, sig, pair, _ in corpus:
        data = extract_cauchy(sig, pair, grid_m=4096)
        lam = rng.uniform(0.15, 5.8, 50) ** 2 + 0j
        d0r, d1r = deltas_from_cauchy(data, pair.p, lam)
        d0, d1 = char_pair(sig, pair, lam)
        scale = np.maximum(np.abs(d0), np.abs(d1))
        err = max(np.max(np.abs(d1r - d1) / scale), np.max(np.abs(d0r - d0) / scale))
        assert err <= 1e-5, f"{name}: {err:.2e}"
        worst = max(worst, err)
    report(3, f"representation closure on 5 problems (p in 1..3), worst {worst:.2e} <= 1e-5")


def test_criterion_04_moment_identity():
    rng = np.random.default_rng(23)
    worst = 0.0
    parities = set()
    for name, sig, pair, f in forward_corpus():
        parities.add(pair.p % 2)
        u = u_from_cauchy(extract_cauchy(sig, pair, grid_m=16384))
        for lam in rng.uniform(0.2, 30, 30):
            res = moment_identity_check(u, lam, f, pair, sig)
            assert res <= 1e-6, f"{name} at {lam}: {res:.2e}"
            worst = max(worst, res)
    assert parities == {0, 1}
    report(4, f"moment identity residual {worst:.2e} <= 1e-6 (both parities)")


def test_criterion_05_folding_identity():
    rng = np.random.default_rng(24)
    worst = 0.0
    for _ in range(100):
        rho = rng.uniform(0.5, 20, 2) + 1j * rng.uniform(0, 0.3, 2)
        worst = max(worst, xi_identity_residual(rho))
    assert worst <= 1e-8
    report(5, f"sine-folding identity residual {worst:.2e} <= 1e-8 over 100 pairs")


def test_criterion_06_inverse_round_trip(rt_problems):
    lines = []
    for rt in rt_problems:
        start = time.time()
        res = reconstruct(1, rt.f, rt.spectrum.take(40), 128)
        elapsed = time.time() - start
        oracle = rt.oracle_on(128)
        ej = rel_l2(res.cauchy.j, oracle.j)
        eg = rel_l2(res.cauchy.g, oracle.g)
        ea = float(np.max(np.abs(res.cauchy.a - oracle.a)))
        assert ej <= 1e-3 and eg <= 1e-3, f"{rt.name}: J {ej:.2e} G {eg:.2e}"
        assert ea <= 1e-3, f"{rt.name}: A {ea:.2e}"
        assert elapsed <= 300
        lines.append(f"{rt.name} J {ej:.1e} G {eg:.1e} A {ea:.1e}")
    report(6, "round trip (N=40, M=128) <= 1e-3: " + "; ".join(lines))


def test_criterion_07_stability(rt_problems):
    rt = rt_problems[0]
    out = stability_experiment(1, rt.f, rt.spectrum.take(40), 128,
                               omegas=[1e-3, 1e-2], trials=20, seed=7)
    r1 = out["summary"][1e-3]["ratio_vs_omega"]
    r2 = out["summary"][1e-2]["ratio_vs_omega"]
    spread = max(r1, r2) / min(r1, r2)
    assert spread <= 3.0
    errs = {om: [] for om in (1e-3, 1e-2)}
    for row in out["rows"]:
        errs[row["omega"]].append(max(row["err_j"], row["err_g"], row["err_a"]))
    c_fit = max(np.median(errs[om]) / om for om in errs)
    assert np.isfinite(c_fit)
    report(7, f"stability: median ratios {r1:.2f}/{r2:.2f} (spread {spread:.2f} <= 3), "
              f"component errors <= C*Omega with C = {c_fit:.2f}")


def test_criterion_08_exclusion_rule(exclusion_case):
    prob = exclusion_case.problem
    assert (prob.p, prob.r) == (1, 3)
    _, sigma_right = prob.halves()
    oracle = exclusion_case.oracle_on(128)
    msgs = []
    for drop in (0, 1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = hl_reconstruct(sigma_right, prob.right_pair, 1,
                                 exclusion_case.spectrum.take(40 + drop), drop, 128)
        ej = rel_l2(res.cauchy.j, oracle.j)
        eg = rel_l2(res.cauchy.g, oracle.g)
        ea = float(np.max(np.abs(res.cauchy.a - oracle.a)))
        assert max(ej, eg, ea) <= 1e-3, f"drop {drop}: {ej:.2e}/{eg:.2e}/{ea:.2e}"
        assert res.report["completeness"]["gram_ratio"] > 1e-8
        msgs.append(f"drop {drop} ok ({max(ej, eg):.1e})")
    for n in (32, 48):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = hl_reconstruct(sigma_right, prob.right_pair, 1,
                                 exclusion_case.spectrum.take(n + 2), 2, 128)
        ratio = res.report["completeness"]["gram_ratio"]
        assert ratio <= 1e-8, f"N {n}: gram ratio {ratio:.2e}"
        assert res.report["non_unique"]
        msgs.append(f"drop 2 @N={n} gram ratio {ratio:.1e} < 1e-8")
    report(8, "exclusion rule (p,r)=(1,3): " + "; ".join(msgs))


def test_criterion_09_halfproblem_asymptotics():
    slopes = []
    for name, prob in (("zero", hl_zero_instance()), ("step", hl_step_instance())):
        spec = hl_spectrum(prob, 30)
        n = np.arange(1, 31)
        kappa = np.abs(spec.rhos.real - (n / 2 - (prob.p + prob.r) / 4))
        sel = slice(4, 30)  # n = 5..30
        slope = float(np.polyfit(np.log(n[sel]), np.log(np.maximum(kappa[sel], 1e-16)), 1)[0])
        assert slope < 0, f"{name}: slope {slope:.3f}"
        slopes.append(f"{name} {slope:.2f}")
    report(9, "spectral asymptotics decay, log-log slopes " + ", ".join(slopes) + " < 0")


def test_criterion_10_determinism(rt_problems, exclusion_case, tmp_path):
    rt = rt_problems[0]
    prob_file = tmp_path / "p.json"
    prob_file.write_text(canonical_dumps(problem_to_json(
        rt.sigma_left, rt.left_pair,
        hl_f_descriptor(rt.sigma_right, rt.problem.right_pair),
        subspectrum=rt.spectrum)))
    ts_file = tmp_path / "two.json"
    ts_file.write_text(canonical_dumps(two_sided_to_json(exclusion_case.problem)))

    blobs = []
    for tag in ("one", "two"):
        out = tmp_path / f"st_{tag}"
        assert main(["stability", str(prob_file), "--omega", "1e-3,1e-2",
                     "--trials", "5", "--seed", "3", "--out", str(out)]) == 0
        blobs.append((out / "stability.csv").read_bytes()
                     + (out / "stability_summary.json").read_bytes())
    assert blobs[0] == blobs[1]

    blobs = []
    for tag in ("one", "two"):
        out = tmp_path / f"hl_{tag}"
        assert main(["hl", str(ts_file), "--eigs", "36", "--out", str(out)]) == 0
        blobs.append((out / "spectrum.json").read_bytes()
                     + (out / "cauchy_recovered.json").read_bytes()
                     + (out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]
    report(10, "repeated CLI runs with fixed seeds are byte-identical")
