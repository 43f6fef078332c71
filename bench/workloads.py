"""The benchmark's three workloads: input generation, references and output checks.

Every workload is a fixed list of CLI ops (one "cycle").  Set-up writes the
input files the ops read and computes the references their outputs are
checked against; the package sees only the generated files.  References come
from `reference.py` (eigenvalues, Weyl values, the Cauchy-data
representation) or, for the round trips, from the package's forward
extraction `extract_cauchy`, the same oracle the acceptance criteria use.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref
from invsl.forward import extract_cauchy, resample_cauchy
from invsl.problems import (
    forward_corpus,
    hl_exclusion_instance,
    roundtrip_corpus,
    sigma_random_smooth,
)
from invsl.serialize import (
    canonical_dumps,
    hl_f_descriptor,
    problem_to_json,
    subspectrum_to_json,
    two_sided_to_json,
)
from invsl.types import BoundaryPolyPair, EntirePair, SigmaFunction, Subspectrum

FWD_EIGS = 40         # CLI default --eigs of `forward`
FWD_GRID = 512        # CLI default --grid of `forward`
HL_EIGS = 48          # CLI default --eigs of `hl`
INV_GRID = 128        # CLI default --grid of `reconstruct`, `hl` and `stability`
ROUNDTRIP_TOL = 1e-3  # criterion 06
EIG_TOL = 1e-9        # relative to max(1, |lambda|), against the same discrete problem


class CheckFailed(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Op:
    """One CLI call: its argv (without --out) and the check of its outputs.

    `check(out_dir)` raises CheckFailed or returns the op's accuracy figure
    for max_rel_err (None when the op does not contribute one).
    """

    name: str
    argv: list
    check: Callable[[Path], Optional[float]]


def _write(path: Path, obj) -> str:
    path.write_text(canonical_dumps(obj))
    return str(path)


def _load(out: Path, name: str) -> dict:
    with open(out / name) as fh:
        return json.load(fh)


def _complex(values) -> np.ndarray:
    return np.array([complex(*v) for v in values])


def _real_lambdas(values) -> np.ndarray:
    lam = _complex(values)
    require(np.all(np.abs(lam.imag) <= 1e-9 * np.maximum(1.0, np.abs(lam.real))),
            "eigenvalues of a real problem left the real axis")
    return lam.real


def _match(lam, expected, what):
    require(lam.size == expected.size, f"{what}: {lam.size} eigenvalues, expected {expected.size}")
    err = np.abs(lam - expected) / np.maximum(1.0, np.abs(expected))
    worst = int(np.argmax(err))
    require(err[worst] <= EIG_TOL,
            f"{what}: eigenvalue {worst} is {lam[worst]!r}, reference {expected[worst]!r}")


def _rho(lam):
    return np.sqrt(np.maximum(lam, 0.0))


def _ref_problem(sigma: SigmaFunction, pair: BoundaryPolyPair, r1, r2) -> ref.Problem:
    return ref.Problem(sigma.samples.real, sigma.interval_length,
                       pair.a.real, pair.b.real, r1, r2)


def _roundtrip_errors(out: Path, oracle) -> float:
    rec = _load(out, "cauchy_recovered.json")
    ej = ref.rel_l2(_complex(rec["j"]), oracle.j)
    eg = ref.rel_l2(_complex(rec["g"]), oracle.g)
    ea = float(np.max(np.abs(_complex(rec["a"]) - oracle.a)))
    require(max(ej, eg, ea) <= ROUNDTRIP_TOL,
            f"round trip J {ej:.2e} G {eg:.2e} A {ea:.2e} above {ROUNDTRIP_TOL}")
    return max(ej, eg, ea)


def _gap_audit(lam, p, r):
    """|rho_n - (n/2 - (p+r)/4)| < 0.25 from n = 10 on; a lost root shifts by 0.5."""
    n = np.arange(1, lam.size + 1)
    dev = np.abs(_rho(lam) - (n / 2 - (p + r) / 4))[9:]
    require(dev.size == 0 or dev.max() < 0.25, f"index audit deviation {dev.max():.3f}")


# ----------------------------------------------------------------------------
# fwd_spectra
# ----------------------------------------------------------------------------

def _check_forward(pair, rp: ref.Problem, expected, continuum):
    """Spectrum against the discrete reference, Weyl samples and Cauchy data
    against the reference propagator; returns the error against `continuum`."""
    def check(out: Path):
        spec = _load(out, "spectrum.json")
        lam = _real_lambdas(spec["lambdas"])
        _match(lam, expected, "spectrum")
        gaps = np.diff(np.sqrt(lam[lam >= 25.0]))  # rho >= 5, where rho_n - n settles
        require(np.all((gaps > 0.5) & (gaps < 1.5)),
                f"rho spacing {gaps.min():.3f}..{gaps.max():.3f}")

        cauchy = _load(out, "cauchy.json")
        mids = np.array([v[0] for v in cauchy["weyl_samples"]["lambda"]])
        require(mids.size >= FWD_EIGS // 2, "too few Weyl samples")
        y, yq = rp.end_values(mids)
        m_ref = y / yq
        m_out = np.array([v[0] for v in cauchy["weyl_samples"]["m"]])
        err = np.abs(m_out - m_ref) / np.maximum(1.0, np.abs(m_ref))
        require(err.max() <= 1e-8, f"Weyl samples off by {err.max():.2e}")

        j, g, a = (_complex(cauchy[k]) for k in ("j", "g", "a"))
        require(j.size == FWD_GRID + 1 and a.size == pair.p, "Cauchy data has the wrong shape")
        probe = np.array([0.49, 1.69, 4.41, 8.41])
        d0, d1 = ref.deltas_from_kernels(j.real, g.real, a.real, pair.p, probe)
        y, yq = rp.end_values(probe)
        scale = np.maximum(np.abs(y), np.abs(yq))
        err = max(np.max(np.abs(d0 - y) / scale), np.max(np.abs(d1 - yq) / scale))
        require(err <= 1e-6, f"Cauchy data reproduces the characteristic functions to {err:.2e}")
        if continuum is None:
            return None
        return float(np.max(np.abs(lam - continuum) / np.maximum(1.0, np.abs(continuum))))
    return check


def setup_fwd_spectra(seed: int, work: Path):
    """Forward corpus, criterion 01's closed forms, and seeded problems."""
    rng = np.random.default_rng(seed)
    corpus = forward_corpus(FWD_GRID)
    zero = SigmaFunction.zero(np.pi, FWD_GRID)
    n = np.arange(FWD_EIGS)
    cases = [(name, sig, pair, f, None) for name, sig, pair, f in corpus]
    cases.append(("zero_dirichlet", zero, BoundaryPolyPair([1.0], [0.0]),
                  EntirePair.constant(0.0, 1.0), (n + 0.5) ** 2))
    cases.append(("zero_neumann", zero, BoundaryPolyPair([1.0], [0.0]),
                  EntirePair.constant(1.0, 0.0), n.astype(float) ** 2))
    cases.append(("zero_robin", zero, BoundaryPolyPair([1.0], [rng.uniform(0.1, 0.8)]),
                  EntirePair.constant(1.0, rng.uniform(0.2, 1.0)), None))
    _, _, pair, f = corpus[int(rng.integers(len(corpus)))]
    cases.append(("random_smooth",
                  sigma_random_smooth(FWD_GRID, scale=rng.uniform(0.3, 1.0),
                                      seed=int(rng.integers(2**31))), pair, f, None))
    fine = {name: sig for name, sig, _, _ in forward_corpus(2 * FWD_GRID)}

    ops = []
    for name, sig, pair, f, exact in cases:
        f1, f2 = (float(v.real[0]) for v in f(np.array([1.0])))
        rp = _ref_problem(sig, pair, [f1], [f2])
        expected = ref.eigenvalues(rp.delta, FWD_EIGS, -3.0, FWD_EIGS + 3.0)
        continuum = exact
        if name in fine:
            s = np.sign(expected) * np.sqrt(np.abs(expected))
            finer = ref.bisect(_ref_problem(fine[name], pair, [f1], [f2]).delta,
                               s - 1e-3, s + 1e-3)
            continuum = ref.richardson(expected, finer)
        path = _write(work / f"{name}.json", problem_to_json(sig, pair, f))
        ops.append(Op(f"forward:{name}", ["forward", path],
                      _check_forward(pair, rp, expected, continuum)))
    return ops


# ----------------------------------------------------------------------------
# hl_roundtrip and inv_moments share the two-sided corpus
# ----------------------------------------------------------------------------

def _two_sided_reference(problem, count):
    sigma = problem.sigma_full
    rp = ref.Problem(sigma.samples.real, sigma.interval_length,
                     problem.left_pair.a.real, problem.left_pair.b.real,
                     problem.right_pair.a.real, problem.right_pair.b.real)
    return ref.eigenvalues(rp.delta, count, -2.0, count / 2 + 3.0)


def _oracle(problem):
    sigma_left, _ = problem.halves()
    return resample_cauchy(extract_cauchy(sigma_left, problem.left_pair), INV_GRID)


def _check_hl(problem, expected, oracle, drop):
    def check(out: Path):
        lam = _real_lambdas(_load(out, "spectrum.json")["lambdas"])
        _match(lam, expected, "hl spectrum")
        _gap_audit(lam, problem.p, problem.r)
        report = _load(out, "report.json")["report"]
        require(report["drop"] == drop and not report["non_unique"],
                "reconstruction reported as non-unique")
        require(report["completeness"]["gram_ratio"] > 1e-8, "completeness evidence collapsed")
        return _roundtrip_errors(out, oracle)
    return check


def setup_hl_roundtrip(seed: int, work: Path):
    """Round-trip corpus with --drop 0 and the (p, r) = (1, 3) instance with --drop 1."""
    cases = [(name, prob, 0) for name, prob in roundtrip_corpus()]
    cases.append(("hl_exclusion", hl_exclusion_instance(), 1))
    ops = []
    for name, prob, drop in cases:
        expected = _two_sided_reference(prob, HL_EIGS)
        path = _write(work / f"{name}.json", two_sided_to_json(prob))
        ops.append(Op(f"hl:{name}", ["hl", path, "--drop", str(drop)],
                      _check_hl(prob, expected, _oracle(prob), drop)))
    return ops


def _check_reconstruct(oracle, count):
    def check(out: Path):
        report = _load(out, "report.json")["report"]
        require(report["n_rows"] == count and not report["non_unique"],
                "reconstruction reported as non-unique")
        return _roundtrip_errors(out, oracle)
    return check


def _check_diagnose(lam):
    gaps = np.abs(lam[:, None] - lam[None, :]) + np.diag(np.full(lam.size, np.inf))
    min_gap = gaps.min()
    inv_sq = np.sum(1.0 / np.abs(lam))  # |rho|^2 = |lambda| on either branch

    def check(out: Path):
        diag = _load(out, "diagnostics.json")
        require(diag["class_s"]["simple"], "subspectrum reported as not simple")
        require(abs(diag["class_s"]["min_gap"] - min_gap) <= 1e-9 * min_gap, "wrong min_gap")
        require(abs(diag["class_a"]["sum_inv_rho_sq"] - inv_sq) <= 1e-9 * inv_sq,
                "wrong sum_inv_rho_sq")
        require(diag["xi_identity_residual"] <= 1e-8, "folding identity residual above 1e-8")
        gram = diag["gram"]
        require(gram["smin"] > 0 and all(np.isfinite(gram["conds"])), "degenerate Gram matrix")
        return None
    return check


def _check_stability(omegas, trials):
    def check(out: Path):
        with open(out / "stability.csv") as fh:
            rows = list(csv.DictReader(fh))
        require(len(rows) == len(omegas) * trials, f"{len(rows)} stability rows")
        summary = _load(out, "stability_summary.json")["report"]["summary"]
        ratios = []
        for omega in omegas:
            errs = [float(r["err_u"]) for r in rows if float(r["omega"]) == omega]
            entry = summary[str(omega)]
            require(len(errs) == trials
                    and abs(entry["median_err_u"] - np.median(errs)) <= 1e-12 * np.median(errs),
                    "summary median disagrees with the table")
            ratios.append(entry["ratio_vs_omega"])
        require(max(ratios) / min(ratios) <= 3.0, "stability ratio spread above 3 (criterion 07)")
        return None
    return check


def setup_inv_moments(seed: int, work: Path):
    """reconstruct at N=40 and N=80 plus diagnose per round-trip problem, one stability run."""
    ops, problems = [], []
    for name, prob in roundtrip_corpus():
        lam = _two_sided_reference(prob, 80)
        sigma_left, sigma_right = prob.halves()
        problem = _write(work / f"{name}.json", problem_to_json(
            sigma_left, prob.left_pair, hl_f_descriptor(sigma_right, prob.right_pair),
            subspectrum=Subspectrum(lam[:40])))
        problems.append((name, problem))
        oracle = _oracle(prob)
        for count in (40, 80):
            sub = _write(work / f"{name}_sub{count}.json",
                         subspectrum_to_json(Subspectrum(lam[:count])))
            ops.append(Op(f"reconstruct:{name}:{count}", ["reconstruct", problem, sub],
                          _check_reconstruct(oracle, count)))
        ops.append(Op(f"diagnose:{name}", ["diagnose", problem], _check_diagnose(lam[:40])))
    omegas, trials = (1e-3, 1e-2), 20
    name, problem = problems[0]
    ops.append(Op(f"stability:{name}",
                  ["stability", problem, "--omega", ",".join(map(repr, omegas)),
                   "--trials", str(trials), "--seed", str(seed)],
                  _check_stability(omegas, trials)))
    return ops


WORKLOADS = {
    "fwd_spectra": setup_fwd_spectra,
    "hl_roundtrip": setup_hl_roundtrip,
    "inv_moments": setup_inv_moments,
}
