import copy
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_json_close, rel_l2
from invsl import schemas
from invsl.cli import main
from invsl.errors import NonUniqueWarning
from invsl.forward import find_eigenvalues, make_delta
from invsl.halfinverse import TwoSidedProblem, hl_entire_pair
from invsl.problems import sigma_bump
from invsl.serialize import (
    canonical_dumps,
    complex_array,
    hl_f_descriptor,
    problem_to_json,
    subspectrum_to_json,
    two_sided_to_json,
)
from invsl.types import BoundaryPolyPair, SigmaFunction, Subspectrum

GOLDEN = Path(__file__).parent / "golden"


def load_golden(name):
    return json.loads((GOLDEN / name).read_text())


# The Cauchy data come from one SVD least-squares fit per family, whose
# condition number the output reports as fit.cond; another LAPACK build may
# move them by up to cond * eps.  The golden file's cond is used, so a
# regression that worsens the conditioning cannot widen its own tolerance.
CAUCHY_RTOL = max(load_golden("cauchy.json")["fit"]["cond"]) * np.finfo(float).eps
# Eigenvalues and Weyl samples: refine_brackets stops a root once its step
# or its bracket falls below 1e-14 (1 + |lambda|); the margin covers rounding
# accumulated over the 256-cell propagation.
SPECTRAL_RTOL = 1e-10


def _normwise(g):
    return CAUCHY_RTOL * np.max(np.abs(g))


def _spectral(g):
    return SPECTRAL_RTOL * (1.0 + np.abs(g))


GOLDEN_BOUNDS = {
    "spectrum.json": {"lambdas": _spectral},
    "cauchy.json": {"j": _normwise, "g": _normwise, "a": _normwise,
                    "fit.cond": _normwise, "fit.residual": _normwise,
                    "weyl_samples.lambda": _spectral, "weyl_samples.m": _spectral},
}


def _scale_largest_j(doc):
    """Change the largest |j| entry by 1e-6 relative (1e-6 of max |j|)."""
    k = int(np.argmax(np.abs(complex_array(doc["j"]))))
    doc["j"][k] = [v * (1 + 1e-6) for v in doc["j"][k]]


def _drop_eigenvalue(doc):
    del doc["lambdas"][4]


def _shift_lambdas(doc):
    doc["lambdas"] = doc["lambdas"][1:] + doc["lambdas"][:1]


def write(path, obj):
    path.write_text(canonical_dumps(obj))
    return str(path)


def strict_message(out):
    """The --strict stderr built from the non-unique report.json in `out`."""
    report = json.load(open(out / "report.json"))["report"]
    assert report["non_unique"]
    return "non-unique reconstruction: " + "; ".join(report["warnings"]) + "\n"


@pytest.fixture()
def free_problem(tmp_path):
    sig = SigmaFunction.zero(np.pi, 64)
    obj = problem_to_json(sig, BoundaryPolyPair([1.0], [0.0]), {"kind": "dirichlet_right"})
    return write(tmp_path / "free.json", obj)


class TestForward:
    def test_free_dirichlet_spectrum(self, free_problem, tmp_path):
        out = tmp_path / "out"
        assert main(["forward", free_problem, "--eigs", "12", "--out", str(out)]) == 0
        spec = json.load(open(out / "spectrum.json"))
        lam = complex_array(spec["lambdas"])
        assert np.max(np.abs(lam.real - (np.arange(1, 13) - 0.5) ** 2)) <= 1e-8
        assert spec["meta"]["tool"].startswith("invsl ")
        assert len(spec["meta"]["input_sha256"]) == 64
        cauchy = json.load(open(out / "cauchy.json"))
        assert np.max(np.abs(complex_array(cauchy["j"]))) <= 1e-6

    def test_step_matches_golden(self, tmp_path):
        out = tmp_path / "g"
        rc = main(["forward", str(GOLDEN / "step_problem.json"),
                   "--eigs", "10", "--grid", "256", "--out", str(out)])
        assert rc == 0
        for name, bounds in GOLDEN_BOUNDS.items():
            fresh = json.loads((out / name).read_text())
            assert_json_close(fresh, load_golden(name), bounds)

    @pytest.mark.parametrize("name, alter, field", [
        ("cauchy.json", _scale_largest_j, "j"),
        ("spectrum.json", _drop_eigenvalue, "lambdas"),
        ("spectrum.json", _shift_lambdas, "lambdas"),
    ])
    def test_golden_bounds_reject_altered_copies(self, name, alter, field):
        golden = load_golden(name)
        assert_json_close(copy.deepcopy(golden), golden, GOLDEN_BOUNDS[name])
        altered = copy.deepcopy(golden)
        alter(altered)
        with pytest.raises(AssertionError, match=rf"^{field}\b"):
            assert_json_close(altered, golden, GOLDEN_BOUNDS[name])

    def test_malformed_input_exit2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "invsl/problem-v1"}')
        assert main(["forward", str(bad)]) == 2
        notjson = tmp_path / "x.json"
        notjson.write_text("{")
        assert main(["forward", str(notjson)]) == 2


def _complex_sigma(tmp_path):
    sig = SigmaFunction(0.1j * np.sin(np.linspace(0.0, np.pi, 65)), np.pi)
    obj = problem_to_json(sig, BoundaryPolyPair([1.0], [0.0]), {"kind": "dirichlet_right"})
    return ["forward", write(tmp_path / "p.json", obj), "--eigs", "4"], "delta is not real"


def _interval_not_pi(tmp_path):
    obj = problem_to_json(SigmaFunction.zero(3.0, 64), BoundaryPolyPair([1.0], [0.0]),
                          {"kind": "dirichlet_right"})
    return ["forward", write(tmp_path / "p.json", obj), "--eigs", "4"], "on [0, pi]"


def _odd_cell_count(tmp_path):
    free = BoundaryPolyPair([1.0], [0.0])
    obj = two_sided_to_json(TwoSidedProblem(SigmaFunction.zero(2 * np.pi, 64), free, free))
    obj["sigma"]["samples"] = obj["sigma"]["samples"][:-1]
    return ["hl", write(tmp_path / "two.json", obj), "--eigs", "8"], "even cell count"


def _zero_eigenvalue(tmp_path):
    obj = problem_to_json(SigmaFunction.zero(np.pi, 64), BoundaryPolyPair([1.0], [0.0]),
                          {"kind": "dirichlet_right"})
    sub = subspectrum_to_json(Subspectrum(np.arange(0, 12, dtype=complex) ** 2))
    return (["reconstruct", write(tmp_path / "p.json", obj), write(tmp_path / "s.json", sub)],
            "nonzero rho")


@pytest.mark.parametrize("case", [_complex_sigma, _interval_not_pi, _odd_cell_count,
                                  _zero_eigenvalue], ids=lambda case: case.__name__[1:])
def test_unsupported_input_exit2(case, tmp_path, capsys):
    # files the schema admits but the solvers do not support are input errors
    argv, reason = case(tmp_path)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and reason in err
    assert not out.exists()


class TestReconstruct:
    def test_roundtrip_errors_small(self, rt_free, tmp_path):
        prob_file = write(tmp_path / "p.json", problem_to_json(
            rt_free.sigma_left, rt_free.left_pair,
            hl_f_descriptor(rt_free.sigma_right, rt_free.problem.right_pair)))
        sub_file = write(tmp_path / "s.json", subspectrum_to_json(rt_free.spectrum))
        out = tmp_path / "out"
        assert main(["reconstruct", prob_file, sub_file, "--out", str(out)]) == 0
        rec = json.load(open(out / "cauchy_recovered.json"))
        oracle = rt_free.oracle_on(rec["grid_m"])
        assert rel_l2(complex_array(rec["j"]), oracle.j) <= 1e-3
        assert rel_l2(complex_array(rec["g"]), oracle.g) <= 1e-3
        report = json.load(open(out / "report.json"))["report"]
        assert report["residual"] <= 1e-3
        assert not report["non_unique"]

    def test_strict_starved_exit4(self, rt_free, tmp_path, capsys):
        prob_file = write(tmp_path / "p.json", problem_to_json(
            rt_free.sigma_left, rt_free.left_pair,
            hl_f_descriptor(rt_free.sigma_right, rt_free.problem.right_pair)))
        sparse = Subspectrum(rt_free.spectrum.lambdas[::2])
        sub_file = write(tmp_path / "s.json", subspectrum_to_json(sparse))
        out = tmp_path / "out"
        # the report carries the non-uniqueness; the CLI emits no warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["reconstruct", prob_file, sub_file, "--strict", "--out", str(out)]) == 4
        assert not [w for w in caught if w.category is NonUniqueWarning]
        assert capsys.readouterr().err == strict_message(out)

    def test_empty_subspectrum_exit2(self, free_problem, tmp_path):
        sub_file = tmp_path / "s.json"
        sub_file.write_text('{"schema": "invsl/subspectrum-v1", "lambdas": []}')
        assert main(["reconstruct", free_problem, str(sub_file)]) == 2


class TestHalfInverse:
    def test_drop_rule_file_level(self, exclusion_case, tmp_path, capsys):
        ts_file = write(tmp_path / "two.json", two_sided_to_json(exclusion_case.problem))
        out0 = tmp_path / "d0"
        assert main(["hl", ts_file, "--eigs", "40", "--drop", "0",
                     "--strict", "--out", str(out0)]) == 0
        report = json.load(open(out0 / "report.json"))["report"]
        assert report["completeness"]["gram_ratio"] > 1e-8
        rec = json.load(open(out0 / "cauchy_recovered.json"))
        oracle = exclusion_case.oracle_on(rec["grid_m"])
        assert rel_l2(complex_array(rec["j"]), oracle.j) <= 1e-3

        out2 = tmp_path / "d2"
        assert main(["hl", ts_file, "--eigs", "50", "--drop", "2",
                     "--strict", "--out", str(out2)]) == 4
        report2 = json.load(open(out2 / "report.json"))["report"]
        assert report2["completeness"]["gram_ratio"] <= 1e-8
        assert capsys.readouterr().err == strict_message(out2)


class TestStability:
    def test_zero_row_and_determinism(self, rt_free, tmp_path):
        prob_file = write(tmp_path / "p.json", problem_to_json(
            rt_free.sigma_left, rt_free.left_pair,
            hl_f_descriptor(rt_free.sigma_right, rt_free.problem.right_pair),
            subspectrum=rt_free.spectrum))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            rc = main(["stability", prob_file, "--omega", "0,1e-3", "--trials", "4",
                       "--seed", "11", "--out", str(out)])
            assert rc == 0
            outs.append((out / "stability.csv").read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().strip().split("\n")
        assert lines[0] == "omega,trial,err_u,err_j,err_g,err_a"
        zero_rows = [l for l in lines[1:] if l.startswith("0.0,")]
        assert len(zero_rows) == 4
        assert all(float(l.split(",")[2]) <= 1e-10 for l in zero_rows)
        noisy = [float(l.split(",")[2]) for l in lines[1:] if not l.startswith("0.0,")]
        assert all(v > 0 for v in noisy)
        report = json.load(open(tmp_path / "a" / "stability_summary.json"))["report"]
        assert report["non_unique"] is False and report["warnings"] == []

    def test_strict_non_unique_base_exit4(self, tmp_path, capsys):
        # the p = 2 density-deficit problem of the reconstruction tests: the
        # base solve is not unique, which the report records and --strict
        # turns into exit 4
        right = (SigmaFunction.zero(np.pi, 512), BoundaryPolyPair([1.0], [0.4]))
        sigma_left, left_pair = sigma_bump(512, amp=0.2), BoundaryPolyPair([0.9], [0.3, 1.0])
        delta, _ = make_delta(sigma_left, left_pair, hl_entire_pair(*right))
        spec = find_eigenvalues(delta, (-6.0, 540.0)).take(40)
        prob_file = write(tmp_path / "p.json", problem_to_json(
            sigma_left, left_pair, hl_f_descriptor(*right), subspectrum=spec))
        flags = ["--omega", "1e-3", "--trials", "2"]
        for strict, code in ((False, 0), (True, 4)):
            out = tmp_path / str(strict)
            argv = ["stability", prob_file, *flags, "--out", str(out)] + ["--strict"] * strict
            assert main(argv) == code
            report = json.load(open(out / "stability_summary.json"))["report"]
            assert report["non_unique"] is True
            assert any("singular-value ratio" in w for w in report["warnings"])
            assert (out / "stability.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("non-unique reconstruction: ") and "singular-value ratio" in err

    def test_tol_reaches_the_eigenvalue_search(self, free_problem, tmp_path, capsys):
        # a simplicity tolerance wider than the eigenvalue gaps merges roots,
        # so fewer than --eigs remain: RootLoss, as in forward
        out = tmp_path / "out"
        assert main(["stability", free_problem, "--eigs", "12", "--trials", "2",
                     "--out", str(out)]) == 0
        assert main(["stability", free_problem, "--eigs", "12", "--trials", "2",
                     "--tol", "1e3", "--out", str(out)]) == 3
        assert "RootLoss" in capsys.readouterr().err


class TestStabilityInput:
    @pytest.mark.parametrize("flags", [
        ["--omega", "abc"],
        ["--trials", "0"],
        ["--omega", "nan"],
        ["--omega=-1e-3"],
        ["--omega", "1e-3,1e-3"],
    ])
    def test_bad_noise_plan_exit2(self, free_problem, tmp_path, flags, capsys):
        out = tmp_path / "out"
        assert main(["stability", free_problem, *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("input error: ")
        assert not out.exists()


class TestDiagnose:
    def test_integer_sines(self, tmp_path):
        sub = Subspectrum(np.arange(1, 13, dtype=complex) ** 2)
        f = write(tmp_path / "s.json", subspectrum_to_json(sub))
        out = tmp_path / "out"
        assert main(["diagnose", f, "--out", str(out)]) == 0
        d = json.load(open(out / "diagnostics.json"))
        assert d["class_s"]["simple"] is True
        assert d["gram"]["conds"][-1] == pytest.approx(1.0, abs=1e-8)
        assert d["xi_identity_residual"] <= 1e-8

    def test_duplicate_lambda_flagged(self, tmp_path):
        sub = Subspectrum(np.array([1.0, 4.0, 4.0, 9.0], dtype=complex))
        f = write(tmp_path / "s.json", subspectrum_to_json(sub))
        out = tmp_path / "out"
        assert main(["diagnose", f, "--out", str(out)]) == 0
        d = json.load(open(out / "diagnostics.json"))
        assert d["class_s"]["simple"] is False

    def test_corpus_subspectrum_curve_bounded(self, rt_free, tmp_path):
        # the sine family indexed past the boundary degree is Riesz: bounded,
        # flat condition curve; the full family is overcomplete and grows
        tail = Subspectrum(rt_free.spectrum.lambdas[1:])
        f = write(tmp_path / "s.json", subspectrum_to_json(tail))
        out = tmp_path / "out"
        assert main(["diagnose", f, "--out", str(out)]) == 0
        d = json.load(open(out / "diagnostics.json"))
        conds = d["gram"]["conds"]
        assert all(np.isfinite(c) for c in conds)
        assert conds[-1] < 10
        assert d["gram"]["basis_like"] is True

        full = write(tmp_path / "full.json", subspectrum_to_json(rt_free.spectrum))
        out2 = tmp_path / "out2"
        assert main(["diagnose", full, "--out", str(out2)]) == 0
        d2 = json.load(open(out2 / "diagnostics.json"))
        assert d2["gram"]["conds"][-1] > conds[-1]


def test_schema_snapshots_match_package():
    for name, schema in schemas.ALL.items():
        snap = json.loads((Path(__file__).parent.parent / "docs" / "schema"
                           / f"{name}.schema.json").read_text())
        assert snap == schema
