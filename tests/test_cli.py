import copy
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_json_close, rel_l2
from invsl import cli, schemas, serialize
from invsl.cli import main
from invsl.errors import NonUniqueWarning
from invsl.forward import find_eigenvalues, make_delta
from invsl.halfinverse import TwoSidedProblem, hl_entire_pair, hl_spectrum
from invsl.problems import forward_corpus, sigma_bump
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
    return read_json(GOLDEN / name)


def read_json(path):
    return json.loads(Path(path).read_text())


# The Cauchy data come from one least-squares fit per family (Householder QR
# when no singular value is truncated), whose condition number the output
# reports as fit.cond; another LAPACK build or another backward-stable solver
# may move them by up to cond * eps.  The golden file's cond is used, so a
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
    report = read_json(out / "report.json")["report"]
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
        spec = read_json(out / "spectrum.json")
        lam = complex_array(spec["lambdas"])
        assert np.max(np.abs(lam.real - (np.arange(1, 13) - 0.5) ** 2)) <= 1e-8
        assert spec["meta"]["tool"].startswith("invsl ")
        assert len(spec["meta"]["input_sha256"]) == 64
        cauchy = read_json(out / "cauchy.json")
        assert np.max(np.abs(complex_array(cauchy["j"]))) <= 1e-6

    @pytest.mark.parametrize("kind", ["dirichlet_right", "neumann_right"])
    def test_zero_potential_fit_residual(self, kind, tmp_path):
        # the fit's targets are rounding noise for a zero potential, so the
        # residual is relative to the delta samples (relative to the targets
        # it read 0.30-0.81; measured 2.9e-15 and 1.8e-14 here)
        sig = SigmaFunction.zero(np.pi, 512)
        problem = write(tmp_path / "zero.json",
                        problem_to_json(sig, BoundaryPolyPair([1.0], [0.0]), {"kind": kind}))
        out = tmp_path / "out"
        assert main(["forward", problem, "--eigs", "4", "--out", str(out)]) == 0
        assert max(read_json(out / "cauchy.json")["fit"]["residual"]) <= 1e-12

    def test_eigenvalue_below_the_old_scan_window(self, tmp_path, capsys):
        # y^[1](0) = -5 y(0) puts index 0 at -24.703, below the -9 at which
        # the scan of forward's default window starts; the index path finds it
        sig = SigmaFunction.from_callable(lambda x: 0.3 * np.sin(x), np.pi, 512)
        obj = problem_to_json(sig, BoundaryPolyPair([1.0], [5.0]), {"kind": "dirichlet_right"})
        out = tmp_path / "out"
        argv = ["forward", write(tmp_path / "p.json", obj), "--eigs", "5", "--out", str(out)]
        assert main(argv) == 0
        lam = complex_array(read_json(out / "spectrum.json")["lambdas"]).real
        assert np.max(np.abs(lam - [-24.70297, 1.10741, 4.51288, 10.10088, 17.82472])) <= 1e-5
        assert capsys.readouterr().err == ""

    def test_hl_right_half_file_takes_the_index_path(self, tmp_path, capsys):
        # the left-half problem file of a two-sided problem: its f's right
        # half joins sigma, so the index path finds index 0 at -900, below
        # the -9 at which the scan window starts
        full = SigmaFunction.zero(2 * np.pi, 1024)
        prob = TwoSidedProblem(full, BoundaryPolyPair([1.0], [0.0]), BoundaryPolyPair([1.0], [-30.0]))
        left, right = full.halves()
        expected = hl_spectrum(prob, 3).lambdas.real
        assert np.max(np.abs(expected - [-900.0, 0.0632, 0.5685])) <= 1e-4
        obj = problem_to_json(left, prob.left_pair, hl_f_descriptor(right, prob.right_pair))
        argv = ["forward", write(tmp_path / "p.json", obj), "--eigs", "3", "--out", str(tmp_path / "a")]
        assert main(argv) == 0
        lam = complex_array(read_json(tmp_path / "a" / "spectrum.json")["lambdas"]).real
        assert np.max(np.abs(lam - expected) / (1.0 + np.abs(expected))) <= 1e-12
        assert capsys.readouterr().err == ""
        # a right half that starts at another sample does not join: the scan
        # stands in, without index 0, and says why
        shifted = SigmaFunction(right.samples + 0.1, right.interval_length)
        obj = problem_to_json(left, prob.left_pair, hl_f_descriptor(shifted, prob.right_pair))
        argv = ["forward", write(tmp_path / "q.json", obj), "--eigs", "3", "--out", str(tmp_path / "b")]
        assert main(argv) == 0
        assert "(f is hl_right_half, and its sigma does not join the problem's)" in capsys.readouterr().err

    def test_scan_without_index_is_reported(self, free_problem, tmp_path, capsys):
        # p3_quadratic's left pair is not Herglotz, so its count could fall:
        # the scan stands in, and says so on stderr
        _, sig, pair, f = forward_corpus(128)[4]
        p3 = write(tmp_path / "p3.json", problem_to_json(sig, pair, f))
        assert main(["forward", p3, "--eigs", "12", "--out", str(tmp_path / "a")]) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "(a boundary pair is not Herglotz)" in err
        assert "[-9.0, 196.0]" in err and "; 0 root(s) dropped" in err
        argv = ["forward", free_problem, "--eigs", "4", "--window=-1,50", "--out", str(tmp_path / "b")]
        assert main(argv) == 0
        assert "[-1.0, 50.0] without an index certificate (--window given)" in capsys.readouterr().err

    def test_step_matches_golden(self, tmp_path):
        out = tmp_path / "g"
        rc = main(["forward", str(GOLDEN / "step_problem.json"),
                   "--eigs", "10", "--grid", "256", "--out", str(out)])
        assert rc == 0
        for name, bounds in GOLDEN_BOUNDS.items():
            fresh = read_json(out / name)
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


def _complex_sigma_file(tmp_path):
    sig = SigmaFunction(0.1j * np.sin(np.linspace(0.0, np.pi, 65)), np.pi)
    obj = problem_to_json(sig, BoundaryPolyPair([1.0], [0.0]), {"kind": "dirichlet_right"})
    return write(tmp_path / "p.json", obj)


def _complex_sigma(tmp_path):
    # a window asks for the real scan, which a complex delta does not admit
    return (["forward", _complex_sigma_file(tmp_path), "--eigs", "4", "--window=-9,30"],
            "delta is not real")


def _problem_file(tmp_path, p1, p2):
    obj = problem_to_json(SigmaFunction.zero(np.pi, 64), BoundaryPolyPair(p1, p2),
                          {"kind": "dirichlet_right"})
    return write(tmp_path / "p.json", obj)


def _pair_lengths_1_3(tmp_path):
    return (["forward", _problem_file(tmp_path, [1.0], [0.0, 0.0, 1.0]), "--eigs", "4"],
            "coefficient lengths 1/3")


def _common_root(tmp_path):
    # p1 = p2 = lambda - 1
    return (["forward", _problem_file(tmp_path, [-1.0, 1.0], [-1.0, 1.0]), "--eigs", "4"],
            "p2 vanishes at a root of p1")


def _hl_even_p(tmp_path):
    even = BoundaryPolyPair([1.0], [0.0, 1.0])    # p = 2
    obj = two_sided_to_json(TwoSidedProblem(SigmaFunction.zero(2 * np.pi, 64), even, even))
    return ["hl", write(tmp_path / "two.json", obj), "--eigs", "8"], "odd boundary degrees only"


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
                                  _zero_eigenvalue, _pair_lengths_1_3, _common_root, _hl_even_p],
                         ids=lambda case: case.__name__[1:])
def test_unsupported_input_exit2(case, tmp_path, capsys):
    # files the schema admits but the solvers do not support are input
    # errors, found before any search
    argv, reason = case(tmp_path)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and reason in err
    assert err.count("\n") == 1    # no note of a scan before it
    assert not out.exists()


def _complex_two_sided_file(tmp_path):
    free = BoundaryPolyPair([1.0], [0.0])
    sig = SigmaFunction(0.1j * np.sin(np.linspace(0.0, 2 * np.pi, 129)), 2 * np.pi)
    return write(tmp_path / "two.json", two_sided_to_json(TwoSidedProblem(sig, free, free)))


@pytest.mark.parametrize("verb, make, flags", [
    ("forward", _complex_sigma_file, ["--eigs", "4"]),
    ("stability", _complex_sigma_file, ["--eigs", "12", "--trials", "2"]),
    ("hl", _complex_two_sided_file, ["--eigs", "12"]),
], ids=["forward", "stability", "hl"])
def test_complex_sigma_without_window(verb, make, flags, tmp_path, capsys):
    # seeded by the real part's indexed eigenvalues, with no scan note
    out = tmp_path / "out"
    assert main([verb, make(tmp_path), "--out", str(out)] + flags) == 0
    assert capsys.readouterr().err == ""
    if verb == "forward":
        # the real part's (zero potential's) eigenvalues are (k + 1/2)^2
        lam = complex_array(read_json(out / "spectrum.json")["lambdas"])
        assert lam.size == 4 and np.all(np.abs(lam - (np.arange(4) + 0.5) ** 2) < 0.1)
        assert np.all(lam.imag != 0)


@pytest.mark.parametrize("f", [{"kind": "constant"}, {"kind": "hl_right_half", "r1": [1.0]}],
                         ids=["constant", "hl_right_half"])
def test_entire_pair_without_its_keys_exit2(f, tmp_path, capsys):
    # each kind requires the keys it reads; without them the file is malformed
    obj = problem_to_json(SigmaFunction.zero(np.pi, 64), BoundaryPolyPair([1.0], [0.0]), f)
    out = tmp_path / "out"
    assert main(["forward", write(tmp_path / "p.json", obj), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "is a required property" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, reason", [
    (["diagnose", "{array}"], "expected a problem-v1 or subspectrum-v1 file"),
    (["forward", "{golden}", "--window=5"], "expected two numbers lo,hi"),
    (["forward", "{golden}", "--window=1,2,3"], "expected two numbers lo,hi"),
    (["forward", "{golden}", "--window=4,-1"], "expected finite lo < hi"),
    (["forward", "{golden}", "--window=nan,5"], "expected finite lo < hi"),
    (["forward", "{golden}", "--window=-1,inf"], "expected finite lo < hi"),
    (["diagnose", "{array}", "--strict", "--reg", "5", "--eigs", "3"],
     "unrecognized arguments: --strict --reg 5 --eigs 3"),
    (["diagnose", "{array}", "--grid", "64", "--tol", "1", "--seed", "1"],
     "unrecognized arguments: --grid 64 --tol 1 --seed 1"),
    (["reconstruct", "{golden}", "{golden}", "--eigs", "3", "--seed", "1", "--tol", "1"],
     "unrecognized arguments: --eigs 3 --seed 1 --tol 1"),
    (["hl", "{golden}", "--tol", "1", "--seed", "1"], "unrecognized arguments: --tol 1 --seed 1"),
    (["forward", "{golden}", "--strict", "--reg", "0.1", "--seed", "1"],
     "unrecognized arguments: --strict --reg 0.1 --seed 1"),
    (["forward", "{golden}", "--tol", "1e-8"], "unrecognized arguments: --tol 1e-8"),
    (["stability", "{golden}", "--tol", "1e-8"], "unrecognized arguments: --tol 1e-8"),
    (["reconstruct", "{golden}", "{sub}", "--report", "x"], "unrecognized arguments: --report x"),
    (["stability", "{golden}", "--grid", "0"], "argument --grid: expected an integer >= 1"),
    (["reconstruct", "{golden}", "{sub}", "--grid", "0"],
     "argument --grid: expected an integer >= 1"),
    (["forward", "{golden}", "--grid=-4"], "argument --grid: expected an integer >= 1"),
    (["forward", "{golden}", "--eigs=-3"], "argument --eigs: expected an integer >= 1"),
    (["hl", "{two}", "--eigs", "0"], "argument --eigs: expected an integer >= 1"),
    (["forward", "{golden}", "--eigs", "2.5"], "argument --eigs: expected an integer >= 1"),
    (["stability", "{golden}", "--seed", "-1"], "argument --seed: expected an integer >= 0, got '-1'"),
    (["hl", "{two}", "--drop=-2"], "--drop -2: expected 0 <= K < --eigs 48"),
    (["hl", "{two}", "--drop", "48"], "--drop 48: expected 0 <= K < --eigs 48"),
    (["hl", "{two}", "--eigs", "8", "--drop", "9"], "--drop 9: expected 0 <= K < --eigs 8"),
    (["reconstruct", "{golden}", "{sub}", "--reg=-1"], "reg must be finite and >= 0, got -1.0"),
    (["reconstruct", "{golden}", "{sub}", "--reg", "nan"], "reg must be finite and >= 0, got nan"),
    (["forward", "{nan_p2}", "--eigs", "3"], "NaN is not a JSON number"),
    (["stability", "{nan_sub}"], "NaN is not a JSON number"),
    (["diagnose", "{inf_sub}"], "-Infinity is not a JSON number"),
    (["reconstruct", "{golden}", "{dup_sub}"], "s_dup.json: subspectrum contains coinciding"),
    (["stability", "{dup_stored}"], "dup_stored.json: subspectrum contains coinciding"),
    (["stability", "{stored}", "--eigs", "12"], "--eigs 12: {stored} carries its own subspectrum"),
], ids=["diagnose-array", "window-one", "window-three", "window-reversed", "window-nan",
        "window-inf", "diagnose-flags", "diagnose-grid-flags", "reconstruct-flags",
        "hl-flags", "forward-flags", "forward-tol", "stability-tol", "reconstruct-report",
        "stability-grid-zero",
        "reconstruct-grid-zero", "forward-grid-negative", "forward-eigs-negative",
        "hl-eigs-zero", "forward-eigs-fraction", "stability-seed-negative", "hl-drop-negative",
        "hl-drop-all", "hl-drop-past-eigs", "reconstruct-reg-negative", "reconstruct-reg-nan",
        "forward-nan", "stability-nan", "diagnose-infinity", "reconstruct-coinciding",
        "stability-coinciding", "stability-eigs-with-subspectrum"])
def test_bad_input_exit2_without_traceback(argv, reason, tmp_path, capsys):
    # a JSON array for diagnose, a malformed --window, a count below 1, a
    # negative --seed, a --drop outside [0, --eigs), a --reg below 0 or not
    # finite, a flag the verb does not read, a NaN or +-Infinity in a file
    # (json reads them as numbers, which the schemas admit), a stored
    # subspectrum with coinciding eigenvalues and --eigs for stability on a
    # file that carries its subspectrum are input errors
    free = BoundaryPolyPair([1.0], [0.0])
    two = two_sided_to_json(TwoSidedProblem(SigmaFunction.zero(2 * np.pi, 64), free, free))
    lambdas = np.arange(1, 13, dtype=complex) ** 2
    dup = lambdas.copy()
    dup[5] = dup[4]
    paths = {"array": write(tmp_path / "a.json", [1.0, 2.0]),
             "golden": str(GOLDEN / "step_problem.json"),
             "two": write(tmp_path / "two.json", two),
             "sub": write(tmp_path / "s.json", subspectrum_to_json(Subspectrum(lambdas))),
             "dup_sub": write(tmp_path / "s_dup.json", subspectrum_to_json(Subspectrum(dup)))}
    golden = load_golden("step_problem.json")
    for name, key, value in [("nan_p2", "p2", [np.nan]),
                             ("nan_sub", "subspectrum", [1.0, np.nan, 9.0]),
                             ("inf_sub", "subspectrum", [1.0, 4.0, -np.inf, 16.0]),
                             ("dup_stored", "subspectrum", [1.0, 4.0, 4.0, 9.0]),
                             ("stored", "subspectrum", lambdas.real.tolist())]:
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps({**golden, key: value}))
    out = tmp_path / "out"
    try:
        code = main([a.format(**paths) for a in argv] + ["--out", str(out)])
    except SystemExit as exc:    # argparse reports its own errors
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert reason.format(**paths) in err and "Traceback" not in err
    assert not out.exists()


class TestReconstruct:
    def test_roundtrip_errors_small(self, rt_free, tmp_path):
        prob_file = write(tmp_path / "p.json", problem_to_json(
            rt_free.sigma_left, rt_free.left_pair,
            hl_f_descriptor(rt_free.sigma_right, rt_free.problem.right_pair)))
        sub_file = write(tmp_path / "s.json", subspectrum_to_json(rt_free.spectrum))
        out = tmp_path / "out"
        assert main(["reconstruct", prob_file, sub_file, "--out", str(out)]) == 0
        rec = read_json(out / "cauchy_recovered.json")
        oracle = rt_free.oracle_on(rec["grid_m"])
        assert rel_l2(complex_array(rec["j"]), oracle.j) <= 1e-3
        assert rel_l2(complex_array(rec["g"]), oracle.g) <= 1e-3
        report = read_json(out / "report.json")["report"]
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

    def test_strict_two_missing_eigenvalues_exit4(self, exclusion_case, tmp_path, capsys):
        # the (p, r) = (1, 3) instance without its first two eigenvalues:
        # the moment design looks well conditioned, but the completeness
        # evidence of the same system collapses
        prob_file = write(tmp_path / "p.json", problem_to_json(
            exclusion_case.sigma_left, exclusion_case.left_pair,
            hl_f_descriptor(exclusion_case.sigma_right, exclusion_case.problem.right_pair)))
        used = exclusion_case.spectrum.take(50).drop_first(2)
        sub_file = write(tmp_path / "s.json", subspectrum_to_json(used))
        out = tmp_path / "out"
        assert main(["reconstruct", prob_file, sub_file, "--strict", "--out", str(out)]) == 4
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
        report = read_json(out0 / "report.json")["report"]
        assert report["completeness"]["gram_ratio"] > 1e-8
        rec = read_json(out0 / "cauchy_recovered.json")
        oracle = exclusion_case.oracle_on(rec["grid_m"])
        assert rel_l2(complex_array(rec["j"]), oracle.j) <= 1e-3

        out2 = tmp_path / "d2"
        assert main(["hl", ts_file, "--eigs", "50", "--drop", "2",
                     "--strict", "--out", str(out2)]) == 4
        report2 = read_json(out2 / "report.json")["report"]
        assert report2["completeness"]["gram_ratio"] <= 1e-8
        assert capsys.readouterr().err == strict_message(out2)

    @pytest.mark.parametrize("eigs, code", [(1, 4), (6, 4), (12, 4), (20, 0)])
    def test_strict_exit_follows_the_row_count(self, rt_free, tmp_path, eigs, code):
        # a solve design with fewer rows (eigs) than its 14 columns cannot
        # determine the data, however well conditioned its rows are
        ts_file = write(tmp_path / "two.json", two_sided_to_json(rt_free.problem))
        out = tmp_path / "out"
        assert main(["hl", ts_file, "--eigs", str(eigs), "--strict", "--out", str(out)]) == code
        assert read_json(out / "report.json")["report"]["n_rows"] == eigs


COLLAPSED = ("completeness evidence collapsed (gram ratio 0.00e+00); "
             "the subspectrum does not determine the data")


@pytest.mark.parametrize("eigs, verdict", [(40, []), (12, [COLLAPSED])], ids=["unique", "wide"])
@pytest.mark.parametrize("verb", ["reconstruct", "hl", "stability"])
def test_one_verdict_in_every_report(verb, eigs, verdict, rt_free, tmp_path):
    # the three verbs that reconstruct report non-uniqueness by one rule: 12
    # eigenvalues leave the design with fewer rows than columns, 40 do not
    spec = rt_free.spectrum.take(eigs)
    f_desc = hl_f_descriptor(rt_free.sigma_right, rt_free.problem.right_pair)
    out = tmp_path / "out"
    if verb == "hl":
        argv = ["hl", write(tmp_path / "two.json", two_sided_to_json(rt_free.problem)),
                "--eigs", str(eigs)]
    elif verb == "reconstruct":
        argv = ["reconstruct",
                write(tmp_path / "p.json", problem_to_json(rt_free.sigma_left, rt_free.left_pair,
                                                           f_desc)),
                write(tmp_path / "s.json", subspectrum_to_json(spec))]
    else:
        argv = ["stability",
                write(tmp_path / "p.json", problem_to_json(rt_free.sigma_left, rt_free.left_pair,
                                                           f_desc, subspectrum=spec)),
                "--omega", "1e-3", "--trials", "2"]
    assert main(argv + ["--out", str(out)]) == 0
    name = "stability_summary.json" if verb == "stability" else "report.json"
    report = read_json(out / name)["report"]
    assert report["non_unique"] is bool(verdict)
    assert report["warnings"] == verdict
    if verb != "stability":
        assert "natural_dimension" not in report
        assert (report["completeness"]["gram_ratio"] > 1e-8) == (not verdict)


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
        report = read_json(tmp_path / "a" / "stability_summary.json")["report"]
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
            report = read_json(out / "stability_summary.json")["report"]
            assert report["non_unique"] is True
            assert any("completeness evidence collapsed" in w for w in report["warnings"])
            assert (out / "stability.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("non-unique reconstruction: ") and "completeness evidence collapsed" in err


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
        d = read_json(out / "diagnostics.json")
        assert d["class_s"]["simple"] is True
        assert d["gram"]["conds"][-1] == pytest.approx(1.0, abs=1e-8)
        assert d["xi_identity_residual"] <= 1e-8

    def test_duplicate_lambda_flagged(self, tmp_path):
        sub = Subspectrum(np.array([1.0, 4.0, 4.0, 9.0], dtype=complex))
        f = write(tmp_path / "s.json", subspectrum_to_json(sub))
        out = tmp_path / "out"
        assert main(["diagnose", f, "--out", str(out)]) == 0
        d = read_json(out / "diagnostics.json")
        assert d["class_s"]["simple"] is False

    def test_corpus_subspectrum_curve_bounded(self, rt_free, tmp_path):
        # the sine family indexed past the boundary degree is Riesz: bounded,
        # flat condition curve; the full family is overcomplete and grows
        tail = Subspectrum(rt_free.spectrum.lambdas[1:])
        f = write(tmp_path / "s.json", subspectrum_to_json(tail))
        out = tmp_path / "out"
        assert main(["diagnose", f, "--out", str(out)]) == 0
        d = read_json(out / "diagnostics.json")
        conds = d["gram"]["conds"]
        assert all(np.isfinite(c) for c in conds)
        assert conds[-1] < 10
        assert d["gram"]["basis_like"] is True

        full = write(tmp_path / "full.json", subspectrum_to_json(rt_free.spectrum))
        out2 = tmp_path / "out2"
        assert main(["diagnose", full, "--out", str(out2)]) == 0
        d2 = read_json(out2 / "diagnostics.json")
        assert d2["gram"]["conds"][-1] > conds[-1]


def test_outputs_are_json_dumps_bytes(rt_free, tmp_path, monkeypatch):
    # every file reconstruct, hl and diagnose write is the text json.dumps
    # gives for the same payload, and the input hash emits no text
    texts = []

    def spy(dumps):
        def wrapper(obj):
            text = dumps(obj)
            texts.append((obj, text))
            return text
        return wrapper

    monkeypatch.setattr(cli, "canonical_dumps", spy(cli.canonical_dumps))
    monkeypatch.setattr(serialize, "canonical_dumps", spy(serialize.canonical_dumps))
    prob_file = write(tmp_path / "p.json", problem_to_json(
        rt_free.sigma_left, rt_free.left_pair,
        hl_entire_pair(rt_free.sigma_right, rt_free.problem.right_pair),
        subspectrum=rt_free.spectrum))
    sub_file = write(tmp_path / "s.json", subspectrum_to_json(rt_free.spectrum))
    two_file = write(tmp_path / "t.json", two_sided_to_json(rt_free.problem))
    texts.clear()
    out = tmp_path / "out"
    for argv in (["reconstruct", prob_file, sub_file], ["hl", two_file, "--drop", "2"],
                 ["diagnose", prob_file]):
        assert main(argv + ["--out", str(out / argv[0])]) == 0
    files = sorted(out.rglob("*.json"))
    assert len(files) == 6 and len(texts) == 6   # the inputs are hashed as read
    for obj, text in texts:
        assert text == json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    written = {text for _, text in texts}
    assert all(path.read_text() in written for path in files)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _compact(path, dest) -> str:
    """A copy of the JSON file at `path` in json.dumps' default formatting."""
    dest.write_text(json.dumps(json.loads(Path(path).read_text())))
    return str(dest)


class TestInputHash:
    # input_sha256 is the sha256 of the input file's bytes, which sha256sum
    # reproduces; reconstruct's is the sha256 of its two files' digests as
    # hex text, in argument order
    VERBS = {
        "forward": (["problem"], ["--eigs", "4", "--grid", "64"]),
        "reconstruct": (["problem", "subspectrum"], []),
        "hl": (["two_sided"], ["--drop", "2"]),
        "stability": (["problem"], ["--omega", "0,1e-3", "--trials", "2"]),
        "diagnose-problem": (["problem"], []),
        "diagnose-subspectrum": (["subspectrum"], []),
    }

    @pytest.fixture()
    def inputs(self, rt_free, tmp_path):
        canon = tmp_path / "canonical"
        canon.mkdir()
        return {
            "problem": write(canon / "p.json", problem_to_json(
                rt_free.sigma_left, rt_free.left_pair,
                hl_entire_pair(rt_free.sigma_right, rt_free.problem.right_pair),
                subspectrum=rt_free.spectrum)),
            "subspectrum": write(canon / "s.json", subspectrum_to_json(rt_free.spectrum)),
            "two_sided": write(canon / "t.json", two_sided_to_json(rt_free.problem)),
        }

    @staticmethod
    def _run(verb, files, flags, out):
        assert main([verb.split("-")[0], *files, *flags, "--out", str(out)]) == 0
        hashes = {read_json(path)["meta"]["input_sha256"] for path in out.glob("*.json")}
        assert len(hashes) == 1
        return hashes.pop()

    @staticmethod
    def _expected(files) -> str:
        digests = [_sha256(path) for path in files]
        if len(digests) == 1:
            return digests[0]
        return hashlib.sha256("".join(digests).encode()).hexdigest()

    @pytest.mark.parametrize("verb", list(VERBS))
    def test_hash_of_the_bytes_read(self, verb, inputs, tmp_path):
        names, flags = self.VERBS[verb]
        files = [inputs[name] for name in names]
        assert self._run(verb, files, flags, tmp_path / "out") == self._expected(files)

    def test_reconstruct_hashes_the_digests_in_argument_order(self, inputs, tmp_path):
        problem, sub = _sha256(inputs["problem"]), _sha256(inputs["subspectrum"])
        got = self._run("reconstruct", [inputs["problem"], inputs["subspectrum"]], [],
                        tmp_path / "out")
        assert got == hashlib.sha256(f"{problem}{sub}".encode()).hexdigest()
        assert got != hashlib.sha256(f"{sub}{problem}".encode()).hexdigest()
        assert got not in (problem, sub)

    @pytest.mark.parametrize("verb", list(VERBS))
    def test_reformatted_input_changes_the_hash_alone(self, verb, inputs, tmp_path):
        names, flags = self.VERBS[verb]
        files = [inputs[name] for name in names]
        compact = tmp_path / "compact"
        compact.mkdir()
        copies = [_compact(path, compact / Path(path).name) for path in files]
        old = self._run(verb, files, flags, tmp_path / "a")
        new = self._run(verb, copies, flags, tmp_path / "b")
        assert new != old and new == self._expected(copies)
        names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names_a == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names_a:
            before = (tmp_path / "a" / name).read_bytes()
            after = (tmp_path / "b" / name).read_bytes()
            assert before.replace(old.encode(), new.encode()) == after

    @pytest.mark.parametrize("content, reason", [
        (b'{"schema": "invsl/subspectrum-v1", "lambdas": [1.0, "\xff\xfe"]}', "can't decode byte 0xff"),
        (b'{"schema": "invsl/subspectrum-v1", "lambdas": [1.0, 4.0', "Expecting"),
        (b'{"schema": "invsl/subspectrum-v1", "lambdas": [1.0, NaN, 9.0]}',
         "NaN is not a JSON number"),
    ], ids=["invalid-utf8", "truncated", "nan-literal"])
    def test_unreadable_input_exit2(self, content, reason, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_bytes(content)
        out = tmp_path / "out"
        assert main(["diagnose", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot read {path}: " in err and reason in err and "Traceback" not in err
        assert not out.exists()


def test_schema_snapshots_match_package():
    for name, schema in schemas.ALL.items():
        snap = json.loads((Path(__file__).parent.parent / "docs" / "schema"
                           / f"{name}.schema.json").read_text())
        assert snap == schema
