"""Batch front door: problem files in, reports and plot-ready tables out.

Verbs: forward | reconstruct | hl | stability | diagnose.  All outputs are
deterministic given the input files, flags, and seed; every file embeds the
tool version, the input hash, and the grid parameters.

Exit codes: 0 success, 2 malformed or unsupported input, 3 solver failure,
4 non-unique reconstruction under --strict.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np

from . import schemas
from .errors import InvslError, NonUniqueWarning, RootLoss, SchemaError
from .forward import extract_cauchy, find_eigenvalues, make_delta, weyl
from .halfinverse import hl_reconstruct, hl_spectrum, hl_window
from .moments import basis_diagnostics, xi_identity_residual
from .reconstruct import noise_plan, reconstruct, stability_experiment
from .serialize import (
    canonical_dumps,
    cauchy_to_json,
    encode_array,
    jsonable,
    meta_block,
    problem_from_json,
    subspectrum_from_json,
    two_sided_from_json,
)
EXIT_SCHEMA = 2
EXIT_SOLVER = 3
EXIT_NON_UNIQUE = 4


def _keep_freed_heap():
    """Fix glibc's heap thresholds (Linux): keep up to 16 MB of freed memory.

    The propagator frees a few MB of temporaries per block of 64 lambdas.
    Under the default, adaptive thresholds a fresh process returns them to
    the system and faults them in again block after block (about 25,000
    page faults in one `stability` run) until a larger buffer is freed.
    """
    if sys.platform.startswith("linux"):
        try:
            libc = ctypes.CDLL(None)
            libc.mallopt(-3, 8 << 20)   # M_MMAP_THRESHOLD
            libc.mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD
        except (OSError, AttributeError):
            pass


def _load(path: str, schema_name: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        jsonschema.validate(obj, schemas.ALL[schema_name], cls=schemas.Validator)
    except jsonschema.ValidationError as exc:
        raise SchemaError(f"{path}: {exc.message}") from exc
    return obj


def _write(out_dir: str, name: str, payload: dict) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    target = path / name
    target.write_text(canonical_dumps(jsonable(payload)))
    return target


def _eigenvalues(obj: dict, sigma, pair, f, args, window=None):
    """The first `args.eigs` eigenvalues of a problem file's problem, found in
    `window` (by default one sized for the count and the kind of f) with
    simplicity tolerance `args.tol`; RootLoss when fewer are found."""
    delta, _ = make_delta(sigma, pair, f)
    if window is None:
        if obj["f"].get("kind") == "hl_right_half":
            window = hl_window(args.eigs, pair.p, len(obj["f"]["r1"]) * 2 - 1)
        else:
            window = (-9.0, float((args.eigs + 2) ** 2))
    spec = find_eigenvalues(delta, window, simple_tol=args.tol)
    if len(spec) < args.eigs:
        raise RootLoss(f"found {len(spec)} eigenvalues in {window}, requested {args.eigs}")
    return spec.take(args.eigs)


def cmd_forward(args) -> int:
    obj = _load(args.problem, "problem-v1")
    sigma, pair, f, _ = problem_from_json(obj)
    spec = _eigenvalues(obj, sigma, pair, f, args, args.window)
    data = extract_cauchy(sigma, pair, grid_m=args.grid)

    meta = meta_block(obj, grid_m=args.grid, eigs=args.eigs)
    _write(args.out, "spectrum.json", {
        "schema": "invsl/spectrum-v1", "meta": meta,
        "lambdas": encode_array(spec.lambdas),
    })
    lam_mid = 0.5 * (spec.lambdas[:-1] + spec.lambdas[1:])
    weyl_vals = weyl(sigma, pair, lam_mid, on_pole="nan")
    ok = np.isfinite(weyl_vals)
    payload = {"schema": "invsl/cauchy-v1", "meta": meta}
    payload.update(cauchy_to_json(data))
    payload["fit"] = {"cond": list(data.meta["cond"]), "residual": list(data.meta["residual"])}
    payload["weyl_samples"] = {"lambda": encode_array(lam_mid[ok]), "m": encode_array(weyl_vals[ok])}
    _write(args.out, "cauchy.json", payload)
    return 0


def _strict_exit(report: dict, args) -> int:
    """EXIT_NON_UNIQUE, with the report's warnings on stderr, when `report`
    is flagged non-unique under --strict; 0 otherwise."""
    if report["non_unique"] and args.strict:
        print("non-unique reconstruction: " + "; ".join(report["warnings"]), file=sys.stderr)
        return EXIT_NON_UNIQUE
    return 0


def cmd_reconstruct(args) -> int:
    obj = _load(args.problem, "problem-v1")
    sub_obj = _load(args.subspectrum, "subspectrum-v1")
    _, pair, f, _ = problem_from_json(obj)
    sub = subspectrum_from_json(sub_obj["lambdas"])
    result = reconstruct(pair.p, f, sub, args.grid, reg=args.reg)
    meta = meta_block({"problem": obj, "subspectrum": sub_obj}, grid_m=args.grid, reg=args.reg)
    payload = {"schema": "invsl/cauchy-v1", "meta": meta}
    payload.update(cauchy_to_json(result.cauchy))
    _write(args.out, "cauchy_recovered.json", payload)
    _write(args.out, args.report,
           {"schema": "invsl/report-v1", "meta": meta, "report": result.report})
    return _strict_exit(result.report, args)


def cmd_hl(args) -> int:
    obj = _load(args.two_sided, "two_sided-v1")
    problem = two_sided_from_json(obj)
    spec = hl_spectrum(problem, args.eigs)
    sigma_left, sigma_right = problem.halves()
    result = hl_reconstruct(sigma_right, problem.right_pair, problem.p,
                            spec, args.drop, args.grid, reg=args.reg)

    meta = meta_block(obj, grid_m=args.grid, eigs=args.eigs, drop=args.drop)
    _write(args.out, "spectrum.json", {
        "schema": "invsl/spectrum-v1", "meta": meta,
        "lambdas": encode_array(spec.lambdas),
    })
    payload = {"schema": "invsl/cauchy-v1", "meta": meta}
    payload.update(cauchy_to_json(result.cauchy))
    _write(args.out, "cauchy_recovered.json", payload)
    _write(args.out, "report.json",
           {"schema": "invsl/report-v1", "meta": meta, "report": result.report})
    return _strict_exit(result.report, args)


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_stability(args) -> int:
    try:
        omegas = noise_plan(args.omega.split(","), args.trials)
    except ValueError as exc:
        raise SchemaError(f"--omega {args.omega} --trials {args.trials}: {exc}") from exc
    obj = _load(args.problem, "problem-v1")
    sigma, pair, f, sub = problem_from_json(obj)
    if sub is None:
        sub = _eigenvalues(obj, sigma, pair, f, args)
    out = stability_experiment(pair.p, f, sub, args.grid, omegas,
                               trials=args.trials, seed=args.seed, reg=args.reg)
    lines = ["omega,trial,err_u,err_j,err_g,err_a"]
    for row in out["rows"]:
        lines.append(",".join([_fmt(row["omega"]), str(row["trial"]),
                               _fmt(row["err_u"]), _fmt(row["err_j"]),
                               _fmt(row["err_g"]), _fmt(row["err_a"])]))
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    (path / "stability.csv").write_text("\n".join(lines) + "\n")
    meta = meta_block(obj, grid_m=args.grid, seed=args.seed, trials=args.trials)
    _write(args.out, "stability_summary.json", {
        "schema": "invsl/report-v1", "meta": meta,
        "report": {"summary": out["summary"], "fitted_c": out["fitted_c"],
                   "non_unique": out["base"]["non_unique"],
                   "warnings": out["base"]["warnings"]},
    })
    return _strict_exit(out["base"], args)


def cmd_diagnose(args) -> int:
    try:
        with open(args.input) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {args.input}: {exc}") from exc
    if raw.get("schema") == "invsl/subspectrum-v1":
        obj = _load(args.input, "subspectrum-v1")
        sub = subspectrum_from_json(obj["lambdas"])
    elif raw.get("schema") == "invsl/problem-v1":
        obj = _load(args.input, "problem-v1")
        if not obj.get("subspectrum"):
            raise SchemaError("problem file has no subspectrum to diagnose")
        sub = subspectrum_from_json(obj["subspectrum"])
    else:
        raise SchemaError("expected a problem-v1 or subspectrum-v1 file")

    diag = sub.diagnostics()
    rhos = sub.rhos
    gram = basis_diagnostics(rhos, length=2 * np.pi) if len(sub) >= 2 else None
    xi_res = xi_identity_residual(rhos)
    meta = meta_block(obj)
    payload = {
        "schema": "invsl/diagnostics-v1",
        "meta": meta,
        "class_s": {"simple": diag.simple, "min_gap": diag.min_gap},
        "class_a": {
            "nonzero": diag.min_abs_lambda > 0,
            "min_abs_lambda": diag.min_abs_lambda,
            "max_im_rho": diag.max_im_rho,
            "sum_inv_rho_sq": diag.sum_inv_rho_sq,
        },
        "gram": None if gram is None else {
            "sizes": list(gram.sizes), "conds": list(gram.conds),
            "smin": gram.smin, "smax": gram.smax,
            "basis_like": gram.basis_like, "growth_ratio": gram.growth_ratio,
        },
        "xi_identity_residual": xi_res,
    }
    _write(args.out, "diagnostics.json", payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="invsl", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, grid_default=128):
        p.add_argument("--grid", type=int, default=grid_default, metavar="M",
                       help="reconstruction grid cells (default %(default)s)")
        p.add_argument("--eigs", type=int, default=40, metavar="N",
                       help="eigenvalue count (default %(default)s)")
        p.add_argument("--tol", type=float, default=1e-8,
                       help="simplicity tolerance for eigenvalues")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", metavar="DIR")
        p.add_argument("--strict", action="store_true",
                       help="exit 4 when the reconstruction is not unique")
        p.add_argument("--reg", type=float, default=0.0,
                       help="Tikhonov damping for the moment solve")

    p = sub.add_parser("forward", help="spectrum + Cauchy data of a problem file")
    p.add_argument("problem")
    p.add_argument("--window", type=lambda s: tuple(float(v) for v in s.split(",")),
                   default=None, help="lambda window lo,hi")
    common(p, grid_default=512)
    p.set_defaults(fn=cmd_forward)

    p = sub.add_parser("reconstruct", help="Cauchy data from a subspectrum file")
    p.add_argument("problem")
    p.add_argument("subspectrum")
    p.add_argument("--report", default="report.json")
    common(p)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("hl", help="half-inverse driver for a two-sided problem")
    p.add_argument("two_sided")
    p.add_argument("--drop", type=int, default=0, metavar="K",
                   help="exclude the first K eigenvalues")
    common(p)
    p.set_defaults(fn=cmd_hl, eigs=48)

    p = sub.add_parser("stability", help="noise-response table for a problem")
    p.add_argument("problem")
    p.add_argument("--omega", default="1e-3,1e-2", help="comma list of noise sizes")
    p.add_argument("--trials", type=int, default=20)
    common(p)
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("diagnose", help="subspectrum class flags and basis condition")
    p.add_argument("input")
    common(p)
    p.set_defaults(fn=cmd_diagnose)
    return ap


_PARSER = build_parser()


def main(argv=None) -> int:
    _keep_freed_heap()
    args = _PARSER.parse_args(argv)
    try:
        # the reports record non-uniqueness; --strict reads it from there
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonUniqueWarning)
            return args.fn(args)
    except (SchemaError, ValueError) as exc:
        # a file the schema admits can still ask for what the solvers do not
        # support (complex sigma in a real scan, an odd cell count, ...)
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except InvslError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
