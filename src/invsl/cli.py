"""Batch front door: problem files in, reports and plot-ready tables out.

Verbs: forward | reconstruct | hl | stability | diagnose.  All outputs are
deterministic given the input files, flags, and seed; every file embeds the
tool version, the input hash, and the grid parameters.

Exit codes: 0 success, 2 malformed or unsupported input, 3 solver failure,
4 non-unique reconstruction under --strict.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np

from . import schemas
from .errors import (
    CommonRoot,
    InvslError,
    NonUniqueWarning,
    NormalizationViolation,
    ParityMismatch,
    SchemaError,
)
from .forward import extract_cauchy, weyl
from .forward import find_eigenvalues, make_delta  # noqa: F401  (lookup site wrapped by bench/spans.py)
from .halfinverse import hl_reconstruct, hl_spectrum, problem_spectrum
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


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _read(path: str):
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_no_constant)
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _check(obj, path: str, schema_name: str) -> dict:
    try:
        jsonschema.validate(obj, schemas.ALL[schema_name], cls=schemas.Validator)
    except jsonschema.ValidationError as exc:
        raise SchemaError(f"{path}: {exc.message}") from exc
    return obj


def _load(path: str, schema_name: str) -> dict:
    return _check(_read(path), path, schema_name)


def _write(out_dir: str, name: str, kind: str, meta: dict, **fields) -> None:
    """Write `name` in `out_dir` as the envelope {"schema": "invsl/<kind>-v1",
    "meta": meta} followed by `fields`."""
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    payload = {"schema": f"invsl/{kind}-v1", "meta": meta, **fields}
    (path / name).write_text(canonical_dumps(jsonable(payload)))


def _eigenvalues(sigma, pair, f, count: int, window=None):
    """`problem_spectrum`'s eigenvalues, with a note on stderr where a scan
    stood in for the index."""
    spec, why = problem_spectrum(sigma, pair, f, count, window)
    if spec.fallback:
        print(f"note: eigenvalues by a scan of lambda in {list(spec.window)} without an index "
              f"certificate ({why or '--window given'}); {spec.dropped} root(s) dropped",
              file=sys.stderr)
    return spec


def _stored(sub, path: str):
    """`sub` as read from `path`, where coinciding eigenvalues make the file malformed."""
    if not sub.diagnostics().simple:
        raise SchemaError(f"{path}: subspectrum contains coinciding eigenvalues")
    return sub


def cmd_forward(args) -> int:
    obj = _load(args.problem, "problem-v1")
    sigma, pair, f, _ = problem_from_json(obj)
    spec = _eigenvalues(sigma, pair, f, args.eigs, args.window)
    data = extract_cauchy(sigma, pair, grid_m=args.grid)

    meta = meta_block(obj, grid_m=args.grid, eigs=args.eigs)
    _write(args.out, "spectrum.json", "spectrum", meta, lambdas=encode_array(spec.lambdas))
    lam_mid = 0.5 * (spec.lambdas[:-1] + spec.lambdas[1:])
    weyl_vals = weyl(sigma, pair, lam_mid, on_pole="nan")
    ok = np.isfinite(weyl_vals)
    _write(args.out, "cauchy.json", "cauchy", meta, **cauchy_to_json(data),
           fit={"cond": list(data.meta["cond"]), "residual": list(data.meta["residual"])},
           weyl_samples={"lambda": encode_array(lam_mid[ok]), "m": encode_array(weyl_vals[ok])})
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
    sub = _stored(subspectrum_from_json(sub_obj["lambdas"]), args.subspectrum)
    result = reconstruct(pair.p, f, sub, args.grid, reg=args.reg)
    meta = meta_block({"problem": obj, "subspectrum": sub_obj}, grid_m=args.grid, reg=args.reg)
    _write(args.out, "cauchy_recovered.json", "cauchy", meta, **cauchy_to_json(result))
    _write(args.out, "report.json", "report", meta, report=result.meta)
    return _strict_exit(result.meta, args)


def cmd_hl(args) -> int:
    if not 0 <= args.drop < args.eigs:
        raise SchemaError(f"--drop {args.drop}: expected 0 <= K < --eigs {args.eigs}")
    obj = _load(args.two_sided, "two_sided-v1")
    problem = two_sided_from_json(obj)
    spec = hl_spectrum(problem, args.eigs)
    sigma_left, sigma_right = problem.halves()
    result = hl_reconstruct(sigma_right, problem.right_pair, problem.p,
                            spec, args.drop, args.grid, reg=args.reg)

    meta = meta_block(obj, grid_m=args.grid, eigs=args.eigs, drop=args.drop)
    _write(args.out, "spectrum.json", "spectrum", meta, lambdas=encode_array(spec.lambdas))
    _write(args.out, "cauchy_recovered.json", "cauchy", meta, **cauchy_to_json(result))
    _write(args.out, "report.json", "report", meta, report=result.meta)
    return _strict_exit(result.meta, args)


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_stability(args) -> int:
    try:
        omegas = noise_plan(args.omega.split(","), args.trials)
    except ValueError as exc:
        raise SchemaError(f"--omega {args.omega} --trials {args.trials}: {exc}") from exc
    obj = _load(args.problem, "problem-v1")
    sigma, pair, f, sub = problem_from_json(obj)
    if sub is not None and args.eigs is not None:
        raise SchemaError(f"--eigs {args.eigs}: {args.problem} carries its own subspectrum")
    sub = (_eigenvalues(sigma, pair, f, args.eigs or 40) if sub is None
           else _stored(sub, args.problem))
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
    _write(args.out, "stability_summary.json", "report", meta,
           report={"summary": out["summary"], "fitted_c": out["fitted_c"],
                   "non_unique": out["base"]["non_unique"],
                   "warnings": out["base"]["warnings"]})
    return _strict_exit(out["base"], args)


def cmd_diagnose(args) -> int:
    obj = _read(args.input)
    schema = obj.get("schema") if isinstance(obj, dict) else None
    if schema == "invsl/subspectrum-v1":
        _check(obj, args.input, "subspectrum-v1")
        sub = subspectrum_from_json(obj["lambdas"])
    elif schema == "invsl/problem-v1":
        _check(obj, args.input, "problem-v1")
        if not obj.get("subspectrum"):
            raise SchemaError("problem file has no subspectrum to diagnose")
        sub = subspectrum_from_json(obj["subspectrum"])
    else:
        raise SchemaError("expected a problem-v1 or subspectrum-v1 file")

    diag = sub.diagnostics()
    rhos = sub.rhos
    gram = basis_diagnostics(rhos, length=2 * np.pi) if len(sub) >= 2 else None
    _write(args.out, "diagnostics.json", "diagnostics", meta_block(obj),
           class_s={"simple": diag.simple, "min_gap": diag.min_gap},
           class_a={"nonzero": diag.min_abs_lambda > 0, "min_abs_lambda": diag.min_abs_lambda,
                    "max_im_rho": diag.max_im_rho, "sum_inv_rho_sq": diag.sum_inv_rho_sq},
           gram=None if gram is None else {
               "sizes": list(gram.sizes), "conds": list(gram.conds),
               "smin": gram.smin, "smax": gram.smax,
               "basis_like": gram.basis_like, "growth_ratio": gram.growth_ratio,
           },
           xi_identity_residual=xi_identity_residual(rhos))
    return 0


def _window(text: str) -> tuple:
    """The --window value: two finite numbers lo,hi with lo < hi."""
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two numbers lo,hi, got {text!r}") from None
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise argparse.ArgumentTypeError(f"expected finite lo < hi, got {text!r}")
    return lo, hi


def _at_least(low: int):
    """The argparse type of an integer flag that must be >= `low`."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="invsl", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="verb", required=True)

    # every verb declares only the flags it reads, so argparse rejects the rest
    flags = {
        "--grid": dict(type=_at_least(1), default=128, metavar="M",
                       help="reconstruction grid cells (default %(default)s)"),
        "--eigs": dict(type=_at_least(1), default=40, metavar="N",
                       help="eigenvalue count (default %(default)s)"),
        "--seed": dict(type=_at_least(0), default=0),
        "--out": dict(default=".", metavar="DIR"),
        "--strict": dict(action="store_true",
                         help="exit 4 when the reconstruction is not unique"),
        "--reg": dict(type=float, default=0.0, help="Tikhonov damping for the moment solve"),
    }

    def shared(p, *names):
        for name in names:
            p.add_argument(name, **flags[name])

    p = sub.add_parser("forward", help="spectrum + Cauchy data of a problem file")
    p.add_argument("problem")
    p.add_argument("--window", type=_window, default=None, help="lambda window lo,hi")
    shared(p, "--grid", "--eigs", "--out")
    p.set_defaults(fn=cmd_forward, grid=512)

    p = sub.add_parser("reconstruct", help="Cauchy data from a subspectrum file")
    p.add_argument("problem")
    p.add_argument("subspectrum")
    shared(p, "--grid", "--out", "--strict", "--reg")
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("hl", help="half-inverse driver for a two-sided problem")
    p.add_argument("two_sided")
    p.add_argument("--drop", type=int, default=0, metavar="K",
                   help="exclude the first K eigenvalues")
    shared(p, "--grid", "--eigs", "--out", "--strict", "--reg")
    p.set_defaults(fn=cmd_hl, eigs=48)

    p = sub.add_parser("stability", help="noise-response table for a problem")
    p.add_argument("problem")
    p.add_argument("--omega", default="1e-3,1e-2", help="comma list of noise sizes")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--eigs", type=_at_least(1), metavar="N",
                   help="eigenvalue count for a file without a subspectrum (default 40)")
    shared(p, "--grid", "--seed", "--out", "--strict", "--reg")
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("diagnose", help="subspectrum class flags and basis condition")
    p.add_argument("input")
    shared(p, "--out")
    p.set_defaults(fn=cmd_diagnose)
    return ap


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # the reports record non-uniqueness; --strict reads it from there
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonUniqueWarning)
            return args.fn(args)
    except (SchemaError, ValueError, NormalizationViolation, CommonRoot, ParityMismatch) as exc:
        # a file the schema admits can still ask for what the solvers do not
        # support (complex sigma in a real scan, an odd cell count, a boundary
        # pair that is not normalized or coprime, an even p for hl, ...)
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except InvslError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
