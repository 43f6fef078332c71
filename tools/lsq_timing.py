"""Timings of the least-squares layer and the kernels under its designs, in
microseconds per call.

    python3 tools/lsq_timing.py [--repeat N] [CHECKOUT]

Times, in invsl of CHECKOUT (default: the checkout this script lives in),
`invsl.moments.svd_solve`, `invsl.reconstruct.moment_design` and
`invsl.reconstruct.completeness_ratio` on the systems the benchmark's inverse
ops solve, built from the first problem of `roundtrip_corpus` (rt_bump_free)
and its first 80 eigenvalues:

- the moment designs of `reconstruct` at N = 40 and 80 and of `hl` at
  N = 48 (`moment_design` over `default_basis`, as `solve_moment` builds
  them), and the completeness systems of the same subspectra;
  `moment_design` is timed over both bases, the solve's and the one
  `completeness_ratio` builds;
- the stack of 40 trials at N = 40 that `stability` solves at once;
- the two fits of `extract_cauchy` on the problem's left half, one per
  probe family (the (design, rhs) handed to `svd_solve`).

Each system is timed on two kinds of input.  `float64`: the eigenvalues as
they are and the real left-half sigma, whose designs are exactly real (the
stack holds 40 unperturbed trials).  `complex128`: rho_n + 0.001 i, as the
stability trials perturb the roots (the stack holds 20 trials at each of
omega = 0.001 and 0.01), and sigma + 0.2 i sin(x) for the extraction.

A second table times two kernels on the eigenvalues as they are:
`invsl.trig.poly_trig` over the monomials of the solve's sine family at 40
rows, with the small row of lambda_1 < 0 (rho_1 .. rho_40: the power series
runs on it) and without one (rho_2 .. rho_41), and
`invsl.moments.xi_identity_residual` on rho_1 .. rho_40, as `diagnose` runs
it.

Each entry is the best of N repeats (default 5) of the mean time of a run of
calls long enough to take about 20 ms.  OpenBLAS is held to one thread, as
`bench/run.py` holds it.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import importlib
import sys
from unittest import mock

import numpy as np

from harness import best_time, timing_args

GRID = 128            # CLI default --grid of `reconstruct`, `hl` and `stability`
TRIALS = 20           # per noise size, as the benchmark's `stability` op


def systems(complex_):
    """(label, svd_solve arguments, MomentSystem or None, its default basis
    or None) of the timed systems."""
    from invsl import forward
    from invsl.halfinverse import hl_entire_pair, hl_spectrum
    from invsl.moments import build_moment_system, svd_solve
    from invsl.problems import roundtrip_corpus
    from invsl.reconstruct import default_basis, moment_design
    from invsl.types import SigmaFunction, Subspectrum

    _, prob = roundtrip_corpus()[0]
    sigma_left, sigma_right = prob.halves()
    f = hl_entire_pair(sigma_right, prob.right_pair)
    p = prob.left_pair.p
    rho = hl_spectrum(prob, 80).rhos + (1e-3j if complex_ else 0.0)
    out = []
    for label, n in (("reconstruct N=40", 40), ("hl N=48", 48), ("reconstruct N=80", 80)):
        sub = Subspectrum(rho[:n] ** 2)
        system = build_moment_system(sub, f, p, GRID)
        basis = default_basis(sub, p)
        out.append((label, moment_design(system, basis), system, basis))

    rng = np.random.default_rng(0)
    noise = rng.standard_normal((2 * TRIALS, 40)) + 1j * rng.standard_normal((2 * TRIALS, 40))
    noise *= np.repeat([1e-3, 1e-2], TRIALS)[:, None] / np.linalg.norm(noise, axis=1, keepdims=True)
    stack = rho[:40] + (noise if complex_ else np.zeros(noise.shape))
    system = build_moment_system(Subspectrum(stack**2), f, p, GRID)
    design, rhs = moment_design(system, default_basis(Subspectrum(rho[:40] ** 2), p))
    out.append((f"stability stack {2 * TRIALS} x N=40",
                (design.reshape(stack.shape + design.shape[-1:]), rhs.reshape(stack.shape)),
                None, None))

    if complex_:
        sigma_left = SigmaFunction(sigma_left.samples + 0.2j * np.sin(sigma_left.nodes),
                                   sigma_left.interval_length)
    fits = []

    def recording(design, rhs, reg=0.0):
        fits.append((design, rhs))
        return svd_solve(design, rhs, reg)

    with mock.patch.object(forward, "svd_solve", recording):
        forward.extract_cauchy(sigma_left, prob.left_pair, grid_m=GRID)
    out += [(f"extract_cauchy fit {k + 1}", args, None, None) for k, args in enumerate(fits)]
    return out


def completeness_basis(system):
    """The probe basis `completeness_ratio` builds for `system`, as it hands
    it to `moment_design`."""
    reconstruct = importlib.import_module("invsl.reconstruct")
    design = reconstruct.moment_design
    bases = []

    def recording(system, basis):
        bases.append(basis)
        return design(system, basis)

    with mock.patch.object(reconstruct, "moment_design", recording):
        reconstruct.completeness_ratio(system)
    return bases[0]


def kernel_rows(repeat):
    """(label, seconds) of the kernel timings of the second table."""
    from invsl.halfinverse import hl_spectrum
    from invsl.moments import trig_rows, xi_identity_residual
    from invsl.problems import roundtrip_corpus
    from invsl.reconstruct import default_basis
    from invsl.trig import poly_trig
    from invsl.types import Subspectrum

    _, prob = roundtrip_corpus()[0]
    rho = hl_spectrum(prob, 41).rhos
    family = default_basis(Subspectrum(rho[:40] ** 2), prob.left_pair.p).h1
    s = int(family.kind == "sin")
    out = []
    for label, rows in (("poly_trig, 40 rows with the small row", trig_rows(rho[:40])),
                        ("poly_trig, 40 rows without it", trig_rows(rho[1:]))):
        args = (family.degrees, rows.rho, s, rows.sin_pi, rows.cos_pi)
        out.append((f"{label} (degrees {family.degrees}, s = {s})",
                    best_time(lambda: poly_trig(*args), repeat)))
    out.append(("xi_identity_residual, rho_1 .. rho_40",
                best_time(lambda: xi_identity_residual(rho[:40]), repeat)))
    return out


def main(argv=None) -> int:
    repeat, checkout = timing_args("lsq_timing", argv)
    from invsl.moments import svd_solve
    from invsl.reconstruct import completeness_ratio, moment_design

    rows = {}
    for complex_ in (False, True):
        for label, (design, rhs), system, basis in systems(complex_):
            row = rows.setdefault(label, {"shape": " x ".join(map(str, design.shape))})
            row[("svd_solve", complex_)] = best_time(lambda: svd_solve(design, rhs), repeat)
            if system is None:
                continue
            comp_basis = completeness_basis(system)
            row[("moment_design solve", complex_)] = best_time(
                lambda: moment_design(system, basis), repeat)
            row[("moment_design completeness", complex_)] = best_time(
                lambda: moment_design(system, comp_basis), repeat)
            row[("completeness_ratio", complex_)] = best_time(lambda: completeness_ratio(system), repeat)
    print(f"us per call, best of {repeat}, one BLAS thread ({checkout.resolve().name})")
    print()
    names = ("svd_solve", "moment_design solve", "moment_design completeness", "completeness_ratio")
    cols = [(name, c) for name in names for c in (False, True)]
    print("| system | design | " + " | ".join(f"{n} {'complex128' if c else 'float64'}"
                                              for n, c in cols) + " |")
    print("|---|---|" + "---|" * len(cols))
    for label, row in rows.items():
        cells = [f"{row[k] * 1e6:.0f}" if k in row else "" for k in cols]
        print(f"| {label} | {row['shape']} | " + " | ".join(cells) + " |")
    print()
    print("| kernel | us |")
    print("|---|---|")
    for label, seconds in kernel_rows(repeat):
        print(f"| {label} | {seconds * 1e6:.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
