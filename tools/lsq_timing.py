"""Timings of the least-squares layer, in microseconds per call.

    python3 tools/lsq_timing.py [--repeat N] [CHECKOUT]

Times `invsl.moments.svd_solve` and `invsl.reconstruct.completeness_ratio`
of CHECKOUT (default: the checkout this script lives in) on the systems the
benchmark's inverse ops solve, built from the first problem of
`roundtrip_corpus` (rt_bump_free) and its first 80 eigenvalues:

- the moment designs of `reconstruct` at N = 40 and 80 and of `hl` at
  N = 48 (`moment_design` over `default_basis`, as `solve_moment` builds
  them), and the completeness systems of the same subspectra;
- the stack of 40 trials at N = 40 that `stability` solves at once;
- the two fits of `extract_cauchy` on the problem's left half, one per
  probe family (the (design, rhs) handed to `svd_solve`).

Each system is timed on two kinds of input.  `float64`: the eigenvalues as
they are and the real left-half sigma, whose designs are exactly real (the
stack holds 40 unperturbed trials).  `complex128`: rho_n + 0.001 i, as the
stability trials perturb the roots (the stack holds 20 trials at each of
omega = 0.001 and 0.01), and sigma + 0.2 i sin(x) for the extraction.

Each entry is the best of N repeats (default 5) of the mean time of a run of
calls long enough to take about 20 ms.  OpenBLAS is held to one thread, as
`bench/run.py` holds it.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

GRID = 128            # CLI default --grid of `reconstruct`, `hl` and `stability`
TRIALS = 20           # per noise size, as the benchmark's `stability` op


def best_time(call, repeat):
    """Best over `repeat` runs of the mean seconds per call, each run taking
    about 20 ms."""
    call()
    start = time.perf_counter()
    call()
    number = max(1, int(0.02 / max(time.perf_counter() - start, 1e-7)))
    best = np.inf
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def systems(complex_):
    """(label, svd_solve arguments, MomentSystem or None) of the timed systems."""
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
        out.append((label, moment_design(system, default_basis(sub, p)), system))

    rng = np.random.default_rng(0)
    noise = rng.standard_normal((2 * TRIALS, 40)) + 1j * rng.standard_normal((2 * TRIALS, 40))
    noise *= np.repeat([1e-3, 1e-2], TRIALS)[:, None] / np.linalg.norm(noise, axis=1, keepdims=True)
    stack = rho[:40] + (noise if complex_ else np.zeros(noise.shape))
    system = build_moment_system(Subspectrum(stack**2), f, p, GRID)
    design, rhs = moment_design(system, default_basis(Subspectrum(rho[:40] ** 2), p))
    out.append((f"stability stack {2 * TRIALS} x N=40",
                (design.reshape(stack.shape + design.shape[-1:]), rhs.reshape(stack.shape)), None))

    if complex_:
        sigma_left = SigmaFunction(sigma_left.samples + 0.2j * np.sin(sigma_left.nodes),
                                   sigma_left.interval_length)
    fits = []

    def recording(design, rhs, reg=0.0):
        fits.append((design, rhs))
        return svd_solve(design, rhs, reg)

    with mock.patch.object(forward, "svd_solve", recording):
        forward.extract_cauchy(sigma_left, prob.left_pair, grid_m=GRID)
    out += [(f"extract_cauchy fit {k + 1}", args, None) for k, args in enumerate(fits)]
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    repeat = 5
    if argv[:1] == ["--repeat"]:
        repeat, argv = int(argv[1]), argv[2:]
    checkout = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str((checkout / "src").resolve()))
    from invsl.moments import svd_solve
    from invsl.reconstruct import completeness_ratio

    rows = {}
    for complex_ in (False, True):
        for label, (design, rhs), system in systems(complex_):
            row = rows.setdefault(label, {"shape": " x ".join(map(str, design.shape))})
            row[("svd_solve", complex_)] = best_time(lambda: svd_solve(design, rhs), repeat)
            if system is not None:
                row[("completeness_ratio", complex_)] = best_time(lambda: completeness_ratio(system), repeat)
    print(f"us per call, best of {repeat}, one BLAS thread ({checkout.resolve().name})")
    print()
    cols = [(name, c) for name in ("svd_solve", "completeness_ratio") for c in (False, True)]
    print("| system | design | " + " | ".join(f"{n} {'complex128' if c else 'float64'}"
                                              for n, c in cols) + " |")
    print("|---|---|" + "---|" * len(cols))
    for label, row in rows.items():
        cells = [f"{row[k] * 1e6:.0f}" if k in row else "" for k in cols]
        print(f"| {label} | {row['shape']} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
