"""Timings of the cell propagator, in microseconds per cell x lambda.

    python3 tools/propagator_timing.py [--repeat N] [CHECKOUT]

Times `invsl.ode.monodromy` and `invsl.ode.node_values` of CHECKOUT (default:
the checkout this script lives in) at batches of 1, 48 and 1640 lambdas, on
512 and 1024 cells over [0, pi], for four kinds of input, and
`invsl.forward.count_below` for the two real ones, with the Herglotz pairs
([1], [0.2]) on the left and ([0.5, 1], [0.8, 0.1]) on the right (those of
`hl_exclusion_instance`):

- real: a real smooth sigma and real lambda = rho^2, rho uniform in [0, 30],
  which `monodromy` takes in groups of four cells;
- complex lambda: the same sigma and lambda = (rho + i eps)^2, |eps| <= 0.05,
  as the stability experiment perturbs its roots;
- complex sigma: sigma + 0.2 i sin(x) and real lambda;
- pair annulus: the real sigma and real lambda uniform between the edges of
  the groups and of the pairs, 16 r = 1 and 4 r = 1 with r = |lambda| h^2 +
  max |s| h^2, which `monodromy` takes in pairs of cells.

`monodromy` and `count_below` take the level of each lambda; `node_values`
is the down-sweep over the closed-form cells for every kind, so its `real`
and `pair annulus` rows time those cells, not the groups and the pairs.

Each entry is the best of N repeats (default 5) of the mean time of a run of
calls long enough to take about 20 ms, divided by cells x lambdas.  The
calls reuse one SigmaFunction, as the calls of an eigenvalue search or of a
stability experiment do; the `monodromy, new sigma` rows build a new
SigmaFunction from the same samples for every call instead.  OpenBLAS is
held to one thread, as `bench/run.py` holds it.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import sys

import numpy as np

from harness import best_time, timing_args

BATCHES = (1, 48, 1640)
CELLS = (512, 1024)


def inputs(m, batch):
    """(kind, sigma, lambdas) of the four input kinds."""
    from invsl.problems import sigma_random_smooth
    from invsl.types import SigmaFunction

    rng = np.random.default_rng(batch)
    rho = rng.uniform(0.0, 30.0, batch)
    eps = rng.uniform(-0.05, 0.05, batch)
    sig = sigma_random_smooth(m, scale=0.8, seed=1)
    sig_c = SigmaFunction(sig.samples + 0.2j * np.sin(sig.nodes), sig.interval_length)
    h2 = sig.dx**2
    t = np.max(np.abs(np.diff(sig.samples.real))) / sig.dx * h2
    annulus = rng.uniform((1 / 16 - t) / h2, (1 / 4 - t) / h2, batch)
    return [("real", sig, rho**2), ("complex lambda", sig, (rho + 1j * eps) ** 2),
            ("complex sigma", sig_c, rho**2), ("pair annulus", sig, annulus)]


def main(argv=None) -> int:
    repeat, checkout = timing_args("propagator_timing", argv)
    from invsl.forward import count_below
    from invsl.ode import monodromy, node_values
    from invsl.types import BoundaryPolyPair, SigmaFunction

    def fresh(sig, lam):
        return monodromy(SigmaFunction(sig.samples, sig.interval_length), lam)

    left, right = BoundaryPolyPair([1.0], [0.2]), BoundaryPolyPair([0.5, 1.0], [0.8, 0.1])
    every = ("real", "complex lambda", "complex sigma", "pair annulus")
    calls = [("monodromy", monodromy, every), ("monodromy, new sigma", fresh, every),
             ("node_values", lambda sig, lam: node_values(sig, lam, 0.3, -0.8), every),
             ("count_below", lambda sig, lam: count_below(sig, left, right, lam), ("real", "pair annulus"))]
    print(f"us per cell x lambda, best of {repeat}, one BLAS thread ({checkout.resolve().name})")
    print()
    print("| function | input | cells | " + " | ".join(f"batch {b}" for b in BATCHES) + " |")
    print("|---|---|---|" + "---|" * len(BATCHES))
    for name, call, kinds in calls:
        for m in CELLS:
            rows = {}
            for batch in BATCHES:
                for kind, sig, lam in inputs(m, batch):
                    if kind not in kinds:
                        continue
                    us = best_time(lambda: call(sig, lam), repeat) * 1e6 / (m * batch)
                    rows.setdefault(kind, []).append(f"{us:.4f}")
            for kind, cols in rows.items():
                print(f"| {name} | {kind} | {m} | " + " | ".join(cols) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
