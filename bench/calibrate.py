"""A fixed calibration kernel: the machine's speed during a run, in one number.

On a shared virtual machine the same op can take 1.2 s or 2.4 s depending on
what other tenants do; such phases last from seconds to minutes, so no
statistic of the op times alone separates a slower program from a slower
machine.  The benchmark therefore times this kernel between blocks of ops
throughout a run and divides each op time by the kernel times measured on
either side of it (see run.py).  The kernel never changes with the package:
it is a frozen cell-by-cell propagation of (y, y') over piecewise-linear
sigma with small complex lambda batches, the instruction mix (Python loop,
numpy dispatch on short arrays, complex transcendental functions) that
dominates the CLI ops, so it slows down with them.  It imports nothing from
`invsl`.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About the median time of `kernel()` on an unloaded 2-vCPU Xeon (Sapphire
# Rapids) KVM guest with Python 3.11.7 and numpy 2.4.6.  It only fixes the
# unit: a time t measured while the kernel takes k is reported as
# t * REFERENCE_S / k.
REFERENCE_S = 0.10

_CELLS = 128
_PASSES = 48
_SLOPES = 3.0 * np.sin(np.linspace(0.0, 7.0, _CELLS + 1))[:-1]
_LAMBDAS = np.linspace(1.0, 60.0, 6).astype(complex)


def _sinc(z):
    out = np.empty_like(z)
    small = np.abs(z) < 1e-4
    zs = z[small] * z[small]
    out[small] = 1.0 - zs / 6.0 + zs * zs / 120.0
    zb = z[~small]
    out[~small] = np.sin(zb) / zb
    return out


def _propagate():
    h = np.pi / _CELLS
    y, v = np.ones_like(_LAMBDAS), np.zeros_like(_LAMBDAS)
    for slope in _SLOPES:
        mu2 = _LAMBDAS - slope
        w = np.sqrt(mu2 * h * h)
        c, sn = np.cos(w), h * _sinc(w)
        y, v = c * y + sn * v, -mu2 * sn * y + c * v
    return y


def kernel() -> float:
    """Run the fixed kernel once and return its wall time in seconds."""
    t0 = perf_counter()
    for _ in range(_PASSES):
        y = _propagate()
    elapsed = perf_counter() - t0
    if not np.all(np.isfinite(y)):
        raise RuntimeError("calibration kernel produced non-finite values")
    return elapsed
