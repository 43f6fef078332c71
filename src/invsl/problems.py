"""Built-in test problems.

Smooth compactly-flat potential antiderivatives keep the Cauchy-data kernels
rapidly representable, which is what the round-trip tolerances assume; ramp
("step") and random draws exercise the ODE and eigenvalue layers where no
kernel smoothness is needed.
"""

from __future__ import annotations

import numpy as np

from .halfinverse import TwoSidedProblem
from .types import BoundaryPolyPair, EntirePair, SigmaFunction


def bump_profile(x, amp=0.4, center=0.5 * np.pi, width=0.5 * np.pi):
    """C-infinity bump, all derivatives vanish where |x - center| >= width."""
    x = np.asarray(x, dtype=float)
    u = (x - center) / width
    out = np.zeros_like(x)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


def sigma_bump(m=128, amp=0.4, center=0.5 * np.pi, width=0.45 * np.pi,
               interval=np.pi) -> SigmaFunction:
    return SigmaFunction.from_callable(
        lambda x: bump_profile(x, amp, center, width), interval, m)


def sigma_two_bumps(m=128, amps=(0.35, -0.25), interval=np.pi) -> SigmaFunction:
    def fn(x):
        return (bump_profile(x, amps[0], 0.42 * interval, 0.32 * interval)
                + bump_profile(x, amps[1], 0.62 * interval, 0.3 * interval))
    return SigmaFunction.from_callable(fn, interval, m)


def sigma_step(m=512, height=1.0, at=0.5 * np.pi, interval=np.pi) -> SigmaFunction:
    """Antiderivative jumping to `height` at `at` (stored as a one-cell ramp)."""
    x = np.linspace(0.0, interval, m + 1)
    return SigmaFunction(np.where(x >= at, height, 0.0).astype(complex), interval)


def sigma_random_smooth(m=512, scale=0.5, n_harmonics=6, seed=0,
                        interval=np.pi) -> SigmaFunction:
    """Random low-pass trigonometric antiderivative (for identity sweeps)."""
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(n_harmonics) / np.arange(1, n_harmonics + 1) ** 2
    x = np.linspace(0.0, interval, m + 1)
    vals = sum(c * np.sin((k + 1) * np.pi * x / interval)
               for k, c in enumerate(coeff))
    return SigmaFunction(scale * vals.astype(complex), interval)


DIRICHLET_RIGHT = EntirePair.constant(0.0, 1.0)
NEUMANN_RIGHT = EntirePair.constant(1.0, 0.0)


def forward_corpus(m=512):
    """Problems spanning p in {1, 2, 3}, both parities, for forward-layer checks."""
    return [
        ("p1_free", sigma_bump(m, amp=0.4), BoundaryPolyPair([1.0], [0.0]),
         DIRICHLET_RIGHT),
        ("p1_robin", sigma_two_bumps(m), BoundaryPolyPair([1.0], [0.4]),
         NEUMANN_RIGHT),
        ("p2_affine", sigma_bump(m, amp=0.3, center=0.45 * np.pi),
         BoundaryPolyPair([0.8], [0.3, 1.0]), DIRICHLET_RIGHT),
        ("p2_small", sigma_two_bumps(m, amps=(0.25, 0.2)),
         BoundaryPolyPair([1.2], [-0.2, 1.0]), NEUMANN_RIGHT),
        ("p3_quadratic", sigma_bump(m, amp=0.35, width=0.4 * np.pi),
         BoundaryPolyPair([0.2, 1.0], [0.5, 0.1]), DIRICHLET_RIGHT),
    ]


def two_sided_from_left(left: SigmaFunction, left_pair: BoundaryPolyPair,
                        right_pair: BoundaryPolyPair) -> TwoSidedProblem:
    """Assemble a problem on (0, 2pi) from its left half, continued by the
    constant left endpoint value (zero potential on the right half)."""
    full = np.concatenate([left.samples, np.full(left.m, left.samples[-1])])
    return TwoSidedProblem(SigmaFunction(full, 2 * np.pi), left_pair, right_pair)


def roundtrip_corpus(m_half=512):
    """Two-sided problems whose left halves are recovered in the round trips.

    Potentials are kept low-bandwidth so forty eigenvalues carry the kernels
    to three digits; amplitudes stay moderate because the kernels' mid-band
    content is second order in the potential.
    """
    specs = [
        ("rt_bump_free", lambda x: bump_profile(x, 0.25), 0.0, 0.0),
        ("rt_bump_robin", lambda x: bump_profile(x, 0.22), 0.25, 0.3),
        ("rt_sine_mix", lambda x: 0.25 * np.sin(x) - 0.1 * np.sin(3 * x), 0.2, 0.4),
    ]
    out = []
    for name, fn, b0, right_b in specs:
        left = SigmaFunction.from_callable(fn, np.pi, m_half)
        out.append((name, two_sided_from_left(
            left, BoundaryPolyPair([1.0], [b0]), BoundaryPolyPair([1.0], [right_b]))))
    return out


def hl_zero_instance(m_half=256) -> TwoSidedProblem:
    """Zero potential, nonzero boundary constants (asymptotics exercises)."""
    return TwoSidedProblem(
        SigmaFunction.zero(2 * np.pi, 2 * m_half),
        BoundaryPolyPair([1.0], [0.4]),
        BoundaryPolyPair([1.0], [0.6]),
    )


def hl_step_instance(m_half=512, height=0.8) -> TwoSidedProblem:
    """Step on the left half, flat on the right."""
    left = sigma_step(m_half, height=height, at=0.5 * np.pi)
    return two_sided_from_left(left, BoundaryPolyPair([1.0], [0.3]),
                               BoundaryPolyPair([1.0], [0.5]))


def hl_exclusion_instance(m_half=512) -> TwoSidedProblem:
    """(p, r) = (1, 3): the exclusion rule allows dropping one eigenvalue."""
    left = sigma_bump(m_half, amp=0.15)
    return two_sided_from_left(left, BoundaryPolyPair([1.0], [0.2]),
                               BoundaryPolyPair([0.5, 1.0], [0.8, 0.1]))
