"""Half-inverse driver: one full spectrum on (0, 2pi), the right half known.

The known right half (potential antiderivative plus its boundary pair) is
folded into an entire pair (f1, f2): the solution pinned at the right end,
carried back to the midpoint by the inverse of the right half's monodromy;
the remaining task is the standard subspectrum reconstruction of the left-half
Cauchy data.  The exclusion rule says the first (r - p)/2 eigenvalues are
redundant; dropping more loses uniqueness, which the rank evidence reports.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonUniqueWarning, ParityMismatch, RootLoss
from .forward import find_eigenvalues, make_delta
from .moments import build_moment_system  # noqa: F401  (lookup site wrapped by bench/spans.py)
from .ode import monodromy, node_values
from .reconstruct import (
    ReconstructionResult,
    completeness_ratio,
    reconstruct,
)
from .types import (
    BoundaryPolyPair,
    EntirePair,
    SigmaFunction,
    Subspectrum,
    encode_array,
    sigma_to_json,
    validate_rp,
)


@dataclass(frozen=True)
class TwoSidedProblem:
    """Problem on (0, 2pi): polynomial pairs at both ends, full antiderivative."""

    sigma_full: SigmaFunction
    left_pair: BoundaryPolyPair
    right_pair: BoundaryPolyPair

    def __post_init__(self):
        if abs(self.sigma_full.interval_length - 2 * np.pi) > 1e-12:
            raise ValueError("two-sided problems live on [0, 2*pi]")
        if self.sigma_full.m % 2:
            raise ValueError("need an even cell count to split at the midpoint")
        validate_rp(self.left_pair)
        validate_rp(self.right_pair)

    @property
    def p(self) -> int:
        return self.left_pair.p

    @property
    def r(self) -> int:
        return self.right_pair.p

    def halves(self):
        return self.sigma_full.halves()

    def require_odd(self):
        if self.p % 2 == 0 or self.r % 2 == 0:
            raise ParityMismatch("the half-inverse driver ships for odd boundary degrees only")
        return self


def psi_mid(sigma_right: SigmaFunction, right_pair: BoundaryPolyPair, lam):
    """Backward solution at the midpoint.

    `sigma_right` holds sigma(pi + s) for s in [0, pi].  The solution psi is
    pinned at the right end by (psi, psi^{[1]})(2pi) = (r1, -r2); its midpoint
    values are M^{-1} (r1, -r2) = adj(M) (r1, -r2), with M the monodromy of
    the right half (det M = 1).
    """
    if abs(sigma_right.interval_length - np.pi) > 1e-12:
        raise ValueError("right-half antiderivative must live on an interval of length pi")
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    r1, r2 = right_pair.p1(lam_arr), right_pair.p2(lam_arr)
    m = monodromy(sigma_right, lam_arr)
    return m[1, 1] * r1 + m[0, 1] * r2, -m[1, 0] * r1 - m[0, 0] * r2


def hl_entire_pair(sigma_right: SigmaFunction, right_pair: BoundaryPolyPair) -> EntirePair:
    """Entire pair encoding the known right half: f1 = -psi(mid), f2 = psi^{[1]}(mid).

    Its descriptor is the problem file's `f` object for this pair.
    """

    def joint(lam):
        psi, psi_q = psi_mid(sigma_right, right_pair, lam)
        return -psi, psi_q

    return EntirePair(joint=joint, descriptor={
        "kind": "hl_right_half", "sigma": sigma_to_json(sigma_right),
        "r1": encode_array(right_pair.a), "r2": encode_array(right_pair.b)})


def hl_window(count: int, p: int, r: int):
    """Real search window covering the first `count` eigenvalues, with a
    margin of 2 in sqrt(lambda) above them."""
    top = (0.5 * count - 0.25 * (p + r) + 2.0) ** 2
    return (-4.0, float(top))


def _root_lifts(pair: BoundaryPolyPair, lam, sign: float):
    """Index lift of a boundary angle through the real roots of p1 passed below lam.

    At a real root of p1 the angle of (p1, -p2) (left end) or of (-p1, p2)
    (right end) crosses a multiple of pi, where its value mod pi jumps.  The
    lift undoes the jump: +1 per root where the angle moves the count up
    (sign * p1'/p2 > 0), -1 where it moves it down (a non-Herglotz pair).
    """
    lift = np.zeros(lam.shape, dtype=int)
    if pair.a.size > 1:
        roots = np.roots(pair.a[::-1])
        for xi in roots[np.abs(roots.imag) <= 1e-12 * (1.0 + np.abs(roots))].real:
            up = sign * pair.dp1(xi).real / pair.p2(xi).real > 0
            lift += np.where(lam > xi, 1 if up else -1, 0)
    return lift


def _herglotz(pair: BoundaryPolyPair, sign: float) -> bool:
    """Whether the boundary angle never moves the eigenvalue count down.

    That holds when sign (p1' p2 - p1 p2') >= 0 on the real line (sign -1
    at the left end, +1 at the right) and the coefficients are real; the
    polynomial is checked between and beyond its real roots.
    """
    if np.any(pair.a.imag) or np.any(pair.b.imag):
        return False
    p1, p2 = np.polynomial.Polynomial(pair.a.real), np.polynomial.Polynomial(pair.b.real)
    w = sign * (p1.deriv() * p2 - p1 * p2.deriv())
    x = np.sort(w.roots().real) if w.degree() > 0 else np.zeros(1)
    pts = np.concatenate((x[:1] - 1.0, 0.5 * (x[1:] + x[:-1]), x[-1:] + 1.0))
    return bool(np.all(w(pts) >= -1e-12 * np.max(np.abs(w.coef))))


def count_below(problem: TwoSidedProblem, lam) -> np.ndarray:
    """Number of eigenvalues of the two-sided problem below each real lambda.

    The left solution phi, (phi, phi^{[1]})(0) = (p1, -p2), changes sign at
    the nodes of sigma_full once per zero while every cell has |mu| h < pi.
    One more is counted when its end angle arctan2(phi, phi^{[1]}) mod pi at
    2pi exceeds that of the right condition, arctan2(-r1, r2) mod pi; then
    the lifts through the real roots of p1 and r1 make the count continuous
    in lambda, from 0 at lambda -> -infinity (Pruefer-angle indexing with
    lambda-dependent boundary conditions).  For a Herglotz pair at each end
    the count never decreases.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    sigma = problem.sigma_full
    mu2 = np.max(lam) - np.min(np.diff(sigma.samples.real)) / sigma.dx
    if mu2 * sigma.dx**2 >= np.pi**2:
        raise RootLoss(f"cells too coarse to count the oscillations at lambda = {np.max(lam):.6g}")
    left, right = problem.left_pair, problem.right_pair
    y, yq = node_values(sigma, lam, left.p1(lam).real, -left.p2(lam).real)
    changes = np.count_nonzero(np.signbit(y[1:]) != np.signbit(y[:-1]), axis=0)
    end = np.mod(np.arctan2(y[-1], yq[-1]), np.pi)
    beta = np.mod(np.arctan2(-right.p1(lam).real, right.p2(lam).real), np.pi)
    return changes + (end > beta) + _root_lifts(left, lam, -1.0) + _root_lifts(right, lam, 1.0)


def hl_spectrum(problem: TwoSidedProblem, count: int) -> Subspectrum:
    """First `count` eigenvalues of the two-sided problem, by index.

    Bracket k starts at rho = (k + 1)/2 - (p + r)/4 +- 1/4, is certified to
    hold eigenvalue k alone by `count_below` and refined by Illinois false
    position (`refine_brackets`).  Where the count can fall as lambda grows
    (a boundary pair that is not Herglotz, complex data, or a count found
    not monotone), a dense scan of `hl_window` stands in, and the result
    has `fallback` set.
    """
    problem.require_odd()
    sigma_left, sigma_right = problem.halves()
    f = hl_entire_pair(sigma_right, problem.right_pair)
    delta, _ = make_delta(sigma_left, problem.left_pair, f)
    window = hl_window(count, problem.p, problem.r)
    index = None
    if (problem.sigma_full.is_real() and _herglotz(problem.left_pair, -1.0)
            and _herglotz(problem.right_pair, 1.0)):
        ends = 0.5 * np.arange(count + 1) + 0.25 - 0.25 * (problem.p + problem.r)
        index = (lambda lam: count_below(problem, lam), ends)
    spec = find_eigenvalues(delta, window, count=count, index=index)
    if len(spec) < count:
        raise RootLoss(f"found {len(spec)} eigenvalues in {window}, need {count}")
    return spec if index is not None else replace(spec, fallback=True)


def hl_reconstruct(sigma_right: SigmaFunction, right_pair: BoundaryPolyPair,
                   p: int, spectrum: Subspectrum, drop: int, grid,
                   reg: float = 0.0) -> ReconstructionResult:
    """Left-half Cauchy data from the spectrum with the first `drop` values excluded.

    `drop` up to (r - p)/2 keeps uniqueness; beyond that the completeness
    evidence collapses.  A collapse or a drop beyond the rule is added to the
    report's `warnings`, sets `non_unique` and emits NonUniqueWarning, as
    `reconstruct` does for its own findings.
    """
    if p % 2 == 0 or right_pair.p % 2 == 0:
        raise ParityMismatch("the half-inverse driver ships for odd boundary degrees only")
    r = right_pair.p
    allowed = (r - p) // 2
    f = hl_entire_pair(sigma_right, right_pair)
    used = spectrum.drop_first(drop)
    result = reconstruct(p, f, used, grid, reg=reg)
    report = result.report
    report["drop"] = drop
    report["drop_allowed"] = allowed
    report["completeness"] = comp = completeness_ratio(result.system)
    msgs = []
    if comp["gram_ratio"] <= 1e-8:
        msgs.append(f"completeness evidence collapsed (gram ratio {comp['gram_ratio']:.2e}); "
                    "the subspectrum no longer determines the data")
    if drop > allowed:
        msgs.append(f"dropping {drop} > (r-p)/2 = {allowed} eigenvalues loses uniqueness")
    for msg in msgs:
        report["non_unique"] = True
        report["warnings"].append(msg)
        warnings.warn(msg, category=NonUniqueWarning, stacklevel=2)
    return result
