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
from dataclasses import dataclass

import numpy as np

from .errors import NonUniqueWarning, ParityMismatch
from .forward import find_eigenvalues, index_search, make_delta
from .moments import build_moment_system  # noqa: F401  (lookup site wrapped by bench/spans.py)
from .ode import monodromy
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


def _require_odd(p: int, r: int):
    if p % 2 == 0 or r % 2 == 0:
        raise ParityMismatch("the half-inverse driver ships for odd boundary degrees only")


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

    Its descriptor is the problem file's `f` object for this pair, and its
    right end is (sigma_right, right_pair).
    """

    def joint(lam):
        psi, psi_q = psi_mid(sigma_right, right_pair, lam)
        return -psi, psi_q

    return EntirePair(joint=joint, descriptor={
        "kind": "hl_right_half", "sigma": sigma_to_json(sigma_right),
        "r1": encode_array(right_pair.a), "r2": encode_array(right_pair.b)},
        right_end=(sigma_right, right_pair))


def _join(sigma: SigmaFunction, half: SigmaFunction):
    """sigma on [0, X] and `half` moved to [X, X + X'] as one sigma on [0, X + X'];
    None unless the two share the cell size and the sample at X."""
    if not (np.isclose(half.dx, sigma.dx, rtol=1e-12, atol=0.0)
            and half.samples[0] == sigma.samples[-1]):
        return None
    return SigmaFunction(np.concatenate((sigma.samples, half.samples[1:])),
                         sigma.interval_length + half.interval_length)


def problem_spectrum(sigma: SigmaFunction, pair: BoundaryPolyPair, f: EntirePair,
                     count: int, window=None) -> tuple[Subspectrum, str | None]:
    """The first `count` eigenvalues of the problem with potential `sigma`,
    left pair `pair` and f's right end (`EntirePair.right_end`, which
    `EntirePair.constant` and `hl_entire_pair` set), as (Subspectrum, reason).
    `index_search` runs on sigma joined to f's right half, if any; where it
    certifies nothing, a scan of (-9, ((pi/X) count + 2)^2), X the joined
    length, stands in and `reason` says why.  A given `window` is scanned
    without an index; `reason` is then None, as on the index path."""
    delta, _ = make_delta(sigma, pair, f)
    index = reason = None
    if window is None:
        half, right = f.right_end
        whole = sigma if half is None else _join(sigma, half)
        length = sigma.interval_length + (0.0 if half is None else half.interval_length)
        window = (-9.0, float((np.pi / length * count + 2.0) ** 2))
        if whole is None:
            reason = "f is hl_right_half, and its sigma does not join the problem's"
        elif (index := index_search(whole, pair, right, count)) is None:
            reason = "a boundary pair is not Herglotz" if whole.is_real() else "complex sigma"
    return find_eigenvalues(delta, window, count=count, index=index), reason


def hl_spectrum(problem: TwoSidedProblem, count: int) -> Subspectrum:
    """First `count` eigenvalues of the two-sided problem: `problem_spectrum`
    of its left half with the right half folded into f."""
    _require_odd(problem.p, problem.r)
    sigma_left, sigma_right = problem.halves()
    f = hl_entire_pair(sigma_right, problem.right_pair)
    return problem_spectrum(sigma_left, problem.left_pair, f, count)[0]


def hl_reconstruct(sigma_right: SigmaFunction, right_pair: BoundaryPolyPair,
                   p: int, spectrum: Subspectrum, drop: int, grid,
                   reg: float = 0.0) -> ReconstructionResult:
    """Left-half Cauchy data from the spectrum with the first `drop` values excluded.

    `drop` up to (r - p)/2 keeps uniqueness; beyond that the completeness
    evidence collapses.  A collapse or a drop beyond the rule is added to the
    report's `warnings`, sets `non_unique` and emits NonUniqueWarning, as
    `reconstruct` does for its own findings.
    """
    r = right_pair.p
    _require_odd(p, r)
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
