"""Half-inverse driver: one full spectrum on (0, 2pi), the right half known.

The spectrum is that of the whole problem, whose right pair is a polynomial
right end (`EntirePair.of_pair`).  For the reconstruction the known right
half (potential antiderivative plus its boundary pair) is folded into an
entire pair (f1, f2): the solution pinned at the right end, carried back to
the midpoint by the inverse of the right half's monodromy; the remaining
task is the standard subspectrum reconstruction of the left-half Cauchy
data.  The exclusion rule says the first (r - p)/2 eigenvalues are
redundant; dropping more loses uniqueness.  `hl_reconstruct` applies that
rule on top of `reconstruct`'s uniqueness verdict (its completeness
evidence), which it does not repeat.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonUniqueWarning, ParityMismatch
from .forward import circle_zeros, find_eigenvalues, index_search, make_delta
from .moments import build_moment_system  # noqa: F401  (lookup site wrapped by bench/spans.py)
from .ode import monodromy
from .reconstruct import reconstruct
from .reconstruct import completeness_ratio  # noqa: F401  (lookup site wrapped by bench/spans.py)
from .types import (BoundaryPolyPair, CauchyData, EntirePair, SigmaFunction, Subspectrum,
                    validate_rp)


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

    Its right end is (sigma_right, right_pair), from which
    `serialize.entire_pair_to_json` writes its `hl_right_half` object.
    """

    def joint(lam):
        psi, psi_q = psi_mid(sigma_right, right_pair, lam)
        return -psi, psi_q

    return EntirePair(joint=joint, right_end=(sigma_right, right_pair))


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
    `EntirePair.of_pair` and `hl_entire_pair` set), as (Subspectrum, reason).
    Where f's right half joins sigma, delta is that of the joined problem
    with the right pair as its f, r1 phi^[1] + r2 phi at the right end: one
    propagation per lambda, and minus f1 Delta1 + f2 Delta0, the Wronskian
    of phi and psi at the midpoint.  A half that does not join keeps that
    split form.  `index_search` runs on the joined problem (on its real part
    for complex sigma, whose eigenvalues then seed `circle_zeros`); where it
    certifies nothing, a scan of (-9, ((pi/X) count + 2)^2), X the joined
    length, stands in and `reason` says why.  A given `window` is scanned
    without an index; `reason` is then None, as on the other paths, and f
    needs no right end (without both, ValueError).  A scan
    finds real zeros only: where a pair is not Herglotz, complex eigenvalues
    are missed, so its roots need not be the first `count` eigenvalues."""
    validate_rp(pair)
    half, right = f.right_end or (None, None)
    whole = sigma if half is None else _join(sigma, half)
    if half is not None and whole is not None:
        f = EntirePair.of_pair(right)
    delta, _ = make_delta(sigma if whole is None else whole, pair, f)
    index = reason = None
    if window is None:
        if right is None:
            raise ValueError("f has no right end (EntirePair.right_end) to index the "
                             "eigenvalues by; a window is scanned without one")
        length = sigma.interval_length + (0.0 if half is None else half.interval_length)
        window = (-9.0, float((np.pi / length * count + 2.0) ** 2))
        if whole is None:
            reason = "f is hl_right_half, and its sigma does not join the problem's"
        else:
            # a real sigma is its own real part: the count and delta share
            # its polynomial coefficients (`ode._coefficients`)
            real = whole if whole.is_real() else SigmaFunction(whole.samples.real, whole.interval_length)
            n = count if whole.is_real() else max(count, 2)
            if (index := index_search(real, pair, right, n)) is None:
                reason = "a boundary pair is not Herglotz"
            elif not whole.is_real():
                seeds = find_eigenvalues(make_delta(real, pair, f)[0], window, n, index=index)
                return Subspectrum(circle_zeros(delta, seeds.lambdas.real)[:count]), None
    return find_eigenvalues(delta, window, count=count, index=index), reason


def hl_spectrum(problem: TwoSidedProblem, count: int) -> Subspectrum:
    """First `count` eigenvalues of the two-sided problem: `problem_spectrum`
    of the whole problem with its right pair as a polynomial right end."""
    _require_odd(problem.p, problem.r)
    f = EntirePair.of_pair(problem.right_pair)
    return problem_spectrum(problem.sigma_full, problem.left_pair, f, count)[0]


def hl_reconstruct(sigma_right: SigmaFunction, right_pair: BoundaryPolyPair,
                   p: int, spectrum: Subspectrum, drop: int, grid: int,
                   reg: float = 0.0) -> CauchyData:
    """Left-half Cauchy data from the spectrum with the first `drop` values excluded.

    The result is `reconstruct`'s `CauchyData`; its `meta` report, with the
    uniqueness verdict, gains `drop` and `drop_allowed` = (r - p)/2.  The
    paper's exclusion rule is added on top: a drop beyond (r - p)/2 loses
    uniqueness, so it sets `non_unique`, adds its message to `warnings` and
    emits NonUniqueWarning.
    """
    r = right_pair.p
    _require_odd(p, r)
    allowed = (r - p) // 2
    f = hl_entire_pair(sigma_right, right_pair)
    result = reconstruct(p, f, spectrum.drop_first(drop), grid, reg=reg)
    report = result.meta
    report["drop"] = drop
    report["drop_allowed"] = allowed
    if drop > allowed:
        msg = f"dropping {drop} > (r-p)/2 = {allowed} eigenvalues loses uniqueness"
        report["non_unique"] = True
        report["warnings"].append(msg)
        warnings.warn(msg, category=NonUniqueWarning, stacklevel=2)
    return result
