"""Characteristic functions, eigenvalue location (by index wherever a Pruefer-
angle count certifies it, `index_search`, and in circles it seeds for complex
sigma, `circle_zeros`), Weyl function, and the forward extraction of
generalized Cauchy data (the oracle for inverse tests).

The extraction fits the samples of Delta0 and Delta1 over the representation
the inverse solve uses (`moments`): the slot layout, the probe tags with
their closed-form columns and Gram matrix, and the SVD least-squares step.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import IllConditioned, PoleProximity, RootLoss
from .moments import _component_columns, _gram_block, _tags_for, slot_layout, svd_solve
from .ode import endpoint_data, node_values
from .trig import sinc, synth_series
from .types import (
    SIMPLE_TOL,
    BoundaryPolyPair,
    CauchyData,
    EntirePair,
    SigmaFunction,
    Subspectrum,
    validate_rp,
)


def char_pair(sigma: SigmaFunction, pair: BoundaryPolyPair, lam):
    """Values (Delta0, Delta1) of the two characteristic functions at `lam`.

    Both come from a single fundamental-pair evaluation:
    Delta_j = p1(lam) C^{[j]}(X, lam) - p2(lam) S^{[j]}(X, lam).
    """
    lam = np.asarray(lam, dtype=complex)
    e = endpoint_data(sigma, lam)
    p1, p2 = pair.p1(lam), pair.p2(lam)
    return p1 * e["C"] - p2 * e["S"], p1 * e["C1"] - p2 * e["S1"]


def char_delta(sigma: SigmaFunction, pair: BoundaryPolyPair, f: EntirePair, lam):
    """Full characteristic function f1*Delta1 + f2*Delta0."""
    lam = np.asarray(lam, dtype=complex)
    d0, d1 = char_pair(sigma, pair, lam)
    f1, f2 = f(lam)
    return f1 * d1 + f2 * d0


def make_delta(sigma: SigmaFunction, pair: BoundaryPolyPair, f: EntirePair):
    """The characteristic function delta = `char_delta` for root finding, as
    (delta, None).  `EntirePair.constant(1, 0)` gives the pair's own Delta1,
    whose zeros are the poles of the Weyl function.

    The second slot is always None; it is kept because the benchmark's
    instrumentation (bench/spans.py) unpacks two closures from this call.
    """
    def delta(lam):
        return char_delta(sigma, pair, f, lam)
    return delta, None


def weyl_ratio(d0, d1, on_pole="raise") -> np.ndarray:
    """Delta0/Delta1 with a scale-aware pole guard.

    Where |Delta1| <= 1e-8 max(|Delta0|, |Delta1|) the ratio raises
    PoleProximity, or is nan when `on_pole` is not "raise".
    """
    d0 = np.atleast_1d(np.asarray(d0))
    d1 = np.atleast_1d(np.asarray(d1))
    scale = np.maximum(np.abs(d0), np.abs(d1))
    bad = np.abs(d1) <= 1e-8 * np.maximum(scale, 1e-300)
    if np.any(bad) and on_pole == "raise":
        raise PoleProximity("Delta1 below tolerance at requested lambda")
    return np.where(bad, np.nan + 0j, d0 / np.where(bad, 1.0, d1))


def weyl(sigma: SigmaFunction, pair: BoundaryPolyPair, lam, on_pole="raise"):
    """Weyl function Delta0/Delta1 with the pole guard of `weyl_ratio`."""
    scalar = np.isscalar(lam) or np.asarray(lam).ndim == 0
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    out = weyl_ratio(*char_pair(sigma, pair, lam), on_pole=on_pole)
    return complex(out[0]) if scalar else out


# ----------------------------------------------------------------------------
# eigenvalue location
# ----------------------------------------------------------------------------

def refine_brackets(delta, a, b, fa, fb):
    """Roots of a real delta in brackets [a, b] of lambda, all at once.

    delta(a) = fa and delta(b) = fb differ in sign (or one is zero).  Each
    step is an Anderson-Bjoerck false-position step (Anderson and Bjoerck,
    1973): the secant point of the bracket ends, with the value at an end
    kept twice in a row scaled by 1 - f(x)/f(e), e the end that x replaces,
    or halved where that factor is not positive.  A step that leaves the
    bracket, or whose end values lie more than 16 orders of magnitude apart
    (its secant point would round onto an end, which then never moves), is
    replaced by the midpoint, and every value shrinks the bracket on its
    side of the root.  A root is done when the step or its bracket falls
    below 1e-14 (1 + |lambda|), or delta vanishes, or after 100 steps; delta
    is evaluated only at the roots still open.
    """
    a, b, fa, fb = (np.array(x, dtype=float) for x in (a, b, fa, fb))
    x = _false_position(a, b, fa, fb)
    f = np.zeros_like(x)
    side = np.zeros(x.shape, dtype=int)
    live = np.ones(x.shape, dtype=bool)
    for _ in range(100):
        f[live] = np.real(np.asarray(delta(x[live])))
        low = live & (f != 0) & (np.signbit(f) == np.signbit(fa))   # the root lies above x
        high = live & (f != 0) & ~low
        fb = np.where(low & (side == -1), _end_scale(f, fa) * fb, fb)
        fa = np.where(high & (side == 1), _end_scale(f, fb) * fa, fa)
        side = np.where(low, -1, np.where(high, 1, side))
        a, fa = np.where(low, x, a), np.where(low, f, fa)
        b, fb = np.where(high, x, b), np.where(high, f, fb)
        step = _false_position(a, b, fa, fb)
        step = np.where((step >= a) & (step <= b), step, 0.5 * (a + b))
        step = np.where(f == 0, x, step)
        tol = 1e-14 * (1.0 + np.abs(x))
        done = (np.abs(step - x) <= tol) | (b - a <= tol)
        x = np.where(live, step, x)
        live &= ~done
        if not np.any(live):
            break
    return x


def _end_scale(f, fe):
    """Anderson-Bjoerck's factor 1 - f/fe for the kept end, where f and fe
    share a sign; 1/2 where it is not positive (|f| >= |fe|)."""
    shrinks = np.abs(f) < np.abs(fe)
    return np.where(shrinks, 1.0 - f / np.where(shrinks, fe, 1.0), 0.5)


def _false_position(a, b, fa, fb):
    """Secant point of (a, fa) and (b, fb); the midpoint where fa = fb, or
    where the smaller of two nonzero |f| is below eps times the larger."""
    small, big = np.minimum(np.abs(fa), np.abs(fb)), np.maximum(np.abs(fa), np.abs(fb))
    safe = (fb != fa) & ~((small > 0) & (small < np.finfo(float).eps * big))
    return np.where(safe, b - fb * (b - a) / np.where(safe, fb - fa, 1.0), 0.5 * (a + b))


_EDGE_SAMPLES = 600     # argument-principle samples per rectangle edge
_CIRCLE_SAMPLES = 64    # and per circle, doubled by each refinement
_REFINEMENTS = 6


def winding_count(delta, rect=None, circles=None):
    """Zeros of delta inside the rectangle `rect` = ((re_lo, re_hi), (im_lo,
    im_hi)), an int, or inside each circle of `circles` = (centers, radii),
    an int array: one delta call per refinement samples every boundary, until
    delta is finite and nonzero and no phase step reaches pi/2 on them.
    """
    for k in range(_REFINEMENTS):
        if rect is not None:
            (re_lo, re_hi), (im_lo, im_hi) = rect
            corners = np.array([[re_lo + 1j * im_lo], [re_hi + 1j * im_lo],
                                [re_hi + 1j * im_hi], [re_lo + 1j * im_hi]])
            t = np.arange(_EDGE_SAMPLES << k) / (_EDGE_SAMPLES << k)
            z = (corners + (np.roll(corners, -1, axis=0) - corners) * t).reshape(1, -1)
        else:
            turn = np.exp(2j * np.pi * np.arange(_CIRCLE_SAMPLES << k) / (_CIRCLE_SAMPLES << k))
            z = np.asarray(circles[0])[:, None] + np.outer(circles[1], turn)
        vals = np.asarray(delta(z.ravel())).reshape(z.shape)
        if np.all(vals != 0) and np.all(np.isfinite(vals)):
            ph = np.angle(vals)
            steps = (np.diff(ph, axis=1, append=ph[:, :1]) + np.pi) % (2 * np.pi) - np.pi
            if np.max(np.abs(steps)) < 0.5 * np.pi:
                counts = np.rint(steps.sum(axis=1) / (2 * np.pi)).astype(int)
                return int(counts[0]) if rect is not None else counts
    raise RootLoss("winding number did not stabilize on the contour")


def circle_zeros(delta, seeds) -> np.ndarray:
    """The zero of delta next to each of two or more ascending real `seeds`.

    Each seed's circle, of radius half the distance to its nearest neighbour,
    must hold exactly one zero, and the rectangle around all circles one per
    seed (none lies between them).  `_muller_polish`, started from the seed,
    finds the zero, which must lie inside its circle.  Else RootLoss.
    """
    seeds = np.asarray(seeds, dtype=float)
    gaps = np.diff(seeds)
    if seeds.size < 2 or np.any(gaps <= 0):
        raise ValueError("circle_zeros needs two or more ascending seeds")
    radii = 0.5 * np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    counts = winding_count(delta, circles=(seeds, radii))
    if np.any(counts != 1):
        raise RootLoss(f"the circles around the seeds hold {counts.tolist()} zeros, not one each")
    band = radii.max()
    total = winding_count(delta, ((seeds[0] - radii[0], seeds[-1] + radii[-1]), (-band, band)))
    if total != seeds.size:
        raise RootLoss(f"the rectangle around {seeds.size} circles holds {total} zeros")
    zeros = np.array([_muller_polish(delta, s, 0.25 * r) for s, r in zip(seeds, radii)])
    if np.any(np.abs(zeros - seeds) >= radii):
        raise RootLoss("the Muller polish left the circle of its seed")
    return zeros


def _muller_polish(delta, z0, h):
    """A zero of delta by Muller's method from z0 - h, z0 + h and z0."""
    z = [z0 - h, z0 + h, z0]
    f = [complex(np.asarray(delta(np.array([x]))).ravel()[0]) for x in z]
    for _ in range(40):
        q = (z[-1] - z[-2]) / (z[-2] - z[-3]) if z[-2] != z[-3] else 1.0
        a = q * f[-1] - q * (1 + q) * f[-2] + q * q * f[-3]
        b = (2 * q + 1) * f[-1] - (1 + q) ** 2 * f[-2] + q * q * f[-3]
        c = (1 + q) * f[-1]
        disc = np.sqrt(b * b - 4 * a * c + 0j)
        den = b + disc if abs(b + disc) > abs(b - disc) else b - disc
        if den == 0:
            break
        z.append(z[-1] - (z[-1] - z[-2]) * 2 * c / den)
        f.append(complex(np.asarray(delta(np.array([z[-1]]))).ravel()[0]))
        if abs(z[-1] - z[-2]) < 1e-14 * (1 + abs(z[-1])):
            break
    return z[-1]


_SCAN_STEP = 0.02    # the dense scan's step in sqrt(lambda)


def find_eigenvalues(delta: Callable, window, count: Optional[int] = None,
                     index: Optional[tuple] = None) -> Subspectrum:
    """Locate zeros of an entire characteristic function, real on the real axis.

    With `index` from `index_search` they are the eigenvalues 0..count-1,
    each in a bracket that `_index_brackets` certifies to hold its index
    alone and across which delta changes sign.  Otherwise a real `window` is
    scanned on the signed-sqrt axis (lambda = sign(s) s^2, step `_SCAN_STEP`)
    for sign changes (a delta that is not real there raises ValueError).
    Anderson-Bjoerck false position (`refine_brackets`) refines the
    brackets.  The window's roots pass `_screen` (drops counted in
    `dropped`) and record the `window`.  Fewer than `count` roots raise
    RootLoss.  A scan sees real zeros only: the complex zeros of a delta
    whose pair is not Herglotz, and two zeros within one step, go unreported
    (`winding_count` counts them).  `problem_spectrum` picks either for a
    problem, or `circle_zeros` for a complex one.
    """
    if index is not None:
        lo, hi = (np.sign(s) * s * s for s in _index_brackets(*index, count))
        pts, where = np.unique(np.concatenate((lo, hi)), return_inverse=True)
        vals = np.real(np.asarray(delta(pts)))[where]
        f_lo, f_hi = vals[:count], vals[count:]
        same = np.sign(f_lo) * np.sign(f_hi) > 0
        if np.any(same):
            raise RootLoss(f"delta keeps its sign across the count bracket of eigenvalue(s) "
                           f"{np.nonzero(same)[0].tolist()}")
        return Subspectrum(refine_brackets(delta, lo, hi, f_lo, f_hi))

    lam_lo, lam_hi = float(window[0]), float(window[1])
    s_lo = np.sign(lam_lo) * np.sqrt(abs(lam_lo))
    s_hi = np.sign(lam_hi) * np.sqrt(abs(lam_hi))
    n_pts = int(np.ceil((s_hi - s_lo) / _SCAN_STEP)) + 1
    s = np.linspace(s_lo, s_hi, n_pts)
    lam_scan = np.sign(s) * s * s
    vals = np.asarray(delta(lam_scan))
    if np.max(np.abs(vals.imag)) > 1e-8 * np.max(np.abs(vals)):
        raise ValueError("delta is not real on the real axis; a complex sigma takes no window")
    fv = vals.real
    idx = np.nonzero(np.signbit(fv[:-1]) != np.signbit(fv[1:]))[0]
    lam = np.sort(refine_brackets(delta, lam_scan[idx], lam_scan[idx + 1],
                                  fv[idx], fv[idx + 1]))
    lam, dropped = _screen(delta, lam)
    if count is not None and lam.size < count:
        raise RootLoss(f"found {lam.size} eigenvalues in {window}, need {count}")
    return Subspectrum(lam[:count], window=(lam_lo, lam_hi), dropped=dropped)


def _screen(delta, lam):
    """The sorted roots without duplicates (within `SIMPLE_TOL`) and without
    roots whose residual is large against the local scale of delta, and the
    number dropped."""
    if lam.size == 0:
        return lam, 0
    keep = [0]
    for i in range(1, lam.size):
        if abs(lam[i] - lam[keep[-1]]) > SIMPLE_TOL:
            keep.append(i)
    kept = lam[keep]
    vals = np.abs(np.asarray(delta(kept)))
    near = np.abs(np.asarray(delta(kept + 0.1)))
    kept = kept[vals <= 1e-6 * np.maximum(near, 1.0)]
    return kept, lam.size - kept.size


def _index_brackets(count_below: Callable, ends, n_roots: int):
    """Brackets on the signed-sqrt axis that hold eigenvalue k alone, k < n_roots.

    `count_below(lam)` gives the number of eigenvalues below each real
    lambda; `ends` are ascending points s of the signed-sqrt axis (lambda =
    sign(s) s^2).  The count is taken at all ends in one batch, the ends are
    extended outwards until they enclose indices 0..n_roots-1, and a bracket
    is bisected on the count until it holds one eigenvalue and spans at most
    twice the spacing of `ends` (delta, growing like exp(|s| X), then changes
    by a bounded factor across it).  A count that falls raises RootLoss."""
    def count(s):
        return np.asarray(count_below(np.sign(s) * s * s))

    s = np.asarray(ends, dtype=float)
    gap = 2.0 * np.min(np.diff(s), initial=np.inf)
    c = count(s)
    width = 0.5
    while c[0] > 0 or c[-1] < n_roots:
        if width > 4096.0:
            raise RootLoss(f"the eigenvalue count does not reach indices 0..{n_roots - 1}")
        lower = s[:1] - width if c[0] > 0 else s[:0]
        upper = s[-1:] + width if c[-1] < n_roots else s[:0]
        c_new = count(np.concatenate((lower, upper)))
        s = np.concatenate((lower, s, upper))
        c = np.concatenate((c_new[:lower.size], c, c_new[lower.size:]))
        width *= 2.0
    if np.any(np.diff(c) < 0):
        raise RootLoss("the eigenvalue count falls as lambda grows, so it certifies no index")
    k = np.arange(n_roots)
    lo_at = np.searchsorted(c, k, side="right") - 1
    hi_at = np.searchsorted(c, k + 1, side="left")
    lo, hi, c_lo, c_hi = s[lo_at], s[hi_at], c[lo_at], c[hi_at]
    for _ in range(60):
        wide = np.nonzero((c_lo != k) | (c_hi != k + 1) | (hi - lo > gap))[0]
        if wide.size == 0:
            return lo, hi
        mid = 0.5 * (lo[wide] + hi[wide])
        points, where = np.unique(mid, return_inverse=True)
        c_mid = count(points)[where]
        if np.any(c_mid < c_lo[wide]) or np.any(c_mid > c_hi[wide]):
            raise RootLoss("the eigenvalue count falls as lambda grows, so it certifies no index")
        up = c_mid <= k[wide]
        lo[wide[up]], c_lo[wide[up]] = mid[up], c_mid[up]
        hi[wide[~up]], c_hi[wide[~up]] = mid[~up], c_mid[~up]
    raise RootLoss("bisection on the eigenvalue count did not isolate every index")


def _upper(x, y):
    """The sign that turns the vector (x, y) to an angle in [0, pi)."""
    return np.where((y > 0) | ((y == 0) & (x > 0)), 1, -1)


def count_below(sigma: SigmaFunction, left: BoundaryPolyPair, right: BoundaryPolyPair,
                lam) -> np.ndarray:
    """Number of eigenvalues below each real lambda of the problem on [0, X]
    with (y, y^{[1]})(0) = (p1, -p2) and r1 y^{[1]}(X) + r2 y(X) = 0.

    Pruefer-angle indexing with lambda-dependent boundary conditions: the
    sign changes of the left solution phi at the nodes (one per zero while
    every cell has |mu| h < pi), one more where the angle of (phi^{[1]}, phi)
    at X exceeds that of (r2, -r1) (pi for a Dirichlet end, r1 = 0), and
    lifts through the real roots of p1 and r1.  The angles are compared by
    a cross product in the upper half-plane, so none rounds from pi to 0.

    Both pairs must be Herglotz (`BoundaryPolyPair.herglotz`), as
    `index_search` checks: the lifts (`BoundaryPolyPair.roots_below`) count
    every root of p1 and r1 as real and moving the count up."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    mu2 = np.max(lam) - np.min(np.diff(sigma.samples.real)) / sigma.dx
    if mu2 * sigma.dx**2 >= np.pi**2:
        raise RootLoss(f"cells too coarse to count the oscillations at lambda = {np.max(lam):.6g}")
    lifts = left.roots_below(lam), right.roots_below(lam)
    y, yq = node_values(sigma, lam, left.p1(lam).real, -left.p2(lam).real)
    # the signs of p1 and r1 are read off the roots the lifts count, so that
    # a lambda within rounding of a root is on the same side for both
    start = left.p1_sign(lifts[0]) < 0
    # a zero at X, of either sign, ends a half-turn: it changes sign against
    # the node before it, and `_upper` turns its end vector to angle 0
    signs = np.signbit(y[1:])
    signs[-1] = np.where(y[-1] == 0, ~signs[-2], signs[-1])
    changes = np.count_nonzero(signs[1:] != signs[:-1], axis=0)
    r1, r2 = right.p1(lam).real, right.p2(lam).real
    turn = _upper(yq[-1], y[-1]) * -right.p1_sign(lifts[1]) * (y[-1] * r2 + yq[-1] * r1)
    return changes + (np.signbit(y[1]) != start) + (turn > 0) + lifts[0] + lifts[1]


def index_search(sigma: SigmaFunction, left: BoundaryPolyPair, right: BoundaryPolyPair,
                 count: int):
    """`find_eigenvalues`' index (count_below, ends) for the first `count`
    eigenvalues of `count_below`'s problem; None for complex sigma or a pair
    that is not Herglotz (its count can fall, and complex eigenvalues escape
    it; `problem_spectrum` then scans).
    The ends lie halfway between rho_k = (pi/X)(k + 1 - (p + r)/2), with
    r = 0 for a Dirichlet right end."""
    if not (sigma.is_real() and left.herglotz(-1.0) and right.herglotz(1.0)):
        return None
    r = right.p if np.any(right.a) else 0
    ends = (np.pi / sigma.interval_length) * (np.arange(count + 1) + 0.5 - 0.5 * (left.p + r))
    return (lambda lam: count_below(sigma, left, right, lam)), ends


# ----------------------------------------------------------------------------
# generalized Cauchy data extraction (forward oracle)
# ----------------------------------------------------------------------------

def _solve_family(design, rhs, transform):
    """Coefficients of the raw columns, condition number and relative residual
    of the fit over the unit-norm columns of `design @ transform`; a
    condition above 1e10 raises IllConditioned before `svd_solve`."""
    design = design @ transform
    norms = np.linalg.norm(design, axis=0)
    norms[norms == 0] = 1.0
    a = design / norms
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    cond = s[0] / s[-1] if s[-1] > 0 else np.inf
    if cond > 1e10:
        raise IllConditioned(f"extraction design matrix condition {cond:.3e}")
    x = svd_solve(u, s, vh, rhs)
    resid = np.linalg.norm(a @ x - rhs) / max(np.linalg.norm(rhs), 1e-300)
    return transform @ (x / norms), cond, resid


def resample_cauchy(data: CauchyData, grid_m: int) -> CauchyData:
    """Re-synthesize the kernels on another uniform grid (needs `series`)."""
    if data.series is None:
        raise ValueError("no series representation attached to this Cauchy data")
    t = np.linspace(0.0, np.pi, grid_m + 1)
    return CauchyData(j=synth_series(*data.series["j"], t), g=synth_series(*data.series["g"], t),
                      a=data.a.copy(), series=data.series, meta=data.meta)


# The extraction fit: monomial degrees below _EXTRACT_POLY per family (the
# cosine family starts at degree 1, its constant being a trig mode), and
# samples at rho = 1/2, 1, ..., n_modes + _EXTRACT_OVERSAMPLE.
_EXTRACT_POLY = 3
_EXTRACT_OVERSAMPLE = 10


def _fit_family(kind, n_modes, rho, rhs, const):
    """One family of the extraction fit: its kernel's series over the `kind`
    tags (trig modes, then monomials, these orthogonalized against the modes
    in function space), the coefficients of the `const` columns, the
    condition number and the relative residual."""
    tags = sorted(_tags_for(kind, n_modes, _EXTRACT_POLY), key=lambda tag: tag[0] == "poly")
    n_trig = sum(tag[0] != "poly" for tag in tags)
    against = "sin_over_rho" if kind == "sin" else "cos"
    design = np.concatenate([_component_columns(tags, rho, against), const], axis=1)
    gram = _gram_block(tags)
    transform = np.eye(design.shape[1])
    transform[:n_trig, n_trig:len(tags)] = -gram[:n_trig, n_trig:] / np.diag(gram)[:n_trig, None]
    x, cond, res = _solve_family(design, rhs, transform)
    return tags, x[:len(tags)], x[len(tags):], cond, res


def extract_cauchy(sigma: SigmaFunction, pair: BoundaryPolyPair,
                   n_modes: int = 64, grid_m: Optional[int] = None) -> CauchyData:
    """Extract {J, G, A1..Ap} from characteristic-function samples.

    Delta1 and Delta0 are the moment row's pattern at (f1, f2) = (1, 0) and
    (0, 1) (`slot_layout`).  Both are sampled at rho in {0.5, 1.0, 1.5, ...}
    (integer and half-integer points keep the trig columns well conditioned),
    and one least-squares fit per family (`_fit_family`) recovers its
    kernel's probe series plus its polynomial constants.  Kernels are
    synthesized on the sigma grid (or a `grid_m`-cell grid); `series` holds
    the probe series and `meta` the fit report.

    The monomial columns can leave a family's fit with condition number near
    1e7 (9.55e6 for the sine family of the golden step problem); it is
    reported in `meta["cond"]` (`fit.cond` in the CLI output).  Digits of the
    kernels beyond cond * eps of their size depend on the LAPACK build.
    """
    if abs(sigma.interval_length - np.pi) > 1e-12:
        raise ValueError("Cauchy-data extraction expects a problem on [0, pi]")
    validate_rp(pair)
    p = pair.p
    rho = 0.5 * np.arange(1, 2 * (n_modes + _EXTRACT_OVERSAMPLE) + 1)
    lam = rho.astype(complex) ** 2
    d0, d1 = char_pair(sigma, pair, lam)
    lay1 = slot_layout(p, lam, 1.0, 0.0)
    lay0 = slot_layout(p, lam, 0.0, 1.0)
    e1, e0 = lay1.free_terms(np.pi * sinc(rho * np.pi), np.cos(rho * np.pi))
    kind1, kind0 = lay1.kernels("sin", "cos")
    tags1, x1, a_odd, cond1, res1 = _fit_family(
        kind1, n_modes, rho, d1 / lay1.k1 - e1, lay1.slots[:, 0::2] / lay1.k1[:, None])
    tags0, x0, a_even, cond0, res0 = _fit_family(
        kind0, n_modes, rho, d0 / lay0.k2 - e0, lay0.slots[:, 1::2] / lay0.k2[:, None])

    t = sigma.nodes if grid_m is None else np.linspace(0.0, np.pi, grid_m + 1)
    a_vec = np.zeros(p, dtype=complex)
    a_vec[0::2] = a_odd
    a_vec[1::2] = a_even
    series = {"j": (tags1, x1), "g": (tags0, x0)}
    meta = {"cond": (cond1, cond0), "residual": (res1, res0),
            "n_modes": n_modes, "n_poly": _EXTRACT_POLY}
    return CauchyData(j=synth_series(tags1, x1, t), g=synth_series(tags0, x0, t), a=a_vec,
                      series=series, meta=meta)
