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
    step is an Illinois false-position step (Dowell and Jarratt, 1971): the
    secant point of the bracket ends, with the value at an end halved when
    the other end has moved twice in a row.  A step that leaves the bracket,
    or whose end values lie more than 16 orders of magnitude apart (its
    secant point would round onto an end, which then never moves), is
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
        fb = np.where(low & (side == -1), 0.5 * fb, fb)
        fa = np.where(high & (side == 1), 0.5 * fa, fa)
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
                     verify: bool = False, index: Optional[tuple] = None) -> Subspectrum:
    """Locate zeros of an entire characteristic function, real on the real axis.

    With `index` from `index_search` they are the eigenvalues 0..count-1,
    each in a bracket that `_index_brackets` certifies to hold its index
    alone and across which delta changes sign.  Otherwise a real `window` is
    scanned on the signed-sqrt axis (lambda = sign(s) s^2, step `_SCAN_STEP`)
    for sign changes (a delta that is not real there raises ValueError).
    Illinois false position (`refine_brackets`) refines the brackets.  The
    window's roots pass `_screen` (drops counted in `dropped`) and record the
    `window`; `verify` checks their number against the window's winding
    count.  Fewer than `count` roots raise RootLoss.  A scan sees real zeros
    only: without `verify`, the complex zeros of a delta whose pair is not
    Herglotz go unreported.  `problem_spectrum` picks either for a problem,
    or `circle_zeros` for a complex one.
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
    if verify:
        total = winding_count(delta, ((lam_lo, lam_hi), (-1.0, 1.0)))
        if total != lam.size:
            raise RootLoss(f"argument principle counts {total} zeros, refined {lam.size}")
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
    a cross product in the upper half-plane, so none rounds from pi to 0."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    mu2 = np.max(lam) - np.min(np.diff(sigma.samples.real)) / sigma.dx
    if mu2 * sigma.dx**2 >= np.pi**2:
        raise RootLoss(f"cells too coarse to count the oscillations at lambda = {np.max(lam):.6g}")
    y, yq = node_values(sigma, lam, left.p1(lam).real, -left.p2(lam).real)
    changes = np.count_nonzero(np.signbit(y[1:]) != np.signbit(y[:-1]), axis=0)
    r1, r2 = right.p1(lam).real, right.p2(lam).real
    turn = _upper(yq[-1], y[-1]) * _upper(r2, -r1) * (y[-1] * r2 + yq[-1] * r1)
    end = (turn > 0) & bool(np.any(right.a))
    return changes + end + _root_lifts(left, lam, -1.0) + _root_lifts(right, lam, 1.0)


def index_search(sigma: SigmaFunction, left: BoundaryPolyPair, right: BoundaryPolyPair,
                 count: int):
    """`find_eigenvalues`' index (count_below, ends) for the first `count`
    eigenvalues of `count_below`'s problem; None for complex sigma or a pair
    that is not Herglotz (its count can fall; `problem_spectrum` then scans).
    The ends lie halfway between rho_k = (pi/X)(k + 1 - (p + r)/2), with
    r = 0 for a Dirichlet right end."""
    if not (sigma.is_real() and _herglotz(left, -1.0) and _herglotz(right, 1.0)):
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
    j = synth_series([tag for tag, _ in data.series["j"]],
                     np.array([c for _, c in data.series["j"]]), t)
    g = synth_series([tag for tag, _ in data.series["g"]],
                     np.array([c for _, c in data.series["g"]]), t)
    return CauchyData(j=j, g=g, a=data.a.copy(), series=data.series, meta=data.meta)


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
    series = {"j": list(zip(tags1, x1.tolist())), "g": list(zip(tags0, x0.tolist()))}
    meta = {"cond": (cond1, cond0), "residual": (res1, res0),
            "n_modes": n_modes, "n_poly": _EXTRACT_POLY}
    return CauchyData(j=synth_series(tags1, x1, t), g=synth_series(tags0, x0, t), a=a_vec,
                      series=series, meta=meta)
