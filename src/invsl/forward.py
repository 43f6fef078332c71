"""Characteristic functions, eigenvalue location, Weyl function, and the
forward extraction of generalized Cauchy data (the oracle for inverse tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import IllConditioned, PoleProximity, RootLoss
from .ode import endpoint_data
from .trig import overlap_cos_cos, overlap_sin_sin, poly_cos, poly_sin, sinc, synth_series
from .types import (
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


def make_delta(sigma: SigmaFunction, pair: BoundaryPolyPair, f: Optional[EntirePair] = None):
    """The characteristic function delta(lam) for root finding, as (delta, None).

    Without `f`, the pair's own Delta1 is used (poles of the Weyl function).
    The second slot is always None; it is kept because the benchmark's
    instrumentation (bench/spans.py) unpacks two closures from this call.
    """
    if f is None:
        def delta(lam):
            return char_pair(sigma, pair, lam)[1]
    else:
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

def refine_brackets(delta, a, b, fa, fb, iters=100):
    """Roots of a real delta in brackets [a, b] of lambda, all at once.

    delta(a) = fa and delta(b) = fb differ in sign (or one is zero).  Each
    step is an Illinois false-position step (Dowell and Jarratt, 1971): the
    secant point of the bracket ends, with the value at an end halved when
    the other end has moved twice in a row.  A step that leaves the bracket
    is replaced by its midpoint, and every value shrinks the bracket on its
    side of the root.  A root is done when the step or its bracket falls
    below 1e-14 (1 + |lambda|), or delta vanishes; delta is evaluated only
    at the roots still open.
    """
    a, b, fa, fb = (np.array(x, dtype=float) for x in (a, b, fa, fb))
    x = _false_position(a, b, fa, fb)
    f = np.zeros_like(x)
    side = np.zeros(x.shape, dtype=int)
    live = np.ones(x.shape, dtype=bool)
    for _ in range(iters):
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
    """Secant point of (a, fa) and (b, fb); the midpoint where fa = fb."""
    denom = fb - fa
    safe = denom != 0
    return np.where(safe, b - fb * (b - a) / np.where(safe, denom, 1.0), 0.5 * (a + b))


def winding_count(delta, rect, samples_per_edge=600, max_refine=6):
    """Zero count inside a rectangle via the winding number of delta.

    The boundary is sampled densely and refined until consecutive phase steps
    stay below pi/2, then the total phase increment is accumulated.
    """
    (re_lo, re_hi), (im_lo, im_hi) = rect
    corners = [re_lo + 1j * im_lo, re_hi + 1j * im_lo, re_hi + 1j * im_hi, re_lo + 1j * im_hi]
    n = samples_per_edge
    for attempt in range(max_refine):
        pts = []
        for i in range(4):
            z0, z1 = corners[i], corners[(i + 1) % 4]
            pts.append(z0 + (z1 - z0) * np.arange(n) / n)
        z = np.concatenate(pts)
        vals = np.asarray(delta(z))
        if np.any(vals == 0) or not np.all(np.isfinite(vals)):
            n *= 2
            continue
        ph = np.angle(vals)
        steps = np.diff(np.concatenate([ph, ph[:1]]))
        steps = (steps + np.pi) % (2 * np.pi) - np.pi
        if np.max(np.abs(steps)) < 0.5 * np.pi:
            total = steps.sum() / (2 * np.pi)
            return int(np.rint(total))
        n *= 2
    raise RootLoss("winding number did not stabilize on the contour")


def _complex_zeros(delta, rect, depth=0, max_depth=24, min_size=1e-9):
    count = winding_count(delta, rect)
    if count == 0:
        return []
    (re_lo, re_hi), (im_lo, im_hi) = rect
    width, height = re_hi - re_lo, im_hi - im_lo
    center = 0.5 * (re_lo + re_hi) + 0.5j * (im_lo + im_hi)
    if count == 1 and (max(width, height) < 0.05 or depth >= max_depth):
        return [_muller_polish(delta, center, 0.25 * max(width, height, min_size))]
    if max(width, height) < min_size or depth >= max_depth:
        return [center] * count
    # a split line may pass through a zero; retry with shifted fractions
    for frac in (0.5, 0.53, 0.47, 0.41, 0.61):
        if width >= height:
            mid = re_lo + frac * width
            rects = [((re_lo, mid), (im_lo, im_hi)), ((mid, re_hi), (im_lo, im_hi))]
        else:
            mid = im_lo + frac * height
            rects = [((re_lo, re_hi), (im_lo, mid)), ((re_lo, re_hi), (mid, im_hi))]
        try:
            out = []
            for r in rects:
                out.extend(_complex_zeros(delta, r, depth + 1, max_depth, min_size))
            return out
        except RootLoss:
            continue
    raise RootLoss("could not isolate zeros by rectangle subdivision")


def _muller_polish(delta, z0, h, iters=40):
    zs = [z0 - h, z0 + h, z0]
    fs = [complex(np.asarray(delta(np.array([z]))).ravel()[0]) for z in zs]
    for _ in range(iters):
        z0_, z1, z2 = zs[-3:]
        f0, f1, f2 = fs[-3:]
        q = (z2 - z1) / (z1 - z0_) if z1 != z0_ else 1.0
        a = q * f2 - q * (1 + q) * f1 + q * q * f0
        b = (2 * q + 1) * f2 - (1 + q) ** 2 * f1 + q * q * f0
        c = (1 + q) * f2
        disc = np.sqrt(b * b - 4 * a * c + 0j)
        den = b + disc if abs(b + disc) > abs(b - disc) else b - disc
        if den == 0:
            break
        z3 = z2 - (z2 - z1) * 2 * c / den
        zs.append(z3)
        fs.append(complex(np.asarray(delta(np.array([z3]))).ravel()[0]))
        if abs(zs[-1] - zs[-2]) < 1e-14 * (1 + abs(zs[-1])):
            break
    return zs[-1]


def find_eigenvalues(delta: Callable, window, count: Optional[int] = None,
                     imag_band: float = 0.0, scan_step: float = 0.02, simple_tol: float = 1e-8,
                     verify: bool = False, index: Optional[tuple] = None) -> Subspectrum:
    """Locate zeros of an entire characteristic function.

    With `index` = (count_below, ends) the zeros are the eigenvalues
    0..count-1: `count_below(lam)` gives the number of eigenvalues below each
    real lambda, and brackets from the ascending points `ends` of the
    signed-sqrt axis (lambda = sign(s) s^2) are certified to hold one index
    each (see `_index_brackets`).  Otherwise `window` is a real interval for
    Re(lambda): for `imag_band == 0` a dense scan of the signed-sqrt axis
    (step `scan_step`) locates sign changes of the real-valued delta, and for
    a positive band rectangles are subdivided by the argument principle.
    The scan also stands in, with `fallback` set on the result, where the
    count of `index` is not monotone.  Real brackets of either source go
    through `refine_brackets` (Illinois false position), and the rectangles'
    isolated zeros are polished by Muller's method.  Duplicates and roots with a large residual are dropped and
    counted (`dropped`); with an index, any drop raises RootLoss.  With
    `verify`, the winding count over the whole window is compared against
    the number of roots the scan or the rectangles found (RootLoss on
    mismatch).
    """
    brackets = None if index is None else _index_brackets(*index, count)
    lam_lo, lam_hi = float(window[0]), float(window[1])
    if brackets is not None:
        lo, hi = (np.sign(s) * s * s for s in brackets)
        pts, where = np.unique(np.concatenate((lo, hi)), return_inverse=True)
        vals = np.real(np.asarray(delta(pts)))[where]
        f_lo, f_hi = vals[:count], vals[count:]
        same = f_lo * f_hi > 0
        if np.any(same):
            raise RootLoss(f"delta keeps its sign across the count bracket of eigenvalue(s) "
                           f"{np.nonzero(same)[0].tolist()}")
        lam = refine_brackets(delta, lo, hi, f_lo, f_hi)
    elif imag_band > 0:
        rect = ((lam_lo, lam_hi), (-imag_band, imag_band))
        roots = _complex_zeros(delta, rect)
        roots.sort(key=lambda z: (z.real, z.imag))
        lam = np.array(roots, dtype=complex)
    else:
        s_lo = np.sign(lam_lo) * np.sqrt(abs(lam_lo))
        s_hi = np.sign(lam_hi) * np.sqrt(abs(lam_hi))
        n_pts = int(np.ceil((s_hi - s_lo) / scan_step)) + 1
        s = np.linspace(s_lo, s_hi, n_pts)
        lam_scan = np.sign(s) * s * s
        vals = np.asarray(delta(lam_scan))
        if np.max(np.abs(vals.imag)) > 1e-8 * np.max(np.abs(vals)):
            raise ValueError("delta is not real on the real axis; use imag_band > 0")
        fv = vals.real
        idx = np.nonzero(np.signbit(fv[:-1]) != np.signbit(fv[1:]))[0]
        lam = np.sort(refine_brackets(delta, lam_scan[idx], lam_scan[idx + 1],
                                      fv[idx], fv[idx + 1]))
    lam, dropped = _screen(delta, lam, simple_tol, indexed=brackets is not None)

    if verify and brackets is None:
        band = imag_band if imag_band > 0 else 1.0
        total = winding_count(lambda z: np.asarray(delta(z)),
                              ((lam_lo, lam_hi), (-band, band)))
        if total != lam.size:
            raise RootLoss(f"argument principle counts {total} zeros, refined {lam.size}")

    if count is not None:
        lam = lam[:count]
    return Subspectrum(lam, fallback=index is not None and brackets is None, dropped=dropped)


def _screen(delta, lam, simple_tol, indexed=False):
    """Sorted roots without duplicates (within `simple_tol`) and without
    roots whose residual is large against the local scale of delta.

    Returns the kept roots and the number dropped.  With `indexed` every
    root stands for one eigenvalue index, and any drop raises RootLoss.
    """
    if lam.size == 0:
        return lam, 0
    keep = [0]
    for i in range(1, lam.size):
        if abs(lam[i] - lam[keep[-1]]) > simple_tol:
            keep.append(i)
    kept = lam[keep]
    vals = np.abs(np.asarray(delta(kept)))
    near = np.abs(np.asarray(delta(kept + 0.1)))
    kept = kept[vals <= 1e-6 * np.maximum(near, 1.0)]
    dropped = lam.size - kept.size
    if indexed and dropped:
        raise RootLoss(f"{dropped} of {lam.size} indexed roots failed the duplicate or "
                       "residual screen, so the eigenvalue indices would change")
    return kept, dropped


def _index_brackets(count_below: Callable, ends, n_roots: int):
    """Brackets on the signed-sqrt axis that hold eigenvalue k alone, k < n_roots.

    `count_below(lam)` gives the number of eigenvalues below each real
    lambda; `ends` are ascending points s of the signed-sqrt axis (lambda =
    sign(s) s^2).  The count is taken at all ends in one batch, the ends are
    extended outwards until they enclose indices 0..n_roots-1, and a bracket
    that does not hold exactly one eigenvalue is bisected on the count.
    Returns (lo, hi) arrays of s, or None when the count is not monotone
    (then it counts no eigenvalues).
    """
    def count(s):
        return np.asarray(count_below(np.sign(s) * s * s))

    s = np.asarray(ends, dtype=float)
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
        return None
    k = np.arange(n_roots)
    lo_at = np.searchsorted(c, k, side="right") - 1
    hi_at = np.searchsorted(c, k + 1, side="left")
    lo, hi, c_lo, c_hi = s[lo_at], s[hi_at], c[lo_at], c[hi_at]
    for _ in range(60):
        wide = np.nonzero((c_lo != k) | (c_hi != k + 1))[0]
        if wide.size == 0:
            return lo, hi
        mid = 0.5 * (lo[wide] + hi[wide])
        points, where = np.unique(mid, return_inverse=True)
        c_mid = count(points)[where]
        if np.any(c_mid < c_lo[wide]) or np.any(c_mid > c_hi[wide]):
            return None
        up = c_mid <= k[wide]
        lo[wide[up]], c_lo[wide[up]] = mid[up], c_mid[up]
        hi[wide[~up]], c_hi[wide[~up]] = mid[~up], c_mid[~up]
    raise RootLoss("bisection on the eigenvalue count did not isolate every index")


# ----------------------------------------------------------------------------
# generalized Cauchy data extraction (forward oracle)
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class _Family:
    """One least-squares family: trig modes + monomials + shared constants."""

    kind: str              # "sin" or "cos"
    n_modes: int
    poly_degrees: tuple
    n_const: int


def _design_columns(fam: _Family, rho, lam, const_powers):
    """Raw columns plus a transform that orthogonalizes the monomial block
    against the trigonometric block in function space (the monomials are
    nearly trig-representable, which would otherwise sink the conditioning).

    The orthogonalization does not make the fit well conditioned: the trig
    columns alone have condition near 10, but the monomial block can still
    leave the sine-family design near 1e7 (9.55e6 for the golden step
    problem).  `_solve_family` reports the value, which reaches the output
    as `meta["cond"]` / `fit.cond`.
    """
    cols = []
    names = []
    n_trig = fam.n_modes
    n_par = len(fam.poly_degrees)
    if fam.kind == "sin":
        for j in range(1, fam.n_modes + 1):
            cols.append(overlap_sin_sin(j, rho) / rho)
            names.append(("sin", j))
        for m in fam.poly_degrees:
            cols.append(poly_sin(m, rho) / rho)
            names.append(("poly", m))
    else:
        for j in range(fam.n_modes):
            cols.append(overlap_cos_cos(j, rho))
            names.append(("cos", j))
        for m in fam.poly_degrees:
            cols.append(poly_cos(m, rho))
            names.append(("poly", m))
    for pw in const_powers:
        cols.append(lam ** pw)
        names.append(("const", pw))
    design = np.stack(cols, axis=1)

    n_total = design.shape[1]
    transform = np.eye(n_total)
    if n_par:
        proj = np.zeros((n_trig, n_par))
        for col, m in enumerate(fam.poly_degrees):
            if fam.kind == "sin":
                for row, j in enumerate(range(1, n_trig + 1)):
                    inner = float(np.real(poly_sin(m, np.array([j + 0j]))[0]))
                    proj[row, col] = inner / (0.5 * np.pi)
            else:
                for row, j in enumerate(range(n_trig)):
                    inner = float(np.real(poly_cos(m, np.array([j + 0j]))[0]))
                    proj[row, col] = inner / (np.pi if j == 0 else 0.5 * np.pi)
        transform[:n_trig, n_trig:n_trig + n_par] = -proj
    return design, names, transform


def _solve_family(design, rhs, transform=None, cond_limit=1e10):
    if transform is not None:
        design = design @ transform
    norms = np.linalg.norm(design, axis=0)
    norms[norms == 0] = 1.0
    a = design / norms
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    cond = s[0] / s[-1] if s[-1] > 0 else np.inf
    if cond > cond_limit:
        raise IllConditioned(f"extraction design matrix condition {cond:.3e}")
    x = vh.conj().T @ ((u.conj().T @ rhs) / s)
    resid = np.linalg.norm(a @ x - rhs) / max(np.linalg.norm(rhs), 1e-300)
    x = x / norms
    if transform is not None:
        x = transform @ x
    return x, cond, resid


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


def extract_cauchy(sigma: SigmaFunction, pair: BoundaryPolyPair,
                   n_modes: int = 64, grid_m: Optional[int] = None) -> CauchyData:
    """Extract {J, G, A1..Ap} from characteristic-function samples.

    Delta0 and Delta1 are sampled at rho in {0.5, 1.0, 1.5, ...} (both integer
    and half-integer points, which keeps the trigonometric columns of each
    family well conditioned), and one linear least-squares fit per family
    recovers the kernel coefficients plus the polynomial constants.  Kernels
    are synthesized on the sigma grid (or a `grid_m`-cell grid); the fit report
    lands in `meta`.

    The monomial columns can leave a family's fit with condition number near
    1e7 (9.55e6 for the sine family of the golden step problem); it is
    reported in `meta["cond"]` (`fit.cond` in the CLI output).  Digits of the
    kernels beyond cond * eps of their size depend on the LAPACK build.
    """
    if abs(sigma.interval_length - np.pi) > 1e-12:
        raise ValueError("Cauchy-data extraction expects a problem on [0, pi]")
    diag = validate_rp(pair)
    rho = 0.5 * np.arange(1, 2 * (n_modes + _EXTRACT_OVERSAMPLE) + 1)
    lam = rho.astype(complex) ** 2
    d0, d1 = char_pair(sigma, pair, lam)

    t = sigma.nodes if grid_m is None else np.linspace(0.0, np.pi, grid_m + 1)
    if diag.parity == "odd":
        n1 = pair.n1
        # Delta1 family: sine kernel plus odd-indexed constants
        rhs1 = d1 / lam ** (n1 + 1) + np.pi * sinc(rho * np.pi) / 1.0
        fam1 = _Family("sin", n_modes, tuple(range(0, _EXTRACT_POLY)), n1 + 1)
        pw1 = [n - (n1 + 1) for n in range(0, n1 + 1)]
        # Delta0 family: cosine kernel plus even-indexed constants
        rhs0 = d0 / lam ** n1 - np.cos(rho * np.pi)
        fam0 = _Family("cos", n_modes, tuple(range(1, _EXTRACT_POLY)), n1)
        pw0 = [n - n1 for n in range(0, n1)]
    else:
        n2 = pair.n2
        rhs1 = d1 / lam ** n2 + np.cos(rho * np.pi)
        fam1 = _Family("cos", n_modes, tuple(range(1, _EXTRACT_POLY)), n2)
        pw1 = [n - n2 for n in range(0, n2)]
        rhs0 = d0 / lam ** n2 + np.pi * sinc(rho * np.pi)
        fam0 = _Family("sin", n_modes, tuple(range(0, _EXTRACT_POLY)), n2)
        pw0 = [n - n2 for n in range(0, n2)]

    a1, names1, t1 = _design_columns(fam1, rho, lam, pw1)
    x1, cond1, res1 = _solve_family(a1, rhs1, t1)
    a0, names0, t0 = _design_columns(fam0, rho, lam, pw0)
    x0, cond0, res0 = _solve_family(a0, rhs0, t0)

    nk1 = len(names1) - len(pw1)
    nk0 = len(names0) - len(pw0)
    j_kernel = synth_series(names1[:nk1], x1[:nk1], t)
    g_kernel = synth_series(names0[:nk0], x0[:nk0], t)
    a_odd = x1[nk1:]
    a_even = x0[nk0:]
    p = pair.p
    a_vec = np.zeros(p, dtype=complex)
    a_vec[0::2] = a_odd
    a_vec[1::2] = a_even

    series = {
        "parity": diag.parity,
        "j": list(zip([n for n in names1[:nk1]], x1[:nk1].tolist())),
        "g": list(zip([n for n in names0[:nk0]], x0[:nk0].tolist())),
    }
    meta = {"cond": (cond1, cond0), "residual": (res1, res0),
            "n_modes": n_modes, "n_poly": _EXTRACT_POLY}
    return CauchyData(j=j_kernel, g=g_kernel, a=a_vec, series=series, meta=meta)
