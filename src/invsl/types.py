"""Domain data model: potentials, boundary pairs, subspectra and Cauchy data.

`CauchyData` is the one element type of H = L2(0, pi) + L2(0, pi) + C^p,
with `hp_inner` its scalar product and `CauchyData.norm` its norm.
All types are immutable value objects; construction validates the invariants
that are cheap to check, while `validate_rp` performs the full boundary-pair
diagnostics (normalization and coprimality) beside the pair's Herglotz test,
which an eigenvalue index needs.  The JSON form of a complex
array ([re, im] pairs) and of an antiderivative lives here too, because an
entire pair carries it in its descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    CommonRoot,
    DimensionMismatch,
    DuplicateEigenvalue,
    NormalizationViolation,
)

MIN_GRID = 16
# The distance at which two eigenvalues count as one.
SIMPLE_TOL = 1e-8


def branch_sqrt(lam):
    """Square root with arg(rho) in [-pi/2, pi/2).

    Principal sqrt except on the negative real axis, where the branch with
    negative imaginary part is taken.
    """
    lam = np.asarray(lam, dtype=complex)
    z = np.sqrt(lam)
    flip = (z.real < 0) | ((z.real == 0) & (z.imag > 0))
    return np.where(flip, -z, z)


def encode_array(values) -> list:
    """Complex values, flattened, as the JSON form of a complex array: a list
    of [re, im] float pairs."""
    a = np.asarray(values, dtype=complex).ravel()
    return np.column_stack((a.real, a.imag)).tolist()


@dataclass(frozen=True, eq=False)
class SigmaFunction:
    """Antiderivative of the potential, sampled on a uniform grid over [0, X].

    The stored object *is* the piecewise-linear interpolant of the samples, so
    the potential q = sigma' is piecewise constant and the Cauchy problems can
    be propagated exactly cell by cell.

    Equality and hashing are by identity, as for every array-valued type of
    this module: two objects with equal samples are different objects, and
    each keeps its own memo of `ode`'s polynomial coefficients.
    """

    samples: np.ndarray
    interval_length: float

    def __post_init__(self):
        samples = np.array(self.samples, dtype=complex)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < MIN_GRID + 1:
            raise ValueError(f"need at least {MIN_GRID + 1} uniform samples, got {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("sigma samples must be finite")
        if not (self.interval_length > 0):
            raise ValueError("interval_length must be positive")

    @property
    def m(self) -> int:
        return self.samples.size - 1

    @property
    def dx(self) -> float:
        return self.interval_length / self.m

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.interval_length, self.m + 1)

    def is_real(self) -> bool:
        return not np.any(self.samples.imag)

    @classmethod
    def zero(cls, interval_length: float = np.pi, m: int = 128) -> "SigmaFunction":
        return cls(np.zeros(m + 1, dtype=complex), interval_length)

    @classmethod
    def from_callable(cls, fn: Callable, interval_length: float = np.pi, m: int = 128) -> "SigmaFunction":
        x = np.linspace(0.0, interval_length, m + 1)
        return cls(np.asarray(fn(x), dtype=complex) + np.zeros(m + 1, complex), interval_length)

    def halves(self):
        """Split sigma on [0, X] into halves on [0, X/2] (requires even grid)."""
        if self.m % 2:
            raise ValueError("halving requires an even number of cells")
        k = self.m // 2
        half = self.interval_length / 2
        return (SigmaFunction(self.samples[: k + 1].copy(), half),
                SigmaFunction(self.samples[k:].copy(), half))


def sigma_to_json(sigma: SigmaFunction) -> dict:
    return {"interval": float(sigma.interval_length), "samples": encode_array(sigma.samples)}


def _polyval(coeffs: np.ndarray, lam):
    """Evaluate sum coeffs[n] * lam^n (ascending order)."""
    lam = np.asarray(lam, dtype=complex)
    out = np.zeros_like(lam)
    for c in coeffs[::-1]:
        out = out * lam + c
    return out


@dataclass(frozen=True, eq=False)
class BoundaryPolyPair:
    """Coefficient pair (p1, p2), ascending order, stored in normalized shape.

    Odd p: len(a) == len(b) == N1+1 with a[-1] == 1 and p = 2*N1 + 1.
    Even p: len(b) == len(a) + 1 with b[-1] == 1 and p = 2*N2.
    Equality and hashing are by identity (see `SigmaFunction`).
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=complex))
        b = np.atleast_1d(np.asarray(self.b, dtype=complex))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.size == 0 or b.size == 0:
            raise ValueError("coefficient arrays must be nonempty")

    @property
    def parity(self) -> str:
        if self.a.size == self.b.size:
            return "odd"
        if self.b.size == self.a.size + 1:
            return "even"
        raise NormalizationViolation(
            f"coefficient lengths {self.a.size}/{self.b.size} do not match either parity branch"
        )

    @property
    def p(self) -> int:
        if self.parity == "odd":
            return 2 * (self.a.size - 1) + 1
        return 2 * (self.b.size - 1)

    def p1(self, lam):
        return _polyval(self.a, lam)

    def p2(self, lam):
        return _polyval(self.b, lam)

    def p1_roots(self) -> np.ndarray:
        return np.roots(self.a[::-1])

    def roots_below(self, lam):
        """Index lift of the boundary angle: the number of roots of p1 below lam.

        At a root of p1 the angle of (p1, -p2) (left end) or of (-p1, p2)
        (right end) crosses a multiple of pi, where its value mod pi jumps;
        the lift undoes the jump.  For a Herglotz pair (`herglotz`) p1 has
        only real, simple roots, and the angle moves the count up by one at
        each.
        """
        return np.searchsorted(np.sort(self.p1_roots().real), lam)

    def p1_sign(self, below):
        """The sign of p1 where `below` of its roots, all real, lie below
        lambda: that of its leading coefficient, times -1 per root above;
        0 where p1 = 0."""
        degree = np.flatnonzero(self.a)
        if degree.size == 0:
            return np.zeros(np.shape(below))
        return np.sign(self.a[degree[-1]].real) * (-1.0) ** (degree[-1] - np.asarray(below))

    def herglotz(self, sign: float) -> bool:
        """Whether the boundary angle never moves the eigenvalue count down.

        By the Hermite-Biehler theorem (B. Ja. Levin, Distribution of Zeros of
        Entire Functions, AMS 1964) that holds when the coefficients are real
        and every root of p2 + i sign p1 (sign -1 at the left end, +1 at the
        right) lies strictly in the upper half-plane; a constant pair has none.
        """
        if np.any(self.a.imag) or np.any(self.b.imag):
            return False
        coeffs = np.zeros(max(self.a.size, self.b.size), dtype=complex)
        coeffs[:self.b.size] += self.b.real
        coeffs[:self.a.size] += 1j * sign * self.a.real
        return bool(np.all(np.roots(coeffs[::-1]).imag > 0))


def validate_rp(pair: BoundaryPolyPair) -> None:
    """Check the normalization and coprimality of a boundary pair.

    Raises NormalizationViolation or CommonRoot on failure; never mutates the
    pair.  Whether the pair is Herglotz, which an index of the eigenvalues
    needs, is `BoundaryPolyPair.herglotz`.
    """
    parity = pair.parity  # raises NormalizationViolation for impossible shapes
    lead = pair.a[-1] if parity == "odd" else pair.b[-1]
    if abs(lead - 1.0) > 1e-12:
        raise NormalizationViolation(
            f"leading coefficient must be 1 for {parity} p={pair.p}, got {lead}"
        )
    if not np.any(pair.a):
        raise CommonRoot("p1 is identically zero")
    # |p2(root)| <= 1e-8 (1 + |root|^deg p2), both sides divided by
    # max(1, |root|)^deg: beyond the unit circle p2(root) / root^deg is the
    # reversed p2 at u = 1 / root, so that no power of a large root overflows
    roots = pair.p1_roots()
    b = pair.b[:max(np.flatnonzero(pair.b), default=0) + 1]
    big = np.abs(roots) > 1.0
    u = roots.copy()
    u[big] = 1.0 / u[big]
    vals = np.abs(np.where(big, _polyval(b[::-1], u), _polyval(b, u)))
    if np.any(vals <= 1e-8 * (1.0 + np.abs(u) ** (b.size - 1))):
        raise CommonRoot("p2 vanishes at a root of p1 "
                         f"(min |p2(root)| / max(1, |root|)^deg p2 = {vals.min():.3e})")


@dataclass(frozen=True)
class EntirePair:
    """Evaluable pair (f1, f2) of entire functions of lambda.

    `joint(lam)` gives (f1, f2) from one evaluation, and `right_end` the
    (sigma_right, right_pair) of the problem's right end: a known right half,
    or None and the pair itself for a polynomial right end (`of_pair`).
    """

    joint: Callable
    right_end: Optional[tuple] = None

    @property
    def descriptor(self) -> Optional[dict]:
        """The problem file's `f` object, derived from `right_end`: `constant`
        for a degree-0 pair, `hl_right_half` for a right half, else None."""
        half, pair = self.right_end or (None, None)
        if half is not None:
            return {"kind": "hl_right_half", "sigma": sigma_to_json(half),
                    "r1": encode_array(pair.a), "r2": encode_array(pair.b)}
        if pair is not None and pair.a.size == pair.b.size == 1:
            return {"kind": "constant",
                    "f1": encode_array(pair.a)[0], "f2": encode_array(pair.b)[0]}
        return None

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        return tuple(np.asarray(v, dtype=complex) + np.zeros_like(lam) for v in self.joint(lam))

    @classmethod
    def of_pair(cls, pair: BoundaryPolyPair) -> "EntirePair":
        """(p1, p2) of `pair`, the right end r1 y^[1](X) + r2 y(X) = 0."""
        return cls(joint=lambda lam: (pair.p1(lam), pair.p2(lam)), right_end=(None, pair))

    @classmethod
    def constant(cls, c1, c2) -> "EntirePair":
        return cls.of_pair(BoundaryPolyPair([complex(c1)], [complex(c2)]))


@dataclass(frozen=True)
class SubspectrumDiagnostics:
    simple: bool
    min_gap: float
    min_abs_lambda: float
    max_im_rho: float
    sum_inv_rho_sq: float


@dataclass(frozen=True, eq=False)
class Subspectrum:
    """Finite ordered list of distinct eigenvalues with derived rho values.

    A 2-D `lambdas` is a stack of subspectra of one length, one per row (the
    trials of `reconstruct.stability_experiment`): `len` counts every
    eigenvalue, and simplicity is judged within each row, so rows may repeat
    one another.

    `window` (the lambda window scanned where no index certifies the roots,
    None for indexed roots; `fallback` says which) and `dropped` (roots the
    scan's duplicate and residual screen removed) record the eigenvalue
    search; they are not serialized.  Equality and hashing are by identity
    (see `SigmaFunction`).
    """

    lambdas: np.ndarray
    window: Optional[tuple] = None
    dropped: int = 0

    def __post_init__(self):
        lam = np.atleast_1d(np.array(self.lambdas, dtype=complex))
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)

    @property
    def fallback(self) -> bool:
        return self.window is not None

    @property
    def rhos(self) -> np.ndarray:
        return branch_sqrt(self.lambdas)

    def __len__(self) -> int:
        return self.lambdas.size

    def drop_first(self, k: int) -> "Subspectrum":
        if k < 0:
            raise ValueError(f"cannot drop a negative count ({k}) of eigenvalues")
        return replace(self, lambdas=self.lambdas[k:].copy())

    def take(self, n: int) -> "Subspectrum":
        if n < 0:
            raise ValueError(f"cannot take a negative count ({n}) of eigenvalues")
        return replace(self, lambdas=self.lambdas[:n].copy())

    def diagnostics(self) -> SubspectrumDiagnostics:
        """The class flags of the eigenvalues, computed once per object and
        kept in its __dict__ (`lambdas` is read-only, so they cannot go
        stale)."""
        memo = vars(self)
        if "_diagnostics" in memo:
            return memo["_diagnostics"]
        lam = self.lambdas
        if lam.shape[-1] >= 2:
            diff = np.abs(lam[..., :, None] - lam[..., None, :])
            own = np.arange(lam.shape[-1])
            diff[..., own, own] = np.inf
            min_gap = float(diff.min())
        else:
            min_gap = np.inf
        rho = self.rhos
        nz = np.abs(rho) > 0
        memo["_diagnostics"] = SubspectrumDiagnostics(
            simple=bool(min_gap > SIMPLE_TOL),
            min_gap=min_gap,
            min_abs_lambda=float(np.abs(lam).min()) if lam.size else np.inf,
            max_im_rho=float(np.abs(rho.imag).max()) if lam.size else 0.0,
            sum_inv_rho_sq=float(np.sum(1.0 / np.abs(rho[nz]) ** 2)),
        )
        return memo["_diagnostics"]

    def require_simple(self) -> "Subspectrum":
        if not self.diagnostics().simple:
            raise DuplicateEigenvalue("subspectrum contains coinciding eigenvalues")
        return self


def _trapezoid(n: int) -> np.ndarray:
    """Trapezoid weights of the uniform n-point grid over [0, pi]."""
    w = np.full(n, np.pi / (n - 1))
    w[0] = w[-1] = 0.5 * np.pi / (n - 1)
    return w


def hp_inner(g: CauchyData, h: CauchyData) -> complex:
    """Scalar product of H = L2(0, pi) + L2(0, pi) + C^p, conjugate-linear in
    the first argument: trapezoid weights on the shared uniform grid over
    [0, pi] for the kernels, the plain sum for the constants.  Elements on
    different grids or with different p raise DimensionMismatch."""
    if g.j.size != h.j.size or g.p != h.p:
        raise DimensionMismatch(
            f"incompatible elements: grids {g.j.size}/{h.j.size}, p {g.p}/{h.p}"
        )
    integral = np.sum(g.weights() * (np.conj(g.j) * h.j + np.conj(g.g) * h.g))
    finite = np.sum(np.conj(g.a) * h.a)
    return complex(integral + finite)


@dataclass(frozen=True, eq=False)
class CauchyData:
    """An element [J, G, A] of H: Cauchy data, or a moment row v(., lambda).

    Two L2(0, pi) kernels j, g on a uniform grid over [0, pi] plus p complex
    constants a.  `series` holds the kernels' probe series (keys "j", "g"),
    each as the (family, coefficients) that `trig.synth_series` takes, the
    family a `moments.ProbeFamily`, and
    `meta` the report of the fit (`extract_cauchy`) or the reconstruction
    (`reconstruct`) that made them.  Equality and hashing are by identity
    (see `SigmaFunction`)."""

    j: np.ndarray
    g: np.ndarray
    a: np.ndarray
    series: Optional[dict] = None
    meta: Optional[dict] = None

    def __post_init__(self):
        j = np.atleast_1d(np.array(self.j, dtype=complex))
        g = np.atleast_1d(np.array(self.g, dtype=complex))
        a = np.atleast_1d(np.array(self.a, dtype=complex))
        if j.shape != g.shape:
            raise DimensionMismatch("kernels must share a grid")
        for arr in (j, g, a):
            arr.setflags(write=False)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "a", a)

    @property
    def p(self) -> int:
        return self.a.size

    def weights(self) -> np.ndarray:
        return _trapezoid(self.j.size)

    def norm(self) -> float:
        """The norm of H: sqrt(||j||^2 + ||g||^2 + |a|^2), kernels by `weights`."""
        kernels = np.sum(self.weights() * (np.abs(self.j) ** 2 + np.abs(self.g) ** 2))
        return float(np.sqrt(abs(kernels + np.sum(np.abs(self.a) ** 2))))
