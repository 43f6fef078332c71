"""The trig-plus-monomial representation that the Cauchy-data fit in
`forward` and the probe-space solve in `reconstruct` share, and the moment
system built on it.

`slot_layout` is the one place that knows how the boundary degree p arranges
the moment row v(t, lambda).  A `ProbeFamily` (`probe_family`) holds the
probe functions of one kernel component, monomials then modes, with their
closed-form columns (`_component_columns`, from the per-row values of
`trig_rows`) and the Gram matrix read from those columns (`_gram_block`);
`svd_solve` is the one least-squares step, also over a stack of systems:
the singular values for the rank decision and the report, Householder QR
where nothing is truncated, the singular vectors where something is or where
the solve is damped, and the residual; a real system is solved in float64.
`build_moment_system` lays the rows of a subspectrum out once and keeps the
layout; the targets w (`build_w`) and the row norms (`row_norm_exact`) are
read from it.  Also here: one row v(., lambda) on a grid as an element of H
(`build_v`, the grid-quadrature oracle of the closed-form rows) and
Riesz-basis condition estimates for sine families.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParityMismatch
from .trig import exact_real, gauss_nodes, overlap, poly_poly, poly_trig, sinc
from .types import CauchyData, EntirePair, Subspectrum, branch_sqrt

# Singular values at or below this fraction of the largest are truncated.
_RANK_TOL = 1e-12


class SlotLayout(NamedTuple):
    """Odd/even layout of v(., lambda) at an array of lambda (see `slot_layout`).

    `k1` and `k2` weight the H1 and H2 kernels; `h1_sin` says H1 pairs with
    sin(rho t)/rho and H2 with cos(rho t) (odd p) rather than the reverse
    (even p); `slots` holds the p scalar slots along its last axis.
    """

    k1: np.ndarray
    k2: np.ndarray
    h1_sin: bool
    slots: np.ndarray

    def kernels(self, sin_like, cos_like):
        """(H1 item, H2 item) from the sin(rho t)/rho- and cos(rho t)-type items."""
        return (sin_like, cos_like) if self.h1_sin else (cos_like, sin_like)

    def free_terms(self, sin_pi, cos_pi):
        """Free terms (e1, e0) of the Cauchy representation at pi.

        Delta1 = lambda^(n + p % 2) (e1 + (J, K1)) + ... and
        Delta0 = lambda^n (e0 + (G, K2)) + ..., where e1 = -K1(pi) and e0 is
        cos(rho pi) for odd p, -sin(rho pi)/rho for even p.  The moment
        target is w = -(k1 e1 + k2 e0).
        """
        return (-sin_pi, cos_pi) if self.h1_sin else (-cos_pi, -sin_pi)


def slot_layout(p: int, lam=0.0, f1=1.0, f2=1.0) -> SlotLayout:
    """Decide the odd/even layout of the moment row, vectorized over lambda.

    With n = p // 2 the kernel weights are k1 = f1 lambda^(n + p % 2) and
    k2 = f2 lambda^n, and the slots are f1, f2, f1 lambda, f2 lambda, ...
    (p of them, f1 on even indices):

    Odd p:  [k1 sin(rho t)/rho, k2 cos(rho t), f1, f2, ..., f1 lambda^n].
    Even p: [k1 cos(rho t), k2 sin(rho t)/rho, f1, f2, ..., f2 lambda^(n-1)].

    All entries are even functions of rho, so they are entire in lambda.
    """
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise ParityMismatch(f"boundary degree p must be a positive integer, got {p!r}")
    n, odd = divmod(p, 2)
    lam = np.asarray(lam, dtype=complex)
    f1 = np.asarray(f1, dtype=complex)
    f2 = np.asarray(f2, dtype=complex)
    slots = np.stack([(f2 if i % 2 else f1) * lam ** (i // 2) for i in range(p)], axis=-1)
    return SlotLayout(k1=f1 * lam ** (n + odd), k2=f2 * lam**n, h1_sin=bool(odd), slots=slots)


@dataclass(frozen=True, eq=False)
class ProbeFamily:
    """The probe functions of one kernel component over [0, pi], in column
    order: t^m over the monomial `degrees`, then sin(mu t) (kind "sin") or
    cos(mu t) (kind "cos") over the frequencies `mu`.  `coefs` (2, modes)
    holds the modes' factors of their columns' rank-2 numerator
    (`_component_columns`), `col_of[2 h]` the mode column of mu = h, or -1.
    Built once per shape by `probe_family`; its arrays are read-only, and
    equality and hashing are by identity (see `types.SigmaFunction`).
    """

    kind: str
    degrees: tuple
    mu: np.ndarray
    coefs: np.ndarray
    col_of: np.ndarray

    def __len__(self) -> int:
        return len(self.degrees) + self.mu.size


_QUARTER_SIN = np.array([0.0, 1.0, 0.0, -1.0])     # sin(k pi/2) at k mod 4


@functools.lru_cache(maxsize=256)
def probe_family(kind: str, n_modes: int, n_poly: int, freq_step: float) -> ProbeFamily:
    """The sine family (degrees from 0, as constants are not in the sine span;
    mu = freq_step j for j = 1 .. n_modes) or the cosine family (degrees
    from 1, as mu = 0 is the constant; j = 0 .. n_modes - 1), degrees below
    n_poly.  Cached per argument tuple: pass all four positionally."""
    sin_form = kind == "sin"
    mu = freq_step * np.arange(int(sin_form), n_modes + int(sin_form), dtype=float)
    two_mu = np.rint(2.0 * mu).astype(np.int64)
    sin_mu, cos_mu = _QUARTER_SIN[two_mu % 4], _QUARTER_SIN[(two_mu + 1) % 4]
    # sine: (rho sin mu pi cos rho pi - mu cos mu pi sin rho pi) / rho,
    # cosine: mu sin mu pi cos rho pi - rho cos mu pi sin rho pi
    coefs = np.stack([sin_mu, -mu * cos_mu] if sin_form else [mu * sin_mu, -cos_mu]).astype(complex)
    col_of = np.full(two_mu.max(initial=-1) + 2, -1)
    col_of[two_mu] = np.arange(mu.size)
    for a in (mu, coefs, col_of):
        a.setflags(write=False)
    return ProbeFamily(kind=kind, degrees=tuple(range(1 - int(sin_form), n_poly)),
                       mu=mu, coefs=coefs, col_of=col_of)


def _gram_block(family: ProbeFamily) -> np.ndarray:
    """Gram matrix over [0, pi] of one probe family.

    The rows of the modes are the family's own columns (`_component_columns`)
    at its frequencies mu, times mu for the sine family; the monomial pairs
    come from `poly_poly`.  The lower triangle is mirrored into the upper
    one, so the matrix is exactly symmetric.
    """
    n_poly, mu = len(family.degrees), family.mu
    degs = np.array(family.degrees, dtype=int)
    trig = _component_columns(family, trig_rows(mu)).real
    g = np.empty((len(family), len(family)))
    g[n_poly:] = trig * mu[:, None] if family.kind == "sin" else trig
    g[:n_poly, :n_poly] = poly_poly(degs[:, None], degs[None, :])
    g[:n_poly, n_poly:] = g[n_poly:, :n_poly].T
    upper = np.triu_indices(len(family), 1)
    g[upper] = g.T[upper]
    return g


class TrigRows(NamedTuple):
    """Per-row values of the probe columns at an array of rho (`trig_rows`),
    shared by every column block of one design."""

    rho: np.ndarray        # rho, with Re rho >= 0
    two_h: np.ndarray      # 2 h, h the half-integer nearest to rho
    d: np.ndarray          # rho - h, |Re d| <= 1/4
    sin_pi: np.ndarray     # sin(rho pi)
    cos_pi: np.ndarray     # cos(rho pi)


def trig_rows(rho) -> TrigRows:
    """sin(rho pi) and cos(rho pi) from one sin(pi d) and cos(pi d) per row.

    Every probe column is even in rho, so rho is taken with Re rho >= 0 and
    written h + d, h its nearest half-integer: sin(rho pi) and cos(rho pi)
    are then +-sin(pi d) and +-cos(pi d), with no rounding of their own,
    which keeps their relative accuracy near a mode.
    """
    rho = np.asarray(rho, dtype=complex).reshape(-1)
    rho = np.where(rho.real < 0, -rho, rho)
    two_h = np.rint(2.0 * rho.real).astype(np.int64)
    d = rho - 0.5 * two_h
    quarter = np.stack([np.sin(np.pi * d), np.cos(np.pi * d)])
    quarter = np.concatenate([quarter, -quarter])      # sin, cos, -sin, -cos of pi d
    rows = np.arange(rho.size)
    return TrigRows(rho, two_h, d, quarter[two_h % 4, rows], quarter[(two_h + 1) % 4, rows])


def _component_columns(family: ProbeFamily, rows: TrigRows):
    """(phi_i, component) integrals of a probe family against its own kernel,
    sin(rho t)/rho for the sine family and cos(rho t) for the cosine one, one
    row per rho of `rows` (`trig_rows`) and one column per probe function.

    Every probe frequency mu is a multiple of 1/2, so sin(mu pi) and
    cos(mu pi) are 0 or +-1, and the mode columns are a rank-2 numerator over
    (mu - rho)(mu + rho) from the rows' sin(rho pi) and cos(rho pi):

        int_0^pi sin(mu t) sin(rho t) dt = (rho sin mu pi cos rho pi - mu cos mu pi sin rho pi) / (mu^2 - rho^2),
        int_0^pi cos(mu t) cos(rho t) dt = (mu sin mu pi cos rho pi - rho cos mu pi sin rho pi) / (mu^2 - rho^2).

    The column mu = h of a row rho = h + d (`trig_rows`), whose numerator
    and denominator both vanish with d, takes its limit form pi sinc(pi d)
    times mu/(mu + rho) (sine, integer mu; cosine, half-odd mu) or
    rho/(mu + rho) (the other two), which is exact at rho = mu and at
    rho = mu = 0.  The monomial columns come from one recurrence over the
    same sin(rho pi) and cos(rho pi) (`trig.poly_trig`), or its power series
    where |rho| pi < 0.5.
    """
    rho, two_h, d, sin_r, cos_r = rows
    sin_form = family.kind == "sin"
    if sin_form and np.any(np.abs(rho) < 1e-8):
        raise ValueError("moment rows require nonzero rho")
    n_poly = len(family.degrees)
    # built column by row, so that every elementwise pass runs along the rows
    cols = np.empty((len(family), rho.size), dtype=complex)
    factors = np.stack([cos_r, sin_r / rho if sin_form else rho * sin_r])
    # mu^2 - rho^2 by parts, so that a real or an imaginary rho gives a real
    # denominator and the real part keeps its accuracy near rho = mu
    mu, re, im = family.mu[:, None], rho.real, rho.imag
    den = np.empty((mu.size, rho.size), dtype=complex)
    den_re = den.real
    np.subtract(mu, re, out=den_re)
    den_re *= mu + re
    den_re += im * im
    den.imag = -2.0 * re * im
    col = family.col_of[np.minimum(two_h, family.col_of.size - 1)]
    hit = np.flatnonzero(col >= 0)           # rows with a column mu = h
    den[col[hit], hit] = 1.0
    trig = cols[n_poly:]
    np.matmul(family.coefs.T, factors, out=trig)
    trig /= den
    h, r = 0.5 * two_h[hit], rho[hit]
    odd = two_h[hit] % 2 == 1
    mu_share = np.divide(h, h + r, out=np.zeros_like(r), where=h != 0)
    if sin_form:
        limit = np.where(odd, 1.0 / (h + r), mu_share / r)
    else:
        limit = np.where(odd, mu_share, 1.0 - mu_share)
    trig[col[hit], hit] = np.pi * sinc(np.pi * d[hit]) * limit

    if n_poly:
        mono = poly_trig(family.degrees, rho, int(sin_form), sin_r, cos_r)
        cols[:n_poly] = mono / rho if sin_form else mono
    return cols.T


def svd_solve(design, rhs, reg: float = 0.0):
    """Least-squares solution x of design @ x = rhs, with the design's
    singular values and the residual norm ||design x - rhs||.

    The singular values alone decide the method.  With `reg` 0, at least as
    many rows as columns and no singular value at or below `_RANK_TOL` times
    the largest, the solution is unique: Householder QR of [design | rhs]
    gives R and Q^H rhs, and one triangular solve gives x.  Else the singular
    vectors are formed, with gains s/(s^2 + reg) for a positive `reg`
    (Tikhonov damping), else 1/s with the small singular values dropped (the
    minimum-norm solution).  A stack of systems (leading axes on both
    arguments) takes QR only when every system would, and each system is
    truncated against its own largest singular value.  A design or rhs that
    `exact_real` finds real is taken in float64.
    """
    if not (np.isfinite(reg) and reg >= 0):
        raise ValueError(f"reg must be finite and >= 0, got {reg!r}")
    design, rhs = exact_real(design), exact_real(rhs)
    rows, cols = design.shape[-2:]

    def kept(s):
        return s > _RANK_TOL * s.max(axis=-1, keepdims=True, initial=0.0)

    s = np.linalg.svd(design, compute_uv=False)
    if reg == 0 and rows >= cols and np.all(kept(s)):
        r = np.linalg.qr(np.concatenate([design, rhs[..., None]], axis=-1), mode="r")
        x = np.linalg.solve(r[..., :cols, :cols], r[..., :cols, cols:])[..., 0]
    else:
        u, s, vh = np.linalg.svd(design, full_matrices=False)
        if reg > 0:
            gains = s / (s**2 + reg)
        else:
            gains = np.where(kept(s), 1.0 / np.maximum(s, 1e-300), 0.0)
        coef = (np.swapaxes(u, -1, -2).conj() @ rhs[..., None])[..., 0]
        x = (np.swapaxes(vh, -1, -2).conj() @ (gains * coef)[..., None])[..., 0]
    return x, s, np.linalg.norm((design @ x[..., None])[..., 0] - rhs, axis=-1)


def build_v(lam, f: EntirePair, p: int, grid: int) -> CauchyData:
    """Moment row v(., lambda) as an element of H on the uniform grid of `grid`
    cells over [0, pi], laid out by `slot_layout`."""
    lam = complex(lam)
    (f1,), (f2,) = f(np.array([lam]))
    layout = slot_layout(p, lam, f1, f2)
    rho = branch_sqrt(lam)
    t = np.linspace(0.0, np.pi, grid + 1)
    j, g = layout.kernels(t * sinc(rho * t), np.cos(rho * t))
    return CauchyData(layout.k1 * j, layout.k2 * g, layout.slots)


def build_w(rho, layout: SlotLayout):
    """Right-hand side w(lambda) of the moment relation at lambda = rho^2,
    elementwise over `layout` (the rows' `slot_layout`)."""
    e1, e0 = layout.free_terms(np.pi * sinc(rho * np.pi), np.cos(rho * np.pi))
    w = -(layout.k1 * e1 + layout.k2 * e0)
    return complex(w) if w.ndim == 0 else w


def row_norm_exact(rho, layout: SlotLayout):
    """Continuum norm of v(., lambda) at lambda = rho^2 from closed-form trig
    integrals, elementwise over `layout` (the rows' `slot_layout`)."""
    tiny = np.abs(rho) <= 1e-6
    safe = np.where(tiny, 1.0, rho)
    int_sin = np.where(tiny, np.pi**3 / 3.0,
                       (overlap(safe, np.conj(safe), -1) / (safe * np.conj(safe))).real)
    int_cos = np.where(tiny, np.pi, overlap(safe, np.conj(safe), 1).real)
    int1, int2 = layout.kernels(int_sin, int_cos)
    total = (np.abs(layout.k1) ** 2 * int1 + np.abs(layout.k2) ** 2 * int2
             + np.sum(np.abs(layout.slots) ** 2, axis=-1))
    norm = np.sqrt(total)
    return float(norm) if norm.ndim == 0 else norm


@dataclass(frozen=True, eq=False)
class MomentSystem:
    """The moment relation (u, v_n) = w_n at every eigenvalue of a subspectrum.

    Arrays over the eigenvalues: `layout` is the rows' `slot_layout`, `rho`
    holds rho_n = sqrt(lambda_n), `ws` the targets w_n and `norms` the
    continuum norms ||v_n||.  The rows v_n themselves are not stored: the
    solve integrates the layout against its probe functions in closed form
    (`reconstruct.moment_design`), and `build_v` gives one on a grid.
    `grid_m` is the cell count of the grid the solution is synthesized on.
    A stacked subspectrum gives a stacked system: every array has its
    (trials, N) shape.  Equality and hashing are by identity (see
    `types.SigmaFunction`).
    """

    layout: SlotLayout
    rho: np.ndarray
    ws: np.ndarray
    norms: np.ndarray
    grid_m: int

    @property
    def p(self) -> int:
        return self.layout.slots.shape[-1]

    def __len__(self):
        return self.ws.size


def build_moment_system(subspectrum: Subspectrum, f: EntirePair, p: int, grid: int) -> MomentSystem:
    """Layout, targets and row norms for every eigenvalue of a simple subspectrum,
    with `grid` cells for the synthesis grid (ValueError unless an integer >= 1).

    `f`, `slot_layout` and `branch_sqrt` are evaluated once over all
    eigenvalues, also those of a stack.
    """
    if not isinstance(grid, (int, np.integer)) or grid < 1:
        raise ValueError(f"grid must be a cell count, an integer >= 1, got {grid!r}")
    subspectrum.require_simple()
    lams = subspectrum.lambdas
    f1, f2 = (v.reshape(lams.shape) for v in f(lams.reshape(-1)))
    layout = slot_layout(p, lams, f1, f2)
    rho = branch_sqrt(lams)
    return MomentSystem(layout=layout, rho=rho, ws=build_w(rho, layout),
                        norms=row_norm_exact(rho, layout), grid_m=int(grid))


def xi_identity_residual(rhos: Sequence[complex]) -> float:
    """Max residual of the folding identity between sine products on (0, 2pi)
    and two-component products on (0, pi), relative to the size of the
    products: entry (i, j) of |lhs - 2 rhs| over sqrt(|lhs_ii lhs_jj|), which
    bounds |lhs_ij| (the Gram entries of an imaginary rho grow as sinh(2 pi
    |rho|)^2, so an absolute residual grows with them).

    Both sides are evaluated by composite 12-point Gauss-Legendre quadrature
    (panel count follows the largest frequency), independently of the
    closed-form overlaps used elsewhere.  The panel count is even, and the
    (0, pi) rule is the first half of the (0, 2pi) rule, so its sines are the
    first half of the (0, 2pi) sines' columns.
    """
    rho = np.atleast_1d(np.asarray(rhos, dtype=complex))
    panels = int(max(24, 4 * np.ceil(np.max(np.abs(rho)))))
    x2, w2 = gauss_nodes(0.0, 2 * np.pi, panels, 12)
    f2 = np.sin(rho[:, None] * x2[None, :])
    lhs = (np.conj(f2) * w2[None, :]) @ f2.T

    n = x2.size // 2
    x1, w1 = x2[:n], w2[:n]
    a_part = f2[:, :n] * np.cos(rho[:, None] * np.pi)
    b_part = -np.cos(rho[:, None] * x1[None, :]) * np.sin(rho[:, None] * np.pi)
    rhs = (np.conj(a_part) * w1[None, :]) @ a_part.T + (np.conj(b_part) * w1[None, :]) @ b_part.T

    norms = np.sqrt(np.abs(np.diag(lhs)))
    return float(np.max(np.abs(lhs - 2.0 * rhs) / np.maximum(np.outer(norms, norms), 1e-300)))


@dataclass(frozen=True)
class BasisDiagnostics:
    sizes: tuple
    conds: tuple
    smin: float
    smax: float
    basis_like: bool
    growth_ratio: float


def basis_diagnostics(rhos, length: float = 2 * np.pi) -> BasisDiagnostics:
    """Condition estimates for the normalized Gram matrix under truncation.

    The family is the sine family sin(rho_n t) on (0, length) of the given rho
    values.  Flags it "basis-like" when the full condition number stays below
    1e3 and grows by no more than 20% from the half truncation.
    """
    rhos = np.atleast_1d(np.asarray(rhos, dtype=complex))
    gram = np.asarray(overlap(np.conj(rhos[:, None]), rhos[None, :], -1, length))
    norms = np.sqrt(np.abs(np.diag(gram)))
    gram = gram / np.maximum(np.outer(norms, norms), 1e-300)

    n = gram.shape[0]
    if n < 2:
        raise ValueError("need at least two vectors")
    sizes = tuple(sorted({max(2, n // 4), max(2, n // 2), n}))
    conds = []
    smin = smax = None
    for size in sizes:
        s = np.linalg.svd(gram[:size, :size], compute_uv=False)
        conds.append(float(s[0] / s[-1]) if s[-1] > 0 else np.inf)
        if size == n:
            smin, smax = float(s[-1]), float(s[0])
    growth = conds[-1] / conds[-2] if len(conds) >= 2 and conds[-2] > 0 else np.inf
    basis_like = bool(conds[-1] <= 1e3 and growth <= 1.2)
    return BasisDiagnostics(sizes=sizes, conds=tuple(conds), smin=smin, smax=smax,
                            basis_like=basis_like, growth_ratio=float(growth))
