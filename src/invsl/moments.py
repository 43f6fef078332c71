"""The trig-plus-monomial representation that the Cauchy-data fit in
`forward` and the probe-space solve in `reconstruct` share, and the moment
system built on it.

`slot_layout` is the one place that knows how the boundary degree p arranges
the moment row v(t, lambda).  `_tags_for` names the probe functions, with
their closed-form columns (`_component_columns`) and Gram matrix
(`_gram_block`); `svd_solve` is the one least-squares step.  Also here: v on
a grid, the scalar w(lambda), the moment system of a subspectrum as arrays,
and Riesz-basis condition estimates for sine families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParityMismatch
from .trig import gauss_nodes, overlap_cos_cos, overlap_sin_sin, poly_cos, poly_poly, poly_sin, sinc
from .types import CauchyData, EntirePair, HpVector, Subspectrum, branch_sqrt

# Singular values at or below this fraction of the largest are truncated.
_RANK_TOL = 1e-12


def _as_grid(grid) -> np.ndarray:
    if np.isscalar(grid):
        return np.linspace(0.0, np.pi, int(grid) + 1)
    return np.asarray(grid, dtype=float)


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


def _tags_for(kind: str, n_modes: int, n_poly: int, freq_step: float = 1.0):
    tags = []
    if kind == "sin":
        poly_range = range(0, n_poly)          # constants not in finite sine span
    else:
        poly_range = range(1, n_poly)          # cos family already has the constant
    tags.extend(("poly", m) for m in poly_range)
    if kind == "sin":
        tags.extend(("sin", freq_step * j) for j in range(1, n_modes + 1))
    else:
        tags.extend(("cos", freq_step * j) for j in range(0, n_modes))
    return tags


def _gram_block(tags) -> np.ndarray:
    """Gram matrix over [0, pi] of one family's monomial and trig tags."""
    poly = np.array([kind == "poly" for kind, _ in tags])
    vals = np.array([v for _, v in tags], dtype=float)
    degs, mu = vals[poly].astype(int), vals[~poly] + 0j
    trig_kind = next((kind for kind, _ in tags if kind != "poly"), "sin")
    overlap, poly_trig = ((overlap_sin_sin, poly_sin) if trig_kind == "sin"
                          else (overlap_cos_cos, poly_cos))
    g = np.empty((len(tags), len(tags)))
    g[np.ix_(~poly, ~poly)] = overlap(mu[:, None], mu[None, :]).real
    g[np.ix_(poly, poly)] = poly_poly(degs[:, None], degs[None, :])
    cross = np.array([poly_trig(d, mu).real for d in degs]).reshape(degs.size, mu.size)
    g[np.ix_(poly, ~poly)] = cross
    g[np.ix_(~poly, poly)] = cross.T
    return g


def _component_columns(tags, rho, against: str):
    """(phi_i, component) integrals against sin(rho t)/rho or cos(rho t).

    One closed-form call per monomial degree and one over rows x trig modes,
    placed in tag order.
    """
    if against == "sin_over_rho" and np.any(np.abs(rho) < 1e-8):
        raise ValueError("moment rows require nonzero rho")
    overlap, poly_trig = ((overlap_sin_sin, poly_sin) if against == "sin_over_rho"
                          else (overlap_cos_cos, poly_cos))
    poly = np.array([kind == "poly" for kind, _ in tags], dtype=bool)
    mu = np.array([v for kind, v in tags if kind != "poly"], dtype=float)
    cols = np.empty((rho.size, len(tags)), dtype=complex)
    cols[:, ~poly] = overlap(mu[None, :], rho[:, None])
    for k in np.flatnonzero(poly):
        cols[:, k] = poly_trig(tags[k][1], rho)
    if against == "sin_over_rho":
        cols /= rho[:, None]
    return cols


def svd_solve(u, s, vh, rhs, reg: float = 0.0):
    """Least-squares solution of A x = rhs from the SVD A = u diag(s) vh.

    The gains on the singular directions are s/(s^2 + reg) for a positive
    `reg` (Tikhonov damping), else 1/s with singular values at or below
    `_RANK_TOL` times the largest dropped (the minimum-norm solution).
    """
    if not (np.isfinite(reg) and reg >= 0):
        raise ValueError(f"reg must be finite and >= 0, got {reg!r}")
    if reg > 0:
        gains = s / (s**2 + reg)
    else:
        keep = s > _RANK_TOL * s.max(initial=0.0)
        gains = np.where(keep, 1.0 / np.maximum(s, 1e-300), 0.0)
    return vh.conj().T @ (gains * (u.conj().T @ rhs))


def _layout_at(lam, f: EntirePair, p: int, f_values=None):
    lam = np.asarray(lam, dtype=complex)
    if f_values is None:
        f_values = f(lam.reshape(-1))
    f1, f2 = (np.asarray(v, dtype=complex).reshape(lam.shape) for v in f_values)
    return lam, slot_layout(p, lam, f1, f2)


def _grid_row(lam, layout: SlotLayout, grid) -> HpVector:
    t = _as_grid(grid)
    rho = branch_sqrt(lam)
    h1, h2 = layout.kernels(t * sinc(rho * t), np.cos(rho * t))
    return HpVector(layout.k1 * h1, layout.k2 * h2, layout.slots)


def build_v(lam, f: EntirePair, p: int, grid) -> HpVector:
    """Moment row v(., lambda) in L2+L2+C^p on the grid, laid out by `slot_layout`."""
    lam, layout = _layout_at(complex(lam), f, p)
    return _grid_row(lam, layout, grid)


def build_w(lam, f: EntirePair, p: int, f_values=None):
    """Right-hand side w(lambda) of the moment relation, elementwise over lambda."""
    lam, layout = _layout_at(lam, f, p, f_values)
    rho = branch_sqrt(lam)
    e1, e0 = layout.free_terms(np.pi * sinc(rho * np.pi), np.cos(rho * np.pi))
    w = -(layout.k1 * e1 + layout.k2 * e0)
    return complex(w) if w.ndim == 0 else w


def u_from_cauchy(data: CauchyData) -> HpVector:
    """The moment relation's element u = conj([J, G, A]) of Cauchy data {J, G, A}."""
    return HpVector(np.conj(data.j), np.conj(data.g), np.conj(data.a))


def row_norm_exact(lam, f: EntirePair, p: int, f_values=None):
    """Continuum norm of v(., lambda) from closed-form trig integrals,
    elementwise over lambda."""
    lam, layout = _layout_at(lam, f, p, f_values)
    rho = branch_sqrt(lam)
    tiny = np.abs(rho) <= 1e-6
    safe = np.where(tiny, 1.0, rho)
    int_sin = np.where(tiny, np.pi**3 / 3.0,
                       (overlap_sin_sin(safe, np.conj(safe)) / (safe * np.conj(safe))).real)
    int_cos = np.where(tiny, np.pi, overlap_cos_cos(safe, np.conj(safe)).real)
    int1, int2 = layout.kernels(int_sin, int_cos)
    total = (np.abs(layout.k1) ** 2 * int1 + np.abs(layout.k2) ** 2 * int2
             + np.sum(np.abs(layout.slots) ** 2, axis=-1))
    norm = np.sqrt(total)
    return float(norm) if norm.ndim == 0 else norm


@dataclass(frozen=True)
class MomentSystem:
    """The moment relation (u, v_n) = w_n at every eigenvalue of a subspectrum.

    Arrays over the eigenvalues: `f_values` holds (f1, f2), `ws` the targets
    w_n and `norms` the continuum norms ||v_n||.  The rows v_n themselves are
    not stored: the solve integrates them against its probe functions in
    closed form (`reconstruct.moment_design`), and `build_v` gives one on a
    grid.  `grid_size` is the size of the grid the solution is synthesized on.
    A stacked subspectrum gives a stacked system: every array has its
    (trials, N) shape.
    """

    lambdas: Subspectrum
    f_values: tuple
    ws: np.ndarray
    norms: np.ndarray
    p: int
    grid_size: int

    def __len__(self):
        return self.ws.size


def build_moment_system(subspectrum: Subspectrum, f: EntirePair, p: int, grid) -> MomentSystem:
    """Targets and row norms for every eigenvalue of a simple subspectrum.

    `f` is evaluated once over all eigenvalues, also those of a stack.
    """
    subspectrum.require_simple()
    lams = subspectrum.lambdas
    f_values = tuple(v.reshape(lams.shape) for v in f(lams.reshape(-1)))
    return MomentSystem(lambdas=subspectrum, f_values=f_values,
                        ws=build_w(lams, f, p, f_values),
                        norms=row_norm_exact(lams, f, p, f_values),
                        p=p, grid_size=_as_grid(grid).size)


def xi_identity_residual(rhos: Sequence[complex]) -> float:
    """Max residual of the folding identity between sine products on (0, 2pi)
    and two-component products on (0, pi).

    Both sides are evaluated by composite 12-point Gauss-Legendre quadrature
    (panel count follows the largest frequency), independently of the
    closed-form overlaps used elsewhere.
    """
    rho = np.atleast_1d(np.asarray(rhos, dtype=complex))
    panels = int(max(24, 4 * np.ceil(np.max(np.abs(rho)))))

    def sines_2pi(tvals):
        return np.sin(rho[:, None] * tvals[None, :])

    def xi_parts(tvals):
        s = np.sin(rho[:, None] * tvals[None, :])
        c = np.cos(rho[:, None] * tvals[None, :])
        return s * np.cos(rho[:, None] * np.pi), -c * np.sin(rho[:, None] * np.pi)

    x2, w2 = gauss_nodes(0.0, 2 * np.pi, panels, 12)
    f2 = sines_2pi(x2)
    lhs = (np.conj(f2) * w2[None, :]) @ f2.T

    x1, w1 = gauss_nodes(0.0, np.pi, max(panels // 2, 12), 12)
    a_part, b_part = xi_parts(x1)
    rhs = (np.conj(a_part) * w1[None, :]) @ a_part.T + (np.conj(b_part) * w1[None, :]) @ b_part.T

    return float(np.max(np.abs(lhs - 2.0 * rhs)))


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
    gram = np.asarray(overlap_sin_sin(np.conj(rhos[:, None]), rhos[None, :], length))
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
