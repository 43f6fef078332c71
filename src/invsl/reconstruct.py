"""Recovery of generalized Cauchy data from a subspectrum.

The infinite biorthogonal expansion is realized as a least-squares solve over
a finite trigonometric-plus-monomial representation space: rows are the moment
vectors v_n (normalized), the unknown is expanded in orthonormalized probe
functions, and all inner products are assembled from closed-form integrals so
the system is free of grid-quadrature defects.  The recovered element is then
synthesized on the working grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NonUniqueWarning, PoleProximity, RankDeficient
from .moments import MomentSystem, build_moment_system, _as_grid
from .trig import (
    overlap_cos_cos,
    overlap_sin_sin,
    poly_cos,
    poly_poly,
    poly_sin,
    sinc,
)
from .types import (
    CauchyData,
    EntirePair,
    HpVector,
    Subspectrum,
    branch_sqrt,
)


# ----------------------------------------------------------------------------
# probe families
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeBasis:
    """Orthonormalized representation space for the two kernel components."""

    h1_tags: list
    h2_tags: list
    p: int
    b1: np.ndarray          # whitening transforms (raw -> orthonormal)
    b2: np.ndarray

    @property
    def dim(self) -> int:
        return self.b1.shape[1] + self.b2.shape[1] + self.p


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
    n = len(tags)
    g = np.empty((n, n), dtype=float)
    for i, ti in enumerate(tags):
        for k in range(i, n):
            tk = tags[k]
            g[i, k] = g[k, i] = float(np.real(_probe_overlap(ti, tk)))
    return g


def _probe_overlap(ti, tk):
    (ka, va), (kb, vb) = ti, tk
    if ka == "poly" and kb == "poly":
        return poly_poly(va, vb)
    if ka == "poly":
        ka, va, kb, vb = kb, vb, ka, va
    if kb == "poly":
        fn = poly_sin if ka == "sin" else poly_cos
        return complex(np.asarray(fn(vb, np.array([va + 0j]))).ravel()[0])
    fn = overlap_sin_sin if ka == "sin" else overlap_cos_cos
    return complex(np.asarray(fn(va, np.array([vb + 0j]))).ravel()[0])


def _whiten(gram: np.ndarray, tol: float = 1e-11) -> np.ndarray:
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > tol * vals.max()
    return vecs[:, keep] / np.sqrt(vals[keep])[None, :]


def make_probe_basis(p: int, n_modes, n_poly: int = 3,
                     freq_step: float = 1.0) -> ProbeBasis:
    """Probe family per kernel component, orthonormalized by eigen-whitening.

    Odd p pairs a sine family with H1 and a cosine family with H2; even p is
    the mirror image.  Monomial columns capture the polynomial content of the
    kernels that a finite trigonometric family resolves slowly.  `n_modes`
    may be a single count or a per-component pair (sine side, cosine side);
    the cosine-type kernel usually needs the larger share.
    """
    if np.isscalar(n_modes):
        n_sin = n_cos = int(n_modes)
    else:
        n_sin, n_cos = (int(v) for v in n_modes)
    if p % 2:
        h1_tags = _tags_for("sin", n_sin, n_poly, freq_step)
        h2_tags = _tags_for("cos", n_cos, n_poly, freq_step)
    else:
        h1_tags = _tags_for("cos", n_cos, n_poly, freq_step)
        h2_tags = _tags_for("sin", n_sin, n_poly, freq_step)
    b1 = _whiten(_gram_block(h1_tags))
    b2 = _whiten(_gram_block(h2_tags))
    return ProbeBasis(h1_tags=h1_tags, h2_tags=h2_tags, p=p, b1=b1, b2=b2)


def _component_columns(tags, rho, against: str):
    """(phi_i, component) integrals against sin(rho t)/rho or cos(rho t)."""
    cols = []
    if against == "sin_over_rho":
        if np.any(np.abs(rho) < 1e-8):
            raise ValueError("moment rows require nonzero rho")
        for kind, v in tags:
            if kind == "poly":
                cols.append(poly_sin(v, rho) / rho)
            else:
                cols.append(overlap_sin_sin(v, rho) / rho)
    else:
        for kind, v in tags:
            if kind == "poly":
                cols.append(poly_cos(v, rho))
            else:
                cols.append(overlap_cos_cos(v, rho))
    return np.stack(cols, axis=1) if cols else np.zeros((rho.size, 0), complex)


def _slot_matrix(lams, f1s, f2s, p: int) -> np.ndarray:
    n1 = (p - 1) // 2 if p % 2 else None
    cols = []
    if p % 2:
        for k in range(n1):
            cols.extend([f1s * lams**k, f2s * lams**k])
        cols.append(f1s * lams**n1)
    else:
        for k in range(p // 2):
            cols.extend([f1s * lams**k, f2s * lams**k])
    return np.stack(cols, axis=1) if cols else np.zeros((lams.size, 0), complex)


def moment_design(system: MomentSystem, basis: ProbeBasis):
    """Normalized design matrix over the orthonormal probe space, plus targets.

    Row n is conj((phi_i, v_n))/||v_n||; the right-hand side is
    conj(w_n)/||v_n||.  Solving D x = b in this basis minimizes the true
    product-space norm of the reconstructed element.
    """
    lams = system.lambdas.lambdas
    rho = branch_sqrt(lams)
    f1s, f2s = system.f_values
    p = system.p
    if p % 2:
        n1 = (p - 1) // 2
        fac1 = f1s * lams ** (n1 + 1)
        fac2 = f2s * lams**n1
        m1 = fac1[:, None] * _component_columns(basis.h1_tags, rho, "sin_over_rho")
        m2 = fac2[:, None] * _component_columns(basis.h2_tags, rho, "cos")
    else:
        n2 = p // 2
        fac1 = f1s * lams**n2
        fac2 = f2s * lams**n2
        m1 = fac1[:, None] * _component_columns(basis.h1_tags, rho, "cos")
        m2 = fac2[:, None] * _component_columns(basis.h2_tags, rho, "sin_over_rho")
    slots = _slot_matrix(lams, f1s, f2s, p)
    raw = np.concatenate([m1, m2, slots], axis=1)
    inv_norm = 1.0 / np.maximum(system.norms, 1e-300)
    rows = np.conj(raw) * inv_norm[:, None]
    d1 = rows[:, : len(basis.h1_tags)] @ basis.b1
    d2 = rows[:, len(basis.h1_tags): len(basis.h1_tags) + len(basis.h2_tags)] @ basis.b2
    design = np.concatenate([d1, d2, rows[:, len(basis.h1_tags) + len(basis.h2_tags):]], axis=1)
    rhs = np.conj(system.ws) * inv_norm
    return design, rhs


def _synth_tags(tags, coeffs, t):
    out = np.zeros_like(t, dtype=complex)
    for (kind, v), c in zip(tags, coeffs):
        if kind == "poly":
            out += c * t**v
        elif kind == "sin":
            out += c * np.sin(v * t)
        else:
            out += c * np.cos(v * t)
    return out


def default_probe_modes(n_rows: int, p: int, n_poly: int = 3, margin: int = 2,
                        band: Optional[float] = None):
    """Trig budget split between the components, keeping rows >= columns.

    The sine-type component leans on the monomial columns for its structural
    part and decays quickly, so the cosine-type component gets the larger
    share of the modes.  Frequencies are additionally capped two units below
    the subspectrum bandwidth `band`: probe modes beyond the highest data
    frequency are invisible to the rows and would poison the conditioning.
    """
    budget = n_rows - p - (2 * n_poly - 1) - margin
    n_cos = max(4, budget * 3 // 5)
    n_sin = max(4, budget - n_cos)
    if band is not None:
        cap = int(np.floor(band)) - 2
        n_cos = max(4, min(n_cos, cap + 1))   # cosine indices start at zero
        n_sin = max(4, min(n_sin, cap))
    return (n_sin, n_cos)


def solve_moment(system: MomentSystem, reg: float = 0.0, basis: Optional[ProbeBasis] = None,
                 n_poly: int = 3, rank_tol: float = 1e-12,
                 on_deficient: str = "raise") -> HpVector:
    """Solve (u, v_n) = w_n in the least-squares sense over the probe space.

    Rows are normalized by ||v_n||; `reg` adds Tikhonov damping in the true
    product-space norm.  The minimum-norm solution is returned when the system
    is underdetermined.  Raises RankDeficient (or truncates, per
    `on_deficient`) when the normalized design collapses below `rank_tol`.
    The solve report is attached as `meta` on the returned element.
    """
    if system.f_values is None:
        return _solve_moment_grid(system, reg, rank_tol, on_deficient)
    if basis is None:
        band = float(np.max(np.abs(system.lambdas.rhos.real)))
        basis = make_probe_basis(
            system.p,
            default_probe_modes(len(system), system.p, n_poly, band=band),
            n_poly=n_poly)
    design, rhs = moment_design(system, basis)
    u_mat, svals, vh = np.linalg.svd(design, full_matrices=False)
    smax = float(svals[0]) if svals.size else 0.0
    smin = float(svals[-1]) if svals.size else 0.0
    ratio = smin / smax if smax > 0 else 0.0
    deficient = ratio <= rank_tol
    if deficient and on_deficient == "raise":
        raise RankDeficient(f"normalized moment design has singular-value ratio {ratio:.3e}")
    coeff = u_mat.conj().T @ rhs
    if reg > 0:
        gains = svals / (svals**2 + reg)
    else:
        keep = svals > rank_tol * smax
        gains = np.where(keep, 1.0 / np.maximum(svals, 1e-300), 0.0)
    z = vh.conj().T @ (gains * coeff)
    residual = float(np.linalg.norm(design @ z - rhs))

    d1 = basis.b1.shape[1]
    d2 = basis.b2.shape[1]
    x1 = basis.b1 @ z[:d1]
    x2 = basis.b2 @ z[d1: d1 + d2]
    scalars = z[d1 + d2:]
    t = np.linspace(0.0, np.pi, system.grid_size)
    h1 = _synth_tags(basis.h1_tags, x1, t)
    h2 = _synth_tags(basis.h2_tags, x2, t)
    meta = {
        "residual": residual,
        "cond": smax / smin if smin > 0 else np.inf,
        "smin_ratio": ratio,
        "design_shape": design.shape,
        "deficient": bool(deficient),
        "reg": reg,
        "series": {"h1": list(zip(basis.h1_tags, x1.tolist())),
                   "h2": list(zip(basis.h2_tags, x2.tolist()))},
    }
    return HpVector(h1, h2, scalars, meta=meta)


def _solve_moment_grid(system: MomentSystem, reg: float, rank_tol: float,
                       on_deficient: str) -> HpVector:
    """Fallback for generic rows: weighted least squares on the grid."""
    rows = system.vs
    n = len(rows)
    gsz = system.grid_size
    w = rows[0].weights()
    sq = np.sqrt(w)
    inv_norm = 1.0 / np.maximum(system.norms, 1e-300)
    design = np.empty((n, 2 * gsz + system.p), dtype=complex)
    for i, v in enumerate(rows):
        design[i] = np.concatenate([np.conj(v.h1) * sq, np.conj(v.h2) * sq, np.conj(v.scalars)])
        design[i] *= inv_norm[i]
    rhs = np.conj(system.ws) * inv_norm
    u_mat, svals, vh = np.linalg.svd(design, full_matrices=False)
    smax = float(svals[0]) if svals.size else 0.0
    smin = float(svals[-1]) if svals.size else 0.0
    ratio = smin / smax if smax > 0 else 0.0
    deficient = ratio <= rank_tol
    if deficient and on_deficient == "raise":
        raise RankDeficient(f"normalized moment design has singular-value ratio {ratio:.3e}")
    coeff = u_mat.conj().T @ rhs
    if reg > 0:
        gains = svals / (svals**2 + reg)
    else:
        keep = svals > rank_tol * smax
        gains = np.where(keep, 1.0 / np.maximum(svals, 1e-300), 0.0)
    x = vh.conj().T @ (gains * coeff)
    residual = float(np.linalg.norm(design @ x - rhs))
    h1 = x[:gsz] / np.maximum(sq, 1e-300)
    h2 = x[gsz: 2 * gsz] / np.maximum(sq, 1e-300)
    meta = {"residual": residual, "cond": smax / smin if smin > 0 else np.inf,
            "smin_ratio": ratio, "design_shape": design.shape,
            "deficient": bool(deficient), "reg": reg, "series": None}
    return HpVector(h1, h2, x[2 * gsz:], meta=meta)


def unpack_u(u: HpVector) -> CauchyData:
    """Invert the entry-wise conjugation packing of the unknown vector."""
    series = None
    if u.meta and u.meta.get("series"):
        series = {k: [(tag, complex(c).conjugate()) for tag, c in v]
                  for k, v in u.meta["series"].items()}
    return CauchyData(j=np.conj(u.h1), g=np.conj(u.h2), a=np.conj(u.scalars),
                      series=series, meta=u.meta)


def deltas_from_cauchy(data: CauchyData, p: int, lam):
    """Rebuild (Delta0, Delta1) from Cauchy data by grid quadrature."""
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    rho = branch_sqrt(lam_arr)
    m = data.j.size - 1
    t = np.linspace(0.0, np.pi, m + 1)
    w = np.full(m + 1, np.pi / m)
    w[0] = w[-1] = 0.5 * np.pi / m
    sin_over = t[None, :] * np.asarray(sinc(rho[:, None] * t[None, :]))
    cos_mat = np.cos(rho[:, None] * t[None, :])
    sin_pi = np.pi * np.asarray(sinc(rho * np.pi))
    cos_pi = np.cos(rho * np.pi)

    def poly(coeffs):
        out = np.zeros_like(lam_arr)
        for c in coeffs[::-1]:
            out = out * lam_arr + c
        return out

    a_odd = data.a[0::2]
    a_even = data.a[1::2]
    if p % 2:
        n1 = (p - 1) // 2
        tj = (w * data.j)[None, :] * sin_over
        tg = (w * data.g)[None, :] * cos_mat
        d1 = lam_arr ** (n1 + 1) * (-sin_pi + tj.sum(axis=1)) + poly(a_odd)
        d0 = lam_arr**n1 * (cos_pi + tg.sum(axis=1)) + poly(a_even)
    else:
        n2 = p // 2
        tj = (w * data.j)[None, :] * cos_mat
        tg = (w * data.g)[None, :] * sin_over
        d1 = lam_arr**n2 * (-cos_pi + tj.sum(axis=1)) + poly(a_odd)
        d0 = lam_arr**n2 * (-sin_pi + tg.sum(axis=1)) + poly(a_even)
    if np.isscalar(lam) or np.asarray(lam).ndim == 0:
        return complex(d0[0]), complex(d1[0])
    return d0, d1


@dataclass
class ReconstructionResult:
    """Recovered unknown vector, unpacked Cauchy data, and solve evidence.

    `system` is the moment system the solve used, kept for rank evidence.
    """

    u: HpVector
    cauchy: CauchyData
    p: int
    report: dict = field(default_factory=dict)
    system: Optional[MomentSystem] = field(default=None, repr=False)

    def deltas(self, lam):
        return deltas_from_cauchy(self.cauchy, self.p, lam)

    def weyl(self, lam, on_pole="raise"):
        d0, d1 = self.deltas(lam)
        d0 = np.atleast_1d(np.asarray(d0))
        d1 = np.atleast_1d(np.asarray(d1))
        scale = np.maximum(np.abs(d0), np.abs(d1))
        bad = np.abs(d1) <= 1e-8 * np.maximum(scale, 1e-300)
        if np.any(bad) and on_pole == "raise":
            raise PoleProximity("Delta1 below tolerance at requested lambda")
        out = np.where(bad, np.nan + 0j, d0 / np.where(bad, 1.0, d1))
        if np.isscalar(lam) or np.asarray(lam).ndim == 0:
            return complex(out[0])
        return out


def natural_dimension(subspectrum: Subspectrum, p: int) -> int:
    """Representation dimension suggested by the subspectrum bandwidth."""
    band = int(np.ceil(np.max(np.abs(subspectrum.rhos.real)))) + 1
    return 2 * band + p


def reconstruct(p: int, f: EntirePair, subspectrum: Subspectrum, grid,
                reg: float = 0.0, n_modes=None, n_poly: int = 3,
                rank_warn: float = 1e-8, basis: Optional[ProbeBasis] = None) -> ReconstructionResult:
    """Recover generalized Cauchy data from a subspectrum.

    Composes the moment-system assembly, the normalized least-squares solve,
    the unpacking of the unknown vector, and the characteristic-function
    rebuild.  Emits NonUniqueWarning (and flags the report) when the equation
    count falls short of the data's own bandwidth or the design collapses.
    """
    t = _as_grid(grid)
    system = build_moment_system(subspectrum, f, p, t)
    n = len(system)
    d_nat = natural_dimension(subspectrum, p)
    warn_msgs = []
    if n < d_nat - 5:
        warn_msgs.append(f"only {n} equations for natural dimension {d_nat}")
    if basis is None:
        if n_modes is None:
            band = float(np.max(np.abs(subspectrum.rhos.real)))
            n_modes = default_probe_modes(n, p, n_poly, band=band)
        basis = make_probe_basis(p, n_modes, n_poly=n_poly)
    else:
        n_modes = (sum(1 for k, _ in basis.h1_tags if k != "poly"),
                   sum(1 for k, _ in basis.h2_tags if k != "poly"))
    try:
        u = solve_moment(system, reg=reg, basis=basis, on_deficient="raise")
    except RankDeficient as exc:
        warn_msgs.append(str(exc))
        u = solve_moment(system, reg=reg, basis=basis, on_deficient="truncate")
    if u.meta["smin_ratio"] < rank_warn:
        warn_msgs.append(
            f"moment design singular-value ratio {u.meta['smin_ratio']:.3e} below {rank_warn:.0e}"
        )
    for msg in warn_msgs:
        warnings.warn(msg, NonUniqueWarning, stacklevel=2)
    cauchy = unpack_u(u)
    diag = subspectrum.diagnostics()
    report = {
        "n_rows": n,
        "natural_dimension": d_nat,
        "probe_modes": n_modes,
        "probe_dim": basis.dim,
        "residual": u.meta["residual"],
        "cond": u.meta["cond"],
        "smin_ratio": u.meta["smin_ratio"],
        "reg": reg,
        "non_unique": bool(warn_msgs),
        "warnings": warn_msgs,
        "subspectrum": {
            "simple": diag.simple,
            "min_gap": diag.min_gap,
            "min_abs_lambda": diag.min_abs_lambda,
            "max_im_rho": diag.max_im_rho,
            "sum_inv_rho_sq": diag.sum_inv_rho_sq,
        },
    }
    return ReconstructionResult(u=u, cauchy=cauchy, p=p, report=report, system=system)


def completeness_ratio(system: MomentSystem, freq_step: float = 0.5,
                       n_poly: int = 2, n_modes: Optional[int] = None) -> dict:
    """Spanning evidence: min/max singular value of the design over a probe
    space at `freq_step` frequency resolution (half-integer by default).

    A healthy (complete) moment system keeps the ratio at O(1); losing a
    required eigenvalue leaves a probe direction nearly unseen by every row
    and the ratio collapses as the row count grows.
    """
    p = system.p
    n = len(system)
    if n_modes is None:
        n_modes = max(4, (n - p - (2 * n_poly - 1)) // 2)
    basis = make_probe_basis(p, n_modes, n_poly=n_poly, freq_step=freq_step)
    design, _ = moment_design(system, basis)
    svals = np.linalg.svd(design, compute_uv=False)
    smax, smin = float(svals[0]), float(svals[-1])
    ratio = smin / smax if smax > 0 else 0.0
    return {"smin": smin, "smax": smax, "ratio": ratio,
            "gram_ratio": ratio**2,
            "design_shape": design.shape, "freq_step": freq_step}


def stability_experiment(p: int, f: EntirePair, subspectrum: Subspectrum, grid,
                         omegas, trials: int = 20, seed: int = 0,
                         reg: float = 0.0, n_modes: Optional[int] = None) -> dict:
    """Perturb the subspectrum roots at fixed l2 size and measure the response.

    Each trial draws i.i.d. complex Gaussian noise on the rho values, rescales
    it to the exact target omega, reruns the reconstruction, and records the
    product-space and component-wise errors against the unperturbed solve.
    """
    rng = np.random.default_rng(seed)
    t = _as_grid(grid)
    if n_modes is None:
        band = float(np.max(np.abs(subspectrum.rhos.real)))
        n_modes = default_probe_modes(len(subspectrum), p, band=band)
    basis = make_probe_basis(p, n_modes)
    base = reconstruct(p, f, subspectrum, t, reg=reg, basis=basis)
    rho0 = subspectrum.rhos
    w = base.u.weights()

    def l2(vec):
        return float(np.sqrt(np.sum(w * np.abs(vec) ** 2).real))

    rows = []
    for omega in omegas:
        for trial in range(trials):
            noise = rng.standard_normal(len(subspectrum)) + 1j * rng.standard_normal(len(subspectrum))
            if omega > 0:
                noise *= omega / np.linalg.norm(noise)
            else:
                noise = np.zeros_like(noise)
            rho = rho0 + noise
            pert = Subspectrum(rho * rho)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonUniqueWarning)
                res = reconstruct(p, f, pert, t, reg=reg, basis=basis)
            du = res.u - base.u
            rows.append({
                "omega": float(omega),
                "trial": trial,
                "err_u": float(np.sqrt(abs(
                    np.sum(w * (np.abs(du.h1) ** 2 + np.abs(du.h2) ** 2))
                    + np.sum(np.abs(du.scalars) ** 2)))),
                "err_j": l2(res.cauchy.j - base.cauchy.j),
                "err_g": l2(res.cauchy.g - base.cauchy.g),
                "err_a": float(np.max(np.abs(res.cauchy.a - base.cauchy.a)))
                if res.cauchy.a.size else 0.0,
            })
    summary = {}
    for omega in omegas:
        sel = [r["err_u"] for r in rows if r["omega"] == float(omega)]
        summary[float(omega)] = {
            "median_err_u": float(np.median(sel)),
            "ratio_vs_omega": float(np.median(sel) / omega) if omega > 0 else 0.0,
        }
    pos = [summary[float(o)]["ratio_vs_omega"] for o in omegas if o > 0]
    fitted_c = float(max(pos)) if pos else 0.0
    return {"rows": rows, "summary": summary, "fitted_c": fitted_c, "seed": seed}
