"""Recovery of generalized Cauchy data from a subspectrum.

The infinite biorthogonal expansion is realized as a least-squares solve over
a finite trigonometric-plus-monomial representation space: rows are the moment
vectors v_n (normalized), the Cauchy data {J, G, A} are expanded in
orthonormalized probe functions, and all inner products are assembled from
closed-form integrals so the system is free of grid-quadrature defects.  The
recovered kernels are then synthesized on the working grid.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import NonUniqueWarning
from .forward import char_delta
from .moments import (
    _RANK_TOL,
    MomentSystem,
    _as_grid,
    _component_columns,
    _gram_block,
    _tags_for,
    build_moment_system,
    build_v,
    build_w,
    slot_layout,
    svd_solve,
    u_from_cauchy,
)
from .trig import sinc, synth_series
from .types import (
    BoundaryPolyPair,
    CauchyData,
    EntirePair,
    SigmaFunction,
    Subspectrum,
    branch_sqrt,
    hp_inner,
)

# Monomial columns per kernel component of the default probe basis.
_N_POLY = 3
# A completeness gram ratio at or below this marks a reconstruction as non-unique.
_GRAM_TOL = 1e-8


# ----------------------------------------------------------------------------
# probe families
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeBasis:
    """Orthonormalized representation space for the two kernel components."""

    h1_tags: tuple
    h2_tags: tuple
    p: int
    b1: np.ndarray          # whitening transforms (raw -> orthonormal)
    b2: np.ndarray

    @property
    def dim(self) -> int:
        return self.b1.shape[1] + self.b2.shape[1] + self.p


def _whiten(gram: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > 1e-11 * vals.max()
    return vecs[:, keep] / np.sqrt(vals[keep])[None, :]


@functools.lru_cache(maxsize=256)
def make_probe_basis(p: int, n_modes: tuple, n_poly: int = _N_POLY,
                     freq_step: float = 1.0) -> ProbeBasis:
    """Probe family per kernel component, orthonormalized by eigen-whitening.

    Odd p pairs a sine family with H1 and a cosine family with H2; even p is
    the mirror image.  Monomial columns capture the polynomial content of the
    kernels that a finite trigonometric family resolves slowly.  `n_modes`
    is the pair of mode counts (sine side, cosine side); the cosine-type
    kernel usually needs the larger share.

    The basis is a pure function of the arguments, so each one is built once
    per process and shared: its tags are tuples and its whitening transforms
    are read-only.
    """
    n_sin, n_cos = (int(v) for v in n_modes)
    h1_tags, h2_tags = (tuple(tags) for tags in slot_layout(p).kernels(
        _tags_for("sin", n_sin, n_poly, freq_step), _tags_for("cos", n_cos, n_poly, freq_step)))
    b1, b2 = (_whiten(_gram_block(tags)) for tags in (h1_tags, h2_tags))
    b1.setflags(write=False)
    b2.setflags(write=False)
    return ProbeBasis(h1_tags=h1_tags, h2_tags=h2_tags, p=p, b1=b1, b2=b2)


def moment_design(system: MomentSystem, basis: ProbeBasis):
    """Normalized design matrix over the orthonormal probe space, plus targets.

    Row n is (phi_i, v_n)/||v_n|| and the right-hand side w_n/||v_n||, so the
    solution of D x = b holds the Cauchy data's own coefficients, of least
    true product-space norm.  The rows of a stacked system come trial by
    trial, so the design is always (rows, columns).
    """
    lams = system.lambdas.lambdas.reshape(-1)
    rho = branch_sqrt(lams)
    layout = slot_layout(system.p, lams, *(v.reshape(-1) for v in system.f_values))
    against1, against2 = layout.kernels("sin_over_rho", "cos")
    m1 = layout.k1[:, None] * _component_columns(basis.h1_tags, rho, against1)
    m2 = layout.k2[:, None] * _component_columns(basis.h2_tags, rho, against2)
    raw = np.concatenate([m1, m2, layout.slots], axis=1)
    inv_norm = 1.0 / np.maximum(system.norms.reshape(-1), 1e-300)
    rows = raw * inv_norm[:, None]
    d1 = rows[:, : len(basis.h1_tags)] @ basis.b1
    d2 = rows[:, len(basis.h1_tags): len(basis.h1_tags) + len(basis.h2_tags)] @ basis.b2
    design = np.concatenate([d1, d2, rows[:, len(basis.h1_tags) + len(basis.h2_tags):]], axis=1)
    rhs = system.ws.reshape(-1) * inv_norm
    return design, rhs


def default_basis(subspectrum: Subspectrum, p: int) -> ProbeBasis:
    """The probe basis of a reconstruction from `subspectrum`.

    The trig budget is what the rows leave after the p scalar slots, the
    monomial columns and a margin of two.  The sine-type component leans on
    the monomial columns for its structural part and decays quickly, so the
    cosine-type component gets the larger share of the modes.  Frequencies
    are capped two units below the subspectrum bandwidth: probe modes beyond
    the highest data frequency are invisible to the rows and would poison the
    conditioning.  Each component keeps at least four modes, so a short
    subspectrum gets more columns than rows, which `reconstruct` flags.
    """
    budget = len(subspectrum) - p - (2 * _N_POLY - 1) - 2
    n_cos = max(4, budget * 3 // 5)
    n_sin = max(4, budget - n_cos)
    cap = int(np.floor(np.max(np.abs(subspectrum.rhos.real)))) - 2
    # cosine indices start at zero
    return make_probe_basis(p, (max(4, min(n_sin, cap)), max(4, min(n_cos, cap + 1))))


def solve_moment(system: MomentSystem, basis: ProbeBasis, reg: float = 0.0):
    """Least-squares solve of the moment system for the Cauchy data over the probe space.

    Rows are normalized by ||v_n||; `reg` adds Tikhonov damping in the true
    product-space norm.  Without damping, singular values at or below
    `_RANK_TOL` times the largest are truncated, so an underdetermined or
    rank-deficient system gives the minimum-norm solution, and the report
    sets `deficient` when the smallest one is among them.  The `CauchyData`
    returned carries its probe series and, as `meta`, the solve report.

    A stacked system is solved with one SVD over its (trials, N, K) design
    stack and gives a list of `CauchyData`, one per trial, each by the rules
    above; all trials share one probe basis.
    """
    design, rhs = moment_design(system, basis)
    design = design.reshape(system.ws.shape + design.shape[-1:])
    rhs = rhs.reshape(system.ws.shape)
    u_mat, svals, vh = np.linalg.svd(design, full_matrices=False)
    parts = [_solve_one(design[k], rhs[k], u_mat[k], svals[k], vh[k], basis, reg)
             for k in np.ndindex(system.ws.shape[:-1])]
    t = np.linspace(0.0, np.pi, system.grid_size)
    j = synth_series(basis.h1_tags, np.array([x1 for x1, *_ in parts]), t)
    g = synth_series(basis.h2_tags, np.array([x2 for _, x2, *_ in parts]), t)
    out = [CauchyData(jk, gk, a, series=series, meta=meta)
           for jk, gk, (_, _, a, series, meta) in zip(j, g, parts)]
    return out if system.ws.ndim > 1 else out[0]


def _solve_one(design, rhs, u_mat, svals, vh, basis: ProbeBasis, reg):
    """One trial of `solve_moment` from the SVD of its design: the probe-series
    coefficients of both kernels, the constants and the solve report."""
    smax = float(svals[0]) if svals.size else 0.0
    smin = float(svals[-1]) if svals.size else 0.0
    ratio = smin / smax if smax > 0 else 0.0
    z = svd_solve(u_mat, svals, vh, rhs, reg)
    residual = float(np.linalg.norm(design @ z - rhs))

    d1 = basis.b1.shape[1]
    d2 = basis.b2.shape[1]
    x1 = basis.b1 @ z[:d1]
    x2 = basis.b2 @ z[d1: d1 + d2]
    series = {"j": list(zip(basis.h1_tags, x1.tolist())),
              "g": list(zip(basis.h2_tags, x2.tolist()))}
    meta = {
        "residual": residual,
        "cond": smax / smin if smin > 0 else np.inf,
        "smin_ratio": ratio,
        "design_shape": design.shape,
        "deficient": ratio <= _RANK_TOL,
        "reg": reg,
    }
    return x1, x2, z[d1 + d2:], series, meta


def deltas_from_cauchy(data: CauchyData, lam):
    """Rebuild (Delta0, Delta1) from Cauchy data by grid quadrature.

    Delta1 is the moment row's pattern at (f1, f2) = (1, 0) and Delta0 at
    (0, 1): kernel weights and slots come from `slot_layout` at p = data.p.
    """
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    rho = branch_sqrt(lam_arr)
    t = np.linspace(0.0, np.pi, data.j.size)
    w = data.weights()
    one, zero = np.ones_like(lam_arr), np.zeros_like(lam_arr)
    lay1 = slot_layout(data.p, lam_arr, one, zero)
    lay0 = slot_layout(data.p, lam_arr, zero, one)
    k1, k2 = lay1.kernels(t[None, :] * np.asarray(sinc(rho[:, None] * t[None, :])),
                          np.cos(rho[:, None] * t[None, :]))
    e1, e0 = lay1.free_terms(np.pi * np.asarray(sinc(rho * np.pi)), np.cos(rho * np.pi))
    d1 = lay1.k1 * (e1 + ((w * data.j)[None, :] * k1).sum(axis=1)) + lay1.slots @ data.a
    d0 = lay0.k2 * (e0 + ((w * data.g)[None, :] * k2).sum(axis=1)) + lay0.slots @ data.a
    if np.isscalar(lam) or np.asarray(lam).ndim == 0:
        return complex(d0[0]), complex(d1[0])
    return d0, d1


def moment_identity_check(data: CauchyData, lam, f: EntirePair,
                          pair: BoundaryPolyPair, sigma: SigmaFunction) -> float:
    """Relative residual of (u, v(., lambda)) = Delta(lambda) + w(lambda), with
    u = `u_from_cauchy(data)` the moment relation's element of the Cauchy data."""
    p = pair.p
    lhs = hp_inner(u_from_cauchy(data), build_v(lam, f, p, data.j.size - 1))
    delta = complex(np.asarray(char_delta(sigma, pair, f, np.array([lam]))).ravel()[0])
    w = build_w(lam, f, p)
    scale = max(abs(delta), abs(w), abs(lhs), 1.0)
    return abs(lhs - delta - w) / scale


def reconstruct(p: int, f: EntirePair, subspectrum: Subspectrum, grid,
                reg: float = 0.0, basis: Optional[ProbeBasis] = None) -> CauchyData:
    """Recover generalized Cauchy data from a subspectrum.

    Composes the moment-system assembly and the normalized least-squares
    solve over `basis` (by default `default_basis`); the returned
    `CauchyData` carries the reconstruction report as `meta`.

    The uniqueness verdict is one rule: the report's `completeness` block is
    `completeness_ratio` of the solved system, whose gram ratio counts as 0
    when the solve design or the completeness design has fewer rows than
    columns, and a gram ratio at or below 1e-8 sets `non_unique`, adds one
    message to `warnings` and emits it as NonUniqueWarning.  The solve's
    `cond`, `smin_ratio` and `deficient` stay in the report as evidence only.
    """
    t = _as_grid(grid)
    system = build_moment_system(subspectrum, f, p, t)
    if basis is None:
        basis = default_basis(subspectrum, p)
    data = solve_moment(system, basis, reg=reg)
    comp = completeness_ratio(system)
    # a design with fewer rows than columns leaves a direction unseen,
    # whatever its singular values say
    if len(system) < max(basis.dim, comp["design_shape"][1]):
        comp["gram_ratio"] = 0.0
    warn_msgs = []
    if comp["gram_ratio"] <= _GRAM_TOL:
        warn_msgs.append(f"completeness evidence collapsed (gram ratio {comp['gram_ratio']:.2e}); "
                         "the subspectrum does not determine the data")
        warnings.warn(warn_msgs[0], NonUniqueWarning, stacklevel=2)
    diag = subspectrum.diagnostics()
    kinds = [kind for kind, _ in basis.h1_tags + basis.h2_tags]
    report = {
        "n_rows": len(system),
        "probe_modes": (kinds.count("sin"), kinds.count("cos")),
        "probe_dim": basis.dim,
        "residual": data.meta["residual"],
        "cond": data.meta["cond"],
        "smin_ratio": data.meta["smin_ratio"],
        "deficient": data.meta["deficient"],
        "reg": reg,
        "completeness": comp,
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
    return replace(data, meta=report)


def completeness_ratio(system: MomentSystem) -> dict:
    """Spanning evidence: min/max singular value of the design over a probe
    space at half-integer frequency resolution, two monomials per component.

    A healthy (complete) moment system keeps the ratio at O(1); losing a
    required eigenvalue leaves a probe direction nearly unseen by every row
    and the ratio collapses as the row count grows.  `gram_ratio`, the
    squared ratio, is what `reconstruct`'s uniqueness verdict judges.
    """
    n = max(4, (len(system) - system.p - 3) // 2)
    basis = make_probe_basis(system.p, (n, n), n_poly=2, freq_step=0.5)
    design, _ = moment_design(system, basis)
    svals = np.linalg.svd(design, compute_uv=False)
    smax, smin = float(svals[0]), float(svals[-1])
    ratio = smin / smax if smax > 0 else 0.0
    return {"smin": smin, "smax": smax, "ratio": ratio,
            "gram_ratio": ratio**2,
            "design_shape": design.shape, "freq_step": 0.5}


def noise_plan(omegas, trials: int) -> list:
    """The noise sizes as floats, after checking that they are distinct, finite
    and non-negative and that `trials` is at least 1 (else ValueError)."""
    omegas = [float(o) for o in omegas]
    if trials < 1:
        raise ValueError(f"at least one trial is needed, got {trials}")
    if not all(np.isfinite(o) and o >= 0 for o in omegas):
        raise ValueError(f"noise sizes must be finite and non-negative, got {omegas}")
    if len(set(omegas)) != len(omegas):
        raise ValueError(f"noise sizes must be distinct, got {omegas}")
    return omegas


def stability_experiment(p: int, f: EntirePair, subspectrum: Subspectrum, grid,
                         omegas, trials: int = 20, seed: int = 0,
                         reg: float = 0.0) -> dict:
    """Perturb the subspectrum roots at fixed l2 size and measure the response.

    Each trial draws i.i.d. complex Gaussian noise on the rho values (real
    part, then imaginary part, omega by omega and trial by trial) and
    rescales it to the exact target omega.  All noise is drawn first; the
    perturbed subspectra form one stack, solved by one `solve_moment` call
    with the rules of `reconstruct` (one f-evaluation, one design, one SVD).
    Each row records the product-space and component-wise errors against the
    unperturbed solve, which runs on its own; its report is `base`.
    `noise_plan` checks `omegas` and `trials`.
    """
    omegas = noise_plan(omegas, trials)
    rng = np.random.default_rng(seed)
    t = _as_grid(grid)
    basis = default_basis(subspectrum, p)
    base = reconstruct(p, f, subspectrum, t, reg=reg, basis=basis)
    w = base.weights()

    def l2(vec):
        return float(np.sqrt(np.sum(w * np.abs(vec) ** 2).real))

    n = len(subspectrum)
    noise = np.zeros((len(omegas) * trials, n), dtype=complex)
    for i, omega in enumerate(np.repeat(omegas, trials)):
        draw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if omega > 0:
            noise[i] = draw * (omega / np.linalg.norm(draw))
    rho = subspectrum.rhos + noise
    system = build_moment_system(Subspectrum(rho * rho), f, p, t)
    solved = solve_moment(system, basis, reg=reg)

    rows = []
    for i, data in enumerate(solved):
        dj, dg, da = data.j - base.j, data.g - base.g, data.a - base.a
        rows.append({
            "omega": omegas[i // trials],
            "trial": i % trials,
            "err_u": float(np.sqrt(abs(
                np.sum(w * (np.abs(dj) ** 2 + np.abs(dg) ** 2)) + np.sum(np.abs(da) ** 2)))),
            "err_j": l2(dj),
            "err_g": l2(dg),
            "err_a": float(np.max(np.abs(da))) if da.size else 0.0,
        })
    summary = {}
    for k, omega in enumerate(omegas):
        median = float(np.median([r["err_u"] for r in rows[k * trials: (k + 1) * trials]]))
        summary[omega] = {
            "median_err_u": median,
            "ratio_vs_omega": median / omega if omega > 0 else 0.0,
        }
    pos = [summary[o]["ratio_vs_omega"] for o in omegas if o > 0]
    fitted_c = float(max(pos)) if pos else 0.0
    return {"rows": rows, "summary": summary, "fitted_c": fitted_c, "seed": seed,
            "base": base.meta}
