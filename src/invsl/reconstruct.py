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
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .errors import NonUniqueWarning
from .forward import char_delta
from .moments import (
    _RANK_TOL,
    MomentSystem,
    ProbeFamily,
    _component_columns,
    _gram_block,
    build_moment_system,
    build_v,
    probe_family,
    slot_layout,
    svd_solve,
)
from .trig import exact_real, sinc, synth_series
from .types import (
    BoundaryPolyPair,
    CauchyData,
    EntirePair,
    SigmaFunction,
    Subspectrum,
    branch_sqrt,
)

# Monomial columns per kernel component of the default probe basis.
_N_POLY = 3
# A completeness gram ratio at or below this marks a reconstruction as non-unique.
_GRAM_TOL = 1e-8


# ----------------------------------------------------------------------------
# probe families
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProbeBasis:
    """Orthonormalized representation space for the two kernel components:
    the probe families `h1` and `h2` and their whitening transforms.

    Equality and hashing are by identity (see `types.SigmaFunction`).
    """

    h1: ProbeFamily
    h2: ProbeFamily
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
    per process and shared: its families (`probe_family`) and its whitening
    transforms are read-only.
    """
    n_sin, n_cos = (int(v) for v in n_modes)
    h1, h2 = slot_layout(p).kernels(probe_family("sin", n_sin, n_poly, freq_step),
                                    probe_family("cos", n_cos, n_poly, freq_step))
    b1, b2 = (_whiten(_gram_block(family)) for family in (h1, h2))
    b1.setflags(write=False)
    b2.setflags(write=False)
    return ProbeBasis(h1=h1, h2=h2, p=p, b1=b1, b2=b2)


def moment_design(system: MomentSystem, basis: ProbeBasis):
    """Normalized design matrix over the orthonormal probe space, plus targets.

    Row n is (phi_i, v_n)/||v_n|| and the right-hand side w_n/||v_n||, so the
    solution of D x = b holds the Cauchy data's own coefficients, of least
    true product-space norm.  The columns are read from the system's own
    `trig_rows`, which every design of one system shares.  The rows of a
    stacked system come trial by trial, so the design is always (rows,
    columns).
    """
    layout = system.layout
    inv_norm = 1.0 / np.maximum(system.norms.reshape(-1), 1e-300)
    d1 = _component_columns(basis.h1, system.rows) @ basis.b1
    d2 = _component_columns(basis.h2, system.rows) @ basis.b2
    d1 *= (layout.k1.reshape(-1) * inv_norm)[:, None]
    d2 *= (layout.k2.reshape(-1) * inv_norm)[:, None]
    slots = layout.slots.reshape(inv_norm.size, -1) * inv_norm[:, None]
    design = np.concatenate([d1, d2, slots], axis=1)
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
    sets `deficient` when the smallest one is among them; a full-rank system
    is solved by QR (`svd_solve`), in float64 when its design and targets
    are real.  The `CauchyData` returned carries its probe series and, as
    `meta`, the solve report, read from the design's singular values.

    A stacked system is solved with one `svd_solve` over its (trials, N, K)
    design stack and gives a list of `CauchyData`, one per trial, each by
    the rules above; all trials share one probe basis.
    """
    design, rhs = moment_design(system, basis)
    design = design.reshape(system.ws.shape + design.shape[-1:])
    z, svals, residual = svd_solve(design, rhs.reshape(system.ws.shape), reg)
    smax, smin = svals[..., 0], svals[..., -1]
    ratio = np.divide(smin, smax, out=np.zeros_like(smax), where=smax > 0)
    d1, d2 = basis.b1.shape[1], basis.b2.shape[1]
    x1 = z[..., :d1] @ basis.b1.T
    x2 = z[..., d1: d1 + d2] @ basis.b2.T
    t = np.linspace(0.0, np.pi, system.grid_m + 1)
    j = synth_series(basis.h1, x1, t)
    g = synth_series(basis.h2, x2, t)
    out = []
    for k in np.ndindex(system.ws.shape[:-1]):
        meta = {
            "residual": float(residual[k]),
            "cond": float(smax[k] / smin[k]) if smin[k] > 0 else np.inf,
            "smin_ratio": float(ratio[k]),
            "design_shape": design.shape[-2:],
            "deficient": bool(ratio[k] <= _RANK_TOL),
            "reg": reg,
        }
        series = {"j": (basis.h1, x1[k]), "g": (basis.h2, x2[k])}
        out.append(CauchyData(j[k], g[k], z[k][d1 + d2:], series=series, meta=meta))
    return out if system.ws.ndim > 1 else out[0]


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
    """Relative residual of (u, v(., lambda)) = Delta(lambda) + w(lambda), where
    u = conj([J, G, A]), so that (u, v) pairs the data with v without conjugation."""
    v = build_v(lam, f, pair.p, data.j.size - 1)
    lhs = complex(np.sum(data.weights() * (data.j * v.j + data.g * v.g)) + np.sum(data.a * v.a))
    delta = complex(np.asarray(char_delta(sigma, pair, f, np.array([lam]))).ravel()[0])
    w = build_moment_system(Subspectrum([lam]), f, pair.p, data.j.size - 1).ws[0]
    scale = max(abs(delta), abs(w), abs(lhs), 1.0)
    return abs(lhs - delta - w) / scale


def reconstruct(p: int, f: EntirePair, subspectrum: Subspectrum, grid: int,
                reg: float = 0.0, basis: Optional[ProbeBasis] = None) -> CauchyData:
    """Recover generalized Cauchy data from a subspectrum.

    Composes the moment-system assembly and the normalized least-squares
    solve over `basis` (by default `default_basis`); the returned
    `CauchyData`, on the uniform grid of `grid` cells, carries the
    reconstruction report as `meta`.

    The uniqueness verdict is one rule: the report's `completeness` block is
    `completeness_ratio` of the solved system, whose gram ratio counts as 0
    when the solve design or the completeness design has fewer rows than
    columns, and a gram ratio at or below 1e-8 sets `non_unique`, adds one
    message to `warnings` and emits it as NonUniqueWarning.  The solve's
    `cond`, `smin_ratio` and `deficient` stay in the report as evidence only.
    """
    system = build_moment_system(subspectrum, f, p, grid)
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
    modes = {family.kind: family.mu.size for family in (basis.h1, basis.h2)}
    report = {
        "n_rows": len(system),
        "probe_modes": (modes["sin"], modes["cos"]),
        "probe_dim": basis.dim,
        "residual": data.meta["residual"],
        "cond": data.meta["cond"],
        "smin_ratio": data.meta["smin_ratio"],
        "deficient": data.meta["deficient"],
        "reg": reg,
        "completeness": comp,
        "non_unique": bool(warn_msgs),
        "warnings": warn_msgs,
        "subspectrum": asdict(subspectrum.diagnostics()),
    }
    return replace(data, meta=report)


def completeness_ratio(system: MomentSystem) -> dict:
    """Spanning evidence: min/max singular value of the design over a probe
    space at half-integer frequency resolution, two monomials per component.

    A healthy (complete) moment system keeps the ratio at O(1); losing a
    required eigenvalue leaves a probe direction nearly unseen by every row
    and the ratio collapses as the row count grows.  `gram_ratio`, the
    squared ratio, is what `reconstruct`'s uniqueness verdict judges.  The
    singular values are taken in float64 when the design is real.
    """
    n = max(4, (len(system) - system.p - 3) // 2)
    basis = make_probe_basis(system.p, (n, n), n_poly=2, freq_step=0.5)
    design, _ = moment_design(system, basis)
    svals = np.linalg.svd(exact_real(design), compute_uv=False)
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


def stability_experiment(p: int, f: EntirePair, subspectrum: Subspectrum, grid: int,
                         omegas, trials: int = 20, seed: int = 0,
                         reg: float = 0.0) -> dict:
    """Perturb the subspectrum roots at fixed l2 size and measure the response.

    Each trial draws i.i.d. complex Gaussian noise on the rho values (real
    part, then imaginary part, omega by omega and trial by trial) and
    rescales it to the exact target omega.  All noise is drawn first, in one
    call of the generator; the perturbed subspectra form one stack, solved
    by one `solve_moment` call with the rules of `reconstruct` (one
    f-evaluation, one design, one SVD).
    Each row records the product-space and component-wise errors against the
    unperturbed solve, which runs on its own; its report is `base`.  The
    errors are normed over the stack of the trials' kernels at once.
    `noise_plan` checks `omegas` and `trials`.
    """
    omegas = noise_plan(omegas, trials)
    rng = np.random.default_rng(seed)
    basis = default_basis(subspectrum, p)
    base = reconstruct(p, f, subspectrum, grid, reg=reg, basis=basis)

    # one draw of the whole stream, each trial's real then imaginary parts;
    # each trial is normed on its own, as `np.linalg.norm` of one vector
    draws = rng.standard_normal((len(omegas) * trials, 2, len(subspectrum)))
    draws = draws[:, 0] + 1j * draws[:, 1]
    sizes = np.repeat(omegas, trials)
    noise = np.zeros_like(draws)
    for i in np.flatnonzero(sizes > 0):
        noise[i] = draws[i] * (sizes[i] / np.linalg.norm(draws[i]))
    rho = subspectrum.rhos + noise
    system = build_moment_system(Subspectrum(rho * rho), f, p, grid)
    solved = solve_moment(system, basis, reg=reg)

    # the trials' differences from the base as (trials, .) stacks, normed as
    # `CauchyData.norm` and its parts
    w = base.weights()
    dj = np.array([data.j for data in solved]) - base.j
    dg = np.array([data.g for data in solved]) - base.g
    da = np.array([data.a for data in solved]) - base.a
    sq_j, sq_g = (np.sum(w * np.abs(x) ** 2, axis=-1) for x in (dj, dg))
    err_u = np.sqrt(sq_j + sq_g + np.sum(np.abs(da) ** 2, axis=-1))
    err_a = np.max(np.abs(da), axis=-1, initial=0.0)
    rows = [{"omega": omegas[i // trials], "trial": i % trials, "err_u": float(err_u[i]),
             "err_j": float(np.sqrt(sq_j[i])), "err_g": float(np.sqrt(sq_g[i])),
             "err_a": float(err_a[i])} for i in range(len(solved))]
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
