import numpy as np
import pytest

from conftest import conjugate
from invsl.errors import DuplicateEigenvalue, ParityMismatch
from invsl.forward import char_pair, extract_cauchy, find_eigenvalues, make_delta
from invsl.moments import (
    basis_diagnostics,
    build_moment_system,
    build_v,
    build_w,
    row_norm_exact,
    slot_layout,
    svd_solve,
    xi_identity_residual,
)
from invsl.problems import sigma_bump
from invsl.reconstruct import moment_identity_check
from invsl.types import (
    BoundaryPolyPair,
    CauchyData,
    EntirePair,
    SigmaFunction,
    Subspectrum,
    branch_sqrt,
    hp_inner,
)

F10 = EntirePair.constant(1.0, 0.0)
F01 = EntirePair.constant(0.0, 1.0)
F11 = EntirePair.constant(1.0, 1.0)
SIG0 = SigmaFunction.zero(np.pi, 512)


def _at(lam, f, p):
    """(rho, slot layout) of the moment row of f at one lambda."""
    (f1,), (f2,) = f(np.array([lam], dtype=complex))
    return branch_sqrt(lam), slot_layout(p, lam, f1, f2)


class TestBuildV:
    def test_p1_example(self):
        v = build_v(1.0, F10, 1, 256)
        t = np.linspace(0, np.pi, 257)
        assert np.max(np.abs(v.j - np.sin(t))) <= 1e-14
        assert np.max(np.abs(v.g)) == 0
        assert np.allclose(v.a, [1.0])

    def test_p3_scalar_slots(self):
        v = build_v(4.0, F11, 3, 128)
        assert np.allclose(v.a, [1.0, 1.0, 4.0])

    def test_p2_even_example(self):
        v = build_v(1.0, F01, 2, 128)
        t = np.linspace(0, np.pi, 129)
        assert np.max(np.abs(v.j)) == 0
        assert np.max(np.abs(v.g - np.sin(t))) <= 1e-14
        assert np.allclose(v.a, [0.0, 1.0])

    def test_slot_count_matches_p(self):
        for p in range(1, 7):
            assert build_v(2.3, F11, p, 64).p == p

    def test_real_for_real_inputs(self):
        for p in (1, 2, 3, 4):
            v = build_v(7.1, F11, p, 64)
            assert np.max(np.abs(v.j.imag)) <= 1e-14
            assert np.max(np.abs(v.g.imag)) <= 1e-14

    def test_parity_guard(self):
        with pytest.raises(ParityMismatch):
            build_v(1.0, F10, 0, 64)


class TestBuildW:
    def test_examples(self):
        assert build_w(*_at(0.25, F10, 1)) == pytest.approx(0.5)
        assert build_w(*_at(1.0, F01, 1)) == pytest.approx(1.0)
        assert build_w(*_at(1.0, F10, 2)) == pytest.approx(-1.0)


@pytest.fixture(scope="module")
def trivial_data():
    return extract_cauchy(SIG0, BoundaryPolyPair([1.0], [0.0]))


class TestMomentIdentity:

    def test_at_generic_lambda(self, trivial_data):
        pair = BoundaryPolyPair([1.0], [0.0])
        assert moment_identity_check(trivial_data, 2.0, F01, pair, SIG0) <= 1e-6

    def test_at_eigenvalue_reduces_to_w(self, trivial_data):
        # Delta vanishes there, so (u, v_n) - w_n itself must be small
        pair = BoundaryPolyPair([1.0], [0.0])
        lam = (3 - 0.5) ** 2
        u = conjugate(trivial_data)
        v = build_v(lam, F01, 1, u.j.size - 1)
        w = build_w(*_at(lam, F01, 1))
        scale = max(abs(w), 1.0)
        assert abs(hp_inner(u, v) - w) / scale <= 1e-6

    def test_zero_data_zero_f(self):
        data = CauchyData(np.zeros(129), np.zeros(129), [0.0])
        f0 = EntirePair.constant(0.0, 0.0)
        assert moment_identity_check(data, 3.0, f0, BoundaryPolyPair([1.0], [0.0]), SIG0) == 0


class TestMomentSystem:
    def test_rows_and_norms(self):
        sub = Subspectrum((np.arange(1, 9) - 0.5) ** 2 + 0j)
        for p in (1, 2, 3, 4):
            sys_ = build_moment_system(sub, F01, p, 128)
            assert len(sys_) == 8
            assert np.all(sys_.norms > 0)
            # closed-form norms agree with the grid quadrature at grid accuracy
            for lam, w, n in zip(sub.lambdas, sys_.ws, sys_.norms):
                assert build_v(lam, F01, p, 128).norm() == pytest.approx(n, rel=1e-4)
                assert build_w(*_at(lam, F01, p)) == pytest.approx(w, rel=1e-14)

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEigenvalue):
            build_moment_system(Subspectrum([1.0, 1.0]), F01, 1, 64)


class TestXiIdentity:
    def test_integer_sines(self):
        assert xi_identity_residual([1.0, 2.0, 3.0]) <= 1e-8

    def test_generic_pair(self):
        assert xi_identity_residual([0.9, 2.1]) <= 1e-8

    def test_equal_rhos_diagonal(self):
        assert xi_identity_residual([1.7, 1.7]) <= 1e-10

    def test_hundred_random_pairs(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(100):
            r = rng.uniform(0.5, 20, 2) + 1j * rng.uniform(0, 0.3, 2)
            worst = max(worst, xi_identity_residual(r))
        assert worst <= 1e-8

    @pytest.mark.parametrize("top, panels", [(19.5, 80), (24.5, 100), (40.5, 164)])
    def test_drawn_sets_with_imaginary_rho(self, top, panels):
        # the (0, pi) rule is the first half of the (0, 2pi) rule; a (0, pi)
        # grid of its own has the same edges at 80 panels but not at 100 or
        # 164, where its last edge is pi (at 164 a node moves by an ulp); the
        # imaginary rho (lambda < 0) are drawn with |Im rho| < 0.5
        rng = np.random.default_rng(int(top))
        worst = 0.0
        for _ in range(20):
            lam = np.concatenate([[top**2], rng.uniform(-0.25, 0.0, 2),
                                  rng.uniform(0.5, top**2, 6),
                                  rng.uniform(0.5, top**2, 2) + 1j * rng.uniform(-5, 5, 2)])
            rho = branch_sqrt(lam)
            assert int(max(24, 4 * np.ceil(np.max(np.abs(rho))))) == panels
            worst = max(worst, xi_identity_residual(rho))
        assert worst <= 1e-12


    @pytest.mark.parametrize("lam0", [-1.0, -4.0, -9.0, -25.0])
    def test_negative_eigenvalue_is_rounding_level(self, lam0):
        # the Gram entries of rho = i sqrt(-lam0) grow as sinh(2 pi |rho|)^2,
        # which the residual is relative to: as an absolute residual it read
        # 2.9e-11, 1.1e-5, 4.75 and 3.4e11 on these valid sets (measured
        # 8.1e-16 to 6.9e-15 relative)
        assert xi_identity_residual(branch_sqrt(np.array([lam0, 1.0, 4.0, 9.0, 16.0]))) <= 1e-12


class TestCompanionCollinearity:
    def test_rank_one_against_v(self):
        # at an eigenvalue the companion row is a scalar multiple of v
        sig = sigma_bump(256, amp=0.4)
        pair = BoundaryPolyPair([0.3, 1.0], [0.5, 0.2])   # p = 3
        f = F11
        delta, _ = make_delta(sig, pair, f)
        spec = find_eigenvalues(delta, (-4.0, 90.0)).take(8)
        d0, d1 = char_pair(sig, pair, spec.lambdas)
        for i, lam in enumerate(spec.lambdas):
            comp = build_v(lam, EntirePair.constant(d0[i], -d1[i]), pair.p, 256)
            v = build_v(lam, f, pair.p, 256)
            rows = np.stack([
                np.concatenate([comp.j, comp.g, comp.a]),
                np.concatenate([v.j, v.g, v.a]),
            ])
            s = np.linalg.svd(rows, compute_uv=False)
            assert s[1] <= 1e-8 * s[0]


class TestBasisDiagnostics:
    def test_integer_sines_orthogonal(self):
        bd = basis_diagnostics(np.arange(1, 21, dtype=complex), length=np.pi)
        assert bd.conds[-1] == pytest.approx(1.0, abs=1e-10)
        assert bd.basis_like

    def test_dirichlet_family_bounded(self):
        for n in (10, 20, 40):
            rhos = (np.arange(1, n + 1) - 0.5).astype(complex)
            bd = basis_diagnostics(rhos, length=2 * np.pi)
            assert bd.conds[-1] < 10

    def test_duplicate_rank_deficiency(self):
        rhos = np.array([1.0, 2.0, 2.0, 3.0], dtype=complex)
        bd = basis_diagnostics(rhos, length=2 * np.pi)
        assert bd.smin <= 1e-10


def test_row_norm_exact_positive():
    for p in (1, 2, 3):
        assert row_norm_exact(*_at(3.7, F11, p)) > 0


def _conditioned_stack(seed, trials, rows, cols, cond, complex_):
    """`trials` designs (rows, cols) with singular values spaced geometrically
    from 1 to 1/cond, and right-hand sides with a part off their range."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if complex_ else z

    u, _ = np.linalg.qr(draw(trials, rows, cols))
    v, _ = np.linalg.qr(draw(trials, cols, cols))
    design = (u * np.geomspace(1.0, 1.0 / cond, cols)) @ v.conj().swapaxes(-1, -2)
    rhs = (design @ draw(trials, cols, 1))[..., 0] + 1e-3 * draw(trials, rows)
    return design, rhs


class TestSvdSolve:
    @pytest.fixture
    def qr_calls(self, monkeypatch):
        calls, qr = [], np.linalg.qr

        def counting_qr(a, *args, **kwargs):
            calls.append(np.shape(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        return calls

    def test_qr_only_where_nothing_is_truncated(self, qr_calls):
        design, rhs = _conditioned_stack(0, 5, 12, 8, 1e3, True)
        qr_calls.clear()
        svd_solve(design, rhs)
        assert qr_calls == [(5, 12, 9)]        # [design | rhs], once for the stack
        qr_calls.clear()
        truncating = design.copy()
        truncating[2, :, -1] = truncating[2, :, 0]     # trial 2 has two equal columns
        svd_solve(truncating, rhs)
        svd_solve(design, rhs, reg=1e-6)
        svd_solve(design[:, :6], rhs[:, :6])           # fewer rows than columns
        assert qr_calls == []

    @pytest.mark.parametrize("complex_", [False, True])
    def test_real_system_is_solved_in_float64(self, complex_):
        design, rhs = _conditioned_stack(1, 3, 12, 8, 1e3, complex_)
        x, s, residual = svd_solve(design.astype(complex), rhs.astype(complex))
        assert x.dtype == (np.complex128 if complex_ else np.float64)
        assert s.dtype == residual.dtype == np.float64

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("cond", [1e2, 1e8])
    def test_qr_agrees_with_lstsq(self, complex_, cond):
        # QR and the SVD behind lstsq are both backward stable, so the two
        # solutions agree to a small multiple of cond * eps of their size
        design, rhs = _conditioned_stack(2, 4, 40, 37, cond, complex_)
        x, s, residual = svd_solve(design, rhs)
        bound = 40 * cond * np.finfo(float).eps
        for k in range(len(design)):
            ref, res_sq, _, ref_s = np.linalg.lstsq(design[k], rhs[k], rcond=None)
            assert np.linalg.norm(x[k] - ref) <= bound * np.linalg.norm(ref)
            assert np.allclose(s[k], ref_s, rtol=1e-12, atol=1e-14)
            assert residual[k] == pytest.approx(np.sqrt(res_sq[0]), rel=1e-6)

    def test_mixed_stack_equals_its_trials(self):
        # one truncating trial sends the whole stack to the singular vectors;
        # each trial still gets its own solve
        design, rhs = _conditioned_stack(3, 4, 40, 37, 1e4, True)
        design[1, :, 5] = design[1, :, 7]
        x, s, residual = svd_solve(design, rhs)
        bound = 40 * 1e4 * np.finfo(float).eps
        for k in range(len(design)):
            xk, sk, rk = svd_solve(design[k], rhs[k])
            assert np.linalg.norm(x[k] - xk) <= bound * np.linalg.norm(xk)
            assert np.allclose(s[k], sk, rtol=1e-12, atol=1e-14)
            assert residual[k] == pytest.approx(rk, rel=1e-9)
