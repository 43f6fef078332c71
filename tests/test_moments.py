import numpy as np
import pytest

from invsl.errors import DuplicateEigenvalue, ParityMismatch
from invsl.forward import char_pair, extract_cauchy, find_eigenvalues, make_delta
from invsl.moments import (
    basis_diagnostics,
    build_moment_system,
    build_v,
    build_w,
    row_norm_exact,
    u_from_cauchy,
    xi_identity_residual,
)
from invsl.problems import sigma_bump
from invsl.reconstruct import moment_identity_check
from invsl.types import BoundaryPolyPair, EntirePair, SigmaFunction, Subspectrum

F10 = EntirePair.constant(1.0, 0.0)
F01 = EntirePair.constant(0.0, 1.0)
F11 = EntirePair.constant(1.0, 1.0)
SIG0 = SigmaFunction.zero(np.pi, 512)


class TestBuildV:
    def test_p1_example(self):
        v = build_v(1.0, F10, 1, 256)
        t = np.linspace(0, np.pi, 257)
        assert np.max(np.abs(v.h1 - np.sin(t))) <= 1e-14
        assert np.max(np.abs(v.h2)) == 0
        assert np.allclose(v.scalars, [1.0])

    def test_p3_scalar_slots(self):
        v = build_v(4.0, F11, 3, 128)
        assert np.allclose(v.scalars, [1.0, 1.0, 4.0])

    def test_p2_even_example(self):
        v = build_v(1.0, F01, 2, 128)
        t = np.linspace(0, np.pi, 129)
        assert np.max(np.abs(v.h1)) == 0
        assert np.max(np.abs(v.h2 - np.sin(t))) <= 1e-14
        assert np.allclose(v.scalars, [0.0, 1.0])

    def test_slot_count_matches_p(self):
        for p in range(1, 7):
            assert build_v(2.3, F11, p, 64).p == p

    def test_real_for_real_inputs(self):
        for p in (1, 2, 3, 4):
            v = build_v(7.1, F11, p, 64)
            assert np.max(np.abs(v.h1.imag)) <= 1e-14
            assert np.max(np.abs(v.h2.imag)) <= 1e-14

    def test_parity_guard(self):
        with pytest.raises(ParityMismatch):
            build_v(1.0, F10, 0, 64)


class TestBuildW:
    def test_examples(self):
        assert build_w(0.25, F10, 1) == pytest.approx(0.5)
        assert build_w(1.0, F01, 1) == pytest.approx(1.0)
        assert build_w(1.0, F10, 2) == pytest.approx(-1.0)


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
        u = u_from_cauchy(trivial_data)
        v = build_v(lam, F01, 1, u.grid_size - 1)
        from invsl.types import hp_inner
        w = build_w(lam, F01, 1)
        scale = max(abs(w), 1.0)
        assert abs(hp_inner(u, v) - w) / scale <= 1e-6

    def test_zero_data_zero_f(self):
        from invsl.types import CauchyData
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
                assert build_w(lam, F01, p) == pytest.approx(w, rel=1e-14)

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


class TestCompanionCollinearity:
    def test_rank_one_against_v(self):
        # at an eigenvalue the companion row is a scalar multiple of v
        sig = sigma_bump(256, amp=0.4)
        pair = BoundaryPolyPair([0.3, 1.0], [0.5, 0.2])   # p = 3
        f = F11
        delta, _ = make_delta(sig, pair, f)
        spec = find_eigenvalues(delta, (-4.0, 90.0)).take(8)
        d0, d1 = char_pair(sig, pair, spec.lambdas)
        t = np.linspace(0, np.pi, 257)
        for i, lam in enumerate(spec.lambdas):
            g = build_v(lam, EntirePair.constant(d0[i], -d1[i]), pair.p, t)
            v = build_v(lam, f, pair.p, t)
            rows = np.stack([
                np.concatenate([g.h1, g.h2, g.scalars]),
                np.concatenate([v.h1, v.h2, v.scalars]),
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
        assert row_norm_exact(3.7, F11, p) > 0
