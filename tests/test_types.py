import warnings

import numpy as np
import pytest

from conftest import no_common_zero, reflected, scaled
from invsl.errors import CommonRoot, DimensionMismatch, DuplicateEigenvalue, NormalizationViolation
from invsl.types import (
    BoundaryPolyPair,
    CauchyData,
    SigmaFunction,
    Subspectrum,
    branch_sqrt,
    hp_inner,
    validate_rp,
)


class TestValidateRp:
    def test_constant_pair(self):
        pair = BoundaryPolyPair([1.0], [0.0])
        assert validate_rp(pair) is None
        assert pair.p == 1 and pair.parity == "odd"

    def test_normalization_violation(self):
        with pytest.raises(NormalizationViolation):
            validate_rp(BoundaryPolyPair([0.5], [3.0]))

    def test_common_root(self):
        # p1 = p2 = lambda + 2 share the root -2
        with pytest.raises(CommonRoot):
            validate_rp(BoundaryPolyPair([2.0, 1.0], [2.0, 1.0]))

    def test_even_branch(self):
        pair = BoundaryPolyPair([0.8], [0.3, 1.0])
        validate_rp(pair)
        assert pair.p == 2 and pair.parity == "even"

    def test_even_needs_unit_lead(self):
        with pytest.raises(NormalizationViolation):
            validate_rp(BoundaryPolyPair([0.8], [0.3, 2.0]))

    def test_impossible_shape(self):
        with pytest.raises(NormalizationViolation):
            validate_rp(BoundaryPolyPair([1.0], [0.0, 0.1, 1.0]))

    def test_idempotent_and_total(self):
        # every admissible stored shape lands in exactly one parity branch
        for n1 in range(4):
            a = np.zeros(n1 + 1)
            a[-1] = 1.0
            pair = BoundaryPolyPair(a, 0.3 * np.ones(n1 + 1))
            validate_rp(pair)
            validate_rp(pair)
            assert pair.p == 2 * n1 + 1
            b = np.zeros(n1 + 2)
            b[-1] = 1.0
            b[0] = 0.4
            pair = BoundaryPolyPair(0.7 * np.ones(n1 + 1), b)
            validate_rp(pair)
            assert pair.p == 2 * (n1 + 1)

    def test_zero_p1_rejected(self):
        # even branch permits a trivial p1 in shape only; it shares every root
        with pytest.raises(CommonRoot):
            validate_rp(BoundaryPolyPair([0.0], [0.3, 1.0]))

    def test_large_roots_are_compared_without_overflow(self):
        # p1 = 1 + 1e-200 lambda has its root at -1e200, where p2(root) and
        # the tolerance's power of the root overflow; the pair is coprime and
        # passes with every warning an error, while the common root 1e100 of
        # p1 = 1 - 1e-100 lambda and p2 = (lambda - 1e100)(lambda - 1) is found
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            validate_rp(BoundaryPolyPair([1.0, 1e-200], [0.5, 0.2, 1.0]))
            with pytest.raises(CommonRoot):
                validate_rp(BoundaryPolyPair([1.0, -1e-100], [1e100, -1e100, 1.0]))


def _zero(grid_size, p):
    return CauchyData(np.zeros(grid_size), np.zeros(grid_size), np.zeros(p))


class TestHpInner:
    def test_zero(self):
        z = _zero(65, 2)
        assert hp_inner(z, z) == 0

    def test_unit_scalar_slot(self):
        g = CauchyData(np.zeros(65), np.zeros(65), [1.0, 0.0])
        assert hp_inner(g, g) == pytest.approx(1.0)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            g = CauchyData(rng.standard_normal(65) + 1j * rng.standard_normal(65),
                           rng.standard_normal(65) + 1j * rng.standard_normal(65),
                           rng.standard_normal(3) + 1j * rng.standard_normal(3))
            h = CauchyData(rng.standard_normal(65) + 1j * rng.standard_normal(65),
                           rng.standard_normal(65) + 1j * rng.standard_normal(65),
                           rng.standard_normal(3) + 1j * rng.standard_normal(3))
            assert hp_inner(g, h) == pytest.approx(np.conj(hp_inner(h, g)), abs=1e-12)

    def test_sesquilinearity(self):
        rng = np.random.default_rng(1)
        g = CauchyData(rng.standard_normal(33) + 0j, rng.standard_normal(33) + 0j, [0.5])
        h = CauchyData(rng.standard_normal(33) + 0j, rng.standard_normal(33) + 0j, [0.2])
        c = 0.7 - 1.3j
        assert hp_inner(scaled(g, c), h) == pytest.approx(np.conj(c) * hp_inner(g, h))
        assert hp_inner(g, scaled(h, c)) == pytest.approx(c * hp_inner(g, h))

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = rng.integers(1, 5)
            g = CauchyData(rng.standard_normal(65) + 1j * rng.standard_normal(65),
                           rng.standard_normal(65) + 1j * rng.standard_normal(65),
                           rng.standard_normal(p) + 1j * rng.standard_normal(p))
            h = CauchyData(rng.standard_normal(65) + 1j * rng.standard_normal(65),
                           rng.standard_normal(65) + 1j * rng.standard_normal(65),
                           rng.standard_normal(p) + 1j * rng.standard_normal(p))
            lhs = abs(hp_inner(g, h)) ** 2
            rhs = hp_inner(g, g).real * hp_inner(h, h).real
            assert lhs <= rhs * (1 + 1e-10)

    def test_dimension_mismatch(self):
        g = _zero(65, 1)
        with pytest.raises(DimensionMismatch):
            hp_inner(g, _zero(64, 1))
        with pytest.raises(DimensionMismatch):
            hp_inner(g, _zero(65, 2))

    def test_norm_zero_only_for_zero(self):
        g = CauchyData(np.zeros(65), np.zeros(65), [1e-9])
        assert g.norm() > 0
        assert _zero(65, 1).norm() == 0


class TestSubspectrum:
    def test_rho_branch(self):
        rng = np.random.default_rng(3)
        lam = np.concatenate([
            rng.standard_normal(50) + 1j * rng.standard_normal(50),
            -rng.uniform(0.1, 30, 10),          # negative reals
            rng.uniform(0.1, 30, 10),
        ])
        rho = Subspectrum(lam).rhos
        assert np.all((rho.real > 0) | ((rho.real == 0) & (rho.imag <= 0)))
        assert np.allclose(rho * rho, lam)

    def test_simple_check(self):
        Subspectrum([1.0, 2.0, 3.0]).require_simple()
        with pytest.raises(DuplicateEigenvalue):
            Subspectrum([1.0, 2.0, 2.0 + 1e-12]).require_simple()

    def test_stack_is_simple_row_by_row(self):
        # rows may repeat one another; a repeat within a row is not simple
        rows = np.array([[1.0, 4.0, 9.0], [1.0, 4.0, 9.0], [1.0, 4.5, 9.0]])
        stack = Subspectrum(rows).require_simple()
        assert len(stack) == 9
        assert stack.diagnostics().min_gap == pytest.approx(3.0)
        rows[2, 2] = 4.5
        with pytest.raises(DuplicateEigenvalue):
            Subspectrum(rows).require_simple()

    def test_class_a_diagnostics(self):
        lam = (np.arange(1, 21) - 0.5) ** 2
        d = Subspectrum(lam).diagnostics()
        assert d.simple
        assert d.min_abs_lambda == pytest.approx(0.25)
        assert d.max_im_rho == 0
        assert d.sum_inv_rho_sq == pytest.approx(np.sum(1 / lam))

    @pytest.mark.parametrize("lambdas", [
        (np.arange(1, 9) - 0.5) ** 2,
        np.array([[1.0, 4.0, 9.0], [1.0, 4.5, 9.0 + 2j]]),
    ], ids=["row", "stack"])
    def test_diagnostics_computed_once(self, lambdas):
        sub = Subspectrum(lambdas)
        first = sub.diagnostics()
        assert sub.require_simple().diagnostics() is first
        assert first == Subspectrum(lambdas).diagnostics()

    @pytest.mark.parametrize("method", ["drop_first", "take"])
    def test_each_slice_has_its_own_diagnostics(self, method):
        # the slices keep neither the close pair nor the gap of the whole
        sub = Subspectrum([1.0, 4.0, 4.0 + 1e-9, 9.0, 25.0])
        whole = sub.diagnostics()
        part = getattr(sub, method)(2)
        assert part.diagnostics() == Subspectrum(part.lambdas.copy()).diagnostics()
        assert part.diagnostics().simple and not whole.simple
        assert sub.diagnostics() is whole

    @pytest.mark.parametrize("method", ["drop_first", "take"])
    def test_negative_count_rejected(self, method):
        # a negative slice bound would keep the last eigenvalues instead
        sub = Subspectrum(np.arange(1, 6, dtype=complex) ** 2)
        with pytest.raises(ValueError, match="negative count"):
            getattr(sub, method)(-2)


class TestSigmaFunction:
    def test_grid_minimum(self):
        with pytest.raises(ValueError):
            SigmaFunction(np.zeros(10), np.pi)

    def test_reflected(self):
        sig = SigmaFunction.from_callable(lambda x: x, np.pi, 32)
        refl = reflected(sig)
        assert np.allclose(refl.samples, -sig.samples[::-1])

    def test_halves(self):
        sig = SigmaFunction.from_callable(np.cos, 2 * np.pi, 64)
        left, right = sig.halves()
        assert left.m == right.m == 32
        assert left.samples[-1] == right.samples[0]


def test_branch_sqrt_negative_real_axis():
    z = branch_sqrt(np.array([-4.0 + 0j]))
    assert z[0] == pytest.approx(-2j)


def test_entire_pair_common_zero_screen():
    from invsl.types import EntirePair

    f = EntirePair(lambda lam: (np.cos(np.sqrt(lam) * np.pi), np.sin(np.sqrt(lam) * np.pi)))
    # cos and sin never vanish together
    assert no_common_zero(f, np.linspace(0.3, 20, 37) + 0j)
    g = EntirePair(lambda lam: (lam - 4.0, (lam - 4.0) ** 2))
    assert not no_common_zero(g, np.array([4.0 + 0j]))


def test_value_objects_are_frozen():
    sig = SigmaFunction.zero(np.pi, 32)
    with pytest.raises(ValueError):
        sig.samples[0] = 1.0
    h = _zero(33, 1)
    with pytest.raises(ValueError):
        h.j[0] = 1.0
    sub = Subspectrum([1.0, 2.0])
    with pytest.raises(ValueError):
        sub.lambdas[0] = 5.0


@pytest.mark.parametrize("make", [
    lambda: SigmaFunction.zero(np.pi, 32),
    lambda: BoundaryPolyPair([1.0], [0.3]),
    lambda: Subspectrum([1.0, 2.0]),
    lambda: _zero(33, 1),
], ids=["SigmaFunction", "BoundaryPolyPair", "Subspectrum", "CauchyData"])
def test_array_valued_objects_compare_and_hash_by_identity(make):
    # the generated value equality compared the array fields, which raised
    # ValueError, and hashed them, which raised TypeError
    a, b = make(), make()
    assert a == a and a != b
    assert a in [b, a] and b not in [a]
    assert hash(a) == hash(a) and len({a, b, a}) == 2
