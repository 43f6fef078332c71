import hashlib
import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complex_array_loop,
    encode_array_loop,
    gauss_panels,
    jsonable_loop,
    poly_series_loop,
)
from invsl import schemas
from invsl.errors import SchemaError
from invsl.cli import main
from invsl.forward import find_eigenvalues, winding_count
from invsl.halfinverse import hl_entire_pair
from invsl.serialize import (
    canonical_dumps,
    complex_array,
    encode_array,
    entire_pair_from_json,
    entire_pair_to_json,
    jsonable,
    pair_from_json,
    problem_from_json,
    problem_to_json,
    sigma_from_json,
    sigma_to_json,
    subspectrum_to_json,
)
from invsl.moments import probe_family
from invsl.ode import _TAYLOR_DEGREE, _TAYLOR_RADIUS
from invsl.trig import (
    _legendre_rule,
    _series_table,
    cos_sinc_sqrt,
    gauss_nodes,
    overlap,
    poly_trig,
    sinc,
    synth_series,
)
from invsl.types import BoundaryPolyPair, EntirePair, SigmaFunction, Subspectrum


def _series_loop(family, coeffs, t):
    """One series, one scalar coefficient at a time."""
    wave = np.sin if family.kind == "sin" else np.cos
    out = np.zeros_like(t, dtype=complex)
    n_poly = len(family.degrees)
    for k, c in enumerate(coeffs):
        out += c * (t ** family.degrees[k] if k < n_poly else wave(family.mu[k - n_poly] * t))
    return out


def test_synth_series_rows_equal_single_series():
    # a coefficient stack sums every row as the scalar loop does, bit for bit
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, np.pi, 129)
    for kind in ("sin", "cos"):
        family = probe_family(kind, 3, 3, 0.5)
        coeffs = rng.standard_normal((4, len(family))) + 1j * rng.standard_normal((4, len(family)))
        stacked = synth_series(family, coeffs, t)
        assert stacked.shape == (4, 129)
        for row, c in zip(stacked, coeffs):
            assert np.array_equal(row, _series_loop(family, c, t))
            assert np.array_equal(row, synth_series(family, list(c), t))


# |z2| just inside and just outside the disc on which the cell propagator
# takes the Taylor polynomials of cos(w) and sin(w)/w
AT_TAYLOR_RADIUS = _TAYLOR_RADIUS * np.array([1.0 - 1e-3, 1.0 + 1e-3])


class TestTrigClosedForms:
    """Dual route: every closed form against direct Gauss-Legendre quadrature."""

    rng = np.random.default_rng(31)

    def _check(self, closed, integrand, mu, rho):
        val = complex(np.asarray(closed(mu, np.array([rho]))).ravel()[0])
        ref = complex(gauss_panels(lambda t: integrand(mu, rho, t), 0.0, np.pi, 64))
        assert val == pytest.approx(ref, abs=1e-12, rel=1e-12)

    def test_overlaps(self):
        for _ in range(20):
            mu = self.rng.uniform(0, 12) + 1j * self.rng.uniform(-0.2, 0.2)
            rho = self.rng.uniform(0, 12) + 1j * self.rng.uniform(-0.2, 0.2)
            self._check(lambda m, r: overlap(m, r, -1),
                        lambda m, r, t: np.sin(m * t) * np.sin(r * t), mu, rho)
            self._check(lambda m, r: overlap(m, r, 1),
                        lambda m, r, t: np.cos(m * t) * np.cos(r * t), mu, rho)

    @staticmethod
    def _poly_trig_against_quadrature(rho, **tol):
        # the integrals of t^m sin(rho t) (s = 1) and t^m cos(rho t) (s = 0),
        # m = 0..4, against quadrature to `tol` (pytest.approx's)
        rho = np.asarray(rho, dtype=complex)
        degrees = list(range(5))
        for s, trig_fn in ((1, np.sin), (0, np.cos)):
            got = poly_trig(degrees, rho, s, np.sin(rho * np.pi), np.cos(rho * np.pi))
            for m, row in zip(degrees, got):
                for r, val in zip(rho, row):
                    ref = complex(gauss_panels(lambda t: t**m * trig_fn(r * t), 0.0, np.pi, 64))
                    assert val == pytest.approx(ref, **tol)

    def test_poly_trig(self):
        self._poly_trig_against_quadrature([0.01, 0.3, 2.7, 9.4, 1.2 + 0.3j], abs=1e-12)

    def test_poly_trig_where_series_meets_recurrence(self):
        # |rho| pi = 0.5 and 1 (1 -+ 1e-9), real, on a ray and imaginary,
        # degrees 0-4, relative to each integral alone: the power series
        # serves |rho| pi < 1, across the old switch at 0.5 too, to 1e-14
        # (measured 5.8e-16).  Dividing by rho at every step, the recurrence
        # just above 1 keeps 14 digits of the degree-4 integrals (measured
        # 1.7e-14; above 0.5 it kept 13, 5.8e-13)
        for edge, rel in ((0.5 * (1 - 1e-9), 1e-14), (0.5 * (1 + 1e-9), 1e-14),
                          (1 - 1e-9, 1e-14), (1 + 1e-9, 1e-13)):
            rho = edge / np.pi * np.array([1.0, np.exp(0.4j), 1j])
            self._poly_trig_against_quadrature(rho, abs=0.0, rel=rel)

    def test_poly_trig_rows_equal_row_by_row(self):
        # one call over rows that mix the series (|rho| pi < 1, rho = 0
        # among them) and the recurrence, on real, imaginary (lambda < 0) and
        # complex rho, gives every row as a call on that row alone does, bit
        # for bit; so do rows that are all small.  A small row alone is the
        # Horner pass with coefficients formed at every step, bit for bit
        mixed = np.array([0.01, 7.3, 0.2j, 2.5, 0.3 * np.exp(0.7j), 1.2 + 0.3j,
                          4.1j, 0.0, 0.15j, 19.6])
        for rho in (mixed, np.array([0.01, 0.2j, 0.0, 0.3 * np.exp(0.7j)])):
            small = np.abs(rho) * np.pi < 1.0
            for degrees in ((0, 1, 2), (1, 2), (0, 3, 4)):
                for s in (0, 1):
                    def call(r):
                        return poly_trig(degrees, r, s, np.sin(r * np.pi), np.cos(r * np.pi))

                    want = np.concatenate([call(rho[k:k + 1]) for k in range(rho.size)], axis=1)
                    assert call(rho).tobytes() == want.tobytes()
                    series = poly_series_loop(degrees, rho[small], np.pi, s)
                    assert want[:, small].tobytes() == series.tobytes()

    def test_series_tables_are_cached_and_read_only(self):
        coefs, scale = _series_table((0, 1, 2), 1, np.pi)
        assert _series_table((0, 1, 2), 1, np.pi)[0] is coefs
        assert coefs.shape == (10, 3, 1) and scale.shape == (3, 1)
        for table in (coefs, scale):
            with pytest.raises(ValueError):
                table[0] = 0.0

    def test_sinc_series_matches_direct(self):
        z = np.array([1e-5, 5e-5 + 1e-5j, 9e-5])
        direct = np.sin(z.astype(complex)) / z
        assert np.max(np.abs(sinc(z) - direct)) <= 1e-15

    def test_cos_sinc_sqrt_against_mpmath(self):
        # zero, small and moderate |z2|, both signs, complex arguments, the
        # exponential range of negative z2, and four rays across the Taylor
        # radius of the cell propagator
        mpmath = pytest.importorskip("mpmath")
        z2 = np.array([0.0, 1e-12, 9.9e-5, -1.01e-4, 1e-4j, 9.9e-3, -9.9e-3, 1.01e-2,
                       -1.01e-2, 1.01e-2j, 0.3 - 0.2j, 2.5, -40.0, -7.0 + 3.0j, 60.0 + 0.5j])
        z2 = np.concatenate([z2] + [AT_TAYLOR_RADIUS * np.exp(1j * t) for t in (0.3, 1.6, 2.0, -2.8)])
        got = cos_sinc_sqrt(z2)
        with mpmath.workdps(40):
            for i, z in enumerate(z2):
                w = mpmath.sqrt(mpmath.mpc(z))
                for val, r in zip(got, (mpmath.cos(w), mpmath.sinc(w))):
                    assert abs(complex(val[i]) - complex(r)) <= 1e-14 * max(1.0, abs(complex(r)))

    def test_cos_sinc_sqrt_real_against_mpmath(self):
        # real input stays float64, from zero through small |z2|, across the
        # Taylor radius on both sides of 0 and deep into the exponential range
        # of negative z2
        mpmath = pytest.importorskip("mpmath")
        z2 = np.array([0.0, 1e-12, -1e-12, 9.9e-5, -9.9e-5, 1.01e-4, -1.01e-4, 9.9e-3, -9.9e-3,
                       1.01e-2, -1.01e-2, 0.3, -0.3, 2.5, -2.5, 60.0, -40.0, -700.0, -3e3])
        z2 = np.concatenate((z2, AT_TAYLOR_RADIUS, -AT_TAYLOR_RADIUS))
        got = cos_sinc_sqrt(z2)
        assert all(g.dtype == np.float64 for g in got)
        with mpmath.workdps(40):
            for i, z in enumerate(z2):
                w = mpmath.sqrt(mpmath.mpc(z))
                for val, r in zip(got, (mpmath.cos(w), mpmath.sinc(w))):
                    r = float(mpmath.re(r))
                    assert abs(val[i] - r) <= 1e-13 * max(1.0, abs(r))

    def test_taylor_degree_is_exact_on_its_disc(self):
        # the first omitted term of either series is below eps/8 on |z2| <= R
        first_omitted = _TAYLOR_RADIUS ** (_TAYLOR_DEGREE + 1) / math.factorial(2 * _TAYLOR_DEGREE + 2)
        assert first_omitted < np.finfo(float).eps / 8

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_cos_sinc_sqrt_elementwise(self, dtype):
        # every element of a (512, 64) batch on both sides of the Taylor
        # radius equals that element evaluated alone, bit for bit
        rng = np.random.default_rng(17)
        wide = 1.6 * _TAYLOR_RADIUS
        z2 = rng.uniform(-wide, wide, (512, 64)).astype(dtype)
        if dtype is np.complex128:
            z2 += 1j * rng.uniform(-wide, wide, z2.shape)
        far = np.abs(z2) > _TAYLOR_RADIUS
        assert 0.1 < np.mean(far) < 0.9
        batch = cos_sinc_sqrt(z2)
        alone = np.empty((2,) + z2.shape, dtype=dtype)
        for i, j in np.ndindex(z2.shape):
            alone[:, i, j] = [x[0] for x in cos_sinc_sqrt(z2[i, j:j + 1])]
        assert np.array_equal(batch[0], alone[0]) and np.array_equal(batch[1], alone[1])


class TestGaussNodes:
    def test_legendre_rule_cached_read_only(self):
        nodes, weights = _legendre_rule(12)
        assert _legendre_rule(12)[0] is nodes and _legendre_rule(12)[1] is weights
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(12)
        assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        x, w = gauss_nodes(0.0, np.pi, 4)
        x[0] = w[0] = -1.0     # the composite rule's arrays are the caller's own
        assert np.array_equal(_legendre_rule(12)[0], ref_nodes)

    @pytest.mark.parametrize("panels", [24, 80, 100, 164])
    def test_half_of_the_2pi_rule_is_a_pi_rule(self, panels):
        x2, w2 = gauss_nodes(0.0, 2 * np.pi, panels)
        x1, w1 = gauss_nodes(0.0, np.pi, panels // 2)
        n = x1.size
        assert np.allclose(x2[:n], x1, rtol=4e-16, atol=0) and np.array_equal(w2[:n], w1)


class TestRootLoss:
    def test_verify_detects_missed_pair(self):
        # two zeros 1e-5 apart fall inside one scan cell, cancel their sign
        # change, and the argument-principle total exposes the loss
        def delta(lam):
            lam = np.asarray(lam, dtype=complex)
            return (lam - 5.0) * (lam - 5.00001) * np.exp(0.001 * lam)

        assert len(find_eigenvalues(delta, (4.0, 6.0))) == 0
        assert winding_count(delta, ((4.0, 6.0), (-1.0, 1.0))) == 2

    def test_cli_forward_exit3_when_window_too_small(self, tmp_path):
        sig = SigmaFunction.zero(np.pi, 64)
        obj = problem_to_json(sig, BoundaryPolyPair([1.0], [0.0]), {"kind": "dirichlet_right"})
        f = tmp_path / "p.json"
        f.write_text(canonical_dumps(obj))
        rc = main(["forward", str(f), "--eigs", "30", "--window", "0,9", "--out", str(tmp_path)])
        assert rc == 3


class TestSerialize:
    def test_sigma_round_trip(self):
        sig = SigmaFunction.from_callable(lambda x: np.sin(x) + 0.2j * x, np.pi, 32)
        back = sigma_from_json(sigma_to_json(sig))
        assert np.allclose(back.samples, sig.samples)
        assert back.interval_length == sig.interval_length

    def test_problem_round_trip(self):
        sig = SigmaFunction.zero(np.pi, 32)
        pair = BoundaryPolyPair([0.2, 1.0], [0.5, 0.1])
        sub = Subspectrum(np.array([1.0, 2.0 + 0.5j]))
        obj = problem_to_json(sig, pair, {"kind": "constant", "f1": 1.0, "f2": [0.0, 0.5]},
                              subspectrum=sub)
        sig2, pair2, f2, sub2 = problem_from_json(obj)
        assert np.allclose(pair2.a, pair.a) and np.allclose(pair2.b, pair.b)
        assert np.allclose(sub2.lambdas, sub.lambdas)
        v1, v2 = f2(np.array([3.0 + 0j]))
        assert v1[0] == 1.0 and v2[0] == 0.5j
        # canonical encoding is stable under a dump/load/dump cycle
        text = canonical_dumps(obj)
        assert canonical_dumps(json.loads(text)) == text

    def test_legacy_kind_aliases(self):
        f = entire_pair_from_json({"kind": "closed_form_neumann_right"})
        v1, v2 = f(np.array([2.0 + 0j]))
        assert v1[0] == 1.0 and v2[0] == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            entire_pair_from_json({"kind": "mystery"})

    def test_canonical_dumps_stable_and_sensitive(self):
        a = {"x": 1.0, "y": [1, 2]}
        assert canonical_dumps(a) == canonical_dumps({"y": [1, 2], "x": 1.0})
        assert canonical_dumps(a) != canonical_dumps({"x": 1.0 + 1e-12, "y": [1, 2]})

    def test_pair_accepts_bare_reals_and_pairs(self):
        pair = pair_from_json([1.0], [[0.3, -0.1]])
        assert pair.a[0] == 1.0
        assert pair.b[0] == 0.3 - 0.1j
        assert np.allclose(complex_array([2, [0, 1]]), [2.0, 1j])

    def test_problem_to_json_takes_the_library_hl_pair(self, rt_free):
        # the pair hl_entire_pair builds serializes as the descriptor written
        # out by hand, and the file reads back to the same pair
        sigma_right, right_pair = rt_free.sigma_right, rt_free.problem.right_pair
        by_hand = {"kind": "hl_right_half", "sigma": sigma_to_json(sigma_right),
                   "r1": encode_array(right_pair.a), "r2": encode_array(right_pair.b)}
        text = canonical_dumps(problem_to_json(
            rt_free.sigma_left, rt_free.left_pair, hl_entire_pair(sigma_right, right_pair)))
        assert text == canonical_dumps(problem_to_json(
            rt_free.sigma_left, rt_free.left_pair, by_hand))
        obj = json.loads(text)
        jsonschema.validate(obj, schemas.ALL["problem-v1"], cls=schemas.Validator)
        back = entire_pair_from_json(obj["f"])
        assert canonical_dumps(entire_pair_to_json(back)) == canonical_dumps(obj["f"])
        lam = np.array([0.5, 7.3 + 0.2j, 40.0])
        for got, want in zip(back(lam), rt_free.f(lam)):
            assert np.array_equal(got, want)

    def test_entire_pair_to_json_round_trips(self, rt_free):
        # a constant pair and a right half each read back to the same bytes
        for f in (EntirePair.constant(0.3, 1.0),
                  hl_entire_pair(rt_free.sigma_right, rt_free.problem.right_pair)):
            text = canonical_dumps(entire_pair_to_json(f))
            back = entire_pair_from_json(json.loads(text))
            assert canonical_dumps(entire_pair_to_json(back)) == text

    def test_entire_pair_to_json_refuses_what_no_file_holds(self):
        degree_one = EntirePair.of_pair(BoundaryPolyPair([0.2, 1.0], [0.5, 0.1]))
        bare = EntirePair(joint=lambda lam: (np.ones_like(lam), np.zeros_like(lam)))
        for f in (degree_one, bare):
            with pytest.raises(SchemaError, match="serializable"):
                entire_pair_to_json(f)
            with pytest.raises(SchemaError, match="serializable"):
                problem_to_json(SigmaFunction.zero(np.pi, 32), BoundaryPolyPair([1.0], [0.0]), f)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_FLOATS = st.one_of(_FINITE, st.sampled_from([-0.0, 5e-324, 1e308, -1e308, 1e16, 1e-7]),
                    _FINITE.map(np.float64))
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(min_value=2**63, max_value=2**80).map(lambda n: -n), _FLOATS,
                    st.text())
# lists of [re, im] float pairs take the emitter's template path; an int
# in a pair keeps the list off it
_PAIRS = st.lists(st.lists(st.one_of(_FLOATS, st.integers()), min_size=2, max_size=2),
                  max_size=6)
_VALUES = st.recursive(
    st.one_of(_LEAVES, _PAIRS),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=25)
_NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"),
                              np.float64("-inf")])


def _holding(bad):
    """Values that hold `bad` somewhere, at any depth, among finite siblings."""
    def wrap(inner):
        return st.one_of(
            st.tuples(st.lists(_VALUES, max_size=3), inner).map(lambda t: t[0] + [t[1]]),
            st.tuples(st.dictionaries(st.text(), _VALUES, max_size=3), st.text(), inner)
            .map(lambda t: {**t[0], t[1]: t[2]}),
            st.tuples(_VALUES, inner).map(tuple))
    leaf = st.one_of(bad, st.tuples(_PAIRS, bad, _FLOATS, st.booleans()).map(
        lambda t: t[0] + [[t[1], t[2]] if t[3] else [t[2], t[1]]]))
    return st.recursive(leaf, wrap, max_leaves=6)


class TestCanonicalDumps:
    @settings(max_examples=400, deadline=None)
    @given(_VALUES)
    def test_bytes_equal_json_dumps(self, value):
        assert canonical_dumps(value) == _json_dumps(value)

    @settings(max_examples=200, deadline=None)
    @given(_holding(_NONFINITE))
    def test_nonfinite_raises_value_error(self, value):
        with pytest.raises(ValueError):
            _json_dumps(value)
        with pytest.raises(ValueError):
            canonical_dumps(value)

    @settings(max_examples=100, deadline=None)
    @given(_holding(st.sampled_from([object(), np.int64(3), 1 + 2j, {1, 2}, b"x",
                                     np.array([1.0])])))
    def test_unsupported_object_raises_type_error(self, value):
        with pytest.raises(TypeError):
            canonical_dumps(value)

    def test_input_hash_pinned(self):
        # sha256 of the json.dumps(sort_keys=True, indent=2) text of this
        # object, computed with json.dumps itself
        obj = {
            "floats": [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308,
                       1.7976931348623157e308, 1e16, 1e-7, 0.1, 1 / 3, 123456789.123456789,
                       -2.5e-5],
            "pairs": [[0.1, -0.0], [1e16, 5e-324], [np.float64(2) ** 0.5, -1e308]],
            "ints": [0, -1, 2**63, -(2**70), True, False, None],
            "text": {"\u03bb\u2192\u221e": "tab\there \"quoted\" \\ \x00\x1f ", "": [],
                     "z": {}, "A": ("x", 1.5)},
        }
        assert hashlib.sha256(canonical_dumps(obj).encode()).hexdigest() == \
            "c9207c8c9ffefa9b0a3142bdb88c98de17f91aa1d35306ab341aa0e61962cd81"


def _same_json(a, b) -> bool:
    """Equal as JSON text: float bits (-0.0, nan), int vs float, nesting."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


nan, inf = math.nan, math.inf


class TestVectorizedHelpers:
    """The vectorized complex_array, encode_array and jsonable against their
    element-wise originals (tests/conftest.py)."""

    @pytest.mark.parametrize("values", [
        [], [2, [0, 1]], [[0, 1], 2.5, [3.0, -0.0]], [1, 2, 3], [True, 2], [0.5, -0.0],
        [[1, 2], [3, 4]], [[0.1, -0.0], [5e-324, 1e308]], [[nan, inf], [-inf, 0.0]],
        [inf, nan], [2**70, 1.0], [np.float64(0.25), [np.float64(1.5), 2]],
        [[True, 0.5], [1, 2]], [[2**70, 1], [0.5, 1]], [(1.0, 2.0), (3, 4)], [[1.5, 2]] * 513,
    ])
    def test_complex_array(self, values):
        got, want = complex_array(values), complex_array_loop(values)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("values", [[[1, 2, 3]], [[1.0], 2.0], ["1.5"], [1j], [[1.0, 2.0], [3.0]]])
    def test_complex_array_rejects_what_the_loop_rejects(self, values):
        with pytest.raises(SchemaError):
            complex_array_loop(values)
        with pytest.raises(SchemaError):
            complex_array(values)

    @pytest.mark.parametrize("arr", [
        np.array(1.5 - 2j), np.array(3.0), np.array([], dtype=complex), np.arange(4),
        np.array([0.1, -0.0, 1e308]), np.array([1 + 2j, -0.0 - 0.0j, nan + 1j, 2 + inf * 1j]),
        np.arange(6).reshape(2, 3) * (1 - 0.5j), [1, 2.5, 3j], 2 + 0j,
    ])
    def test_encode_array(self, arr):
        assert repr(encode_array(arr)) == repr(encode_array_loop(arr))

    @pytest.mark.parametrize("value", [
        {"a": np.array(2.5), "b": np.array([1.0, nan, -inf]), "c": np.arange(6).reshape(2, 3)},
        {"z": np.array([[1 + 2j, -0.0j], [3.0, 4j]]), "s": np.float64(inf), "i": np.int64(7)},
        {1: [np.bool_(True), 2 + 1j, (1.0, np.float32(0.5))], "t": ("x", None)},
        [[0.1, -0.0], [np.float64(1e16), 5e-324]], [[1.0, nan], [2.0, 3.0]], [[1.0, 2]],
        [[1.0, 2.0, 3.0]], ([1.0, 2.0], [3.0, 4.0]), [], [[]], np.array([], dtype=float),
        {"pairs": [[1.0, 2.0]], "deep": [{"x": [[inf, 1.0]]}]},
    ])
    def test_jsonable(self, value):
        assert _same_json(jsonable(value), jsonable_loop(value))
