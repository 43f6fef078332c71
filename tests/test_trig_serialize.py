import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complex_array_loop, encode_array_loop, gauss_panels, jsonable_loop
from invsl import schemas, trig
from invsl.errors import SchemaError
from invsl.cli import main
from invsl.forward import find_eigenvalues, winding_count
from invsl.halfinverse import hl_entire_pair
from invsl.serialize import (
    canonical_dumps,
    complex_array,
    encode_array,
    entire_pair_from_json,
    input_hash,
    jsonable,
    pair_from_json,
    problem_from_json,
    problem_to_json,
    sigma_from_json,
    sigma_to_json,
    subspectrum_to_json,
)
from invsl.trig import (
    _TAYLOR_DEGREE,
    _TAYLOR_RADIUS,
    cos_sinc_sqrt,
    overlap_cos_cos,
    overlap_sin_sin,
    poly_cos,
    poly_sin,
    sinc,
    synth_series,
)
from invsl.types import BoundaryPolyPair, SigmaFunction, Subspectrum


def _series_loop(tags, coeffs, t):
    """One series, one scalar coefficient at a time."""
    out = np.zeros_like(t, dtype=complex)
    for (kind, v), c in zip(tags, coeffs):
        out += c * {"sin": np.sin(v * t), "cos": np.cos(v * t), "poly": t**v}[kind]
    return out


def test_synth_series_rows_equal_single_series():
    # a coefficient stack sums every row as the scalar loop does, bit for bit
    rng = np.random.default_rng(5)
    tags = [("poly", 0), ("poly", 2), ("sin", 1.0), ("cos", 0.5), ("sin", 3.0)]
    coeffs = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    t = np.linspace(0.0, np.pi, 129)
    stacked = synth_series(tags, coeffs, t)
    assert stacked.shape == (4, 129)
    for row, c in zip(stacked, coeffs):
        assert np.array_equal(row, _series_loop(tags, c, t))
        assert np.array_equal(row, synth_series(tags, list(c), t))


# |z2| just inside and just outside the disc on which cos_sinc_sqrt sums its
# Taylor polynomial
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
            self._check(overlap_sin_sin, lambda m, r, t: np.sin(m * t) * np.sin(r * t), mu, rho)
            self._check(overlap_cos_cos, lambda m, r, t: np.cos(m * t) * np.cos(r * t), mu, rho)

    def test_poly_trig(self):
        for m in range(5):
            for rho in (0.01, 0.3, 2.7, 9.4, 1.2 + 0.3j):
                val = complex(np.asarray(poly_sin(m, np.array([rho + 0j]))).ravel()[0])
                ref = complex(gauss_panels(lambda t, _m=m, _r=rho: t**_m * np.sin(_r * t),
                                           0.0, np.pi, 64))
                assert val == pytest.approx(ref, abs=1e-12)
                val = complex(np.asarray(poly_cos(m, np.array([rho + 0j]))).ravel()[0])
                ref = complex(gauss_panels(lambda t, _m=m, _r=rho: t**_m * np.cos(_r * t),
                                           0.0, np.pi, 64))
                assert val == pytest.approx(ref, abs=1e-12)

    def test_sinc_series_matches_direct(self):
        z = np.array([1e-5, 5e-5 + 1e-5j, 9e-5])
        direct = np.sin(z.astype(complex)) / z
        assert np.max(np.abs(sinc(z) - direct)) <= 1e-15

    def test_cos_sinc_sqrt_against_mpmath(self):
        # zero, small and moderate |z2|, both signs, complex arguments, the
        # exponential range of negative z2, and four rays across the Taylor
        # radius (the polynomial just inside, the direct formula just outside)
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
    def test_cos_sinc_sqrt_leaves_the_polynomial_at_its_radius(self, dtype, monkeypatch):
        # the direct formula, the only square root the kernel takes, gets
        # exactly the elements with |z2| > _TAYLOR_RADIUS: on points a few
        # ulps either side of the radius, on both signs of the real axis and,
        # for complex input, on two rays
        taken = []

        class SqrtSpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def sqrt(x):
                taken.append(np.array(x))
                return np.sqrt(x)

        r = _TAYLOR_RADIUS * (1.0 + np.finfo(float).eps * np.arange(-3, 4))
        z2 = np.concatenate((r, -r)).astype(dtype)
        if dtype is np.complex128:
            z2 = np.concatenate((z2, r * np.exp(0.7j), r * np.exp(-2.2j)))
        far = np.abs(z2) > _TAYLOR_RADIUS
        assert np.count_nonzero(far[:14]) == 6
        monkeypatch.setattr(trig, "np", SqrtSpy())
        cos_sinc_sqrt(z2)
        assert len(taken) == 1 and np.array_equal(taken[0], z2[far].astype(complex))

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

    def test_input_hash_stable_and_sensitive(self):
        a = {"x": 1.0, "y": [1, 2]}
        assert input_hash(a) == input_hash({"y": [1, 2], "x": 1.0})
        assert input_hash(a) != input_hash({"x": 1.0 + 1e-12, "y": [1, 2]})

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
        assert canonical_dumps(back.descriptor) == canonical_dumps(obj["f"])
        lam = np.array([0.5, 7.3 + 0.2j, 40.0])
        for got, want in zip(back(lam), rt_free.f(lam)):
            assert np.array_equal(got, want)


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
        assert input_hash(obj) == \
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
    ])
    def test_complex_array(self, values):
        got, want = complex_array(values), complex_array_loop(values)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("values", [[[1, 2, 3]], [[1.0], 2.0], ["1.5"], [1j]])
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
