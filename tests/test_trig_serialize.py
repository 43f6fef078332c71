import json

import numpy as np
import pytest

from invsl.errors import RootLoss, SchemaError
from invsl.cli import main
from invsl.forward import find_eigenvalues
from invsl.serialize import (
    canonical_dumps,
    complex_array,
    entire_pair_from_json,
    input_hash,
    pair_from_json,
    problem_from_json,
    problem_to_json,
    sigma_from_json,
    sigma_to_json,
    subspectrum_to_json,
)
from invsl.trig import (
    cos_sinc_sqrt,
    gauss_panels,
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
        # zero, small and moderate |z2|, both signs, complex arguments and
        # the exponential range of negative z2
        mpmath = pytest.importorskip("mpmath")
        z2 = np.array([0.0, 1e-12, 9.9e-5, -1.01e-4, 1e-4j, 9.9e-3, -9.9e-3, 1.01e-2,
                       -1.01e-2, 1.01e-2j, 0.3 - 0.2j, 2.5, -40.0, -7.0 + 3.0j, 60.0 + 0.5j])
        got = cos_sinc_sqrt(z2)
        with mpmath.workdps(40):
            for i, z in enumerate(z2):
                w = mpmath.sqrt(mpmath.mpc(z))
                for val, r in zip(got, (mpmath.cos(w), mpmath.sinc(w))):
                    assert abs(complex(val[i]) - complex(r)) <= 1e-14 * max(1.0, abs(complex(r)))

    def test_cos_sinc_sqrt_real_against_mpmath(self):
        # real input stays float64 (cos/sin for z2 >= 0, cosh/sinh below),
        # from zero through small |z2| and deep into the cosh branch
        mpmath = pytest.importorskip("mpmath")
        z2 = np.array([0.0, 1e-12, -1e-12, 9.9e-5, -9.9e-5, 1.01e-4, -1.01e-4, 9.9e-3, -9.9e-3,
                       1.01e-2, -1.01e-2, 0.3, -0.3, 2.5, -2.5, 60.0, -40.0, -700.0, -3e3])
        got = cos_sinc_sqrt(z2)
        assert all(g.dtype == np.float64 for g in got)
        with mpmath.workdps(40):
            for i, z in enumerate(z2):
                w = mpmath.sqrt(mpmath.mpc(z))
                for val, r in zip(got, (mpmath.cos(w), mpmath.sinc(w))):
                    r = float(mpmath.re(r))
                    assert abs(val[i] - r) <= 1e-13 * max(1.0, abs(r))


class TestRootLoss:
    def test_verify_detects_missed_pair(self):
        # two zeros 1e-5 apart fall inside one scan cell, cancel their sign
        # change, and the argument-principle total exposes the loss
        def delta(lam):
            lam = np.asarray(lam, dtype=complex)
            return (lam - 5.0) * (lam - 5.00001) * np.exp(0.001 * lam)

        with pytest.raises(RootLoss):
            find_eigenvalues(delta, (4.0, 6.0), scan_step=0.05, verify=True)

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
