"""Drawn problems against an independent oracle: wherever the eigenvalue index
certifies a problem, its eigenvalues are the reference's, index by index,
the argument principle finds no other zero among them or below them,
`count_below` counts exactly those below every probe between them, as
its every-node reference does, and a scan of an explicit window finds none
but them.  Drawn lambda batches
against an identity: every monodromy matrix has determinant 1.

The oracle is `bench/reference.py`, which shares no code with the package:
its own propagator and plain bisection, here in a bracket of a quarter of
the gaps around each indexed root (its own scan, at a step of 0.04 in
sqrt(lambda), misses two roots closer than a step).  The pairs are drawn
real, normalized and coprime, of degree 0 to 3 at both ends; some have
interlacing real roots, so that they are Herglotz, and some have arbitrary
coefficients, so that most are not.
"""

import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from conftest import DET_RTOL, every_node_count
from invsl.errors import CommonRoot
from invsl.forward import count_below, make_delta, winding_count
from invsl.halfinverse import problem_spectrum
from invsl.ode import _BLOCK, monodromy
from invsl.problems import sigma_bump, two_sided_from_left
from invsl.types import BoundaryPolyPair, EntirePair, SigmaFunction, validate_rp

_SPEC = importlib.util.spec_from_file_location(
    "bench_reference", Path(__file__).resolve().parents[1] / "bench" / "reference.py")
reference = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference)

EIG_RTOL = 1e-9      # relative to max(1, |lambda|)
BOX_LOW = -100.0     # below the lowest eigenvalue of every drawn problem
BOX_HALF_HEIGHT = 2.0

_COEF = st.integers(-15, 15).map(lambda k: k / 10)   # coefficients in tenths
# boundary degrees p, highest first, since hypothesis favours a strategy's
# first choice: pairs of degree 3, whose roots can leave the real line, are
# then drawn often
_P = st.sampled_from([7, 6, 5, 4, 3, 2, 1])


@st.composite
def sigmas(draw):
    """A smooth real sigma on [0, pi]: a few low sine modes, 64 to 128 cells."""
    amps = draw(st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=3))
    m = draw(st.integers(64, 128))
    return SigmaFunction.from_callable(
        lambda x: sum(c * np.sin((k + 1) * x) for k, c in enumerate(amps)), np.pi, m)


def _degrees(p):
    """Degrees of p1 and p2 of a normalized pair with boundary degree p."""
    return ((p - 1) // 2, (p - 1) // 2) if p % 2 else (p // 2 - 1, p // 2)


def _normalized(a, b, p):
    """(a, b) scaled so that the leading coefficient of p's parity is 1."""
    lead = a[-1] if p % 2 else b[-1]
    return BoundaryPolyPair(np.asarray(a) / lead, np.asarray(b) / lead)


@st.composite
def interlacing_pairs(draw, sign):
    """A pair whose real roots interlace, its leading sign chosen so that
    sign (p1' p2 - p1 p2') > 0 on the real line (interlacing roots keep its
    sign, so one point decides): Herglotz at the end `sign`."""
    p = draw(_P)
    d1, d2 = _degrees(p)
    start = draw(st.floats(-4.0, 1.0))
    gaps = draw(st.lists(st.floats(0.3, 2.0), min_size=d1 + d2, max_size=d1 + d2))
    roots = start + np.cumsum(gaps)
    first_p2 = d2 > d1 or draw(st.booleans())
    p2_roots, p1_roots = (roots[0::2], roots[1::2]) if first_p2 else (roots[1::2], roots[0::2])
    p1, p2 = (np.polynomial.Polynomial(np.atleast_1d(np.poly(r))[::-1])
              for r in (p1_roots, p2_roots))
    p2 = draw(st.floats(0.3, 2.0)) * p2
    if sign * (p1.deriv() * p2 - p1 * p2.deriv())(0.123) < 0:
        p2 = -p2
    return _normalized(p1.coef, p2.coef, p)


@st.composite
def arbitrary_pairs(draw):
    """A pair with arbitrary real coefficients; most are not Herglotz."""
    p = draw(_P)
    d1, d2 = _degrees(p)
    a = draw(st.lists(_COEF, min_size=d1 + 1, max_size=d1 + 1))
    b = draw(st.lists(_COEF, min_size=d2 + 1, max_size=d2 + 1))
    if p % 2:
        a[-1] = 1.0
    else:
        b[-1] = 1.0
    return BoundaryPolyPair(a, b)


def end_pairs(sign):
    return st.one_of(interlacing_pairs(sign), arbitrary_pairs())


@st.composite
def problems(draw, pairs=end_pairs):
    sigma = draw(sigmas())
    left, right = draw(pairs(-1.0)), draw(pairs(1.0))
    try:
        validate_rp(left)
        validate_rp(right)
    except CommonRoot:
        assume(False)
    return sigma, left, right, draw(st.integers(2, 6))


# the (p, r) = (1, 7) pair whose p1 and p2 have non-real roots while the
# Wronskian r1' r2 - r1 r2' keeps its sign on the real line, with the two
# non-real eigenvalues 0.5929 +- 1.1362i below the eighth real one
_PINNED = two_sided_from_left(sigma_bump(256, amp=0.15), BoundaryPolyPair([1.0], [0.03]),
                              BoundaryPolyPair([0.82, 0.51, -0.65, 1.0],
                                               [0.64, -0.40, 0.27, -0.29]))


# pairs with a root of p1 where the index bisects: with sigma = 0 the
# eigenvalue lambda = 1 of the first sits on the root 1 of p1, and the second
# has the root -1 of r1 between the eigenvalues -3.71 and -0.92
_ZERO = SigmaFunction.zero(np.pi, 64)
_ON_A_ROOT = (_ZERO, BoundaryPolyPair([-1.0, 1.0], [-2.0, 0.0]), BoundaryPolyPair([0.0], [1.0]), 2)
_NEAR_A_ROOT = (_ZERO, BoundaryPolyPair([-11.25, 18.25, -8.0, 1.0], [-14.4375, 16.375, -5.25, 0.5]),
                BoundaryPolyPair([2.5, -1.0, -2.5, 1.0], [0.0, -7.0, 5.5, -1.0]), 1)


def _verified_spectrum(problem):
    """The first n + 1 indexed eigenvalues of a drawn problem, with the first n
    checked against the reference and the box below them counted; None where
    the index certifies nothing and a scan stands in."""
    sigma, left, right, n = problem
    f = EntirePair.of_pair(right)
    spec, _ = problem_spectrum(sigma, left, f, n + 1)
    event("scanned" if spec.fallback else f"indexed, degrees {left.p} and {right.p}")
    if spec.fallback:
        return None
    assert np.all(spec.lambdas.imag == 0)
    lam = spec.lambdas.real
    s = np.sign(lam) * np.sqrt(np.abs(lam))
    gaps = np.diff(s)
    reach = 0.25 * np.minimum(gaps, np.insert(gaps[:-1], 0, np.inf))
    rp = reference.Problem(sigma.samples.real, sigma.interval_length,
                           left.a.real, left.b.real, right.a.real, right.b.real)
    expected = reference.bisect(rp.delta, s[:n] - reach, s[:n] + reach)
    assert np.max(np.abs(lam[:n] - expected) / np.maximum(1.0, np.abs(expected))) <= EIG_RTOL
    delta, _ = make_delta(sigma, left, f)
    box = ((min(lam[0] - 1.0, BOX_LOW), 0.5 * (lam[n - 1] + lam[n])),
           (-BOX_HALF_HEIGHT, BOX_HALF_HEIGHT))
    assert winding_count(delta, box) == n
    return lam


@settings(max_examples=40, deadline=None)
@given(problems())
@example((_PINNED.sigma_full, _PINNED.left_pair, _PINNED.right_pair, 8))
@example(_ON_A_ROOT)
@example(_NEAR_A_ROOT)
def test_indexed_eigenvalues_are_the_reference_roots(problem):
    _verified_spectrum(problem)


@settings(max_examples=40, deadline=None)
@given(problems())
@example(_ON_A_ROOT)
@example(_NEAR_A_ROOT)
def test_count_below_counts_the_verified_roots(problem):
    # below the first root and at a quarter, half and three quarters of the
    # gap after each of the first n roots, sorted: count_below never falls
    # and equals the number of verified eigenvalues below each probe
    lam = _verified_spectrum(problem)
    if lam is None:
        return
    sigma, left, right, n = problem
    gaps = lam[1:n + 1] - lam[:n]
    probes = np.concatenate([[lam[0] - 1.0],
                             (lam[:n, None] + np.array([0.25, 0.5, 0.75]) * gaps[:, None]).ravel()])
    counts = count_below(sigma, left, right, probes)
    assert np.all(np.diff(probes) > 0) and np.all(np.diff(counts) >= 0)
    assert np.array_equal(counts, np.concatenate([[0], np.repeat(np.arange(1, n + 1), 3)]))


@settings(max_examples=40, deadline=None)
@given(problems(interlacing_pairs))
@example((_PINNED.sigma_full, _PINNED.left_pair, _PINNED.right_pair, 8))
@example(_ON_A_ROOT)
@example(_NEAR_A_ROOT)
def test_window_scan_finds_a_subset_of_the_indexed_roots(problem):
    # on Herglotz pairs, which the index certifies, a window from below the
    # first indexed root to halfway between roots n and n + 1, scanned
    # without an index: every root the scan returns is one of the first n
    # indexed roots, each a different one, within 1e-12 (1 + |lambda|)
    # (measured at most 1.0e-15 over three sets of draws); a scan may miss
    # roots (two within one step)
    sigma, left, right, n = problem
    f = EntirePair.of_pair(right)
    spec, _ = problem_spectrum(sigma, left, f, n + 1)
    event("scanned" if spec.fallback else "indexed")
    if spec.fallback:
        return
    lam = spec.lambdas.real
    window = (lam[0] - 1.0, 0.5 * (lam[n - 1] + lam[n]))
    scan, reason = problem_spectrum(sigma, left, f, None, window=window)
    assert reason is None and np.all(scan.lambdas.imag == 0)
    found = scan.lambdas.real
    event(f"the scan found {found.size} of {n}")
    nearest = np.argmin(np.abs(found[:, None] - lam[None, :n]), axis=1)
    assert np.unique(nearest).size == found.size
    assert np.all(np.abs(found - lam[nearest]) <= 1e-12 * (1.0 + np.abs(found)))


@settings(max_examples=20, deadline=None)
@given(problems(interlacing_pairs))
@example(_ON_A_ROOT)
@example(_NEAR_A_ROOT)
def test_group_count_is_the_every_node_count(problem):
    # on Herglotz pairs, lambdas inside the group radius (below about 25 to
    # 100 at 64 to 128 cells) and beyond it: the count at the nodes of the
    # groups of four cells is the count at every node
    sigma, left, right, _ = problem
    lam = np.linspace(-30.0, 300.0, 221)
    assert np.array_equal(count_below(sigma, left, right, lam),
                          every_node_count(sigma, left, right, lam))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([-1.0, 1.0]).flatmap(lambda s: st.tuples(st.just(s), interlacing_pairs(s))))
def test_interlacing_pairs_are_herglotz(drawn):
    sign, pair = drawn
    validate_rp(pair)
    assert pair.herglotz(sign)


@st.composite
def lambda_batches(draw):
    """A batch of lambdas of one kind: real (the float64 tree), complex, or
    (rho + i eps)^2 with |eps| <= 0.05 about rho in [0.5, 31], the perturbed
    subspectra of the stability experiment.  Sizes straddle a block of the
    propagator; |lambda| stays below about 1e3."""
    kind = draw(st.sampled_from(["real", "complex", "near_real"]))
    size = draw(st.one_of(st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1]),
                          st.integers(2, 2 * _BLOCK + 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "near_real":
        return (rng.uniform(0.5, 31.0, size) + 1j * rng.uniform(-0.05, 0.05, size)) ** 2
    lam = rng.uniform(-200.0, 1000.0, size)
    return lam + 1j * rng.uniform(-50.0, 50.0, size) if kind == "complex" else lam


_SIGMA = SigmaFunction.from_callable(lambda x: 0.4 * np.sin(x) - 0.2 * np.sin(3 * x), np.pi, 100)


@settings(max_examples=40, deadline=None)
@given(sigmas(), lambda_batches())
@example(_SIGMA, np.array([537.25]))
@example(_SIGMA, (np.arange(1, _BLOCK + 2) + 0.01j) ** 2 / 4)
def test_monodromy_has_unit_determinant(sigma, lam):
    m = monodromy(sigma, lam)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    scale = np.max(np.abs(m.reshape(4, -1)), axis=0) ** 2
    assert np.max(np.abs(det - 1.0) / scale) <= DET_RTOL
