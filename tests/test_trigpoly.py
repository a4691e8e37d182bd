"""Exact trigonometric polynomials against direct numpy evaluation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gsh.trigpoly import (TrigPoly, changes_sign, real_root_isolation,
                          sign_pattern)

TS = 2.0 * math.pi * np.arange(257) / 257


def test_evaluation_matches_numpy():
    p = (TrigPoly.cos(3, 2) - TrigPoly.sin(1) + TrigPoly.constant(5))
    oracle = 2 * np.cos(3 * TS) - np.sin(TS) + 5
    assert np.abs(p(TS) - oracle).max() < 1e-13
    assert p.is_real_valued()
    assert p.bandwidth == 3
    assert p.mean_real() == 5


def test_arithmetic_matches_pointwise():
    p = TrigPoly.cos(2) + TrigPoly.sin(1, Fraction(1, 3))
    q = TrigPoly.sin(3, 2) - TrigPoly.constant(Fraction(1, 2))
    assert np.abs((p * q)(TS) - p(TS) * q(TS)).max() < 1e-13
    assert np.abs((p - q)(TS) - (p(TS) - q(TS))).max() < 1e-13
    assert np.abs(p.scale(Fraction(-7, 2))(TS) + 3.5 * p(TS)).max() < 1e-13
    assert np.abs(p.times_i()(TS) - 1j * p(TS)).max() < 1e-13


def test_derivative_and_primitive():
    p = TrigPoly.cos(4, 3) + TrigPoly.sin(2, Fraction(1, 5))
    dp = p.derivative()
    oracle = -12 * np.sin(4 * TS) + Fraction(2, 5) * np.cos(2 * TS)
    assert np.abs(dp(TS) - oracle).max() < 1e-13

    F = p.primitive()
    assert abs(F(0.0)) < 1e-15
    assert np.abs(F.derivative()(TS) - p(TS)).max() < 1e-13

    # a nonzero mean is dropped: the periodic primitive covers only the
    # oscillation, the caller tracks the linear slope separately
    G = (p + TrigPoly.constant(3)).primitive()
    assert np.abs(G(TS) - F(TS)).max() < 1e-13


def test_oscillatory_part_and_mean():
    p = TrigPoly.sin(1) + TrigPoly.constant(Fraction(7, 3))
    assert p.mean() == (Fraction(7, 3), Fraction(0))
    assert p.oscillatory_part() == TrigPoly.sin(1)


def test_root_isolation_sin_2t():
    roots = real_root_isolation(TrigPoly.sin(2))
    expected = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    assert len(roots) == 4
    for got, want in zip(sorted(roots), expected):
        assert got == pytest.approx(want, abs=1e-10)


def test_changes_sign():
    assert changes_sign(TrigPoly.sin(1) + TrigPoly.constant(Fraction(1, 2)))
    # touching zero without crossing is not a sign change
    assert not changes_sign(TrigPoly.sin(1) + TrigPoly.constant(1))
    assert not changes_sign(TrigPoly.sin(1) + TrigPoly.constant(2))
    assert not changes_sign(TrigPoly.zero())


def test_changes_sign_sees_a_narrow_dip():
    # b = 1 - (3/5 cos t + 4/5 sin t) - 1e-6 is -1e-6 at t = atan2(4, 3)
    # and positive outside an arc about 3e-3 wide, between the samples
    dip = (TrigPoly.constant(1 - Fraction(1, 10 ** 6))
           - TrigPoly.cos(1, Fraction(3, 5)) - TrigPoly.sin(1, Fraction(4, 5)))
    assert changes_sign(dip)
    assert not changes_sign(dip + TrigPoly.constant(Fraction(2, 10 ** 6)))
    roots = real_root_isolation(dip)
    assert len(roots) == 2
    assert 0.5 * (roots[0] + roots[1]) == pytest.approx(math.atan2(4, 3), abs=1e-12)


_S, _C = TrigPoly.sin(1), TrigPoly.cos(1)
PI = math.pi


@pytest.mark.parametrize("p, pattern", [
    (_S, [(0.0, 1), (PI, -1)]),                          # roots at 0 and pi
    (TrigPoly.sin(2), [(0.0, 1), (PI / 2, -1), (PI, 1), (3 * PI / 2, -1)]),
    (_C, [(PI / 2, -1), (3 * PI / 2, 1)]),
    (TrigPoly.constant(1) + _C, []),                     # touches 0 at pi
    (_S * _S, []),                                       # touches 0 at 0, pi
    (_S * _S * _S, [(0.0, 1), (PI, -1)]),                # triple roots
    (TrigPoly.constant(Fraction(-2, 3)), []),
    (TrigPoly.zero(), []),
])
def test_sign_pattern_pinned(p, pattern):
    got = sign_pattern(p)
    assert [s for _, s in got] == [s for _, s in pattern]
    for (t, _), (want, _) in zip(got, pattern):
        assert t == pytest.approx(want, abs=1e-15)
    assert changes_sign(p) == bool(pattern)


_RATIONALS = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))


@st.composite
def _real_trig_polys(draw):
    p = TrigPoly.constant(draw(_RATIONALS))
    for k in range(1, draw(st.integers(0, 4)) + 1):
        p = p + TrigPoly.cos(k, draw(_RATIONALS)) + TrigPoly.sin(k, draw(_RATIONALS))
    return p


@settings(max_examples=150, deadline=None)
@given(_real_trig_polys())
def test_sign_changes_match_dense_sampling(p):
    n = 1 << 14
    vals = np.real(p.sample(n))
    # with |p| >= 1e-6 sup|p| at every sample, no pair of crossings can
    # hide between two samples (|p''| <= 16 sup|p| at bandwidth 4)
    assume(np.abs(vals).min() >= 1e-6 * np.abs(vals).max() > 0)
    after = np.roll(vals, -1)
    flips = set(np.flatnonzero(np.sign(vals) != np.sign(after)).tolist())
    pattern = sign_pattern(p)
    assert len(pattern) == len(flips)
    for t, s in pattern:
        j = int(t / (2.0 * math.pi) * n)
        assert j in flips and np.sign(after[j]) == s
    assert changes_sign(p) == bool(flips)


def test_sup_norm_bound():
    p = TrigPoly.cos(1, 2) + TrigPoly.sin(5, Fraction(1, 2))
    actual = float(np.abs(p(TS)).max())
    assert p.sup_norm_bound() >= actual - 1e-12


def test_json_round_trip():
    p = TrigPoly.cos(2, Fraction(3, 7)) + TrigPoly.sin(1).times_i()
    q = TrigPoly.from_json(p.to_json())
    assert q == p


def test_conj_real_imag_split():
    p = TrigPoly.cos(1) + TrigPoly.sin(2).times_i()
    assert np.abs(p.conj()(TS) - np.conj(p(TS))).max() < 1e-13
    recon = p.real_part()(TS) + 1j * p.imag_part()(TS)
    assert np.abs(recon - p(TS)).max() < 1e-13
