"""Exact arithmetic, tagged constants and lattice membership."""

import math
from fractions import Fraction

import mpmath
import pytest

from gsh.numerics import (HalfInt, IN_LATTICE, NOT_IN_LATTICE, UNKNOWN,
                          TaggedReal, classify_lattice_membership,
                          combine_tagged, format_rational, liouville_tail_log10,
                          parse_rational, standard_liouville)


def test_parse_format_round_trip():
    for text in ["0", "3", "-7", "1/2", "-22/7", "10/4"]:
        q = parse_rational(text)
        assert q == Fraction(text)
        assert parse_rational(format_rational(q)) == q


def test_half_int_arithmetic():
    h = HalfInt(3)  # 3/2
    assert float(h) == 1.5
    assert not h.is_integer()
    assert (h + h).is_integer()
    assert float(h - HalfInt(1)) == 1.0
    assert float(-h) == -1.5
    assert float(abs(HalfInt(-5))) == 2.5
    assert HalfInt.of(Fraction(5, 2)).twice == 5


def test_standard_liouville_approximations():
    # oracle: the digit expansion sum 10^(-k!) evaluated in high precision
    gen = standard_liouville()
    with mpmath.workdps(1200):
        mu = mpmath.mpf(0)
        for k in range(1, 8):
            mu += mpmath.mpf(10) ** (-mpmath.factorial(k))
        for n in range(1, 5):
            p, j = gen.emit(n)
            err = abs(mu - mpmath.mpf(p) / j)
            assert err < mpmath.mpf(j) ** (-n)
            # the tail estimate used by certificates bounds the true error
            assert err < 2 * mpmath.mpf(10) ** liouville_tail_log10(n)


def test_combine_tagged_rational():
    out = combine_tagged([(Fraction(1, 2), TaggedReal.rational(3)),
                          (Fraction(1), TaggedReal.rational(Fraction(1, 3)))])
    assert out.is_rational() and out.value == Fraction(11, 6)


def test_combine_tagged_irrational_cancellation():
    root2 = TaggedReal.non_liouville(math.sqrt(2.0), key="sqrt2")
    out = combine_tagged([(Fraction(1), root2), (Fraction(-1), root2),
                          (Fraction(1), TaggedReal.rational(5))])
    assert out.is_rational() and out.value == 5

    survivor = combine_tagged([(Fraction(2), root2),
                               (Fraction(1), TaggedReal.rational(1))])
    assert not survivor.is_rational()
    assert survivor.tag == "non_liouville"
    assert survivor.approx == pytest.approx(2 * math.sqrt(2.0) + 1)


def test_lattice_membership():
    assert classify_lattice_membership(TaggedReal.rational(3), 1).status == IN_LATTICE
    assert classify_lattice_membership(TaggedReal.rational(4), 2).status == IN_LATTICE
    assert classify_lattice_membership(TaggedReal.rational(3), 2).status == NOT_IN_LATTICE
    assert classify_lattice_membership(
        TaggedReal.rational(Fraction(1, 2)), 1).status == NOT_IN_LATTICE
    assert classify_lattice_membership(
        TaggedReal.non_liouville(math.sqrt(2.0), key="sqrt2"), 1).status == NOT_IN_LATTICE
    # untagged floats: clearly separated values are rejected, values
    # indistinguishable from a lattice point stay undecided
    far = classify_lattice_membership(TaggedReal.unspecified(1.234), 1)
    assert far.status == NOT_IN_LATTICE and far.qualitative
    assert classify_lattice_membership(
        TaggedReal.unspecified(2.0), 1).status == UNKNOWN


def test_tagged_real_json_round_trip():
    for x in [TaggedReal.rational(Fraction(-3, 7)),
              TaggedReal.non_liouville(math.sqrt(3.0), key="sqrt3"),
              TaggedReal.liouville(standard_liouville()),
              TaggedReal.unspecified(0.125)]:
        y = TaggedReal.from_json(x.to_json())
        assert y.tag == x.tag
        assert y.approx == pytest.approx(x.approx)
        if x.is_rational():
            assert y.value == x.value
