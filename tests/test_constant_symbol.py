"""The compiled constant-part symbol against its combine_tagged reference."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import op_rational_constant, op_span1_hypoelliptic
from gsh import diophantine
from gsh.numerics import (TAG_LIOUVILLE, TAG_NON_LIOUVILLE, TAG_UNSPECIFIED,
                          TaggedReal, combine_tagged, standard_liouville)
from gsh.operator_model import (CLAUSE_I, CLAUSE_II, CoefFn,
                                EvolutionOperator, classify, mode_box)
from gsh.trigpoly import TrigPoly

# one object each: coefficients that draw the same one share an atom
SHARED = TaggedReal.non_liouville(2 ** 0.5, key="sqrt2")
OTHER = TaggedReal.non_liouville(3 ** 0.5, key="sqrt3")
LIOUVILLE = TaggedReal.liouville(standard_liouville())
VAGUE = TaggedReal.unspecified(0.3)


def reference_parts(op, tau, xi, alpha2):
    """(Re, Im) of the inner symbol, summed term by term by combine_tagged."""
    re_terms = [(Fraction(tau), TaggedReal.rational(1)), (Fraction(1), op.q_im)]
    im_terms = [(Fraction(-1), op.q_re)]
    for j in range(op.r):
        re_terms.append((Fraction(xi[j]), op.a[j].mean()))
        im_terms.append((Fraction(xi[j]), op.b[j].mean()))
    for k in range(op.s):
        re_terms.append((Fraction(alpha2[k], 2), op.e[k].mean()))
        im_terms.append((Fraction(alpha2[k], 2), op.f[k].mean()))
    return combine_tagged(re_terms), combine_tagged(im_terms)


def reference_is_zero(re, im):
    for part in (re, im):
        if part.is_rational():
            if part.value != 0:
                return False
        elif part.tag == TAG_UNSPECIFIED:
            return None
        else:
            return False
    return True


def _approx(part):
    return float(part.value) if part.is_rational() else part.approx


def assert_matches_reference(op, tau, xi, alpha2):
    want = reference_parts(op, tau, xi, alpha2)
    got = op.inner_symbol(tau, xi, alpha2)
    for g, w in zip(got, want):
        assert (g.tag, g.value, g.approx) == (w.tag, w.value, w.approx)
        if w.tag in (TAG_NON_LIOUVILLE, TAG_LIOUVILLE):
            assert g.key == w.key and g.generator is w.generator
    assert op.symbol_is_zero(tau, xi, alpha2) == reference_is_zero(*want)
    assert op.symbol_L0(tau, xi, alpha2) == complex(-_approx(want[1]),
                                                    _approx(want[0]))
    return got


def _op(r, s, a=(), b=(), e=(), f=(), q_re=0, q_im=0):
    return EvolutionOperator(r, s, a=list(a), b=list(b), e=list(e), f=list(f),
                             q_re=q_re, q_im=q_im)


def test_one_irrational_shared_by_two_coefficients():
    op = _op(1, 1, a=[SHARED], b=[0], e=[SHARED], f=[0])
    # xi = 1, alpha = -1: the two sqrt2 terms cancel, tau = 0 zeroes Re
    re, im = assert_matches_reference(op, 0, (1,), (-2,))
    assert re.is_rational() and re.value == 0 and im.value == 0
    assert op.symbol_is_zero(0, (1,), (-2,)) is True
    re, _ = assert_matches_reference(op, 0, (1,), (2,))
    assert re.tag == TAG_NON_LIOUVILLE


def test_two_independent_irrationals_are_unspecified():
    op = _op(2, 0, a=[0, 0], b=[SHARED, OTHER])
    _, im = assert_matches_reference(op, 0, (1, 1), ())
    assert im.tag == TAG_UNSPECIFIED
    assert op.symbol_is_zero(0, (1, 1), ()) is None
    assert op.symbol_is_zero(1, (1, 1), ()) is False  # Re = 1 decides first


def test_liouville_mean():
    op = _op(1, 1, a=[LIOUVILLE], b=[1], e=[0], f=[1])
    re, _ = assert_matches_reference(op, 2, (3,), (-1,))
    assert re.tag == TAG_LIOUVILLE and re.generator is LIOUVILLE.generator
    assert op.symbol_is_zero(2, (3,), (-1,)) is False


def test_unspecified_q():
    op = _op(1, 0, a=[1], b=[0], q_im=VAGUE)
    re, _ = assert_matches_reference(op, -1, (1,), ())
    assert re.tag == TAG_UNSPECIFIED
    assert op.symbol_is_zero(-1, (1,), ()) is None


MEANS = [Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(2)]
OFFSETS = [None, SHARED, OTHER, LIOUVILLE, VAGUE]


@st.composite
def coefficient(draw):
    poly = TrigPoly.constant(draw(st.sampled_from(MEANS)))
    if draw(st.booleans()):
        poly = poly + TrigPoly.cos(1, draw(st.sampled_from(MEANS[1:])))
    offset = draw(st.sampled_from(OFFSETS))
    return poly if offset is None else CoefFn(poly, offset)


@st.composite
def operator_and_mode(draw):
    r, s = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    coefs = {name: [draw(coefficient()) for _ in range(n)]
             for name, n in (("a", r), ("b", r), ("e", s), ("f", s))}
    q = st.one_of(st.sampled_from(MEANS), st.sampled_from(OFFSETS[1:]))
    op = _op(r, s, q_re=draw(q), q_im=draw(q), **coefs)
    small = st.integers(-3, 3)
    mode = (draw(small), tuple(draw(small) for _ in range(r)),
            tuple(draw(small) for _ in range(s)))
    return op, mode


@settings(max_examples=300, deadline=None)
@given(operator_and_mode())
def test_compiled_symbol_matches_combine_tagged(case):
    op, (tau, xi, alpha2) = case
    assert_matches_reference(op, tau, xi, alpha2)


@pytest.mark.parametrize("make, clause", [(op_rational_constant, CLAUSE_I),
                                          (op_span1_hypoelliptic, CLAUSE_II)])
def test_classify_runs_dc_check_once(monkeypatch, make, clause):
    calls = []
    dc_check = diophantine.dc_check

    def counting(op, bound=10):
        calls.append(bound)
        return dc_check(op, bound=bound)

    monkeypatch.setattr(diophantine, "dc_check", counting)
    gs, gh = classify(make())
    assert (gs.clause, gh.clause) == (clause, clause)
    assert calls == [10]


def test_mode_box_order():
    # s = 0: xi runs over the whole cube [-rem, rem]^r, not the l1 ball
    cube = [(x1, x2) for x1 in (-1, 0, 1) for x2 in (-1, 0, 1)]
    assert list(mode_box(2, 0, 1)) == (
        [(-1, (0, 0), ())] + [(0, xi, ()) for xi in cube] + [(1, (0, 0), ())])
    assert list(mode_box(1, 1, 1)) == [
        (-1, (0,), (0,)),
        (0, (-1,), (0,)),
        (0, (0,), (-2,)), (0, (0,), (-1,)), (0, (0,), (0,)),
        (0, (0,), (1,)), (0, (0,), (2,)),
        (0, (1,), (0,)),
        (1, (0,), (0,)),
    ]
