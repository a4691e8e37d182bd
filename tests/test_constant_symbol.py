"""The compiled constant-part symbol against its combine_tagged reference."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import op_rational_constant, op_span1_hypoelliptic
from gsh import diophantine
from gsh.numerics import (TAG_LIOUVILLE, TAG_NON_LIOUVILLE, TAG_UNSPECIFIED,
                          TaggedReal, combine_tagged, standard_liouville)
from gsh.operator_model import (CLAUSE_I, CLAUSE_II, YES, CoefFn,
                                EvolutionOperator, classify, mode_box,
                                zero_set, zero_set_finiteness)
from gsh.trigpoly import TrigPoly

# one object each: coefficients that draw the same one share an atom
SHARED = TaggedReal.non_liouville(2 ** 0.5, key="sqrt2")
OTHER = TaggedReal.non_liouville(3 ** 0.5, key="sqrt3")
LIOUVILLE = TaggedReal.liouville(standard_liouville())
VAGUE = TaggedReal.unspecified(0.3)


def reference_sum(terms):
    """combine_tagged over each mean's rational part and irrational offset.

    That gives tag, value and key; the approximation of an irrational
    result is the term-by-term sum over the means themselves.
    """
    split, approx = [], 0.0
    for coef, x in terms:
        fn = CoefFn.of(x)
        mean = combine_tagged([(Fraction(1), TaggedReal.rational(fn.poly.mean_real())),
                               (Fraction(1), fn.offset)])
        approx += float(coef) * mean.approx
        split.append((coef, TaggedReal.rational(fn.mean_rational_part())))
        if fn.irrational_offset() is not None:
            split.append((coef, fn.irrational_offset()))
    out = combine_tagged(split)
    return out if out.is_rational() else replace(out, approx=approx)


def reference_parts(op, tau, xi, alpha2):
    """(Re, Im) of the inner symbol, summed term by term."""
    re_terms = [(Fraction(tau), 1), (Fraction(1), op.q_im)]
    im_terms = [(Fraction(-1), op.q_re)]
    for j in range(op.r):
        re_terms.append((Fraction(xi[j]), op.a[j]))
        im_terms.append((Fraction(xi[j]), op.b[j]))
    for k in range(op.s):
        re_terms.append((Fraction(alpha2[k], 2), op.e[k]))
        im_terms.append((Fraction(alpha2[k], 2), op.f[k]))
    return reference_sum(re_terms), reference_sum(im_terms)


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
    # s = 0: xi runs over the l1 ball |xi|_1 <= bound - |tau|
    ball = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
    assert list(mode_box(2, 0, 1)) == (
        [(-1, (0, 0), ())] + [(0, xi, ()) for xi in ball] + [(1, (0, 0), ())])
    assert sum(1 for _ in mode_box(2, 0, 8)) == 833
    assert list(mode_box(1, 1, 1)) == [
        (-1, (0,), (0,)),
        (0, (-1,), (0,)),
        (0, (0,), (-2,)), (0, (0,), (-1,)), (0, (0,), (0,)),
        (0, (0,), (1,)), (0, (0,), (2,)),
        (0, (1,), (0,)),
        (1, (0,), (0,)),
    ]


def test_offsets_shared_across_rational_parts_cancel():
    # a = [1 + sqrt2, sqrt2]: xi = (1, -1) cancels sqrt2 and tau = -1 the rest
    op = _op(2, 0, a=[CoefFn(TrigPoly.constant(1), SHARED), SHARED], b=[0, 0])
    assert op.symbol_is_zero(-1, (1, -1), ()) is True
    assert (-1, (1, -1), (), ()) in zero_set(op).elements
    rep = diophantine.dc_check(op)
    assert (rep.status, rep.method) == (diophantine.HOLDS,
                                        diophantine.METHOD_QUALITATIVE)


def test_one_key_on_both_sides_gives_one_row_per_side():
    # Re = tau + sqrt2 xi1 and Im = sqrt2 xi2 vanish only at the origin
    op = _op(2, 0, a=[SHARED, 0], b=[0, SHARED])
    assert zero_set_finiteness(op) == (False, True)
    _, gh = classify(op)
    assert (gh.status, gh.clause) == (YES, CLAUSE_I)


def test_two_keys_on_one_side_leave_finiteness_undecided():
    # sqrt 8 = 2 sqrt 2 under its own key: sigma(0, (2k, -k)) = 0 for every
    # k, so the zero set is infinite, and independent keys would say finite
    sqrt8 = TaggedReal.non_liouville(8 ** 0.5, key="sqrt8")
    op = _op(2, 0, a=[SHARED, sqrt8], b=[0, 0])
    assert zero_set_finiteness(op) == (None, None)
    assert zero_set(op).finite is None
    # one key on each side stays decided
    op = _op(2, 0, a=[SHARED, 0], b=[0, OTHER])
    assert zero_set_finiteness(op) == (False, True)
