"""Operator data model: symbol, structure, zero set, gauge, classifier."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (op_disconnected_sublevel, op_half_integer_mean,
                      op_liouville, op_oscillatory_solvable,
                      op_rational_constant, op_sign_change_witness,
                      op_span1_hypoelliptic, op_sqrt2_hypoelliptic,
                      op_zero_order_term_missing)
from gsh.numerics import IN_LATTICE, NOT_IN_LATTICE, TaggedReal
from gsh.operator_model import (CLAUSE_CS, CLAUSE_I, CLAUSE_II, CLAUSE_III,
                                EvolutionOperator, Verdict, classify,
                                detect_CS, gauge_reduce, operator_from_json,
                                operator_to_json, structure_report, zero_set,
                                zero_set_finiteness)
from gsh.trigpoly import TrigPoly


def test_inner_symbol_exact_rational():
    op = op_rational_constant()  # c0 = 1 + i, d0 = 2 + 2i, q = 3i
    re, im = op.inner_symbol(tau=2, xi=(3,), alpha2=(1,))
    # re = tau + a0 xi + e0 alpha + Im q = 2 + 3 + 1 + 3
    assert re.is_rational() and re.value == 9
    # im = b0 xi + f0 alpha - Re q = 3 + 1
    assert im.is_rational() and im.value == 4
    sigma = op.symbol_L0(2, (3,), (1,))
    assert sigma == pytest.approx(complex(-4, 9))
    assert op.symbol_is_zero(2, (3,), (1,)) is False
    # q = 3i makes (tau, xi, alpha) = (-3, 0, 0) a symbol zero
    assert op.symbol_is_zero(-3, (0,), (0,)) is True


def test_theta_decomposition_matches_pointwise():
    op = op_oscillatory_solvable()
    xi, alpha2 = (2,), (3,)
    ts = 2.0 * math.pi * np.arange(97) / 97
    theta0, exact, resonant = op.theta_mean(xi, alpha2)
    osc = op.theta_osc(xi, alpha2)
    # direct evaluation of i(<c(t), xi> + <d(t), alpha> - iq)
    c = (np.cos(ts) + 1) + 1j * np.sin(ts)
    d = (np.sin(ts) + 2) + 1j * np.cos(ts)
    direct = 1j * (2 * c + 1.5 * d - 1j * (3j))
    assert np.abs((theta0 + osc(ts)) - direct).max() < 1e-12
    assert resonant  # re = 2*1 + 2*(3/2) + 3 = 8 in Z, im = 0
    assert exact == (Fraction(0), Fraction(8))


def test_json_round_trip_with_tags():
    for op in [op_rational_constant(), op_oscillatory_solvable(),
               op_sqrt2_hypoelliptic(), op_liouville(),
               op_span1_hypoelliptic()]:
        back = operator_from_json(operator_to_json(op))
        assert (back.r, back.s) == (op.r, op.s)
        for old, new in zip(op.a + op.b + op.e + op.f,
                            back.a + back.b + back.e + back.f):
            assert new.poly == old.poly
            assert new.offset.tag == old.offset.tag
            assert new.offset.approx == pytest.approx(old.offset.approx)
        assert back.q_re.tag == op.q_re.tag
        assert back.q_im.approx == pytest.approx(op.q_im.approx)


def test_structure_report_oscillatory():
    S = structure_report(op_oscillatory_solvable())
    assert not S.is_imag_constant
    assert S.span_dim == 2
    assert S.b0f0_zero
    assert isinstance(S.any_sign_change, bool)
    assert S.a0_in_Z.status == IN_LATTICE
    assert S.e0_in_2Z.status == IN_LATTICE
    assert S.q_in_iZ.status == IN_LATTICE


def test_structure_report_half_integer_mean():
    S = structure_report(op_half_integer_mean())
    assert S.e0_in_2Z.status == NOT_IN_LATTICE
    assert S.b0f0_zero


def test_structure_report_span1():
    S = structure_report(op_span1_hypoelliptic())
    assert S.span_dim == 1
    assert not S.any_sign_change
    assert S.span1 is not None


def test_sign_change_witness_detection():
    assert detect_CS(op_sign_change_witness()) is not None
    assert detect_CS(op_half_integer_mean()) is not None
    # every candidate shifted symbol is an integer: no witness exists
    assert detect_CS(op_disconnected_sublevel()) is None
    assert detect_CS(op_oscillatory_solvable()) is None


def test_irrational_offset_is_no_sign_change_witness():
    # -(sin t + sqrt 2) never changes sign, but the sign test used to see
    # only -sin t and returned xi = (-1, 0) as a CS witness
    from gsh.operator_model import CoefFn
    sqrt2 = TaggedReal.non_liouville(2 ** 0.5, key="sqrt2")
    op = EvolutionOperator(2, 0, a=[0, 0],
                           b=[CoefFn(TrigPoly.sin(1), sqrt2), TrigPoly.cos(1)],
                           e=[], f=[], q_re=0, q_im=0)
    assert detect_CS(op) is None
    gs, gh = classify(op)
    structural = {"span_dim": 2, "any_sign_change": True, "b0f0_zero": False}
    assert (gs.status, gs.clause, gs.witness) == ("NO", CLAUSE_III, structural)
    assert (gh.status, gh.clause, gh.witness) == ("NO", CLAUSE_II, structural)


def test_zero_set_cases():
    empty, finite = zero_set_finiteness(op_sqrt2_hypoelliptic())
    assert empty is True and finite is True
    rep = zero_set(op_sqrt2_hypoelliptic(), bound=6)
    assert rep.elements == [] and rep.empty and rep.finite

    rep0 = zero_set(op_zero_order_term_missing(), bound=4)
    assert (0, (0,), (0,), (0,)) in rep0.elements
    assert rep0.infinite_flag

    # sphere factor present and a zero exists: the ladder is infinite
    repq = zero_set(op_rational_constant(), bound=4)
    assert repq.infinite_flag


def test_gauge_reduce_preserves_means():
    op = op_oscillatory_solvable()
    tilde, phases = gauge_reduce(op)
    assert tilde.a[0].poly.is_constant()
    assert tilde.e[0].poly.is_constant()
    assert tilde.a[0].mean_rational_part() == op.a[0].mean_rational_part()
    assert tilde.e[0].mean_rational_part() == op.e[0].mean_rational_part()
    # imaginary parts and q are untouched
    assert tilde.b[0].poly == op.b[0].poly
    assert tilde.f[0].poly == op.f[0].poly
    # the phase primitives differentiate back to the oscillations
    A = phases["A"][0]
    assert A.derivative() == op.a[0].osc()
    assert abs(A(0.0)) < 1e-15


def test_classifier_clauses():
    gs, gh = classify(op_rational_constant())
    assert (gs.status, gs.clause) == ("YES", CLAUSE_I)
    gs, gh = classify(op_span1_hypoelliptic())
    assert (gh.status, gh.clause) == ("YES", CLAUSE_II)
    gs, gh = classify(op_half_integer_mean())
    assert gs.status == "NO" and gs.clause == CLAUSE_CS
    gs, gh = classify(op_disconnected_sublevel())
    assert gs.status == "NO" and gs.clause == CLAUSE_III
    assert gs.witness["m"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    gs, gh = classify(op_oscillatory_solvable())
    assert (gs.status, gs.clause) == ("YES", CLAUSE_III)
    assert gh.status == "NO"


def test_verdict_validation():
    with pytest.raises(ValueError):
        Verdict(status="NO", property="GS", clause=CLAUSE_I)  # witness missing
    with pytest.raises(ValueError):
        Verdict(status="UNKNOWN_AT_BOUND", property="GS", clause=CLAUSE_III,
                witness={})  # exhausted bound missing
    v = Verdict(status="YES", property="GH", clause=CLAUSE_II)
    assert v.to_json()["clause"] == "clause_ii"


def test_operator_validation():
    with pytest.raises(ValueError):
        EvolutionOperator(2, 0, a=[1], b=[1], e=[], f=[], q_re=0, q_im=0)
    with pytest.raises(ValueError):
        EvolutionOperator(0, 1, a=[], b=[], e=[TrigPoly.sin(1).times_i()],
                          f=[0], q_re=0, q_im=0)


def test_unspecified_offset_gives_unknown():
    op = EvolutionOperator(1, 1,
                           a=[TaggedReal.unspecified(1.0)], b=[0],
                           e=[2], f=[0], q_re=0, q_im=0)
    gs, _ = classify(op, bound=4)
    assert gs.status == "UNKNOWN_AT_BOUND"
    assert gs.witness is not None and "bound" in gs.witness
