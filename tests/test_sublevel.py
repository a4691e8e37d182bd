"""Sublevel-set geometry of oscillation primitives."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (_sin3_2t, op_disconnected_sublevel,
                      op_oscillatory_solvable)
from gsh.sublevel import (CONNECTED, DISCONNECTED, bump, circular_plateau,
                          connected_all_m, connectedness_family,
                          disjoint_closure_pair)
from gsh.operator_model import CLAUSE_III, EvolutionOperator, classify
from gsh.trigpoly import TrigPoly, real_root_isolation

TWO_PI = 2.0 * math.pi


def test_mode_combination_and_primitive():
    op = op_disconnected_sublevel()
    theta = op.mode(xi=(0,), alpha2=(2,)).imag
    ts = TWO_PI * np.arange(101) / 101
    assert np.abs(theta(ts) - np.sin(2 * ts) ** 3).max() < 1e-12
    F = theta.primitive()
    # exact primitive: 3/8 (1 - cos 2t) - 1/24 (1 - cos 6t)
    oracle = 3.0 / 8.0 * (1 - np.cos(2 * ts)) - (1 - np.cos(6 * ts)) / 24.0
    assert np.abs(F(ts) - oracle).max() < 1e-12


def test_connected_single_well():
    # f = sin t: the primitive 1 - cos t has one min and one max
    F = TrigPoly.constant(1) - TrigPoly.cos(1)
    analysis = connected_all_m(F)
    assert analysis.connected
    assert analysis.max_value == pytest.approx(2.0, abs=1e-12)
    assert analysis.min_value == pytest.approx(0.0, abs=1e-12)


def test_disconnected_cubed_harmonic():
    analysis = connected_all_m(_sin3_2t().primitive())
    assert not analysis.connected
    assert analysis.m_witness == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert len(analysis.arcs) == 2
    assert analysis.max_value == pytest.approx(2.0 / 3.0, abs=1e-9)
    # the two maxima sit at the exact critical points pi/2 and 3 pi/2
    tops = sorted(analysis.maxima)
    assert tops[0] == pytest.approx(math.pi / 2, abs=1e-9)
    assert tops[-1] == pytest.approx(3 * math.pi / 2, abs=1e-9)
    # oracle: grid count of connected components at the witness level
    ts = TWO_PI * np.arange(8192) / 8192
    Fv = np.real(_sin3_2t().primitive()(ts)) < analysis.m_witness
    flips = int(np.sum(Fv != np.roll(Fv, 1)))
    assert flips == 4  # two arcs = four boundary crossings


def _grid_components(F, m, n=1 << 16):
    below = np.real(F(TWO_PI * np.arange(n) / n)) < m
    return int(np.sum(below & ~np.roll(below, 1)))


def test_shallow_well_is_disconnected():
    # F' = sin t (cos t - 1/2)(cos t - 1/2 - 1/1000) changes sign six times:
    # F has a third, shallow minimum between the critical points pi/3 and
    # acos(0.501), 1.2e-3 apart, which a sampled root search missed
    c = TrigPoly.cos(1)
    b = (TrigPoly.sin(1) * (c - TrigPoly.constant(Fraction(1, 2)))
         * (c - TrigPoly.constant(Fraction(501, 1000))))
    assert len(real_root_isolation(b)) == 6
    analysis = connected_all_m(b.primitive())
    assert not analysis.connected and len(analysis.minima) == 3
    assert _grid_components(b.primitive(), analysis.m_witness) >= 2

    op = EvolutionOperator(1, 0, a=[0], b=[b], e=[], f=[], q_re=0, q_im=0)
    gs, _ = classify(op)
    assert (gs.status, gs.clause) == ("NO", CLAUSE_III)
    F = b.primitive().scale(gs.witness["xi"][0])
    assert _grid_components(F, gs.witness["m"]) >= 2
    assert len(gs.witness["arcs"]) == _grid_components(F, gs.witness["m"])


def test_family_connected_exact():
    rep = connectedness_family(op_oscillatory_solvable(), bound=8)
    assert rep.status == CONNECTED and rep.exact


def test_family_disconnected_witness():
    rep = connectedness_family(op_disconnected_sublevel(), bound=8)
    assert rep.status == DISCONNECTED
    assert rep.xi == (0,)
    assert rep.alpha2 == (2,)
    assert rep.m_witness == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert len(rep.arcs) == 2


def test_bump_and_plateau_shapes():
    ts = TWO_PI * np.arange(4096) / 4096
    phi = bump(1.0, 0.5)(ts)
    assert phi.max() <= 1.0 + 1e-15 and phi.min() >= 0.0
    # compact support inside the stated window
    outside = (np.abs(((ts - 1.0 + math.pi) % TWO_PI) - math.pi) >= 0.5)
    assert np.abs(phi[outside]).max() == 0.0
    assert phi[np.argmin(np.abs(ts - 1.0))] == pytest.approx(1.0, abs=1e-6)

    plat = circular_plateau((0.5, 1.0), (2.0, 2.5))(ts)
    inner = (ts > 1.0 + 1e-3) & (ts < 2.0 - 1e-3)
    outer = (ts > 2.5 + 1e-3) | (ts < 0.5 - 1e-3)
    assert np.abs(plat[inner] - 1.0).max() < 1e-12
    assert np.abs(plat[outer]).max() < 1e-12


def test_disjoint_closure_pair_certificate():
    F = _sin3_2t().primitive()
    pair = disjoint_closure_pair(F)
    ts = TWO_PI * np.arange(8192) / 8192
    g0 = pair.g0(ts)
    v0 = pair.v0(ts)
    # g0 integrates to zero, the pairing integral is one
    assert abs(np.mean(g0) * TWO_PI) < 1e-9
    assert np.mean(g0 * v0) * TWO_PI == pytest.approx(1.0, abs=1e-9)
    # v0 is locally constant (0 or 1) outside the transition arcs
    assert pair.omega < 0.0
    trans = np.zeros_like(ts, dtype=bool)
    for lo, hi in pair.transition_arcs:
        # arcs may be given on a lifted interval; compare circularly with
        # a small guard band for the endpoints
        span = hi - lo
        trans |= ((ts - lo) % TWO_PI) <= span + 1e-9
        trans |= ((lo - ts) % TWO_PI) <= 1e-9
    flat = v0[~trans]
    assert np.abs(flat * (1.0 - flat)).max() < 1e-9
