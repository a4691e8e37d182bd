"""Acceptance gate: twelve end-to-end criteria, one test (and one
pass/fail line in the pytest report) per criterion."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (GOLDEN, _sin3_2t, op_disconnected_sublevel,
                      op_exact_floor, op_liouville, op_neutral_rotation,
                      op_oscillatory_solvable, op_sign_change_witness)
from gsh import (adversarial, diophantine, fourier, global_solver, harmonics,
                 ode_solver, operator_model, sublevel)
from gsh.fourier import ModeIndex, SpectralField
from gsh.trigpoly import TrigPoly

TWO_PI = 2.0 * math.pi


class _Deadline:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self):
        assert time.monotonic() - self.start < self.limit


def test_criterion_01_wigner_unitarity_and_conjugation():
    clock = _Deadline(5.0)
    rng = np.random.default_rng(2024)
    angles = [harmonics.random_angles(rng) for _ in range(100)]
    for l2 in range(0, 11):
        d = l2 + 1
        for y in angles:
            T = harmonics.wigner_matrix(l2 / 2, y)
            assert np.abs(T @ T.conj().T - np.eye(d)).max() <= 1e-12
        y = angles[l2 % 100]
        for m2 in range(-l2, l2 + 1, 2):
            for n2 in range(-l2, l2 + 1, 2):
                lhs = np.conj(harmonics.wigner_t(
                    harmonics.WignerIndex(l2, m2, n2), y))
                rhs = ((-1.0) ** ((n2 - m2) // 2) * harmonics.wigner_t(
                    harmonics.WignerIndex(l2, -m2, -n2), y))
                assert abs(lhs - rhs) <= 1e-12
    clock.check()


def test_criterion_02_fourier_round_trip_and_plancherel():
    clock = _Deadline(10.0)
    rng = np.random.default_rng(7)
    F = fourier.random_field(rng, r=1, s=1, bound=4, nt=9)
    g = fourier.synthesize(F)
    G = fourier.analyze_partial(g)
    worst = 0.0
    for mode in set(F.table) | set(G.table):
        worst = max(worst, float(np.abs(F.get(mode) - G.get(mode)).max()))
    assert worst <= 1e-10
    lhs = g.l2_norm_sq()
    rhs = fourier.plancherel_partial(F)
    assert abs(lhs - rhs) <= 1e-9 * abs(rhs)
    clock.check()


def test_criterion_03_mode_ode_solver():
    clock = _Deadline(5.0)
    # constant theta, constant data
    c = 0.8 - 1.3j
    ode = ode_solver.ModeODE(theta_osc=TrigPoly.zero(), theta0=c,
                             g=TrigPoly.constant(1), n=64, resonant=False)
    assert np.abs(ode_solver.solve_mode(ode).values - 1.0 / c).max() <= 1e-12
    # branch agreement on seeded random band-limited data
    rng = np.random.default_rng(99)
    n = 128
    ts = TWO_PI * np.arange(n) / n
    for _ in range(20):
        theta0 = complex(rng.uniform(0.3, 1.2) * rng.choice([-1, 1]),
                         rng.uniform(-2.0, 2.0))
        theta_osc = (TrigPoly.sin(1, Fraction(rng.integers(-1, 2)))
                     + TrigPoly.cos(2, Fraction(1, 2)).times_i())
        g = sum(complex(rng.normal(), rng.normal()) * np.exp(1j * k * ts)
                for k in range(-4, 5))
        ode = ode_solver.ModeODE(theta_osc=theta_osc, theta0=theta0, g=g,
                                 n=n, resonant=False)
        um = ode_solver.solve_mode(ode, branch=ode_solver.MINUS).values
        up = ode_solver.solve_mode(ode, branch=ode_solver.PLUS).values
        assert np.abs(um - up).max() <= 1e-10
    # the resonant gate rejects data with compatibility integral 2 pi
    bad = ode_solver.ModeODE(theta_osc=TrigPoly.zero(), theta0=0.0,
                             g=TrigPoly.constant(1), n=64,
                             theta0_exact=(Fraction(0), Fraction(0)))
    assert ode_solver.compatibility(bad) == pytest.approx(TWO_PI)
    with pytest.raises(ode_solver.ModeUnsolvable):
        ode_solver.solve_mode(bad)
    clock.check()


def test_criterion_04_manufactured_global_solve():
    clock = _Deadline(30.0)
    op = op_oscillatory_solvable()
    rng = np.random.default_rng(6)
    u_star = fourier.random_field(rng, 1, 1, 6, nt=16, t_bandwidth=3)
    g = global_solver.apply_operator(op, u_star, nt=256)
    g = SpectralField(1, 1, 6, 256, g.table)
    rep = global_solver.solve(op, g)
    assert rep.residual_bound <= 1e-8
    resonant = set(rep.resonant_modes)
    worst = 0.0
    for mode in u_star.table:
        if mode in resonant:
            continue
        got = fourier.resample(rep.solution.get(mode), 16)
        worst = max(worst, float(np.abs(got - u_star.get(mode)).max()))
    assert worst <= 1e-8
    clock.check()


def test_criterion_05_golden_classification_table():
    clock = _Deadline(20.0)
    expected = {
        "rational_constant": {"GS": "YES"},
        "zero_order_missing": {"GH": "NO"},
        "sqrt2_hypoelliptic": {"GH": "YES"},
        "oscillatory_solvable": {"GS": "YES"},
        "half_integer_mean": {"GS": "NO"},
        "disconnected_sublevel": {"GS": "NO"},
        "span1_hypoelliptic": {"GH": "YES"},
        "span1_not_hypoelliptic": {"GH": "NO"},
    }
    for name, want in expected.items():
        gs, gh = operator_model.classify(GOLDEN[name]())
        got = {"GS": gs.status, "GH": gh.status}
        for prop, status in want.items():
            assert got[prop] == status, f"{name}: {prop} {got[prop]} != {status}"
        if name == "disconnected_sublevel":
            assert gs.witness["xi"] == [0]
            assert gs.witness["alpha"] == [Fraction(1)]
            assert gs.witness["m"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    clock.check()


def test_criterion_06_sublevel_analysis():
    clock = _Deadline(2.0)
    F = _sin3_2t().primitive()
    analysis = sublevel.connected_all_m(F)
    assert not analysis.connected
    assert analysis.m_witness == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert len(analysis.arcs) == 2
    assert analysis.max_value == pytest.approx(2.0 / 3.0, abs=1e-9)
    tops = sorted(analysis.maxima)
    assert tops[0] == pytest.approx(math.pi / 2, abs=1e-9)
    assert tops[-1] == pytest.approx(3 * math.pi / 2, abs=1e-9)
    clock.check()


def test_criterion_07_exact_diophantine_floor():
    clock = _Deadline(5.0)
    op = op_exact_floor()
    rep = diophantine.dc_check(op)
    assert rep.status == diophantine.HOLDS and rep.exact
    assert rep.eps >= Fraction(1, 30)
    eps = float(rep.eps)
    for tau in range(-12, 13):
        for x1 in range(-12, 13):
            for x2 in range(-12, 13):
                sigma = op.symbol_L0(tau, (x1, x2), ())
                assert sigma == 0 or abs(sigma) >= eps - 1e-12
    clock.check()


def test_criterion_08_liouville_violation():
    clock = _Deadline(10.0)
    seq = diophantine.liouville_violation_sequence(op_liouville(), n_max=6)
    assert seq.recognized and len(seq.entries) == 6
    for e in seq.entries:
        # log|sigma_n| <= log C' - (n-1) log j_n, entirely in log arithmetic
        log_j_n = math.factorial(e.n) * math.log(10.0)
        assert e.log_abs_upper <= seq.constant_log - (e.n - 1) * log_j_n + 1e-9
    assert diophantine.dc_check(op_liouville()).status == diophantine.FAILS
    clock.check()


def test_criterion_09_sign_change_certificate():
    clock = _Deadline(30.0)
    rep = adversarial.cs_singular_rhs(op_sign_change_witness(),
                                      xi=(), alpha2=(2,), n_max=10)
    assert rep.g_decay.kind == fourier.RAPID_DECAY
    assert rep.u_t0_exponent >= -0.6
    for e in rep.entries:
        assert e.u_sup_log <= e.sup_bound_log + 1e-12
    clock.check()


def test_criterion_10_hormander_violation_certificate():
    clock = _Deadline(30.0)
    op = op_disconnected_sublevel()
    fam = sublevel.connectedness_family(op, bound=8)
    assert fam.status == sublevel.DISCONNECTED
    rep = adversarial.hormander_pair(op, fam.xi, fam.alpha2,
                                     ns=(1, 5, 10), lambdas=(1, 2, 3))
    assert rep.omega < 0.0
    for e in rep.entries:
        assert e.drift <= 1e-9 * abs(rep.expected)
        assert set(e.bound_curves) == {1, 2, 3}
    # the linear-in-n part of every bound curve has exact slope omega
    s = 1
    for lam in (1, 2, 3):
        linear = [e.bound_curves[lam] - (4 * lam + 3 + s) * math.log(e.n)
                  for e in rep.entries]
        slope = (linear[-1] - linear[0]) / (rep.entries[-1].n - rep.entries[0].n)
        assert slope == pytest.approx(rep.omega, rel=1e-9)
    clock.check()


def test_criterion_11_homogeneous_kernel_ladder():
    clock = _Deadline(5.0)
    op = op_neutral_rotation()
    rep = adversarial.homogeneous_kernel_family(op, bound=6, nt=128)
    assert rep.elements and rep.infinite_ladder
    for el in rep.elements:
        assert abs(abs(el.values[0]) - 1.0) <= 1e-12
        osc = op.theta_osc(el.mode.xi, el.mode.alpha2)
        th0, exact, _ = op.theta_mean(el.mode.xi, el.mode.alpha2)
        ode = ode_solver.ModeODE(theta_osc=osc, theta0=th0,
                                 g=np.zeros(128, dtype=complex), n=128,
                                 theta0_exact=exact)
        assert ode_solver.residual(ode, el.values) <= 1e-10
    clock.check()


def test_criterion_12_gauge_invariance():
    clock = _Deadline(20.0)
    rng = np.random.default_rng(12)
    for name, make in GOLDEN.items():
        op = make()
        tilde, phases = operator_model.gauge_reduce(op)
        gs0, gh0 = operator_model.classify(op)
        gs1, gh1 = operator_model.classify(tilde)
        assert (gs0.status, gs0.clause) == (gs1.status, gs1.clause), name
        assert (gh0.status, gh0.clause) == (gh1.status, gh1.clause), name

        # mode-wise conjugation: L(Psi u) = Psi(L~ u)
        nt = 512
        ts = TWO_PI * np.arange(nt) / nt
        u = fourier.random_field(rng, op.r, op.s, 2, nt=nt, t_bandwidth=2,
                                 density=0.25)
        A = [p(ts) for p in phases["A"]]
        E = [p(ts) for p in phases["E"]]
        psi_u = u.copy_empty()
        for mode, vals in u.table.items():
            phase = sum(a * x for a, x in zip(A, mode.xi)) \
                + sum(e * a2 / 2.0 for e, a2 in zip(E, mode.alpha2))
            psi_u.set(mode, vals * np.exp(-1j * np.asarray(phase, dtype=complex)))
        lhs = global_solver.apply_operator(op, psi_u)
        mid = global_solver.apply_operator(tilde, u)
        worst = 0.0
        for mode, vals in mid.table.items():
            phase = sum(a * x for a, x in zip(A, mode.xi)) \
                + sum(e * a2 / 2.0 for e, a2 in zip(E, mode.alpha2))
            rhs = vals * np.exp(-1j * np.asarray(phase, dtype=complex))
            worst = max(worst, float(np.abs(lhs.get(mode) - rhs).max()))
        assert worst <= 1e-10, name
    clock.check()
