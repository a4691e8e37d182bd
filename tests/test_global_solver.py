"""Mode-decoupled global solving and its certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (mode_residual, odd_length_case, odd_length_u,
                      op_oscillatory_solvable, op_rational_constant,
                      op_span1_hypoelliptic, trig_interpolant)
from gsh import fourier, global_solver
from gsh.fourier import ModeIndex, SpectralField, random_field
from gsh.global_solver import (RESONANT_ARGMAX, annihilator_test, apply_operator,
                               decay_certify, residual_sup, solve)
from gsh.ode_solver import (ModeODE, ModeUnsolvable, compatibility, homogeneous,
                            solve_mode)
from gsh.operator_model import EvolutionOperator
from gsh.trigpoly import TrigPoly

TWO_PI = 2.0 * math.pi


def _single_mode_field(r, s, bound, nt, mode, vals):
    F = SpectralField(r, s, bound, nt)
    F.set(mode, vals)
    return F


def test_apply_operator_oracle():
    # L applied to a one-mode field, checked against a direct evaluation
    op = op_rational_constant()
    nt = 32
    ts = TWO_PI * np.arange(nt) / nt
    mode = ModeIndex(xi=(2,), l2=(1,), alpha2=(1,), beta2=(-1,))
    u = np.exp(1j * ts) + 0.25
    F = _single_mode_field(1, 1, 2, nt, mode, u)
    out = apply_operator(op, F)
    # theta = i(c0 xi + d0 alpha - i q) with c0 = 1+i, d0 = 2+2i, q = 3i
    theta = 1j * ((1 + 1j) * 2 + (2 + 2j) * 0.5 - 1j * 3j)
    du = 1j * np.exp(1j * ts)
    oracle = du + theta * u
    assert np.abs(out.get(mode) - oracle).max() < 1e-12


def test_annihilator_test_flags_bad_mode():
    op = op_oscillatory_solvable()  # every mode is resonant
    nt = 16
    mode = ModeIndex(xi=(0,), l2=(0,), alpha2=(0,), beta2=(0,))
    # the e^{-imt} profile hits the resonant frequency head-on
    g_bad = _single_mode_field(1, 1, 2, nt, mode, np.zeros(nt, dtype=complex))
    ts = TWO_PI * np.arange(nt) / nt
    m = 3  # theta0 = 3i at the origin mode
    g_bad.set(mode, np.exp(-1j * m * ts))
    rep = annihilator_test(op, g_bad)
    assert not rep.ok and len(rep.violations) == 1

    # derivative data is always compatible: g = L u
    u = random_field(np.random.default_rng(0), 1, 1, 2, nt)
    rep2 = annihilator_test(op, apply_operator(op, u))
    assert rep2.ok and len(rep2.resonant_modes) > 0


def test_solve_manufactured_small():
    op = op_oscillatory_solvable()
    rng = np.random.default_rng(1)
    u_star = random_field(rng, 1, 1, 3, nt=16, t_bandwidth=3)
    g = apply_operator(op, u_star, nt=256)
    g = SpectralField(1, 1, 3, 256, g.table)
    rep = solve(op, g)
    assert rep.residual_sup < 1e-9
    assert rep.sup_bound_ok
    assert rep.strategy == RESONANT_ARGMAX
    # residual on an even finer grid stays small
    assert residual_sup(op, rep.solution, g, refine=2) < 1e-9


def _op_off_resonance() -> EvolutionOperator:
    """op_oscillatory_solvable with q shifted off the arithmetic ladder, so
    that every mode is non-resonant."""
    base = op_oscillatory_solvable()
    return EvolutionOperator(1, 1, a=base.a, b=base.b, e=base.e, f=base.f,
                             q_re="1/3", q_im=3)


def test_solve_nonresonant_recovers_exactly():
    # span1_hypoelliptic at criterion 04's size, whose oscillation
    # amplitude reaches 27: every mode non-resonant, so u* is the solution
    for op, seed, bound, tb in ((_op_off_resonance(), 4, 2, 2),
                                (op_span1_hypoelliptic(), 1, 6, 3)):
        rng = np.random.default_rng(seed)
        u_star = random_field(rng, 1, 1, bound, nt=16, t_bandwidth=tb)
        g = apply_operator(op, u_star, nt=256)
        g = SpectralField(1, 1, bound, 256, g.table)
        rep = solve(op, g)
        assert len(rep.resonant_modes) == 0
        worst = 0.0
        for mode, vals in u_star.table.items():
            got = fourier.resample(rep.solution.get(mode), 16)
            worst = max(worst, float(np.abs(got - vals).max()))
        assert worst < 1e-10


def test_solve_rejects_incompatible():
    op = op_oscillatory_solvable()
    nt = 16
    mode = ModeIndex(xi=(0,), l2=(0,), alpha2=(0,), beta2=(0,))
    ts = TWO_PI * np.arange(nt) / nt
    g = _single_mode_field(1, 1, 1, nt, mode, np.exp(-3j * ts))
    with pytest.raises(ModeUnsolvable):
        solve(op, g)
    rep = solve(op, g, check_compat=False)
    assert rep.residual_sup > 1e-3  # honest: no periodic solution exists


def test_decay_certify_of_solution():
    op = op_rational_constant()
    rng = np.random.default_rng(13)
    u_star = random_field(rng, 1, 1, 4, nt=16, t_bandwidth=2, density=1.0)
    g = apply_operator(op, u_star, nt=64)
    g = SpectralField(1, 1, 4, 64, g.table)
    rep = solve(op, g)
    cert = decay_certify(rep.solution)
    assert cert.kind in (fourier.RAPID_DECAY, fourier.POLYNOMIAL_GROWTH)


def test_odd_length_field_is_solved_and_checked_on_its_interpolant():
    # an odd nt used to lose the -7 bin on the way to the solve grid, and
    # the residual check lost it the same way: residual_sup read 7e-15
    # while the solution missed u* by 1.0
    op, mode, u_star, g = odd_length_case()
    rep = solve(op, g)
    t = np.linspace(0.0, TWO_PI, 97)
    u = rep.solution.get(mode)
    assert np.abs(trig_interpolant(u, t) - odd_length_u(t)).max() < 1e-12
    assert mode_residual(op, mode, u, g.get(mode), t) < 1e-10
    assert rep.residual_sup < 1e-10


def test_residual_sup_matches_a_direct_evaluation():
    op = op_oscillatory_solvable()
    rng = np.random.default_rng(3)
    both = ModeIndex(xi=(0,), l2=(0,), alpha2=(0,), beta2=(0,))
    u_only = ModeIndex(xi=(1,), l2=(1,), alpha2=(1,), beta2=(-1,))
    u_and_g = ModeIndex(xi=(1,), l2=(1,), alpha2=(1,), beta2=(1,))
    g_only = ModeIndex(xi=(-1,), l2=(2,), alpha2=(0,), beta2=(2,))
    u = SpectralField(1, 1, 1, 16)
    g = SpectralField(1, 1, 1, 15)
    for F, modes in ((u, (both, u_only, u_and_g)), (g, (both, u_and_g, g_only))):
        for m in modes:
            F.set(m, rng.normal(size=F.nt) + 1j * rng.normal(size=F.nt))
    t = TWO_PI * np.arange(64) / 64
    ref = max(mode_residual(op, m, u.get(m), g.get(m), t)
              for m in (both, u_only, u_and_g, g_only))
    assert residual_sup(op, u, g, refine=4) == pytest.approx(ref, rel=1e-12)


def test_annihilator_violations_match_the_per_mode_compatibility():
    op = op_oscillatory_solvable()  # every mode is resonant
    rng = np.random.default_rng(5)
    u = random_field(rng, 1, 1, 2, nt=16, t_bandwidth=2)
    g = apply_operator(op, u, nt=32)  # compatible on every mode
    bad = {}
    for mode in list(g.table)[::9]:
        # e^{-imt} meets the resonant frequency head-on
        m = op.theta_mean(mode.xi, mode.alpha2)[1][1]
        bad[mode] = TrigPoly({k: (Fraction(int(rng.integers(-9, 10)), 8),
                                  Fraction(int(rng.integers(-9, 10)), 8))
                              for k in range(-3, 4)}) + TrigPoly({-m: 1})
        g.set(mode, bad[mode].sample(g.nt))
    assert len({(m.xi, m.alpha2) for m in bad}) > 1
    rep = annihilator_test(op, g)
    assert {m for m, _ in rep.violations} == set(bad)
    for mode, comp in rep.violations:
        theta0, exact, _ = op.theta_mean(mode.xi, mode.alpha2)
        ode = ModeODE(theta_osc=op.theta_osc(mode.xi, mode.alpha2),
                      theta0=theta0, g=bad[mode], n=2048, theta0_exact=exact)
        scale = float(np.abs(g.get(mode)).max()) + 1.0
        assert abs(comp - compatibility(ode)) <= 1e-12 * scale


def _largest_amplitude_group(op, F: SpectralField) -> tuple[SpectralField, float]:
    """F restricted to its (xi, alpha) group of largest oscillation
    amplitude, and that amplitude."""
    def amp(key):
        return op.theta_osc(*key).primitive().sup_norm_bound()
    key = max({(m.xi, m.alpha2) for m in F.table}, key=amp)
    table = {m: v for m, v in F.table.items() if (m.xi, m.alpha2) == key}
    return SpectralField(F.r, F.s, F.bound, F.nt, table), amp(key)


@pytest.fixture(scope="module")
def bound8_group():
    """A bound-8 field of op_oscillatory_solvable on its largest-amplitude
    group (A = 27.3, 17 modes), and g = L u*."""
    op = op_oscillatory_solvable()
    u_star = random_field(np.random.default_rng(2), 1, 1, 8, nt=16,
                          t_bandwidth=3)
    u_star, amp = _largest_amplitude_group(op, u_star)
    assert amp > 27 and len(u_star.table) == 17
    return op, u_star, apply_operator(op, u_star, nt=256)


def test_solve_high_amplitude_group_at_bound_8(bound8_group):
    # the integrating-factor kernel carried roundoff of size e^{2A} into
    # this group's solution, a residual of about 1.5e-6
    op, u_star, g = bound8_group
    rep = solve(op, g)
    assert len(rep.resonant_modes) == 17
    assert rep.residual_sup <= 1e-10
    assert rep.sup_bound_ok


def test_high_amplitude_gate_flags_only_the_perturbed_row(bound8_group):
    op, u_star, g = bound8_group
    rep = annihilator_test(op, g)
    assert rep.ok and len(rep.resonant_modes) == 17
    g = SpectralField(g.r, g.s, g.bound, g.nt, dict(g.table))
    mode = list(g.table)[5]
    m = op.theta_mean(mode.xi, mode.alpha2)[1][1]
    ts = TWO_PI * np.arange(g.nt) / g.nt
    g.set(mode, g.get(mode) + 1e-3 * np.exp(-1j * m * ts))
    rep = annihilator_test(op, g)
    assert [v[0] for v in rep.violations] == [mode]
    with pytest.raises(ModeUnsolvable):
        solve(op, g)


def test_modes_agree_with_the_integral_formula_reference():
    # each mode of the Galerkin solve against ode_solver.solve_mode on the
    # solution grid: non-resonant modes agree, resonant ones vanish at the
    # argmax t* and differ from the lam = 0 member by a homogeneous multiple
    base = op_oscillatory_solvable()
    for op in (base, _op_off_resonance()):
        u_star = random_field(np.random.default_rng(6), 1, 1, 2, nt=16,
                              t_bandwidth=2)
        g = apply_operator(op, u_star, nt=64)
        rep = solve(op, g)
        n = rep.solution.nt
        for mode in g.table:
            theta0, exact, resonant = op.theta_mean(mode.xi, mode.alpha2)
            ode = ModeODE(theta_osc=op.theta_osc(mode.xi, mode.alpha2),
                          theta0=theta0, g=fourier.resample(g.get(mode), n),
                          n=n, theta0_exact=exact)
            u = rep.solution.get(mode)
            diff = u - solve_mode(ode).values
            if resonant:
                t_star = global_solver._oscillation_argmax(op, mode.xi,
                                                           mode.alpha2)
                assert abs(trig_interpolant(u, [t_star])[0]) < 1e-12
                h = homogeneous(ode)
                diff = diff - (np.vdot(h, diff) / np.vdot(h, h)) * h
            assert np.abs(diff).max() < 1e-11
        assert len(rep.resonant_modes) == (len(g.table) if op is base else 0)
