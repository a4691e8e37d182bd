"""Mode-decoupled global solving and its certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (mode_residual, odd_length_case, odd_length_u,
                      op_oscillatory_solvable, op_rational_constant,
                      op_span1_hypoelliptic, trig_interpolant)
from gsh import fourier, sublevel
from gsh.fourier import ModeIndex, SpectralField, enumerate_modes, random_field
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


def _trig_samples(coef: dict[int, complex], n: int) -> np.ndarray:
    ts = TWO_PI * np.arange(n) / n
    return sum(c * np.exp(1j * k * ts) for k, c in coef.items())


@settings(max_examples=40, deadline=None)
@given(m=st.integers(5, 24), n=st.integers(5, 48), seed=st.integers(0, 2**16))
@example(m=16, n=16, seed=0)   # equal grids, u's own Nyquist bin
@example(m=15, n=15, seed=1)
@example(m=16, n=10, seed=2)   # below: n's Nyquist bin, folded
@example(m=15, n=8, seed=3)
@example(m=8, n=21, seed=4)    # above: u's Nyquist bin, split
@example(m=9, n=64, seed=5)
def test_apply_operator_is_L_on_the_interpolant(m, n, seed):
    # u's interpolant reaches the band both grids resolve, with a cosine
    # in the smaller grid's Nyquist bin when it is even; L u on the n-grid
    # must equal L applied pointwise to that interpolant
    op = op_oscillatory_solvable()
    rng = np.random.default_rng(seed)
    lo = min(m, n)
    group = [ModeIndex(xi=(1,), l2=(1,), alpha2=(1,), beta2=(b,)) for b in (-1, 1)]
    other = ModeIndex(xi=(-2,), l2=(2,), alpha2=(0,), beta2=(2,))
    u = SpectralField(1, 1, 2, m)
    for mode in group + [other]:
        half = (lo - 1) // 2
        coef = {k: complex(*rng.normal(size=2)) for k in range(-half, half + 1)}
        if lo % 2 == 0:
            coef[lo // 2] = coef[-lo // 2] = rng.normal()
        u.set(mode, _trig_samples(coef, m))
    out = apply_operator(op, u, nt=n)
    t = TWO_PI * np.arange(n) / n
    for mode in group + [other]:
        scale = 1.0 + float(np.abs(out.get(mode)).max())
        assert mode_residual(op, mode, u.get(mode), out.get(mode), t) < 1e-13 * scale
        alone = apply_operator(op, _single_mode_field(1, 1, 2, m, mode, u.get(mode)), nt=n)
        assert np.abs(alone.get(mode) - out.get(mode)).max() < 1e-14 * scale


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
    assert rep.residual_bound < 1e-9
    assert rep.sup_bound_ok
    assert rep.strategy == RESONANT_ARGMAX
    # residual on an even finer grid stays small
    assert residual_sup(op, rep.solution, g, refine=2) < 1e-9


def test_solve_pins_at_the_argmax_when_re_q_cancels_a_nonzero_mean():
    # b = 1 + sin t has mean 1, which Re q = 1 cancels: the mode is
    # resonant and F = 1 - cos t peaks at pi, but the pin used to sit at
    # t = 0, the minimum of F, where sup_ratio read 1.05
    op = EvolutionOperator(1, 0, a=[0], b=[TrigPoly.constant(1) + TrigPoly.sin(1)],
                           e=[], f=[], q_re=1, q_im=0)
    mode = ModeIndex(xi=(1,), l2=(), alpha2=(), beta2=())
    ts = TWO_PI * np.arange(32) / 32
    g = apply_operator(op, _single_mode_field(1, 0, 1, 32, mode, np.cos(ts) + 0.3))
    rep = solve(op, g)
    assert rep.resonant_modes == [mode]
    assert rep.sup_bound_ok
    assert abs(trig_interpolant(rep.solution.get(mode), [math.pi])[0]) < 1e-12


@pytest.mark.parametrize("g_nt", [1024, 32])
def test_reported_residual_is_the_certificate_of_the_solution(g_nt):
    # g sampled finer and coarser than the solve grid: the report must
    # read the original g rows, not g moved to the solution grid
    op = op_oscillatory_solvable()
    u_star = random_field(np.random.default_rng(7), 1, 1, 2, nt=16, t_bandwidth=2)
    g = apply_operator(op, u_star, nt=g_nt)
    rep = solve(op, g)
    assert rep.solution.nt != g.nt
    assert rep.residual_bound >= residual_sup(op, rep.solution, g)


def test_oscillation_argmax_is_the_maximum_of_the_primitive():
    # every resonant group of a bound-4 field, and theta_osc = i p2 - p
    # for seeded random real p, p2 of bandwidth 1-3, whose F' is p
    op = op_oscillatory_solvable()
    thetas = [op.theta_osc(*key)
              for key in {(m.xi, m.alpha2) for m in enumerate_modes(1, 1, 4)}
              if op.theta_mean(*key)[2]]
    assert len(thetas) > 30
    rng = np.random.default_rng(8)

    def real_poly(bw):
        coef = {}
        for k in range(1, bw + 1):
            re, im = (Fraction(int(v), 7) for v in rng.integers(-20, 21, size=2))
            coef[k], coef[-k] = (re, im), (re, -im)
        return TrigPoly(coef)

    thetas += [real_poly(bw).times_i() - real_poly(bw) for bw in (1, 2, 3) for _ in range(3)]
    t = TWO_PI * np.arange(2**16) / 2**16
    for theta_osc in thetas:
        prim = theta_osc.primitive()
        t_star = sublevel.argmax((-prim).real_part())
        assert -prim(t_star).real >= (-prim(t).real).max() - 1e-12


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
    assert rep.residual_bound > 1e-3  # honest: no periodic solution exists


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
    assert rep.residual_bound < 1e-10


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


def _amplitude(op, key) -> float:
    return op.theta_osc(*key).primitive().sup_norm_bound()


def _largest_amplitude_group(op, F: SpectralField) -> tuple[SpectralField, float]:
    """F restricted to its (xi, alpha) group of largest oscillation
    amplitude, and that amplitude."""
    key = max({(m.xi, m.alpha2) for m in F.table}, key=lambda k: _amplitude(op, k))
    return _restricted(F, {key}), _amplitude(op, key)


def _restricted(F: SpectralField, keys) -> SpectralField:
    table = {m: v for m, v in F.table.items() if (m.xi, m.alpha2) in keys}
    return SpectralField(F.r, F.s, F.bound, F.nt, table)


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
    assert rep.residual_bound <= 1e-10
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
                t_star = op.mode(mode.xi, mode.alpha2).argmax
                assert abs(trig_interpolant(u, [t_star])[0]) < 1e-12
                h = homogeneous(ode)
                diff = diff - (np.vdot(h, diff) / np.vdot(h, h)) * h
            assert np.abs(diff).max() < 1e-11
        assert len(rep.resonant_modes) == (len(g.table) if op is base else 0)


def _dense_bordered_reference(op, g: SpectralField, n: int) -> dict:
    """Each group of g solved by a dense system at the largest truncation
    the n-grid holds, bordered on a resonant group: [[M, w], [p, 0]] with
    the cokernel column w and the pin row p at the symbol's argmax."""
    N = n // 2 - 1
    ks = np.arange(-N, N + 1)
    ts = TWO_PI * np.arange(4 * n) / (4 * n)
    out = {}
    for key in {(m.xi, m.alpha2) for m in g.table}:
        sym = op.mode(*key)
        modes = [m for m in g.table if (m.xi, m.alpha2) == key]
        hat = np.fft.fft(np.stack([g.table[m] for m in modes]), axis=1) / g.nt
        rhs = np.fft.fftshift(fourier.place_spectrum(hat, 2 * N + 1), axes=1)
        M = np.diag(sym.theta0 + 1j * ks)
        for j, c in sym.osc.floats.items():
            M += c * np.eye(2 * N + 1, k=-j)
        if sym.resonant:
            ell = np.exp(1j * sym.resonant_m * ts + sym.primitive(ts))
            y = (np.fft.fft(ell) / len(ts))[-ks % len(ts)]
            w = y.conj()[:, None] / np.linalg.norm(y)
            p = np.exp(1j * ks * sym.argmax)[None, :]
            M = np.block([[M, w], [p, np.zeros((1, 1))]])
            rhs = np.hstack([rhs, np.zeros((len(modes), 1))])
        C = np.linalg.solve(M, rhs.T).T[:, :2 * N + 1]
        U = np.fft.ifft(fourier.place_spectrum(np.fft.ifftshift(C, axes=1), n),
                        axis=1) * n
        out.update(zip(modes, U))
    return out


def test_banded_kernel_matches_a_dense_bordered_reference():
    # every group resonant, then none: criterion 04's operator and the
    # non-resonant one of the benchmark
    for op in (op_oscillatory_solvable(), op_span1_hypoelliptic()):
        u_star = random_field(np.random.default_rng(9), 1, 1, 4, nt=16,
                              t_bandwidth=3)
        g = apply_operator(op, u_star, nt=256)
        rep = solve(op, g)
        ref = _dense_bordered_reference(op, g, rep.solution.nt)
        worst = max(float(np.abs(rep.solution.get(m) - v).max())
                    for m, v in ref.items())
        assert worst < 1e-12


@pytest.mark.parametrize("part", ["a", "b"])
def test_resonant_group_with_a_vanishing_kernel_mean(part):
    # A = the first zero of J0 to 16 digits: for c = i A cos t the kernel
    # element e^{-i A sin t} of xi = 1 has mean J0(A) ~ 1e-16, and a
    # deflation at k = -m left a residual of 85; c = A cos t keeps the
    # mean I0(A) away from zero
    A = TrigPoly.cos(1).scale(Fraction(2404825557695773, 10**15))
    zero = TrigPoly.zero()
    a, b = (A, zero) if part == "a" else (zero, A)
    op = EvolutionOperator(1, 0, a=[a], b=[b], e=[], f=[], q_re=0, q_im=0)
    ts = TWO_PI * np.arange(64) / 64
    g = SpectralField(1, 0, 2, 64)
    for xi in (1, 2, -1):
        mode = ModeIndex(xi=(xi,), l2=(), alpha2=(), beta2=())
        g.set(mode, apply_operator(op, _single_mode_field(
            1, 0, 2, 64, mode, np.cos(ts) + 0.3 + 0.2j * np.sin(2 * ts))).get(mode))
    kernel_mean = np.exp(-op.mode((1,), ()).primitive(ts)).mean()
    assert (abs(kernel_mean) < 1e-15) == (part == "a")
    rep = solve(op, g)
    assert len(rep.resonant_modes) == 3 and rep.sup_bound_ok
    assert residual_sup(op, rep.solution, g) <= rep.residual_bound <= 1e-12


def _one_resonant_mode(b: TrigPoly) -> tuple[EvolutionOperator, SpectralField]:
    """c = i b, q = 0 on T^1 (every mode resonant), and g = L cos t on the
    mode xi = 1."""
    op = EvolutionOperator(1, 0, a=[TrigPoly.zero()], b=[b], e=[], f=[],
                           q_re=0, q_im=0)
    mode = ModeIndex(xi=(1,), l2=(), alpha2=(), beta2=())
    ts = TWO_PI * np.arange(32) / 32
    return op, apply_operator(op, _single_mode_field(1, 0, 1, 32, mode, np.cos(ts)))


def test_resonant_group_whose_kernel_overflows():
    # b = 400 sin t: e^{prim} spans [e^-800, 1] and e^{-prim} overflows;
    # the deflation index read the kernel as 1 / e^{prim} and the residual
    # came out at 1.2e8
    op, g = _one_resonant_mode(TrigPoly.sin(1).scale(400))
    rep = solve(op, g)
    assert rep.sup_bound_ok
    assert residual_sup(op, rep.solution, g) <= rep.residual_bound <= 1e-10


def test_a_nan_solution_is_not_certified():
    # b = -400 sin t: e^{prim} overflows, the solution comes out NaN, and
    # both residuals used to read 0.0, the NaN lost in a max
    op, g = _one_resonant_mode(TrigPoly.sin(1).scale(-400))
    with np.errstate(all="ignore"):
        rep = solve(op, g)
        assert rep.residual_bound == residual_sup(op, rep.solution, g) == math.inf


@pytest.mark.parametrize("bound", [6, 7, 8])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_residual_bound_stays_small_as_the_mode_bound_grows(bound, seed):
    # criterion 04's field; above bound 6 its 12 groups of largest
    # amplitude, which set the truncation and the grid
    op = op_oscillatory_solvable()
    u_star = random_field(np.random.default_rng(seed), 1, 1, bound, nt=16,
                          t_bandwidth=3)
    if bound > 6:
        keys = sorted({(m.xi, m.alpha2) for m in u_star.table},
                      key=lambda k: _amplitude(op, k))[-12:]
        u_star = _restricted(u_star, set(keys))
    g = apply_operator(op, u_star, nt=256)
    rep = solve(op, g)
    assert rep.sup_bound_ok
    assert residual_sup(op, rep.solution, g) <= rep.residual_bound <= 1e-12
