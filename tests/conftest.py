"""Shared fixtures: the reference operators exercised across the suite."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gsh.fourier import ModeIndex, SpectralField
from gsh.global_solver import apply_operator
from gsh.numerics import TaggedReal, standard_liouville
from gsh.operator_model import EvolutionOperator
from gsh.trigpoly import TrigPoly

SQRT2 = 2 ** 0.5


def _sin3_2t() -> TrigPoly:
    """sin^3(2t) = (3/4) sin 2t - (1/4) sin 6t, exactly."""
    return TrigPoly.sin(2, Fraction(3, 4)) - TrigPoly.sin(6, Fraction(1, 4))


def op_oscillatory_solvable() -> EvolutionOperator:
    """d/dt + [cos t + 1 + i sin t] d/dx + [sin t + 2 + i cos t] D3 + 3i."""
    return EvolutionOperator(
        1, 1,
        a=[TrigPoly.cos(1) + TrigPoly.constant(1)],
        b=[TrigPoly.sin(1)],
        e=[TrigPoly.sin(1) + TrigPoly.constant(2)],
        f=[TrigPoly.cos(1)],
        q_re=0, q_im=3)


def op_half_integer_mean() -> EvolutionOperator:
    """d/dt + [cos t + 2 + i sin t] d/dx + [sin t + 1 + i cos t] D3.

    The sphere-side real mean is 1, an odd integer, which breaks the
    arithmetic requirements for solvability.
    """
    return EvolutionOperator(
        1, 1,
        a=[TrigPoly.cos(1) + TrigPoly.constant(2)],
        b=[TrigPoly.sin(1)],
        e=[TrigPoly.sin(1) + TrigPoly.constant(1)],
        f=[TrigPoly.cos(1)],
        q_re=0, q_im=0)


def op_disconnected_sublevel() -> EvolutionOperator:
    """d/dt + [cos t + 1 + i sin t] d/dx + [sin t + 2 + i sin^3 2t] D3 - i."""
    return EvolutionOperator(
        1, 1,
        a=[TrigPoly.cos(1) + TrigPoly.constant(1)],
        b=[TrigPoly.sin(1)],
        e=[TrigPoly.sin(1) + TrigPoly.constant(2)],
        f=[_sin3_2t()],
        q_re=0, q_im=-1)


def op_rational_constant() -> EvolutionOperator:
    """d/dt + (1 + i) d/dx + (2 + 2i) D3 + 3i, all data rational."""
    return EvolutionOperator(1, 1, a=[1], b=[1], e=[2], f=[2],
                             q_re=0, q_im=3)


def op_zero_order_term_missing() -> EvolutionOperator:
    """Constant coefficients with q = 0: the symbol vanishes at the origin."""
    return EvolutionOperator(1, 1, a=[1], b=[0], e=[1], f=[0],
                             q_re=0, q_im=0)


def op_sqrt2_hypoelliptic() -> EvolutionOperator:
    """d/dt + sqrt(2) i d/dx + i D3 + 1/4."""
    return EvolutionOperator(
        1, 1,
        a=[0], b=[TaggedReal.non_liouville(SQRT2, key="sqrt2")],
        e=[0], f=[1],
        q_re=Fraction(1, 4), q_im=0)


def op_span1_hypoelliptic() -> EvolutionOperator:
    """Variable coefficients, shared non-sign-changing imaginary profile.

    d/dt + [cos t + 1 + i(sin t + 1)] d/dx
         + [sin t + 2 + i(sin t + 1)] D3 + sqrt(2) + 3i
    """
    return EvolutionOperator(
        1, 1,
        a=[TrigPoly.cos(1) + TrigPoly.constant(1)],
        b=[TrigPoly.sin(1) + TrigPoly.constant(1)],
        e=[TrigPoly.sin(1) + TrigPoly.constant(2)],
        f=[TrigPoly.sin(1) + TrigPoly.constant(1)],
        q_re=TaggedReal.non_liouville(SQRT2, key="sqrt2"), q_im=3)


def op_span1_not_hypoelliptic() -> EvolutionOperator:
    """Same structure with opposite sphere profile and q = 1/2 - 2i.

    The frozen-coefficient symbol vanishes on an infinite mode ladder.
    """
    return EvolutionOperator(
        1, 1,
        a=[TrigPoly.cos(1) + TrigPoly.constant(1)],
        b=[TrigPoly.sin(1) + TrigPoly.constant(1)],
        e=[TrigPoly.sin(1) + TrigPoly.constant(2)],
        f=[-(TrigPoly.sin(1) + TrigPoly.constant(1))],
        q_re=Fraction(1, 2), q_im=-2)


def op_sign_change_witness() -> EvolutionOperator:
    """d/dt + i sin(t) D3 + 1/2: oscillatory sign-changing sphere profile."""
    return EvolutionOperator(0, 1, a=[], b=[], e=[0], f=[TrigPoly.sin(1)],
                             q_re=Fraction(1, 2), q_im=0)


def op_neutral_rotation() -> EvolutionOperator:
    """d/dt + i D3: every alpha = 0 mode is annihilated."""
    return EvolutionOperator(0, 1, a=[], b=[], e=[0], f=[1],
                             q_re=0, q_im=0)


def op_exact_floor() -> EvolutionOperator:
    """Torus-only operator with rational data b = (1/2, 1/3), Re q = 1/5."""
    return EvolutionOperator(2, 0,
                             a=[0, 0],
                             b=[Fraction(1, 2), Fraction(1, 3)],
                             e=[], f=[],
                             q_re=Fraction(1, 5), q_im=0)


def op_liouville() -> EvolutionOperator:
    """Constant operator with a Liouville torus coefficient.

    The imaginary means admit an integer direction cancelling them, so
    rapid rational approximation of the Liouville mean produces modes
    with super-polynomially small symbol.
    """
    return EvolutionOperator(
        1, 1,
        a=[TaggedReal.liouville(standard_liouville())],
        b=[1], e=[0], f=[1],
        q_re=0, q_im=0)


GOLDEN = {
    "rational_constant": op_rational_constant,
    "zero_order_missing": op_zero_order_term_missing,
    "sqrt2_hypoelliptic": op_sqrt2_hypoelliptic,
    "oscillatory_solvable": op_oscillatory_solvable,
    "half_integer_mean": op_half_integer_mean,
    "disconnected_sublevel": op_disconnected_sublevel,
    "span1_hypoelliptic": op_span1_hypoelliptic,
    "span1_not_hypoelliptic": op_span1_not_hypoelliptic,
}


@pytest.fixture
def golden_operators():
    return {name: make() for name, make in GOLDEN.items()}


def trig_interpolant(vals, t, derivative=False):
    """The trigonometric interpolant of periodic samples (or its derivative)
    at arbitrary times, summed directly; an even grid's Nyquist term is
    split into a cosine."""
    vals = np.asarray(vals, dtype=complex)
    n = len(vals)
    coef = np.fft.fft(vals) / n
    ks = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        coef[n // 2] /= 2.0
        coef = np.append(coef, coef[n // 2])
        ks = np.append(ks, n // 2)
    if derivative:
        coef = coef * 1j * ks
    return np.exp(1j * np.outer(np.asarray(t, dtype=float), ks)) @ coef


def mode_residual(op, mode, u_vals, g_vals, t):
    """max |u' + theta u - g| at the times t, on the interpolants."""
    theta = (op.theta_mean(mode.xi, mode.alpha2)[0]
             + op.theta_osc(mode.xi, mode.alpha2)(t))
    lu = trig_interpolant(u_vals, t, True) + theta * trig_interpolant(u_vals, t)
    return float(np.abs(lu - trig_interpolant(g_vals, t)).max())


def odd_length_case():
    """(op, mode, u*, g = L u*) for u* = e^{-7it} + 0.5 on one mode of
    op_rational_constant, sampled on the odd grid nt = 15, whose most
    negative frequency it reaches."""
    op = op_rational_constant()
    mode = ModeIndex(xi=(1,), l2=(0,), alpha2=(0,), beta2=(0,))
    u_star = SpectralField(1, 1, 1, 15)
    u_star.set(mode, odd_length_u(2.0 * math.pi * np.arange(15) / 15))
    return op, mode, u_star, apply_operator(op, u_star)


def odd_length_u(t):
    return np.exp(-7j * t) + 0.5
