"""Manufactured-solution round trip.

Draws a random band-limited field u*, applies the operator to get
g = L u*, then asks the solver to recover a solution from g alone. For
this operator every Fourier mode is resonant, so the solver must check a
compatibility integral per mode and pick a member of each one-parameter
solution family; the argmax-pinned member keeps the whole solution
uniformly bounded. The run prints the residual certificate and the
sup-norm ratio max|u| / (2 pi max|g|), which stays below 1.
"""

import time

import numpy as np

from gsh import fourier, global_solver
from gsh.fourier import SpectralField
from gsh.operator_model import EvolutionOperator
from gsh.trigpoly import TrigPoly


def main():
    op = EvolutionOperator(
        1, 1,
        a=[TrigPoly.cos(1) + TrigPoly.constant(1)], b=[TrigPoly.sin(1)],
        e=[TrigPoly.sin(1) + TrigPoly.constant(2)], f=[TrigPoly.cos(1)],
        q_re=0, q_im=3)

    rng = np.random.default_rng(7)
    u_star = fourier.random_field(rng, 1, 1, bound=4, nt=16, t_bandwidth=3)
    g = global_solver.apply_operator(op, u_star, nt=128)
    g = SpectralField(1, 1, 4, 128, g.table)

    t0 = time.monotonic()
    rep = global_solver.solve(op, g)
    dt = time.monotonic() - t0

    print(f"modes solved:        {rep.mode_count}")
    print(f"resonant modes:      {len(rep.resonant_modes)}")
    print(f"residual bound:      {rep.residual_bound:.3e}")
    print(f"sup ratio |u|/2pi|g|: {rep.sup_ratio:.3f} "
          f"(bounded: {rep.sup_bound_ok})")
    print(f"solve time:          {dt:.2f}s")

    # incompatible data is rejected with the offending integral
    ts = 2.0 * np.pi * np.arange(16) / 16
    bad = SpectralField(1, 1, 1, 16)
    bad.set(fourier.ModeIndex(xi=(0,), l2=(0,), alpha2=(0,), beta2=(0,)),
            np.exp(-3j * ts))
    check = global_solver.annihilator_test(op, bad)
    print(f"\nincompatible probe:  ok={check.ok}, "
          f"violations={len(check.violations)}")


if __name__ == "__main__":
    main()
