"""Diophantine lower bounds for the constant-part symbol.

The admissibility condition asks for M, N > 0 with
|sigma(tau, xi, alpha)| >= M * (|tau| + |xi| + |l|)^(-N) whenever the
symbol is nonzero.  With rational averages this holds with N = 0 and an
exact M computed from denominators; a Liouville-tagged average admits a
constructive violating sequence; a non-Liouville irrational average gives
a qualitative yes with numerically fitted constants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .numerics import (TAG_LIOUVILLE, TAG_NON_LIOUVILLE, l1_ball,
                       liouville_tail_log10)
from .operator_model import _dot, mode_box

HOLDS = "HOLDS"
FAILS = "FAILS"
UNKNOWN = "UNKNOWN"

METHOD_EXACT = "exact_rational"
METHOD_QUALITATIVE = "qualitative_irrational"
METHOD_SEQUENCE = "liouville_sequence"
METHOD_PROBE = "numeric_probe"

LN10 = math.log(10.0)


@dataclass
class DCReport:
    status: str
    method: str
    M: Optional[float] = None
    N: Optional[float] = None
    eps: Optional[Fraction] = None
    exact: bool = False
    bound: int = 0
    sweep_min: Optional[float] = None
    witness: Optional[dict] = None
    message: str = ""

    def summary(self) -> dict:
        out = {"status": self.status, "method": self.method, "exact": self.exact}
        if self.eps is not None:
            out["eps"] = str(self.eps)
        if self.M is not None:
            out["M"] = self.M
        if self.N is not None:
            out["N"] = self.N
        if self.sweep_min is not None:
            out["sweep_min"] = self.sweep_min
        if self.message:
            out["message"] = self.message
        if self.witness is not None:
            out["witness"] = self.witness
        return out


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def exp_gap_lower_bound(z: complex) -> float:
    """log |1 - e^{-2 pi z}|, evaluated on the numerically stable branch.

    For Re z >= 0 the direct expm1 evaluation is stable; otherwise the
    factorization |1 - e^{-w}| = e^{-Re w} |e^{w} - 1| avoids overflow.
    """
    def _expm1c(u: complex) -> complex:
        if abs(u) < 1e-8:
            return u * (1.0 + u / 2.0 + u * u / 6.0)
        return complex(np.exp(u)) - 1.0

    w = 2.0 * math.pi * complex(z)
    if w.real >= 0.0:
        return float(np.log(abs(_expm1c(-w))))
    return float(-w.real + np.log(abs(_expm1c(w))))


def _probe(op, bound: int) -> tuple[float, float, float]:
    """(fitted M, fitted N, raw sweep minimum) over nonzero-symbol modes."""
    symbol = op.constant_symbol
    entries = []
    for tau, xi, alpha2 in mode_box(op.r, op.s, bound):
        v = (tau, *xi, *alpha2, 1)
        if symbol.is_zero(v):
            continue
        w = abs(tau) + sum(abs(x) for x in xi) + sum(abs(a) for a in alpha2) / 2.0
        entries.append((max(w, 1.0), abs(symbol.value(v))))
    if not entries:
        return 1.0, 0.0, math.inf
    sweep_min = min(m for _, m in entries)
    # fit the decay envelope: smallest N making w^N * |sigma| bounded below
    best_n, best_m = 0.0, sweep_min
    for n in range(0, 9):
        m_n = min(m * w ** n for w, m in entries)
        if n == 0:
            best_n, best_m = 0.0, m_n
        elif m_n > 2.0 * best_m:
            best_n, best_m = float(n), m_n
    return best_m, best_n, sweep_min


# ---------------------------------------------------------------------------
# Liouville violating sequence
# ---------------------------------------------------------------------------


@dataclass
class ViolationEntry:
    n: int
    tau: int
    xi: tuple
    alpha2: tuple
    log_abs_upper: float     # certified natural-log upper bound on |sigma|
    log_curve: float         # log C' - (n-1) log j_n


@dataclass
class ViolationSequence:
    recognized: bool
    entries: list[ViolationEntry] = field(default_factory=list)
    direction: Optional[dict] = None
    constant_log: Optional[float] = None
    message: str = ""


def liouville_violation_sequence(op, n_max: int = 6,
                                 direction_bound: int = 4) -> ViolationSequence:
    """Constructive sequence of modes with super-polynomially small symbol.

    Recognized pattern, read off the rows of the compiled constant symbol:
    the real part has one irrational atom, a Liouville-tagged offset of a
    single a_j; the imaginary part has none; Re q = 0 and Im q is an
    integer; and a direction (xi~, alpha~) with xi~_j > 0 annuls the
    imaginary row.  Let rho be the rational part of <a0, xi~> + <e0, alpha~>,
    a_j's own rational part included, and Q its denominator.  Scaling the
    direction by Q j_n and choosing the integer tau_n that cancels the
    rational residue leaves |sigma_n| = Q |xi~_j| j_n |mu - p_n / j_n|,
    certified small by the big-integer tail bound of the generator.
    """
    no = ViolationSequence(False, message="pattern not recognized")
    re, im = op.constant_symbol.re, op.constant_symbol.im
    if len(re.atoms) != 1 or im.atoms or im.row[-1] != 0 \
            or re.row[-1] % re.den != 0:
        return no
    row, mu = re.atoms[0]
    support = [i for i, c in enumerate(row) if c]
    if mu.tag != TAG_LIOUVILLE or mu.generator is None \
            or len(support) != 1 or not 1 <= support[0] <= op.r:
        return no
    liou_j = support[0] - 1
    gen = mu.generator

    direction = _find_cancelling_direction(op.r, op.s, liou_j, im.row,
                                           direction_bound)
    if direction is None:
        return ViolationSequence(False,
                                 message="pattern not recognized: no "
                                         "imaginary-lattice cancelling direction")
    xi_t, alpha2_t = direction
    rho = Fraction(_dot(re.row, (0, *xi_t, *alpha2_t, 0)), re.den)
    Q = rho.denominator
    imq = re.row[-1] // re.den
    cprime_log = math.log(2.0 * Q * abs(xi_t[liou_j]))

    entries = []
    for n in range(1, n_max + 1):
        p_n, j_n = gen.emit(n)
        xi_n = tuple(Q * j_n * x for x in xi_t)
        alpha2_n = tuple(Q * j_n * a for a in alpha2_t)
        tau_n = -(xi_t[liou_j] * Q * p_n + int(Q * j_n * rho) + imq)
        # |sigma_n| = Q |xi~_j| j_n |mu - p_n/j_n| <= 2 Q |xi~_j| j_n 10^{-(n+1)!}
        log_j_n = math.factorial(n) * LN10
        log_upper = (math.log(2.0 * Q * abs(xi_t[liou_j])) + log_j_n
                     + LN10 * liouville_tail_log10(n) - math.log(2.0))
        log_curve = cprime_log - (n - 1) * log_j_n
        entries.append(ViolationEntry(n=n, tau=tau_n, xi=xi_n,
                                      alpha2=alpha2_n,
                                      log_abs_upper=log_upper,
                                      log_curve=log_curve))
    return ViolationSequence(True, entries=entries,
                             direction={"xi": list(xi_t),
                                        "alpha": [Fraction(a, 2) for a in alpha2_t],
                                        "Q": Q},
                             constant_log=cprime_log)


def _find_cancelling_direction(r, s, liou_j, im_row, bound):
    for xi in itertools.product(range(-bound, bound + 1), repeat=r):
        if xi[liou_j] <= 0:
            continue
        for alpha2 in l1_ball(s, 2 * bound):
            if _dot(im_row, (0, *xi, *alpha2, 0)) == 0:
                return xi, alpha2
    return None


# ---------------------------------------------------------------------------
# The decision
# ---------------------------------------------------------------------------


def dc_check(op, bound: int = 10) -> DCReport:
    """Decide the lower-bound condition for the constant-part symbol.

    Without irrational atoms every nonzero value of the real or imaginary
    part is a multiple of 1/den of its row, so eps = 1 / max(den) is an
    exact floor with N = 0.  A single irrational atom, on either side,
    decides by its tag; anything beyond that is probed numerically but
    reported as UNKNOWN.
    """
    re, im = op.constant_symbol.re, op.constant_symbol.im
    keys = {tr.key: tr.tag for _, tr in re.atoms + im.atoms}

    if not keys:
        eps = Fraction(1, max(re.den, im.den))
        return DCReport(status=HOLDS, method=METHOD_EXACT, M=float(eps),
                        N=0.0, eps=eps, exact=True, bound=bound)

    if len(keys) == 1:
        tag = next(iter(keys.values()))
        if tag == TAG_NON_LIOUVILLE:
            M, N, sweep_min = _probe(op, bound)
            return DCReport(status=HOLDS, method=METHOD_QUALITATIVE,
                            M=M, N=N, exact=False, bound=bound,
                            sweep_min=sweep_min,
                            message="irrational non-Liouville average: "
                                    "condition holds with unfitted constants")
        if tag == TAG_LIOUVILLE:
            seq = liouville_violation_sequence(op)
            if seq.recognized:
                return DCReport(status=FAILS, method=METHOD_SEQUENCE,
                                exact=True, bound=bound,
                                witness={"direction": seq.direction,
                                         "constant_log": seq.constant_log,
                                         "entries": [
                                             {"n": e.n,
                                              "log_abs_upper": e.log_abs_upper,
                                              "log_curve": e.log_curve}
                                             for e in seq.entries]})
            M, N, sweep_min = _probe(op, bound)
            return DCReport(status=UNKNOWN, method=METHOD_PROBE, M=M, N=N,
                            bound=bound, sweep_min=sweep_min,
                            message=seq.message)

    M, N, sweep_min = _probe(op, bound)
    return DCReport(status=UNKNOWN, method=METHOD_PROBE, M=M, N=N,
                    bound=bound, sweep_min=sweep_min,
                    message="averages not reducible to a single tagged "
                            "irrational; numeric probe only")
