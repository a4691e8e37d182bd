"""Operator data model, symbol, zero set, gauge reduction and classifier.

An evolution operator

    L = d/dt + sum_j (a_j + i b_j)(t) d/dx_j + sum_k (e_k + i f_k)(t) D3_k + q

is stored with exact rational TrigPoly coefficient functions; each real
part may additionally carry a tagged constant offset so that irrational
constant coefficients stay honestly tagged.  The classifier implements the
full decision trees for global solvability (GS) and global
hypoellipticity (GH), returning three-valued verdicts with witnesses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Optional

import numpy as np

from . import sublevel
from .numerics import (IN_LATTICE, NOT_IN_LATTICE, TAG_LIOUVILLE,
                       TAG_NON_LIOUVILLE, TAG_UNSPECIFIED, UNKNOWN,
                       LatticeResult, TaggedReal, classify_lattice_membership,
                       combine_tagged)
from .trigpoly import TrigPoly, changes_sign

YES, NO = "YES", "NO"
UNKNOWN_AT_BOUND = "UNKNOWN_AT_BOUND"

GS, GH = "GS", "GH"

CLAUSE_I, CLAUSE_II, CLAUSE_III = "clause_i", "clause_ii", "clause_iii"
CLAUSE_CS, CLAUSE_DC = "CS", "DC"


# ---------------------------------------------------------------------------
# Coefficient functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefFn:
    """A real-valued coefficient function: rational TrigPoly + tagged offset."""

    poly: TrigPoly
    offset: TaggedReal = field(default_factory=lambda: TaggedReal.rational(0))

    def __post_init__(self):
        if not self.poly.is_real_valued():
            raise ValueError("coefficient functions must be real-valued")

    @staticmethod
    def of(value) -> "CoefFn":
        if isinstance(value, CoefFn):
            return value
        if isinstance(value, TrigPoly):
            return CoefFn(value)
        if isinstance(value, TaggedReal):
            return CoefFn(TrigPoly.zero(), value)
        return CoefFn(TrigPoly.constant(Fraction(value)))

    def mean(self) -> TaggedReal:
        return combine_tagged([(Fraction(1), TaggedReal.rational(self.poly.mean_real())),
                               (Fraction(1), self.offset)])

    def mean_rational_part(self) -> Fraction:
        out = self.poly.mean_real()
        if self.offset.is_rational():
            out += self.offset.value
        return out

    def irrational_offset(self) -> Optional[TaggedReal]:
        return None if self.offset.is_rational() else self.offset

    def osc(self) -> TrigPoly:
        return self.poly.oscillatory_part()

    def is_constant(self) -> bool:
        return self.poly.is_constant()

    def is_zero(self) -> bool:
        return self.poly.is_zero() and self.offset.is_zero()

    def approx_mean(self) -> float:
        return float(self.poly.mean_real()) + self.offset.approx

    def __call__(self, t):
        base = self.poly(t)
        off = float(self.offset.value) if self.offset.is_rational() else self.offset.approx
        return np.real(base) + off

    def sign_changes(self) -> bool:
        if self.offset.is_rational():
            shifted = self.poly + TrigPoly.constant(self.offset.value)
            return changes_sign(shifted)
        n = 64 * max(self.poly.bandwidth, 1)
        vals = self(2.0 * np.pi * np.arange(n) / n)
        scale = float(np.max(np.abs(vals))) + 1e-300
        return bool(vals.min() < -1e-12 * scale and vals.max() > 1e-12 * scale)


# ---------------------------------------------------------------------------
# Operator
# ---------------------------------------------------------------------------


@dataclass
class EvolutionOperator:
    r: int
    s: int
    a: list[CoefFn]
    b: list[CoefFn]
    e: list[CoefFn]
    f: list[CoefFn]
    q_re: TaggedReal
    q_im: TaggedReal

    def __post_init__(self):
        self.a = [CoefFn.of(v) for v in self.a]
        self.b = [CoefFn.of(v) for v in self.b]
        self.e = [CoefFn.of(v) for v in self.e]
        self.f = [CoefFn.of(v) for v in self.f]
        if isinstance(self.q_re, (int, Fraction, str)):
            self.q_re = TaggedReal.rational(Fraction(self.q_re))
        if isinstance(self.q_im, (int, Fraction, str)):
            self.q_im = TaggedReal.rational(Fraction(self.q_im))
        if not (len(self.a) == len(self.b) == self.r):
            raise ValueError("torus coefficient count must equal r")
        if not (len(self.e) == len(self.f) == self.s):
            raise ValueError("sphere coefficient count must equal s")

    # -- means -------------------------------------------------------------

    def averages(self) -> tuple[list[tuple[TaggedReal, TaggedReal]],
                                list[tuple[TaggedReal, TaggedReal]]]:
        """(c0, d0) as (real mean, imaginary mean) tagged pairs."""
        c0 = [(self.a[j].mean(), self.b[j].mean()) for j in range(self.r)]
        d0 = [(self.e[k].mean(), self.f[k].mean()) for k in range(self.s)]
        return c0, d0

    def q_approx(self) -> complex:
        return complex(self.q_re.approx, self.q_im.approx)

    # -- symbol ------------------------------------------------------------

    @cached_property
    def constant_symbol(self) -> "ConstantSymbol":
        """The constant-part symbol, compiled from the means on first use.

        It is not recompiled: the coefficients and q must not be changed
        after the first symbol evaluation.
        """
        return ConstantSymbol(self)

    def inner_symbol(self, tau: int, xi, alpha2) -> tuple[TaggedReal, TaggedReal]:
        """(Re, Im) of tau + <c0, xi> + <d0, alpha> - i q, exactly tagged."""
        return self.constant_symbol.parts(_mode_vector(tau, xi, alpha2))

    def symbol_L0(self, tau: int, xi, alpha2) -> complex:
        """sigma(tau, xi, alpha) = i * (inner symbol)."""
        return self.constant_symbol.value(_mode_vector(tau, xi, alpha2))

    def symbol_is_zero(self, tau: int, xi, alpha2) -> Optional[bool]:
        """Exact zero test of the symbol; None when undecidable."""
        return self.constant_symbol.is_zero(_mode_vector(tau, xi, alpha2))

    # -- mode data ---------------------------------------------------------

    @cached_property
    def _theta_osc(self) -> dict:
        return {}

    def theta_osc(self, xi, alpha2) -> TrigPoly:
        """Oscillatory part of i(<c(t),xi> + <d(t),alpha> - iq).

        Memoized per mode on the operator, under the same rule as
        ``constant_symbol``; callers must not mutate the returned TrigPoly.
        """
        key = (tuple(xi), tuple(alpha2))
        if key not in self._theta_osc:
            acc = TrigPoly.zero()
            for j in range(self.r):
                acc = acc + (self.a[j].osc().times_i()
                             - self.b[j].osc()).scale(Fraction(xi[j]))
            for k in range(self.s):
                acc = acc + (self.e[k].osc().times_i()
                             - self.f[k].osc()).scale(Fraction(alpha2[k], 2))
            self._theta_osc[key] = acc
        return self._theta_osc[key]

    def theta_mean(self, xi, alpha2) -> tuple[complex, Optional[tuple[Fraction, Fraction]], bool]:
        """(theta0, exact pair when rational, resonance decision).

        theta0 = i*(Re inner) - (Im inner) at tau = 0; the mode is resonant
        iff theta0 in iZ, i.e. Im inner == 0 and Re inner in Z (an
        irrational real part is never an integer).
        """
        re, im = self.inner_symbol(0, xi, alpha2)
        theta0 = self.symbol_L0(0, xi, alpha2)
        exact = None
        if re.is_rational() and im.is_rational():
            exact = (-im.value, re.value)
        resonant = (exact is not None and im.value == 0
                    and re.value.denominator == 1)
        return theta0, exact, resonant


# ---------------------------------------------------------------------------
# The compiled constant-part symbol
# ---------------------------------------------------------------------------


def _mode_vector(tau, xi, alpha2) -> tuple[int, ...]:
    """The point v = (tau, xi, alpha2, 1) at which the affine forms act."""
    return (int(tau), *map(int, xi), *map(int, alpha2), 1)


def _dot(row, v) -> int:
    return sum(map(mul, row, v))


class _AffineForm:
    """One real part of the inner symbol as an exact affine form in v.

    Its rational part is row . v / den.  Each irrational atom (the key of
    an irrational mean or of q) enters with coefficient atom_row . v / 2,
    and the last occurrence of that key supplies the tag, as in
    ``combine_tagged``.  ``terms`` keeps combine_tagged's term order as
    (index, numerator, denominator, approx): the float approximation of an
    irrational value is the same sum, term by term, that combine_tagged
    forms, so reported probe constants do not depend on the compilation.
    """

    def __init__(self, terms: list[tuple[int, Fraction, TaggedReal]], n: int):
        rational = [Fraction(0)] * n
        atoms: dict[object, tuple[list[int], TaggedReal]] = {}
        for idx, scale, tr in terms:
            if tr.is_rational():
                rational[idx] += scale * tr.value
            else:
                row = atoms[tr.key][0] if tr.key in atoms else [0] * n
                row[idx] += int(2 * scale)
                atoms[tr.key] = (row, tr)
        self.den = math.lcm(*(x.denominator for x in rational))
        self.row = tuple(int(x * self.den) for x in rational)
        self.atoms = tuple((tuple(row), tr) for row, tr in atoms.values())
        self.terms = tuple((idx, scale.numerator, scale.denominator, tr.approx)
                           for idx, scale, tr in terms)

    def _live(self, v) -> list[tuple[int, TaggedReal]]:
        return [(c, tr) for row, tr in self.atoms if (c := _dot(row, v))]

    def _float_sum(self, v) -> float:
        acc = 0.0
        for idx, num, den, approx in self.terms:
            acc += num * v[idx] / den * approx
        return acc

    def tagged(self, v) -> TaggedReal:
        live = self._live(v)
        value = Fraction(_dot(self.row, v), self.den)
        if not live:
            return TaggedReal.rational(value)
        approx = self._float_sum(v)
        if len(live) == 1 and live[0][1].tag in (TAG_NON_LIOUVILLE, TAG_LIOUVILLE):
            c, tr = live[0]
            return TaggedReal(approx=approx, tag=tr.tag, generator=tr.generator,
                              key=(tr.key, Fraction(c, 2), value))
        return TaggedReal.unspecified(approx)

    def approx(self, v) -> float:
        if self._live(v):
            return self._float_sum(v)
        return _dot(self.row, v) / self.den

    def is_zero(self, v) -> Optional[bool]:
        """Exact zero test; None when the value is an unspecified irrational."""
        live = self._live(v)
        if not live:
            return _dot(self.row, v) == 0
        if len(live) == 1 and live[0][1].tag != TAG_UNSPECIFIED:
            return False  # a genuinely irrational quantity is nonzero
        return None


class ConstantSymbol:
    """tau + <c0, xi> + <d0, alpha> - i q as two exact affine forms.

    The means are computed once.  Every method takes the mode vector
    v = (tau, xi, alpha2, 1) of integers and evaluates with Python ints,
    which are exact for any denominator.
    """

    def __init__(self, op: "EvolutionOperator"):
        r, s = op.r, op.s
        one = 1 + r + s                      # index of the constant 1 in v
        half = Fraction(1, 2)
        re_terms = [(0, Fraction(1), TaggedReal.rational(1)),
                    (one, Fraction(1), op.q_im)]
        im_terms = [(one, Fraction(-1), op.q_re)]
        for j in range(r):
            re_terms.append((1 + j, Fraction(1), op.a[j].mean()))
            im_terms.append((1 + j, Fraction(1), op.b[j].mean()))
        for k in range(s):
            re_terms.append((1 + r + k, half, op.e[k].mean()))
            im_terms.append((1 + r + k, half, op.f[k].mean()))
        self.re = _AffineForm(re_terms, one + 1)
        self.im = _AffineForm(im_terms, one + 1)

    def parts(self, v) -> tuple[TaggedReal, TaggedReal]:
        return self.re.tagged(v), self.im.tagged(v)

    def value(self, v) -> complex:
        """sigma = i * (inner symbol), irrational parts by their approx."""
        return complex(-self.im.approx(v), self.re.approx(v))

    def is_zero(self, v) -> Optional[bool]:
        """Re is tested before Im: an undecidable Re answers None."""
        zero = self.re.is_zero(v)
        return self.im.is_zero(v) if zero else zero


# ---------------------------------------------------------------------------
# Mode box
# ---------------------------------------------------------------------------


def alpha_ball(s: int, weight2: int):
    """All alpha2 in Z^s with sum |alpha2| <= weight2, lexicographically."""
    if s == 0:
        yield ()
        return
    for head in range(-weight2, weight2 + 1):
        for tail in alpha_ball(s - 1, weight2 - abs(head)):
            yield (head,) + tail


def mode_box(r: int, s: int, bound: int):
    """(tau, xi, alpha2) with |tau| + |xi|_1 + |alpha2|_1 / 2 <= bound.

    tau ascends; xi and alpha2 run lexicographically.  With s = 0 the xi
    loop covers the whole cube [-rem, rem]^r, rem = bound - |tau|, rather
    than the l1 ball.
    """
    for tau in range(-bound, bound + 1):
        rem = bound - abs(tau)
        for xi in itertools.product(range(-rem, rem + 1), repeat=r):
            rem2 = rem - sum(abs(x) for x in xi)
            for alpha2 in alpha_ball(s, 2 * rem2):
                yield tau, xi, alpha2


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _pair_to_json(re_fn: CoefFn, im_fn: CoefFn) -> dict:
    def one(fn: CoefFn) -> dict:
        obj = fn.poly.to_json()
        if not fn.offset.is_zero():
            entries = [e for e in obj["coeffs"] if e["freq"] != 0]
            zero = next((e for e in obj["coeffs"] if e["freq"] == 0), None)
            base = zero["re"] if zero else "0"
            if fn.offset.is_rational():
                total = Fraction(base) + fn.offset.value
                entries.append({"freq": 0, "re": f"{total.numerator}/{total.denominator}"
                                if total.denominator != 1 else str(total.numerator),
                                "im": "0"})
            else:
                entries.append({"freq": 0, "re": fn.offset.to_json(), "im": "0",
                                "re_rational": base})
            obj = {"coeffs": entries}
        return obj
    return {"re": one(re_fn), "im": one(im_fn)}


def _coef_from_json(obj) -> CoefFn:
    entries = obj.get("coeffs", [])
    poly_entries = []
    offset = TaggedReal.rational(0)
    for entry in entries:
        re = entry.get("re", "0")
        if isinstance(re, dict):
            offset = TaggedReal.from_json(re)
            base = entry.get("re_rational", "0")
            poly_entries.append({"freq": entry["freq"], "re": base,
                                 "im": entry.get("im", "0")})
        else:
            poly_entries.append(entry)
    return CoefFn(TrigPoly.from_json({"coeffs": poly_entries}), offset)


def operator_to_json(op: EvolutionOperator) -> dict:
    return {
        "r": op.r, "s": op.s,
        "c": [_pair_to_json(op.a[j], op.b[j]) for j in range(op.r)],
        "d": [_pair_to_json(op.e[k], op.f[k]) for k in range(op.s)],
        "q": {"re": op.q_re.to_json(), "im": op.q_im.to_json()},
    }


def operator_from_json(obj) -> EvolutionOperator:
    r, s = int(obj["r"]), int(obj["s"])
    a, b, e, f = [], [], [], []
    for pair in obj.get("c", []):
        a.append(_coef_from_json(pair.get("re", {})))
        b.append(_coef_from_json(pair.get("im", {})))
    for pair in obj.get("d", []):
        e.append(_coef_from_json(pair.get("re", {})))
        f.append(_coef_from_json(pair.get("im", {})))
    q = obj.get("q", {})
    return EvolutionOperator(r, s, a, b, e, f,
                             TaggedReal.from_json(q.get("re", "0")),
                             TaggedReal.from_json(q.get("im", "0")))


# ---------------------------------------------------------------------------
# Integer linear algebra (Smith normal form)
# ---------------------------------------------------------------------------


def _snf_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> tuple[bool, int]:
    """Solvability of A v = b over integer vectors v, plus kernel rank.

    Rational rows are cleared to integers first; the Smith normal form
    D = U A V gives solvability via divisibility and the kernel rank as
    #variables - rank(A).
    """
    if not rows:
        return True, 0
    n = len(rows[0])
    A, b = [], []
    for row, beta in zip(rows, rhs):
        dens = [Fraction(x).denominator for x in row] + [Fraction(beta).denominator]
        m = 1
        for d in dens:
            m = m * d // math.gcd(m, d)
        A.append([int(Fraction(x) * m) for x in row])
        b.append(int(Fraction(beta) * m))
    m_rows = len(A)

    U = [[int(i == j) for j in range(m_rows)] for i in range(m_rows)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, k):
        A[dst] = [x + k * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + k * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, k):
        for row in A:
            row[dst] += k * row[src]
        for row in V:
            row[dst] += k * row[src]

    t = 0
    while t < min(m_rows, n):
        # find a pivot
        piv = None
        for i in range(t, m_rows):
            for j in range(t, n):
                if A[i][j] != 0:
                    if piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        done = False
        while not done:
            done = True
            for i in range(t + 1, m_rows):
                if A[i][t] != 0:
                    add_row(i, t, -(A[i][t] // A[t][t]))
                    if A[i][t] != 0:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    add_col(j, t, -(A[t][j] // A[t][t]))
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        done = False
        t += 1
    rank = sum(1 for i in range(min(m_rows, n)) if A[i][i] != 0)
    # transformed rhs: U b
    ub = [sum(U[i][k] * b[k] for k in range(m_rows)) for i in range(m_rows)]
    for i in range(rank):
        if ub[i] % A[i][i] != 0:
            return False, n - rank
    for i in range(rank, m_rows):
        if ub[i] != 0:
            return False, n - rank
    return True, n - rank


# ---------------------------------------------------------------------------
# Zero set
# ---------------------------------------------------------------------------


@dataclass
class ZeroSetReport:
    elements: list[tuple]
    infinite_flag: bool
    empty: Optional[bool]
    finite: Optional[bool]
    bound: int


def zero_set(op: EvolutionOperator, bound: int = 8) -> ZeroSetReport:
    """Zeros of the constant-part symbol with |tau| + |xi| + |l| <= bound.

    Each zero is reported as (tau, xi, l2, alpha2); with s >= 1 any zero
    yields an infinite ladder in l.  Exact emptiness/finiteness comes from
    the lattice analysis below when the data permit.
    """
    symbol = op.constant_symbol
    elements = []
    for tau, xi, alpha2 in mode_box(op.r, op.s, bound):
        if symbol.is_zero((tau, *xi, *alpha2, 1)):
            elements.append((tau, xi, tuple(abs(a) for a in alpha2), alpha2))
    empty, finite = zero_set_finiteness(op)
    if finite is None:
        infinite = op.s >= 1 and bool(elements)
    else:
        infinite = not finite
    if empty is None and elements:
        empty = False
    return ZeroSetReport(elements=elements, infinite_flag=infinite,
                         empty=empty, finite=finite, bound=bound)


def zero_set_finiteness(op: EvolutionOperator) -> tuple[Optional[bool], Optional[bool]]:
    """(empty, finite) for the full zero set, or None when undecidable.

    Variables are (tau, xi, n = 2*alpha).  The real equation is
    tau + <a0, xi> + <e0, n/2> + Im q = 0 and the imaginary one
    <b0, xi> + <f0, n/2> - Re q = 0.  Irrational tagged means contribute
    extra exact constraints: their rational multiplier forms must vanish.
    """
    nvar = 1 + op.r + op.s  # tau, xi, n
    re_row = [Fraction(0)] * nvar
    im_row = [Fraction(0)] * nvar
    re_row[0] = Fraction(1)
    re_rhs = Fraction(0)
    im_rhs = Fraction(0)
    # irrational key -> (coefficient row, constant part)
    extra: dict[object, tuple[list[Fraction], Fraction]] = {}

    def add_term(var: int, fn: CoefFn, scale: Fraction, row: list[Fraction]):
        row[var] += fn.mean_rational_part() * scale
        irr = fn.irrational_offset()
        if irr is not None:
            if irr.tag == "unspecified":
                raise _Undecidable()
            erow = extra.setdefault(irr.key, ([Fraction(0)] * nvar, Fraction(0)))[0]
            erow[var] += scale

    class _Undecidable(Exception):
        pass

    try:
        for j in range(op.r):
            add_term(1 + j, op.a[j], Fraction(1), re_row)
            add_term(1 + j, op.b[j], Fraction(1), im_row)
        for k in range(op.s):
            add_term(1 + op.r + k, op.e[k], Fraction(1, 2), re_row)
            add_term(1 + op.r + k, op.f[k], Fraction(1, 2), im_row)
    except _Undecidable:
        return None, None
    # q contributions
    if op.q_im.is_rational():
        re_rhs = -op.q_im.value
    elif op.q_im.tag == "unspecified":
        return None, None
    else:
        erow, econst = extra.setdefault(op.q_im.key, ([Fraction(0)] * nvar, Fraction(0)))
        extra[op.q_im.key] = (erow, econst + 1)
    if op.q_re.is_rational():
        im_rhs = op.q_re.value
    elif op.q_re.tag == "unspecified":
        return None, None
    else:
        erow, econst = extra.setdefault(op.q_re.key, ([Fraction(0)] * nvar, Fraction(0)))
        extra[op.q_re.key] = (erow, econst - 1)

    rows = [re_row, im_row]
    rhs = [re_rhs, im_rhs]
    for erow, econst in extra.values():
        if all(c == 0 for c in erow):
            if econst != 0:
                return True, True  # an irrational constant can never vanish
            continue
        if econst != 0:
            # variable multiples of the irrational must cancel a fixed
            # nonzero multiple: the multiplier form must equal -econst,
            # which is a rational condition on integers -> add as equation
            rows.append(list(erow))
            rhs.append(-econst)
        else:
            rows.append(list(erow))
            rhs.append(Fraction(0))
    solvable, kernel_rank = _snf_solve(rows, rhs)
    if not solvable:
        return True, True
    if op.s >= 1:
        return False, False
    return False, (kernel_rank == 0)


# ---------------------------------------------------------------------------
# Gauge reduction
# ---------------------------------------------------------------------------


def gauge_reduce(op: EvolutionOperator) -> tuple[EvolutionOperator, dict]:
    """Replace the real parts a_j, e_k by their averages.

    Returns the reduced operator and the exact primitives A_j, E_k of the
    oscillatory parts (the conjugating phases act mode-wise as
    exp(-i(<A, xi> + <E, alpha>))).
    """
    A = [fn.osc().primitive() for fn in op.a]
    E = [fn.osc().primitive() for fn in op.e]
    a_new = [CoefFn(TrigPoly.constant(fn.poly.mean_real()), fn.offset) for fn in op.a]
    e_new = [CoefFn(TrigPoly.constant(fn.poly.mean_real()), fn.offset) for fn in op.e]
    tilde = EvolutionOperator(op.r, op.s, a_new, op.b, e_new, op.f,
                              op.q_re, op.q_im)
    return tilde, {"A": A, "E": E}


# ---------------------------------------------------------------------------
# Structure report
# ---------------------------------------------------------------------------


@dataclass
class StructureReport:
    is_imag_constant: bool
    span_dim: int
    sign_change: list[bool]
    any_sign_change: bool
    b0f0_zero: bool
    a0_in_Z: LatticeResult
    e0_in_2Z: LatticeResult
    q_in_iZ: LatticeResult
    span1: Optional[dict] = None  # {"b_tilde": CoefFn, "lambda": [...], "gamma": [...]}


def _rank_exact(fns: list[CoefFn]) -> tuple[int, Optional[list[list[Fraction]]]]:
    """Rank over Q of the nonzero coefficient functions (rational data)."""
    freqs = sorted({k for fn in fns for k in fn.poly.coeffs})
    cols = []
    for fn in fns:
        vec = []
        for k in freqs:
            re, im = fn.poly.coefficient(k)
            if k == 0 and fn.offset.is_rational():
                re = re + fn.offset.value
            vec.extend([re, im])
        cols.append(vec)
    # Gaussian elimination over Q
    mat = [list(c) for c in cols]
    rank = 0
    ncols = len(freqs) * 2
    used = [False] * len(mat)
    for col in range(ncols):
        piv = None
        for i, row in enumerate(mat):
            if not used[i] and row[col] != 0:
                piv = i
                break
        if piv is None:
            continue
        used[piv] = True
        rank += 1
        for i, row in enumerate(mat):
            if i != piv and row[col] != 0:
                fct = row[col] / mat[piv][col]
                mat[i] = [x - fct * y for x, y in zip(row, mat[piv])]
    return rank, cols


def structure_report(op: EvolutionOperator) -> StructureReport:
    imag_fns = list(op.b) + list(op.f)
    is_const = all(fn.is_constant() for fn in imag_fns)
    nonzero = [fn for fn in imag_fns if not fn.is_zero()]
    if all(fn.irrational_offset() is None for fn in nonzero):
        span_dim, _ = _rank_exact(nonzero) if nonzero else (0, None)
    else:
        # numeric fallback when irrational constants appear
        if not nonzero:
            span_dim = 0
        else:
            n = 256
            ts = 2.0 * np.pi * np.arange(n) / n
            m = np.array([fn(ts) for fn in nonzero])
            span_dim = int(np.linalg.matrix_rank(m, tol=1e-9))
    sign_change = [fn.sign_changes() for fn in imag_fns]

    span1 = None
    if span_dim == 1:
        base = next(fn for fn in nonzero)
        lam, gam = [], []
        ok = True
        for fn, dest in [(fn, lam) for fn in op.b] + [(fn, gam) for fn in op.f]:
            if fn.is_zero():
                dest.append(Fraction(0))
                continue
            ratio = _ratio(fn, base)
            if ratio is None:
                ok = False
                break
            dest.append(ratio)
        if ok:
            span1 = {"b_tilde": base, "lambda": lam, "gamma": gam}

    b0f0_zero = all(fn.mean().is_zero() for fn in imag_fns)
    a0 = _all_in_lattice([fn.mean() for fn in op.a], Fraction(1))
    e0 = _all_in_lattice([fn.mean() for fn in op.e], Fraction(2))
    if _is_zero_test(op.q_re):
        q_re_res = LatticeResult(IN_LATTICE)
    elif op.q_re.tag == "unspecified" and abs(op.q_re.approx) <= 1e-9:
        q_re_res = LatticeResult(UNKNOWN)
    else:
        q_re_res = LatticeResult(NOT_IN_LATTICE)
    q_ok = _combine_lattice(q_re_res,
                            classify_lattice_membership(op.q_im, Fraction(1)))
    return StructureReport(is_imag_constant=is_const, span_dim=span_dim,
                           sign_change=sign_change,
                           any_sign_change=any(sign_change),
                           b0f0_zero=b0f0_zero, a0_in_Z=a0, e0_in_2Z=e0,
                           q_in_iZ=q_ok, span1=span1)


def _is_zero_test(x: TaggedReal) -> bool:
    return x.is_rational() and x.value == 0


def _combine_lattice(*results: LatticeResult) -> LatticeResult:
    if any(r.status == NOT_IN_LATTICE for r in results):
        return next(r for r in results if r.status == NOT_IN_LATTICE)
    if any(r.status == UNKNOWN for r in results):
        return LatticeResult(UNKNOWN)
    return LatticeResult(IN_LATTICE)


def _all_in_lattice(values: list[TaggedReal], modulus: Fraction) -> LatticeResult:
    return _combine_lattice(*[classify_lattice_membership(v, modulus)
                              for v in values]) if values else LatticeResult(IN_LATTICE)


def _ratio(fn: CoefFn, base: CoefFn) -> Optional[Fraction]:
    """fn = ratio * base exactly, or None."""
    if fn.irrational_offset() is not None or base.irrational_offset() is not None:
        return None
    for k in sorted(base.poly.coeffs):
        re, im = base.poly.coefficient(k)
        if re != 0:
            fre, _ = fn.poly.coefficient(k)
            ratio = fre / re
            break
        if im != 0:
            _, fim = fn.poly.coefficient(k)
            ratio = fim / im
            break
    else:
        return None
    if fn.poly == base.poly.scale(ratio):
        return ratio
    return None


# ---------------------------------------------------------------------------
# Condition (CS) detection
# ---------------------------------------------------------------------------


def _not_in_Z(re: TaggedReal, im: TaggedReal) -> Optional[bool]:
    """Is the complex number (re + i*im) provably not an integer?"""
    if im.is_rational():
        if im.value != 0:
            return True
    elif im.tag in ("non_liouville", "liouville_standard"):
        return True
    else:
        return None
    res = classify_lattice_membership(re, Fraction(1))
    if res.status == NOT_IN_LATTICE:
        return True
    if res.status == IN_LATTICE:
        return False
    return None


def detect_CS(op: EvolutionOperator, search_bound: int = 8) -> Optional[tuple]:
    """Search for (xi~, alpha~) witnessing condition (CS).

    The witness must satisfy: the shifted constant symbol
    <c0,xi~> + <d0,alpha~> - iq is not an integer, and the combination
    theta(t) = <b(t),xi~> + <f(t),alpha~> changes sign.  Modes are swept in
    increasing weight |xi| + |2 alpha|.
    """
    candidates = []
    for xi in itertools.product(range(-search_bound, search_bound + 1), repeat=op.r):
        for alpha2 in alpha_ball(op.s, 2 * search_bound):
            w = sum(abs(x) for x in xi) + sum(abs(a) for a in alpha2)
            if w == 0 or w > 2 * search_bound:
                continue
            candidates.append((w, xi, alpha2))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    for _, xi, alpha2 in candidates:
        try:
            theta = sublevel.mode_combination(op, xi, alpha2)
        except ValueError:
            continue    # an irrational offset: no exact sign test exists
        if not changes_sign(theta):
            continue
        re, im = op.inner_symbol(0, xi, alpha2)
        if _not_in_Z(re, im):
            return (xi, alpha2)
    return None


# ---------------------------------------------------------------------------
# Verdicts and classifier
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    status: str
    property: str
    clause: str
    witness: Optional[dict] = None

    def __post_init__(self):
        if self.status == NO and self.witness is None:
            raise ValueError("NO verdicts must carry a witness")
        if self.status == UNKNOWN_AT_BOUND and (self.witness is None
                                                or "bound" not in self.witness):
            raise ValueError("UNKNOWN verdicts must carry the exhausted bound")

    def to_json(self) -> dict:
        return {"status": self.status, "property": self.property,
                "clause": self.clause, "witness": _jsonable(self.witness)}


def _jsonable(obj):
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return repr(obj)


def classify(op: EvolutionOperator, bound: int = 16,
             zero_bound: int = 8) -> tuple[Verdict, Verdict]:
    """Decide GS and GH with clause identifiers and witnesses."""
    from . import diophantine

    S = structure_report(op)
    span1_ok = (S.span_dim == 1 and not S.any_sign_change)

    def l0_verdicts(clause: str) -> tuple[Verdict, Verdict]:
        dc = diophantine.dc_check(op, bound=min(bound, 10))
        return l0_gs_verdict(dc, clause), l0_gh_verdict(dc, clause)

    def l0_gs_verdict(dc, clause: str) -> Verdict:
        if dc.status == diophantine.HOLDS:
            return Verdict(YES, GS, clause, witness={"DC": dc.summary()})
        if dc.status == diophantine.FAILS:
            return Verdict(NO, GS, clause, witness={"DC": dc.summary()})
        return Verdict(UNKNOWN_AT_BOUND, GS, clause,
                       witness={"DC": dc.summary(), "bound": bound})

    def l0_gh_verdict(dc, clause: str) -> Verdict:
        if dc.status == diophantine.FAILS:
            return Verdict(NO, GH, clause, witness={"DC": dc.summary()})
        zs = zero_set(op, bound=zero_bound)
        if zs.infinite_flag:
            wit = {"zero_set": "infinite"}
            if zs.elements:
                wit["element"] = _jsonable(zs.elements[0])
            return Verdict(NO, GH, clause, witness=wit)
        if dc.status == diophantine.HOLDS and zs.finite:
            return Verdict(YES, GH, clause,
                           witness={"DC": dc.summary(),
                                    "zero_set": "empty" if zs.empty else "finite"})
        return Verdict(UNKNOWN_AT_BOUND, GH, clause,
                       witness={"DC": dc.summary(), "bound": bound})

    if S.is_imag_constant:
        return l0_verdicts(CLAUSE_I)
    if span1_ok:
        return l0_verdicts(CLAUSE_II)

    # (b, f) nonconstant without the span-1 no-sign-change structure:
    # GH fails outright; GS hinges on clause iii.
    cs = detect_CS(op, search_bound=min(bound, 6))
    structural = {"span_dim": S.span_dim, "any_sign_change": S.any_sign_change,
                  "b0f0_zero": S.b0f0_zero}
    if cs is not None:
        gh = Verdict(NO, GH, CLAUSE_CS,
                     witness={"xi": list(cs[0]),
                              "alpha": [Fraction(a, 2) for a in cs[1]]})
    else:
        gh = Verdict(NO, GH, CLAUSE_II, witness=structural)

    if not S.b0f0_zero:
        # corollary case B: nonzero mean with sign change or span >= 2
        if cs is not None:
            gs = Verdict(NO, GS, CLAUSE_CS, witness=gh.witness)
        else:
            gs = Verdict(NO, GS, CLAUSE_III, witness=structural)
        return gs, gh

    # clause iii arithmetic conditions
    lattice = {"a0_in_Z": S.a0_in_Z.status, "e0_in_2Z": S.e0_in_2Z.status,
               "q_in_iZ": S.q_in_iZ.status}
    if any(v == NOT_IN_LATTICE for v in lattice.values()):
        wit = {"lattice": lattice}
        if cs is not None:
            wit.update({"xi": list(cs[0]),
                        "alpha": [Fraction(a, 2) for a in cs[1]]})
            return Verdict(NO, GS, CLAUSE_CS, witness=wit), gh
        return Verdict(NO, GS, CLAUSE_III, witness=wit), gh
    if any(v == UNKNOWN for v in lattice.values()):
        return Verdict(UNKNOWN_AT_BOUND, GS, CLAUSE_III,
                       witness={"lattice": lattice, "bound": bound}), gh

    fam = sublevel.connectedness_family(op, bound=bound)
    if fam.status == "DISCONNECTED":
        return Verdict(NO, GS, CLAUSE_III,
                       witness={"m": fam.m_witness, "xi": list(fam.xi),
                                "alpha": [Fraction(a, 2) for a in fam.alpha2],
                                "arcs": fam.arcs}), gh
    if fam.status == "CONNECTED":
        return Verdict(YES, GS, CLAUSE_III,
                       witness={"sublevels": "connected (exact)"}), gh
    return Verdict(UNKNOWN_AT_BOUND, GS, CLAUSE_III,
                   witness={"sublevels": "connected up to bound",
                            "bound": bound}), gh
