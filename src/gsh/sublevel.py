"""Sublevel-set geometry of coefficient primitives.

For a frequency pair (xi, alpha) the relevant function is the periodic
primitive F of theta(t) = <b(t), xi> + <f(t), alpha>.  Global solvability
in the oscillatory regime hinges on whether every sublevel set
{t : F(t) < m} is connected on the circle, for every m and every mode.
This module decides single-function connectedness exactly (critical
points of a rational trigonometric polynomial), sweeps the mode family,
and builds the smooth cutoff data used by the counterexample
constructions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .trigpoly import TrigPoly, real_root_isolation

TWO_PI = 2.0 * math.pi

CONNECTED = "CONNECTED"
DISCONNECTED = "DISCONNECTED"
UNKNOWN_AT_BOUND = "UNKNOWN_AT_BOUND"


# ---------------------------------------------------------------------------
# Mode combinations and primitives
# ---------------------------------------------------------------------------


def mode_combination(op, xi, alpha2) -> TrigPoly:
    """theta(t) = <b(t), xi> + <f(t), alpha> as an exact TrigPoly.

    Rational constant offsets are folded in.  An irrational offset that
    enters with a nonzero weight has no TrigPoly form and raises
    ValueError; it cannot occur in the oscillatory regime, where the mean
    vanishes.
    """
    terms = [(op.b[j], Fraction(xi[j])) for j in range(op.r)]
    terms += [(op.f[k], Fraction(alpha2[k], 2)) for k in range(op.s)]
    acc = TrigPoly.zero()
    for fn, weight in terms:
        if not weight:
            continue
        poly = fn.poly
        if not fn.offset.is_zero():
            if not fn.offset.is_rational():
                raise ValueError("irrational offsets have no TrigPoly form")
            poly = poly + TrigPoly.constant(fn.offset.value)
        acc = acc + poly.scale(weight)
    return acc


def primitive(op, xi, alpha2) -> TrigPoly:
    """Periodic primitive F (F(0) = 0) of the mode combination.

    Requires the combination to have zero mean, which is exactly the
    regime in which sublevel connectedness is the deciding criterion.
    """
    theta = mode_combination(op, xi, alpha2)
    if theta.mean_real() != 0:
        raise ValueError("mode combination has nonzero mean; no periodic primitive")
    return theta.primitive()


# ---------------------------------------------------------------------------
# Single-function connectedness
# ---------------------------------------------------------------------------


@dataclass
class SublevelAnalysis:
    connected: bool
    m_witness: Optional[float] = None
    arcs: Optional[list[tuple[float, float]]] = None
    max_value: float = 0.0
    min_value: float = 0.0
    minima: list[float] = field(default_factory=list)
    maxima: list[float] = field(default_factory=list)
    critical_points: list[float] = field(default_factory=list)


def _sublevel_arcs(F: TrigPoly, m: float, n: int = 4096) -> list[tuple[float, float]]:
    """Connected components of {t : F(t) < m} as circular arcs [lo, hi)."""
    ts = TWO_PI * np.arange(n) / n
    mask = np.real(F(ts)) < m
    if mask.all():
        return [(0.0, TWO_PI)]
    if not mask.any():
        return []
    # rotate so the sequence starts outside the sublevel set
    start = int(np.argmin(mask))
    arcs = []
    in_run = False
    lo = 0.0
    for i in range(n + 1):
        j = (start + i) % n
        if mask[j] and not in_run:
            in_run = True
            lo = ts[j]
        elif not mask[j] and in_run:
            in_run = False
            hi = ts[j]
            if hi <= lo:
                hi += TWO_PI
            arcs.append((lo, hi))
    return arcs


def connected_all_m(F: TrigPoly) -> SublevelAnalysis:
    """Decide whether every sublevel set {F < m} is connected.

    Critical points come from root isolation on F'; with at most one
    strict local minimum all sublevels are nested arcs.  With two or more,
    m halfway between the second-lowest minimum and the lowest maximum
    separates two wells, which the dense arc count then exhibits.
    """
    if F.is_zero() or F.is_constant():
        return SublevelAnalysis(connected=True)
    dF = F.derivative()
    roots = real_root_isolation(dF)
    vals = [float(np.real(F(t))) for t in roots]
    if len(roots) < 2:
        return SublevelAnalysis(connected=True, critical_points=roots,
                                max_value=max(vals, default=0.0),
                                min_value=min(vals, default=0.0))
    # classify by the sign of F' on the gaps between consecutive roots
    n = len(roots)
    minima, maxima = [], []
    for i in range(n):
        left_mid = 0.5 * (roots[i - 1] + roots[i]) if i > 0 else \
            0.5 * (roots[-1] - TWO_PI + roots[0])
        right_mid = 0.5 * (roots[i] + roots[(i + 1) % n]) if i + 1 < n else \
            0.5 * (roots[-1] + roots[0] + TWO_PI)
        sl = float(np.real(dF(left_mid)))
        sr = float(np.real(dF(right_mid)))
        if sl < 0.0 < sr:
            minima.append(i)
        elif sl > 0.0 > sr:
            maxima.append(i)
        # degenerate plateaus (sl or sr ~ 0) are not strict extrema
    min_vals = sorted(vals[i] for i in minima)
    max_vals = sorted(vals[i] for i in maxima)
    base = SublevelAnalysis(connected=True,
                            max_value=max(vals), min_value=min(vals),
                            minima=[roots[i] for i in minima],
                            maxima=[roots[i] for i in maxima],
                            critical_points=roots)
    if len(min_vals) <= 1:
        return base
    m = 0.5 * (min_vals[1] + max_vals[0])
    arcs = _sublevel_arcs(F, m)
    if len(arcs) <= 1:
        # numerically degenerate (equal critical values); treat as connected
        return base
    base.connected = False
    base.m_witness = m
    base.arcs = arcs
    return base


# ---------------------------------------------------------------------------
# Family sweep
# ---------------------------------------------------------------------------


@dataclass
class FamilyReport:
    status: str
    exact: bool
    bound: int
    xi: Optional[tuple] = None
    alpha2: Optional[tuple] = None
    m_witness: Optional[float] = None
    arcs: Optional[list[tuple[float, float]]] = None
    analysis: Optional[SublevelAnalysis] = None


def _primitive_vectors(r: int, s: int, bound: int):
    """Primitive integer vectors u in Z^{r+s}, 0 < |u|_1 <= bound.

    Each u encodes the mode (xi = u[:r], alpha = u[r:]) with integer
    alpha; connectedness only depends on the positive ray of a mode.
    """
    dim = r + s
    for u in itertools.product(range(-bound, bound + 1), repeat=dim):
        w = sum(abs(x) for x in u)
        if w == 0 or w > bound:
            continue
        if math.gcd(*[abs(x) for x in u]) != 1:
            continue
        yield u


def _vector_to_mode(u, r: int, s: int) -> tuple[tuple, tuple]:
    return tuple(u[:r]), tuple(2 * x for x in u[r:])


def normalized_witness_mode(xi, alpha2, r: int, s: int) -> tuple[tuple, tuple]:
    """Smallest positive multiple of (xi, alpha) with integer alpha."""
    vec = [2 * x for x in xi] + list(alpha2)
    g = math.gcd(*[abs(v) for v in vec]) or 1
    u = [v // g for v in vec]
    return tuple(u[:r]), tuple(2 * x for x in u[r:])


def connectedness_family(op, bound: int = 16) -> FamilyReport:
    """Connectedness of all sublevels over all frequency pairs.

    Exact in three regimes: all imaginary parts zero; one-dimensional span
    (only the two rays of the generator matter); all imaginary parts
    supported on frequencies +-1, where every combination is a single
    shifted harmonic.  Otherwise primitive integer directions are swept up
    to the bound, which can only certify failure.
    """
    imag_fns = list(op.b) + list(op.f)
    if all(fn.is_zero() for fn in imag_fns):
        return FamilyReport(status=CONNECTED, exact=True, bound=bound)

    freqs = {k for fn in imag_fns for k in fn.poly.coeffs if k != 0}
    polys = [fn.poly for fn in imag_fns if not fn.is_zero()]
    span1 = all(_proportional(p, polys[0]) for p in polys)

    if span1:
        found = _sweep(op, bound, need_both_signs=True)
        if found is not None:
            return found
        return FamilyReport(status=CONNECTED, exact=True, bound=bound)
    if freqs <= {-1, 1}:
        return FamilyReport(status=CONNECTED, exact=True, bound=bound)
    found = _sweep(op, bound, need_both_signs=False)
    if found is not None:
        return found
    return FamilyReport(status=UNKNOWN_AT_BOUND, exact=False, bound=bound)


def _proportional(p: TrigPoly, base: TrigPoly) -> bool:
    for k in sorted(base.coeffs):
        re, im = base.coefficient(k)
        if re != 0:
            ratio = p.coefficient(k)[0] / re
            break
        if im != 0:
            ratio = p.coefficient(k)[1] / im
            break
    else:
        return p.is_zero()
    return p == base.scale(ratio)


def _sweep(op, bound: int, need_both_signs: bool) -> Optional[FamilyReport]:
    """Try primitive directions in increasing weight; None when all pass."""
    seen: set = set()
    def order(u):
        first_neg = next((x < 0 for x in u if x != 0), False)
        return (sum(abs(x) for x in u), first_neg, tuple(abs(x) for x in u), u)

    vectors = sorted(_primitive_vectors(op.r, op.s, bound), key=order)
    for u in vectors:
        xi, alpha2 = _vector_to_mode(u, op.r, op.s)
        theta = mode_combination(op, xi, alpha2)
        if theta.is_zero() or theta.mean_real() != 0:
            continue
        key = _direction_key(theta)
        if key in seen:
            continue
        seen.add(key)
        analysis = connected_all_m(theta.primitive())
        if not analysis.connected:
            return FamilyReport(status=DISCONNECTED, exact=True, bound=bound,
                                xi=xi, alpha2=alpha2,
                                m_witness=analysis.m_witness,
                                arcs=analysis.arcs, analysis=analysis)
        if need_both_signs and len(seen) >= 2:
            return None
    return None


def _direction_key(theta: TrigPoly):
    """Canonical key for a TrigPoly modulo positive rational scaling."""
    ks = sorted(theta.coeffs)
    lead = None
    for k in ks:
        re, im = theta.coefficient(k)
        if re != 0:
            lead = abs(re)
            break
        if im != 0:
            lead = abs(im)
            break
    items = []
    for k in ks:
        re, im = theta.coefficient(k)
        items.append((k, re / lead, im / lead))
    return tuple(items)


# ---------------------------------------------------------------------------
# Smooth cutoffs
# ---------------------------------------------------------------------------


def _smooth_step_scalar(y: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for y <= 0, 1 for y >= 1."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape)
    lo = y <= 0.0
    hi = y >= 1.0
    mid = ~(lo | hi)
    ym = y[mid]
    e1 = np.exp(-1.0 / ym)
    e2 = np.exp(-1.0 / (1.0 - ym))
    out[mid] = e1 / (e1 + e2)
    out[hi] = 1.0
    return out


def bump(center: float, half_width: float) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth bump exp(1 - 1/(1-x^2)) on the circle, supported in
    (center - half_width, center + half_width)."""

    def fn(t):
        t = np.asarray(t, dtype=float)
        x = np.angle(np.exp(1j * (t - center))) / half_width
        out = np.zeros(t.shape)
        inside = np.abs(x) < 1.0
        xi = x[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - xi * xi))
        return out

    return fn


def circular_plateau(rise: tuple[float, float],
                     fall: tuple[float, float]) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth periodic function: 0 before ``rise``, 1 between, 0 after ``fall``.

    ``rise`` and ``fall`` are angle intervals (lo, hi) traversed in the
    positive direction; the function climbs 0 -> 1 across ``rise`` and
    descends 1 -> 0 across ``fall``.  Intervals may wrap past 2 pi.
    """
    r_lo, r_hi = rise
    f_lo, f_hi = fall

    def unwrap(t, ref):
        return np.mod(t - ref, TWO_PI) + ref

    def fn(t):
        t = np.asarray(t, dtype=float)
        tr = unwrap(t, r_lo)
        up = _smooth_step_scalar((tr - r_lo) / (r_hi - r_lo))
        tf = unwrap(t, f_lo)
        down = 1.0 - _smooth_step_scalar((tf - f_lo) / (f_hi - f_lo))
        # the plateau sits between rise end and fall start (going forward);
        # combine so the function is up*down on the overlap region
        span_f = np.mod(f_lo - r_lo, TWO_PI)
        pos = np.mod(t - r_lo, TWO_PI)
        out = np.where(pos <= span_f, up, down)
        return out

    return fn


# ---------------------------------------------------------------------------
# Disjoint-closure sublevel data for the pairing counterexample
# ---------------------------------------------------------------------------


@dataclass
class ClosurePair:
    m0: float
    g0: Callable[[np.ndarray], np.ndarray]
    v0: Callable[[np.ndarray], np.ndarray]
    omega: float
    transition_arcs: list[tuple[float, float]]
    complement_arcs: list[tuple[float, float]]
    pairing_value: float


def disjoint_closure_pair(F: TrigPoly,
                          analysis: Optional[SublevelAnalysis] = None,
                          n: int = 8192) -> ClosurePair:
    """Cutoff pair (g0, v0) adapted to a disconnected sublevel structure.

    Picks m0 with {F < m0} having two components with disjoint closures,
    places opposite-sign unit bumps in the two complementary arcs (so g0
    has mean zero), and a plateau v0 equal to 1 on exactly one of them
    with transitions inside the sublevel components.  Then the integral of
    g0*v0 is 1 and omega = max F on supp(v0') - m0 is strictly negative.
    """
    if analysis is None:
        analysis = connected_all_m(F)
    if analysis.connected:
        raise ValueError("all sublevels connected; no disjoint-closure pair")
    min_vals = sorted(float(np.real(F(t))) for t in analysis.minima)
    m0 = 0.5 * (min_vals[1] + analysis.m_witness)
    wells = _sublevel_arcs(F, m0, n=n)
    comp = _complement_arcs(wells)
    if len(comp) < 2 or len(wells) < 2:
        raise ValueError("could not isolate two separated components")
    comp = sorted(comp, key=lambda a: a[1] - a[0], reverse=True)[:2]
    wells = sorted(wells, key=lambda a: a[1] - a[0], reverse=True)[:2]
    comp.sort(key=lambda a: a[0] % TWO_PI)
    wells.sort(key=lambda a: a[0] % TWO_PI)

    bumps = []
    for lo, hi in comp:
        c = 0.5 * (lo + hi)
        h = 0.45 * (hi - lo)
        bumps.append((bump(c, h), c, h))
    ts = TWO_PI * np.arange(n) / n
    masses = [float(np.mean(b(ts)) * TWO_PI) for b, _, _ in bumps]

    def g0(t):
        return bumps[0][0](t) / masses[0] - bumps[1][0](t) / masses[1]

    # v0: 1 on the first complementary arc, 0 on the second, with the
    # transitions in the middle thirds of the two wells
    rise_well = _well_before(comp[0], wells)
    fall_well = _well_before(comp[1], wells)
    rise = _middle_third(rise_well)
    fall = _middle_third(fall_well)
    v0 = circular_plateau(rise, fall)

    omega = -np.inf
    for lo, hi in (rise, fall):
        tt = np.linspace(lo, hi, 512)
        omega = max(omega, float(np.real(F(tt)).max()) - m0)

    pairing = float(np.mean(g0(ts) * v0(ts)) * TWO_PI)
    return ClosurePair(m0=m0, g0=g0, v0=v0, omega=omega,
                       transition_arcs=[rise, fall], complement_arcs=comp,
                       pairing_value=pairing)


def _complement_arcs(arcs: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Complement of a union of circular arcs, as circular arcs."""
    if not arcs:
        return [(0.0, TWO_PI)]
    srt = sorted((lo % TWO_PI, (lo % TWO_PI) + (hi - lo)) for lo, hi in arcs)
    out = []
    for i, (lo, hi) in enumerate(srt):
        nxt = srt[(i + 1) % len(srt)][0]
        if i + 1 == len(srt):
            nxt += TWO_PI
        if nxt > hi:
            out.append((hi, nxt))
    return out


def _well_before(comp_arc: tuple[float, float],
                 wells: list[tuple[float, float]]) -> tuple[float, float]:
    """The well whose (circular) end meets the start of the given arc."""
    lo = comp_arc[0] % TWO_PI
    best, best_gap = wells[0], np.inf
    for w in wells:
        gap = (lo - (w[1] % TWO_PI)) % TWO_PI
        if gap < best_gap:
            best, best_gap = w, gap
    return best


def _middle_third(arc: tuple[float, float]) -> tuple[float, float]:
    lo, hi = arc
    third = (hi - lo) / 3.0
    return (lo + third, hi - third)
