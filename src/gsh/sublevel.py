"""Sublevel-set geometry of coefficient primitives.

For a frequency pair (xi, alpha) the relevant function is the periodic
primitive F of theta(t) = <b(t), xi> + <f(t), alpha>, which the operator's
mode symbol holds (``op.mode(xi, alpha2).imag``).  Global solvability in
the oscillatory regime hinges on whether every sublevel set
{t : F(t) < m} is connected on the circle, for every m and every mode.
This module decides single-function connectedness exactly: the strict
extrema of F are the sign changes of F', counted and ordered by
trigpoly.sign_pattern, and every sublevel set is connected exactly when F
has at most one strict minimum.  The same pattern gives ``argmax``, where
the solver pins a resonant mode.  Extremum locations, critical values, the
witness level m and the arcs of {F < m} are floats.  The module also
sweeps the mode family and builds the smooth cutoff data used by the
counterexample constructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .numerics import l1_ball
from .trigpoly import TrigPoly, sign_pattern

TWO_PI = 2.0 * math.pi

CONNECTED = "CONNECTED"
DISCONNECTED = "DISCONNECTED"
UNKNOWN_AT_BOUND = "UNKNOWN_AT_BOUND"


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


def _sublevel_arcs(F: TrigPoly, m: float,
                   critical_points: list[float]) -> list[tuple[float, float]]:
    """Connected components of {t : F(t) < m} as circular arcs (lo, hi),
    lo in [0, 2 pi) and hi > lo.

    ``critical_points`` are the strict extrema of F, ascending.  F is
    monotone between consecutive ones, so each arc end is the one crossing
    of F = m on such a stretch, which bisection finds.
    """
    crit = np.asarray(critical_points, dtype=float)
    below = np.array([float(np.real(F(t))) for t in crit]) < m
    if below.all():
        return [(0.0, TWO_PI)]
    if not below.any():
        return []
    # stretch i runs from crit[i] to the next extremum, once round the circle
    ends = np.append(crit[1:], crit[0] + TWO_PI)
    cross = np.flatnonzero(below != np.roll(below, -1))
    lo, hi = crit[cross], ends[cross]
    falling = ~below[cross]     # F drops through m here: an arc starts
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        after = (np.real(F(mid)) < m) != falling
        lo = np.where(after, mid, lo)
        hi = np.where(after, hi, mid)
    points = list(0.5 * (lo + hi))
    first = int(np.argmax(falling))
    points = points[first:] + points[:first]
    return [(start % TWO_PI, start % TWO_PI + (end - start) % TWO_PI)
            for start, end in zip(points[0::2], points[1::2])]


def connected_all_m(F: TrigPoly) -> SublevelAnalysis:
    """Decide whether every sublevel set {F < m} is connected.

    Exact: a strict minimum is where F' turns from - to +, and minima and
    maxima alternate, so all sublevel sets are connected exactly when F'
    changes sign at most twice.  Otherwise m, halfway between the
    second-lowest minimum and the lowest maximum, separates two wells.
    """
    if F.is_constant():
        return SublevelAnalysis(connected=True)
    pattern = sign_pattern(F.derivative())
    crit = [t for t, _ in pattern]
    vals = [float(np.real(F(t))) for t in crit]
    analysis = SublevelAnalysis(
        connected=sum(s > 0 for _, s in pattern) <= 1,
        max_value=max(vals), min_value=min(vals),
        minima=[t for t, s in pattern if s > 0],
        maxima=[t for t, s in pattern if s < 0],
        critical_points=crit)
    if not analysis.connected:
        min_vals = sorted(v for v, (_, s) in zip(vals, pattern) if s > 0)
        max_vals = sorted(v for v, (_, s) in zip(vals, pattern) if s < 0)
        analysis.m_witness = 0.5 * (min_vals[1] + max_vals[0])
        analysis.arcs = _sublevel_arcs(F, analysis.m_witness, crit)
    return analysis


def argmax(F: TrigPoly) -> float:
    """Where the real TrigPoly F is largest (0 for a constant F).

    The maximum is a strict maximum, where F' turns from + to -; the exact
    pattern lists them and their float values pick the largest.
    """
    tops = [t for t, s in sign_pattern(F.derivative()) if s < 0]
    return max(tops, key=lambda t: F(t).real, default=0.0)


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
    for u in l1_ball(r + s, bound):
        if math.gcd(*u) == 1:
            yield u


def _vector_to_mode(u, r: int, s: int) -> tuple[tuple, tuple]:
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
    span1 = all(p.ratio(polys[0]) is not None for p in polys)

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


def _sweep(op, bound: int, need_both_signs: bool) -> Optional[FamilyReport]:
    """Try primitive directions in increasing weight; None when all pass."""
    seen: set = set()
    def order(u):
        first_neg = next((x < 0 for x in u if x != 0), False)
        return (sum(abs(x) for x in u), first_neg, tuple(abs(x) for x in u), u)

    vectors = sorted(_primitive_vectors(op.r, op.s, bound), key=order)
    for u in vectors:
        xi, alpha2 = _vector_to_mode(u, op.r, op.s)
        theta = op.mode(xi, alpha2).imag
        if theta is None or theta.is_zero() or theta.mean_real() != 0:
            continue
        key = theta.scale(1 / abs(theta.lead()))    # the ray of theta
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
    wells = _sublevel_arcs(F, m0, analysis.critical_points)
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
