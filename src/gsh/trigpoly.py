"""Finite Fourier series on the circle with exact rational coefficients.

A TrigPoly is sum_k c_k e^{ikt} with c_k complex and both parts rational.
This is the only admitted class of coefficient functions: it makes means,
primitives, linear spans and sign changes exactly decidable.

Sign changes are decided by one exact routine, sign_pattern: under
x = tan(t/2) a real TrigPoly becomes a polynomial over Q, whose real roots
of odd multiplicity Sturm sequences count, order and isolate.  The count,
the order and the signs between roots are exact; root locations are floats
within about 2^-54.  changes_sign takes a float short cut only to True,
from samples beyond the rounding bound of a sampled sum.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional

import numpy as np

from .numerics import format_rational, parse_rational

TWO_PI = 2.0 * math.pi
_BELOW_TWO_PI = math.nextafter(TWO_PI, 0.0)


def _rational(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


class TrigPoly:
    """Finitely supported map frequency -> complex rational coefficient."""

    __slots__ = ("coeffs", "_floats")

    def __init__(self, coeffs=None):
        self.coeffs: dict[int, tuple[Fraction, Fraction]] = {}
        if coeffs:
            for k, c in coeffs.items():
                re, im = c if isinstance(c, tuple) else (c, 0)
                re, im = _rational(re), _rational(im)
                if re or im:
                    self.coeffs[int(k)] = (re, im)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value) -> "TrigPoly":
        if isinstance(value, tuple):
            return TrigPoly({0: value})
        return TrigPoly({0: (Fraction(value), Fraction(0))})

    @staticmethod
    def zero() -> "TrigPoly":
        return TrigPoly()

    @staticmethod
    def cos(k: int, amplitude=1) -> "TrigPoly":
        a = Fraction(amplitude) / 2
        return TrigPoly({k: (a, Fraction(0)), -k: (a, Fraction(0))})

    @staticmethod
    def sin(k: int, amplitude=1) -> "TrigPoly":
        a = Fraction(amplitude) / 2
        # sin kt = (e^{ikt} - e^{-ikt}) / (2i)
        return TrigPoly({k: (Fraction(0), -a), -k: (Fraction(0), a)})

    # -- structure ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, TrigPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return all(k == 0 for k in self.coeffs)

    def is_real_valued(self) -> bool:
        for k, (re, im) in self.coeffs.items():
            cre, cim = self.coeffs.get(-k, (Fraction(0), Fraction(0)))
            if cre != re or cim != -im:
                return False
        return True

    @property
    def bandwidth(self) -> int:
        return max((abs(k) for k in self.coeffs), default=0)

    def coefficient(self, k: int) -> tuple[Fraction, Fraction]:
        return self.coeffs.get(int(k), (Fraction(0), Fraction(0)))

    def lead(self) -> Fraction:
        """First nonzero real or imaginary part in frequency order (0 for
        zero); it scales with the polynomial."""
        for k in sorted(self.coeffs):
            re, im = self.coeffs[k]
            return re or im
        return Fraction(0)

    def ratio(self, base: "TrigPoly") -> Optional[Fraction]:
        """lam with self = lam * base exactly, or None (always for a zero base)."""
        lead = base.lead()
        if not lead:
            return None
        lam = self.lead() / lead
        return lam if self == base.scale(lam) else None

    def mean(self) -> tuple[Fraction, Fraction]:
        return self.coefficient(0)

    def mean_real(self) -> Fraction:
        return self.coefficient(0)[0]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        out = dict(self.coeffs)
        for k, (re, im) in other.coeffs.items():
            cre, cim = out.get(k, (Fraction(0), Fraction(0)))
            out[k] = (cre + re, cim + im)
        return TrigPoly(out)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + other.scale(-1)

    def __neg__(self) -> "TrigPoly":
        return self.scale(-1)

    def scale(self, factor) -> "TrigPoly":
        """Multiply by an exact complex rational scalar."""
        if isinstance(factor, tuple):
            fre, fim = Fraction(factor[0]), Fraction(factor[1])
        else:
            fre, fim = Fraction(factor), Fraction(0)
        out = {}
        for k, (re, im) in self.coeffs.items():
            out[k] = (re * fre - im * fim, re * fim + im * fre)
        return TrigPoly(out)

    def times_i(self) -> "TrigPoly":
        return self.scale((0, 1))

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        out: dict[int, tuple[Fraction, Fraction]] = {}
        for k1, (a, b) in self.coeffs.items():
            for k2, (c, d) in other.coeffs.items():
                k = k1 + k2
                re, im = out.get(k, (Fraction(0), Fraction(0)))
                out[k] = (re + a * c - b * d, im + a * d + b * c)
        return TrigPoly(out)

    def conj(self) -> "TrigPoly":
        out = {}
        for k, (re, im) in self.coeffs.items():
            out[-k] = (re, -im)
        return TrigPoly(out)

    def real_part(self) -> "TrigPoly":
        """Re p: coefficient (c_k + conj c_-k) / 2 at k."""
        out = {}
        for k in self.coeffs.keys() | {-k for k in self.coeffs}:
            (re, im), (cre, cim) = self.coefficient(k), self.coefficient(-k)
            out[k] = ((re + cre) / 2, (im - cim) / 2)
        return TrigPoly(out)

    def imag_part(self) -> "TrigPoly":
        return (self - self.conj()).scale((0, Fraction(-1, 2)))

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "TrigPoly":
        out = {}
        for k, (re, im) in self.coeffs.items():
            # d/dt e^{ikt} = ik e^{ikt}
            out[k] = (-k * im, k * re)
        return TrigPoly(out)

    def oscillatory_part(self) -> "TrigPoly":
        out = {k: c for k, c in self.coeffs.items() if k != 0}
        return TrigPoly(out)

    def primitive(self) -> "TrigPoly":
        """Periodic primitive of the mean-zero part, normalized to F(0)=0.

        Returns G with G' = self - mean(self) and G(0) = 0; the caller
        tracks the linear slope (the mean) separately.
        """
        out: dict[int, tuple[Fraction, Fraction]] = {}
        const_re, const_im = Fraction(0), Fraction(0)
        for k, (re, im) in self.coeffs.items():
            if k == 0:
                continue
            # c_k / (ik) = (im/k) - i(re/k)
            gre, gim = Fraction(im, k), Fraction(-re, k)
            out[k] = (gre, gim)
            const_re -= gre
            const_im -= gim
        if const_re != 0 or const_im != 0:
            out[0] = (const_re, const_im)
        return TrigPoly(out)

    # -- evaluation --------------------------------------------------------

    @property
    def floats(self) -> dict[int, complex]:
        """The coefficients as complex floats, converted once: a TrigPoly is
        not changed after construction."""
        try:
            return self._floats
        except AttributeError:
            self._floats = {k: complex(re, im) for k, (re, im) in self.coeffs.items()}
            return self._floats

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for k, c in self.floats.items():
            out = out + c * np.exp(1j * k * t)
        if out.shape == ():
            return complex(out)
        return out

    def sample(self, n: int) -> np.ndarray:
        """Values on the uniform grid t_j = 2 pi j / n."""
        return self(2.0 * math.pi * np.arange(n) / n)

    def sup_norm_bound(self) -> float:
        """Upper bound sum |c_k| for the sup norm."""
        return float(sum(math.hypot(float(re), float(im))
                         for re, im in self.coeffs.values()))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        entries = []
        for k in sorted(self.coeffs):
            re, im = self.coeffs[k]
            entries.append({"freq": k, "re": format_rational(re),
                            "im": format_rational(im)})
        return {"coeffs": entries}

    @staticmethod
    def from_json(obj) -> "TrigPoly":
        out = {}
        for entry in obj.get("coeffs", []):
            k = int(entry["freq"])
            re = parse_rational(entry.get("re", "0"))
            im = parse_rational(entry.get("im", "0"))
            out[k] = (re, im)
        return TrigPoly(out)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "TrigPoly(0)"
        parts = []
        for k in sorted(self.coeffs):
            re, im = self.coeffs[k]
            parts.append(f"({format_rational(re)}+{format_rational(im)}i)e^{{{k}it}}")
        return "TrigPoly(" + " + ".join(parts) + ")"


# -- exact real roots ------------------------------------------------------
#
# Under x = tan(t/2), e^{ikt} = (1 + ix)^{D+k} (1 - ix)^{D-k} / (1 + x^2)^D:
# a real p of bandwidth D is P(x) / (1 + x^2)^D with P in Q[x], deg P <= 2D,
# and has the sign of P.  x runs up the real line as t runs over (-pi, pi);
# t = pi is x = infinity, a root of p of multiplicity 2D - deg P.  Polynomials
# are integer lists, lowest degree first, known up to a positive factor.


@functools.lru_cache(maxsize=None)
def _half_angle_basis(D: int, k: int) -> tuple[tuple[int, int], ...]:
    """(re, im) coefficients of (1 + ix)^{D+k} (1 - ix)^{D-k}."""
    re, im = [1], [0]
    for s in [1] * (D + k) + [-1] * (D - k):        # times 1 + s i x
        re, im = ([a - s * b for a, b in zip(re + [0], [0] + im)],
                  [a + s * b for a, b in zip(im + [0], [0] + re)])
    return tuple(zip(re, im))


def _primitive(a) -> list[int]:
    """a scaled by a positive factor to coprime integers, trailing zeros
    dropped."""
    den = math.lcm(*(c.denominator for c in a))
    a = [c.numerator * (den // c.denominator) for c in a]
    while a and not a[-1]:
        a.pop()
    g = math.gcd(*a) or 1
    return [c // g for c in a]


def _tan_half(p: TrigPoly) -> list[int]:
    den = math.lcm(*(c.denominator for pair in p.coeffs.values() for c in pair))
    acc = [0] * (2 * p.bandwidth + 1)
    for k, (re, im) in p.coeffs.items():
        re, im = int(re * den), int(im * den)
        for j, (br, bi) in enumerate(_half_angle_basis(p.bandwidth, k)):
            acc[j] += re * br - im * bi
    return _primitive(acc)


def _derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _divide(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b, each up to a positive factor:
    each step scales a by |lead b| so that the division stays in integers."""
    q, r = [0] * max(len(a) - len(b) + 1, 0), list(a)
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(r) >= len(b):
        c, shift = sign * r[-1], len(r) - len(b)
        q = [scale * x for x in q]
        q[shift] += c
        r = [scale * x for x in r]
        for j, bj in enumerate(b):
            r[shift + j] -= c * bj
        while r and not r[-1]:
            r.pop()
    return _primitive(q), _primitive(r)


def _odd_part(P: list[int]) -> list[int]:
    """Square-free polynomial whose roots are the roots of odd multiplicity
    of P.  A root of multiplicity m in P has multiplicity m - 1 in
    g = gcd(P, P'), so it is odd in P exactly when it is a root of P / g
    and not of the odd part of g."""
    g, b = P, _derivative(P)
    while b:
        g, b = b, _divide(g, b)[1]
    if len(g) == 1:
        return P
    return _divide(_divide(P, g)[0], _odd_part(g))[0]


def _sign_at(a: list[int], num: int, e: int) -> int:
    """Sign of a at num / 2^e."""
    acc = 0
    for k, c in enumerate(reversed(a)):
        acc = acc * num + (c << e * k)
    return (acc > 0) - (acc < 0)


def _variations(seq: list[list[int]], num: int, e: int) -> int:
    signs = [s for s in (_sign_at(a, num, e) for a in seq) if s]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _roots(Q: list[int]) -> list[float]:
    """Real roots of the square-free Q, ascending.

    Sturm's theorem isolates them: (a, b] holds V(a) - V(b) roots, V the
    sign changes along Q's Sturm sequence.  Points are num / 2^e.
    """
    if len(Q) < 2:
        return []
    seq = [Q, _derivative(Q)]
    while len(seq[-1]) > 1:
        seq.append([-c for c in _divide(seq[-2], seq[-1])[1]])
    bits = (max(map(abs, Q)) // abs(Q[-1]) + 1).bit_length()   # Cauchy bound
    lo, hi = -(1 << bits), 1 << bits
    stack = [(lo, hi, 0, _variations(seq, lo, 0), _variations(seq, hi, 0))]
    roots = []
    while stack:
        lo, hi, e, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            roots.append(_refine(Q, lo, hi, e))
        elif v_lo - v_hi > 1:
            v_mid = _variations(seq, lo + hi, e + 1)
            stack += [(lo + hi, 2 * hi, e + 1, v_mid, v_hi),
                      (2 * lo, lo + hi, e + 1, v_lo, v_mid)]
    return roots


def _newton(Q: list[int], lo: int, hi: int, e: int, s_hi: int) -> Optional[float]:
    """A float estimate of the one root of Q in (lo / 2^e, hi / 2^e): Newton
    steps, a step that leaves the interval replaced by bisection on the
    float sign of Q.  None when the floats overflow or the steps do not
    settle."""
    try:
        a = [float(c) for c in reversed(Q)]
        lo, hi = lo / (1 << e), hi / (1 << e)
    except OverflowError:
        return None
    x = 0.5 * (lo + hi)
    for _ in range(64):
        q = dq = 0.0
        for c in a:
            q, dq = q * x + c, dq * x + q
        if not (math.isfinite(q) and math.isfinite(dq)):
            return None
        if q == 0.0:
            return x
        lo, hi = (lo, x) if (q > 0) == (s_hi > 0) else (x, hi)
        step = x - q / dq if dq else lo
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - x) <= math.ulp(x):
            return step
        x = step
    return None


def _refine(Q: list[int], lo: int, hi: int, e: int) -> float:
    """The one root of Q in (lo / 2^e, hi / 2^e], bisected on the sign of Q
    to a width of 2^-55, which fixes the angle 2 atan x to 2^-54.

    A float Newton estimate x goes first: when Q's exact signs put the root
    within max(4 ulp(x), 2^-56) of x, the bisection starts from that bracket
    instead of the isolating interval, and takes a few steps, not fifty.
    """
    s_hi = _sign_at(Q, hi, e)
    if not s_hi:
        lo = hi
    elif (x := _newton(Q, lo, hi, e, s_hi)) is not None:
        f = max(e, 56, x.as_integer_ratio()[1].bit_length() - 1)

        def scaled(v: float) -> int:      # v * 2^f, exact
            num, den = v.as_integer_ratio()
            return (num << f) // den

        c, h = scaled(x), scaled(max(4 * math.ulp(x), 2.0 ** -56))
        lo_f, hi_f = lo << (f - e), hi << (f - e)
        a, b = max(c - h, lo_f), min(c + h, hi_f)
        s_b = _sign_at(Q, b, f)
        if a < b and s_b != -s_hi and (a == lo_f or _sign_at(Q, a, f) == -s_hi):
            lo, hi, e = (a if s_b else b), b, f
    while (hi - lo) << 55 > 1 << e:
        mid, e = lo + hi, e + 1
        s = _sign_at(Q, mid, e)
        lo, hi = (mid, mid) if not s else (2 * lo, mid) if s == s_hi else (mid, 2 * hi)
    return (lo + hi) / (1 << (e + 1))


def sign_pattern(p: TrigPoly) -> list[tuple[float, int]]:
    """Sign changes of a real-valued TrigPoly on the circle.

    Returns (t, s) for each root t of odd multiplicity, ascending in
    [0, 2 pi), with s = +1 or -1 the sign p takes just after t.  The
    count, the order and the signs are exact; each t is a float within
    about 2^-54 of the root.
    """
    if p.is_zero():
        return []
    P = _tan_half(p)
    xs = _roots(_odd_part(P))
    # beyond its largest root P has the sign of its leading coefficient,
    # and it flips at each root of odd multiplicity
    lead = 1 if P[-1] > 0 else -1
    out = [(2.0 * math.atan(x) % TWO_PI, lead * (-1) ** (len(xs) - 1 - j))
           for j, x in enumerate(xs)]
    if (2 * p.bandwidth - len(P) + 1) % 2:
        out.append((math.pi, lead * (-1) ** len(xs)))
    return sorted((min(t, _BELOW_TWO_PI), s) for t, s in out)


def real_root_isolation(p: TrigPoly) -> list[float]:
    """Roots of odd multiplicity (the sign changes) of a real-valued
    TrigPoly on [0, 2 pi), ascending; see sign_pattern."""
    return [t for t, _ in sign_pattern(p)]


def changes_sign(p: TrigPoly) -> bool:
    """Whether a real-valued TrigPoly takes both signs on the circle:
    exactly when sign_pattern is not empty.

    Float samples only take a short cut to True.  The rounding error of a
    sampled sum is O(D 2^-53 sum |c_k|), so a sample beyond
    1e-12 sum |c_k| has a certain sign, and two such samples of opposite
    sign prove a change.
    """
    if p.is_zero():
        return False
    vals = np.real(p.sample(64 * max(p.bandwidth, 1)))
    margin = 1e-12 * p.sup_norm_bound()
    if vals.max() > margin and vals.min() < -margin:
        return True
    return bool(sign_pattern(p))
