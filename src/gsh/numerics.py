"""Exact rationals, tagged reals, half-integers, l1 balls and Liouville generators.

All arithmetic decisions in the package bottom out here: lattice
membership tests, enumeration of integer l1 balls, and big-integer
rational approximation sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

# ---------------------------------------------------------------------------
# Rational serialization
# ---------------------------------------------------------------------------


def parse_rational(text) -> Fraction:
    """Parse a "p/q" string (or plain integer string / number) to a Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    return Fraction(str(text))


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# Half integers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class HalfInt:
    """A number in (1/2)Z stored exactly as twice its value."""

    twice: int

    @staticmethod
    def of(value) -> "HalfInt":
        fr = Fraction(value)
        twice = fr * 2
        if twice.denominator != 1:
            raise ValueError(f"{value} is not a half-integer")
        return HalfInt(int(twice))

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __float__(self) -> float:
        return self.twice / 2.0

    def __add__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice + other.twice)

    def __sub__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice - other.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __repr__(self) -> str:
        return format_rational(self.value)


# ---------------------------------------------------------------------------
# Integer l1 balls
# ---------------------------------------------------------------------------


def l1_ball(dim: int, weight: int):
    """All u in Z^dim with |u|_1 <= weight, lexicographically."""
    if dim == 0:
        if weight >= 0:
            yield ()
        return
    for head in range(-weight, weight + 1):
        for tail in l1_ball(dim - 1, weight - abs(head)):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# Liouville generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiouvilleGenerator:
    """Rational approximation sequence (p_n, j_n) to an irrational value.

    Emitted pairs satisfy ``|value - p_n/j_n| < constant * j_n**(-n)`` with
    the constant exposed as metadata (1 for the built-in generator).
    """

    emit: Callable[[int], tuple[int, int]]
    approx: float
    constant: float = 1.0
    description: str = ""


def standard_liouville() -> LiouvilleGenerator:
    """The generator for mu = sum_{k>=1} 10^(-k!)."""

    def emit(n: int) -> tuple[int, int]:
        if n < 1:
            raise ValueError("n must be >= 1")
        jn = 10 ** math.factorial(n)
        pn = sum(10 ** (math.factorial(n) - math.factorial(k)) for k in range(1, n + 1))
        return pn, jn

    approx = float(sum(Fraction(1, 10 ** math.factorial(k)) for k in range(1, 5)))
    return LiouvilleGenerator(emit=emit, approx=approx, constant=1.0,
                              description="sum of 10^(-k!)")


def liouville_tail_log10(n: int) -> float:
    """log10 of an upper bound for |mu - p_n/j_n| for the standard generator."""
    # tail = sum_{k>n} 10^(-k!) < 2 * 10^(-(n+1)!)
    return math.log10(2.0) - math.factorial(n + 1)


# ---------------------------------------------------------------------------
# Tagged reals
# ---------------------------------------------------------------------------

TAG_RATIONAL = "rational"
TAG_NON_LIOUVILLE = "non_liouville"
TAG_LIOUVILLE = "liouville_standard"
TAG_UNSPECIFIED = "unspecified"

_TAGS = (TAG_RATIONAL, TAG_NON_LIOUVILLE, TAG_LIOUVILLE, TAG_UNSPECIFIED)


@dataclass(frozen=True)
class TaggedReal:
    """A real number with an arithmetic-class tag.

    The tag makes Diophantine decisions honest: rational values carry the
    exact Fraction, Liouville values carry their generator, and anything
    merely known as a float is UNSPECIFIED.
    """

    approx: float
    tag: str
    value: Optional[Fraction] = None
    generator: Optional[LiouvilleGenerator] = None
    # identity key used to group occurrences of the same irrational number
    # in linear combinations; defaults to the object id for irrationals
    key: object = field(default=None, compare=False)

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown tag {self.tag}")
        if self.tag == TAG_RATIONAL and self.value is None:
            raise ValueError("rational TaggedReal requires an exact value")

    @staticmethod
    def rational(value) -> "TaggedReal":
        fr = Fraction(value)
        return TaggedReal(approx=float(fr), tag=TAG_RATIONAL, value=fr)

    @staticmethod
    def non_liouville(approx: float, key: object = None) -> "TaggedReal":
        tr = TaggedReal(approx=approx, tag=TAG_NON_LIOUVILLE, key=key)
        if key is None:
            object.__setattr__(tr, "key", id(tr))
        return tr

    @staticmethod
    def liouville(generator: Optional[LiouvilleGenerator] = None) -> "TaggedReal":
        gen = generator or standard_liouville()
        tr = TaggedReal(approx=gen.approx, tag=TAG_LIOUVILLE, generator=gen,
                        key=id(gen))
        return tr

    @staticmethod
    def unspecified(approx: float) -> "TaggedReal":
        tr = TaggedReal(approx=approx, tag=TAG_UNSPECIFIED)
        object.__setattr__(tr, "key", id(tr))
        return tr

    def is_rational(self) -> bool:
        return self.tag == TAG_RATIONAL

    def is_zero(self) -> bool:
        return self.is_rational() and self.value == 0

    def to_json(self) -> dict:
        out = {"approx": self.approx, "tag": self.tag}
        if self.value is not None:
            out["value"] = format_rational(self.value)
        return out

    @staticmethod
    def from_json(obj) -> "TaggedReal":
        if isinstance(obj, str):
            return TaggedReal.rational(parse_rational(obj))
        if isinstance(obj, (int, float)):
            return TaggedReal.rational(Fraction(obj))
        tag = obj.get("tag", TAG_RATIONAL)
        if tag == TAG_RATIONAL:
            if "value" in obj:
                return TaggedReal.rational(parse_rational(obj["value"]))
            return TaggedReal.rational(Fraction(obj["approx"]))
        if tag == TAG_LIOUVILLE:
            return TaggedReal.liouville()
        if tag == TAG_NON_LIOUVILLE:
            return TaggedReal.non_liouville(float(obj["approx"]))
        return TaggedReal.unspecified(float(obj["approx"]))


def combine_tagged(terms: list[tuple[Fraction, TaggedReal]]) -> TaggedReal:
    """Exact linear combination sum(coef * value) of tagged reals.

    Rational parts combine exactly.  Occurrences of the same irrational
    (grouped by identity key) have their coefficients added; if exactly one
    irrational survives with a nonzero coefficient the result inherits its
    tag (Liouville and non-Liouville classes are stable under nonzero
    rational scaling and rational shifts).  Independent irrationals cannot
    be compared, so the result degrades to UNSPECIFIED.
    """
    rational_part = Fraction(0)
    irrational: dict[object, tuple[Fraction, TaggedReal]] = {}
    approx = 0.0
    for coef, tr in terms:
        coef = Fraction(coef)
        approx += float(coef) * tr.approx
        if tr.is_rational():
            rational_part += coef * tr.value
        else:
            prev = irrational.get(tr.key)
            total = coef if prev is None else prev[0] + coef
            irrational[tr.key] = (total, tr)
    live = [(c, tr) for c, tr in irrational.values() if c != 0]
    if not live:
        return TaggedReal.rational(rational_part)
    if len(live) == 1:
        c, tr = live[0]
        if tr.tag in (TAG_NON_LIOUVILLE, TAG_LIOUVILLE):
            out = TaggedReal(approx=approx, tag=tr.tag, generator=tr.generator,
                             key=(tr.key, c, rational_part))
            return out
    return TaggedReal.unspecified(approx)


# ---------------------------------------------------------------------------
# Lattice membership
# ---------------------------------------------------------------------------

IN_LATTICE = "IN_LATTICE"
NOT_IN_LATTICE = "NOT_IN_LATTICE"
UNKNOWN = "UNKNOWN"

_PROXIMITY_TOL = 1e-9


@dataclass(frozen=True)
class LatticeResult:
    status: str
    gap: Optional[Fraction] = None       # exact distance when decidable
    qualitative: bool = False            # True when NOT_IN by irrationality

    def __bool__(self) -> bool:
        return self.status == IN_LATTICE


def classify_lattice_membership(x: TaggedReal, modulus) -> LatticeResult:
    """Decide x in modulus*Z (three-valued)."""
    modulus = Fraction(modulus)
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if x.is_rational():
        ratio = x.value / modulus
        nearest = Fraction(round(ratio))
        gap = abs(x.value - nearest * modulus)
        if gap == 0:
            return LatticeResult(IN_LATTICE, gap=Fraction(0))
        return LatticeResult(NOT_IN_LATTICE, gap=gap)
    if x.tag in (TAG_NON_LIOUVILLE, TAG_LIOUVILLE):
        return LatticeResult(NOT_IN_LATTICE, qualitative=True)
    # unspecified float: only trust a clear separation
    m = float(modulus)
    dist = abs(x.approx / m - round(x.approx / m)) * m
    if dist <= _PROXIMITY_TOL:
        return LatticeResult(UNKNOWN)
    return LatticeResult(NOT_IN_LATTICE, qualitative=True)
