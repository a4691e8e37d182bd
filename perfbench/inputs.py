"""Seeded inputs of the gsh benchmark.

Operators are written in the CLI's JSON operator format, so the program
sees only generated input files.  The twelve base operators are the
reference operators of the test suite (the eight golden ones and four
certificate fixtures), transcribed here so the benchmark does not depend
on test code.  Their expected verdicts were recorded from the program at
the commit that introduced the benchmark.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import numpy as np

# A coefficient function is {freq: (re, im)} of exact rationals; the JSON
# entry for frequency k is the complex coefficient of e^{ikt}.
HALF = Fraction(1, 2)


def cos(k=1, amp=1):
    a = Fraction(amp) / 2
    return {k: (a, 0), -k: (a, 0)}


def sin(k=1, amp=1):
    a = Fraction(amp) / 2
    return {k: (0, -a), -k: (0, a)}


def const(value):
    return {0: (Fraction(value), 0)}


def add(*polys):
    out: dict[int, tuple[Fraction, Fraction]] = {}
    for p in polys:
        for k, (re, im) in p.items():
            r0, i0 = out.get(k, (0, 0))
            out[k] = (Fraction(r0) + Fraction(re), Fraction(i0) + Fraction(im))
    return {k: v for k, v in out.items() if v != (0, 0)}


def neg(p):
    return {k: (-Fraction(re), -Fraction(im)) for k, (re, im) in p.items()}


def _rat(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _coef(p, tagged=None) -> dict:
    """JSON coefficient function; ``tagged`` is an irrational constant offset."""
    entries = [{"freq": k, "re": _rat(re), "im": _rat(im)}
               for k, (re, im) in sorted(p.items())
               if not (tagged and k == 0)]
    if tagged:
        base = p.get(0, (0, 0))[0]
        entries.append({"freq": 0, "re": tagged, "im": "0",
                        "re_rational": _rat(base)})
    return {"coeffs": entries}


def _q(x) -> dict:
    if isinstance(x, dict):
        return x
    x = Fraction(x)
    return {"approx": float(x), "tag": "rational", "value": _rat(x)}


SQRT2 = {"approx": 2 ** 0.5, "tag": "non_liouville"}
LIOUVILLE = {"approx": 0.110001, "tag": "liouville_standard"}


def operator(r, s, c=(), d=(), q_re=0, q_im=0) -> dict:
    """``c`` and ``d`` are lists of (re, im) coefficient pairs; a pair member
    is a poly dict or (poly dict, tagged offset)."""
    def pair(re, im):
        return {"re": _coef(*re) if isinstance(re, tuple) else _coef(re),
                "im": _coef(*im) if isinstance(im, tuple) else _coef(im)}
    return {"r": r, "s": s, "c": [pair(*p) for p in c],
            "d": [pair(*p) for p in d], "q": {"re": _q(q_re), "im": _q(q_im)}}


_SIN3_2T = add(sin(2, Fraction(3, 4)), neg(sin(6, Fraction(1, 4))))

GOLDEN = {
    "rational_constant": operator(1, 1, [(const(1), const(1))],
                                  [(const(2), const(2))], q_im=3),
    "zero_order_missing": operator(1, 1, [(const(1), {})], [(const(1), {})]),
    "sqrt2_hypoelliptic": operator(1, 1, [({}, ({}, SQRT2))], [({}, const(1))],
                                   q_re=Fraction(1, 4)),
    "oscillatory_solvable": operator(
        1, 1, [(add(cos(), const(1)), sin())], [(add(sin(), const(2)), cos())],
        q_im=3),
    "half_integer_mean": operator(
        1, 1, [(add(cos(), const(2)), sin())], [(add(sin(), const(1)), cos())]),
    "disconnected_sublevel": operator(
        1, 1, [(add(cos(), const(1)), sin())],
        [(add(sin(), const(2)), _SIN3_2T)], q_im=-1),
    "span1_hypoelliptic": operator(
        1, 1, [(add(cos(), const(1)), add(sin(), const(1)))],
        [(add(sin(), const(2)), add(sin(), const(1)))], q_re=SQRT2, q_im=3),
    "span1_not_hypoelliptic": operator(
        1, 1, [(add(cos(), const(1)), add(sin(), const(1)))],
        [(add(sin(), const(2)), neg(add(sin(), const(1))))],
        q_re=HALF, q_im=-2),
}

FIXTURES = {
    "sign_change_witness": operator(0, 1, [], [({}, sin())], q_re=HALF),
    "neutral_rotation": operator(0, 1, [], [({}, const(1))]),
    "exact_floor": operator(2, 0, [({}, const(HALF)), ({}, const(Fraction(1, 3)))],
                            [], q_re=Fraction(1, 5)),
    "liouville": operator(1, 1, [(({}, LIOUVILLE), const(1))], [({}, const(1))]),
}

# (GS status, GS clause), (GH status, GH clause), recorded from the program.
REFERENCE = {
    "rational_constant": (("YES", "clause_i"), ("NO", "clause_i")),
    "zero_order_missing": (("YES", "clause_i"), ("NO", "clause_i")),
    "sqrt2_hypoelliptic": (("YES", "clause_i"), ("YES", "clause_i")),
    "oscillatory_solvable": (("YES", "clause_iii"), ("NO", "clause_ii")),
    "half_integer_mean": (("NO", "CS"), ("NO", "CS")),
    "disconnected_sublevel": (("NO", "clause_iii"), ("NO", "clause_ii")),
    "span1_hypoelliptic": (("YES", "clause_ii"), ("YES", "clause_ii")),
    "span1_not_hypoelliptic": (("YES", "clause_ii"), ("NO", "clause_ii")),
    "sign_change_witness": (("NO", "CS"), ("NO", "CS")),
    "neutral_rotation": (("YES", "clause_i"), ("NO", "clause_i")),
    "exact_floor": (("YES", "clause_i"), ("YES", "clause_i")),
    "liouville": (("NO", "clause_i"), ("NO", "clause_i")),
}

# Primitive Pythagorean triples (p, q, h) with h < 100.
TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29),
           (12, 35, 37), (9, 40, 41), (28, 45, 53), (11, 60, 61),
           (16, 63, 65), (33, 56, 65), (48, 55, 73), (13, 84, 85),
           (36, 77, 85), (39, 80, 89), (65, 72, 97)]

DIPS_PER_PASS = 80


def _small_rational(rng) -> Fraction:
    return Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5)))


def gauge_shift(rng) -> dict:
    """Seeded zero-mean real trig polynomial of bandwidth 1 to 3."""
    out = {}
    for k in range(1, int(rng.integers(1, 4)) + 1):
        out = add(out, cos(k, _small_rational(rng)), sin(k, _small_rational(rng)))
    return out


def gauge_variant(op: dict, rng) -> dict:
    """``op`` with a seeded gauge shift added to every real part a_j, e_k.

    The verdict must not change: GS and GH are gauge invariant.
    """
    out = json.loads(json.dumps(op))
    for pair in out["c"] + out["d"]:
        shift = gauge_shift(rng)
        coeffs = pair["re"]["coeffs"]
        for entry in coeffs:
            k = entry["freq"]
            if k in shift:
                re, im = shift.pop(k)
                entry["re"] = _rat(Fraction(entry["re"]) + re)
                entry["im"] = _rat(Fraction(entry["im"]) + im)
        coeffs.extend({"freq": k, "re": _rat(re), "im": _rat(im)}
                      for k, (re, im) in sorted(shift.items()))
    return out


def narrow_dip(p: int, q: int, h: int, delta: Fraction) -> dict:
    """r = 1, s = 0, a = 0, q = i/3, b = 1 - (p/h cos t + q/h sin t) - delta.

    Since p^2 + q^2 = h^2, min b = -delta exactly, attained at
    t = atan2(q, p).
    """
    b = add(const(1 - delta), neg(cos(1, Fraction(p, h))), neg(sin(1, Fraction(q, h))))
    return operator(1, 0, [({}, b)], [], q_im=Fraction(1, 3))


# ROADMAP item 2: the sampled sign test misses the dip, so a dip with
# delta > 0 comes back YES/clause_ii instead of NO.
DIP_KNOWN_DEFECT = ("YES", "clause_ii")


def dip_expectation(delta: Fraction):
    """Verdict implied by min b = -delta: a sign change (delta > 0) rules
    out both properties; a positive b (delta < 0) is clause ii for both."""
    if delta > 0:
        return ("NO", None), ("NO", None)
    return ("YES", "clause_ii"), ("YES", "clause_ii")


def classify_inputs(seed: int) -> list[tuple[str, dict, tuple]]:
    """(label, operator JSON, expected verdicts) for one pass, in run order.

    The pass holds the twelve base operators, one gauge variant of each
    golden operator and DIPS_PER_PASS narrow dips, half with delta > 0.
    """
    rng = np.random.default_rng([seed, 1])
    items = [(name, op, REFERENCE[name])
             for name, op in {**GOLDEN, **FIXTURES}.items()]
    items += [(f"gauge:{name}", gauge_variant(op, rng), REFERENCE[name])
              for name, op in GOLDEN.items()]
    for i in range(DIPS_PER_PASS):
        p, q, h = TRIPLES[int(rng.integers(len(TRIPLES)))]
        if rng.integers(2):
            p, q = q, p
        p, q = p * int(rng.choice([-1, 1])), q * int(rng.choice([-1, 1]))
        sign = 1 if i % 2 == 0 else -1
        delta = Fraction(sign, 10 ** int(rng.integers(3, 7)))
        items.append((f"dip:{p},{q},{h}:{_rat(delta)}", narrow_dip(p, q, h, delta),
                      dip_expectation(delta)))
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def digest(*parts) -> str:
    """SHA-256 over JSON values and numpy arrays, in order."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()
