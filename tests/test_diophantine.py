"""Lower bounds for the frozen-coefficient symbol and their failure."""

import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conftest import (op_exact_floor, op_liouville, op_rational_constant,
                      op_sqrt2_hypoelliptic)
from gsh import cli
from gsh.diophantine import (FAILS, HOLDS, METHOD_EXACT, METHOD_QUALITATIVE,
                             METHOD_SEQUENCE, UNKNOWN, dc_check,
                             exp_gap_lower_bound,
                             liouville_violation_sequence)
from gsh.numerics import TaggedReal, standard_liouville
from gsh.operator_model import (UNKNOWN_AT_BOUND, EvolutionOperator,
                                operator_from_json, operator_to_json)


def test_exact_floor_value():
    rep = dc_check(op_exact_floor())
    assert rep.status == HOLDS and rep.method == METHOD_EXACT and rep.exact
    assert rep.eps == Fraction(1, 30)
    assert rep.N == 0.0


def test_exact_floor_sweep():
    op = op_exact_floor()
    eps = float(dc_check(op).eps)
    worst = math.inf
    hits = 0
    for tau in range(-12, 13):
        for x1 in range(-12, 13):
            for x2 in range(-12, 13):
                sigma = op.symbol_L0(tau, (x1, x2), ())
                if sigma != 0:
                    worst = min(worst, abs(sigma))
                    hits += 1
    assert hits > 0
    assert worst >= eps - 1e-12


def test_exp_gap_against_mpmath():
    rng = np.random.default_rng(2)
    zs = [complex(rng.normal(), rng.normal()) for _ in range(10)]
    zs += [1e-9 + 1e-9j, -3.0 + 0.25j, 5.0 - 0.125j, 0.25j, 1e-12j + 1e-13]
    for z in zs:
        got = exp_gap_lower_bound(z)
        with mpmath.workdps(60):
            w = mpmath.mpc(z.real, z.imag)
            oracle = float(mpmath.log(abs(1 - mpmath.e ** (-2 * mpmath.pi * w))))
        assert got == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_non_liouville_qualitative_holds():
    rep = dc_check(op_sqrt2_hypoelliptic())
    assert rep.status == HOLDS and rep.method == METHOD_QUALITATIVE
    assert not rep.exact


def test_rational_constant_holds():
    assert dc_check(op_rational_constant()).status == HOLDS


def test_liouville_sequence_structure():
    seq = liouville_violation_sequence(op_liouville(), n_max=6)
    assert seq.recognized
    assert seq.direction["xi"] == [1]
    assert [int(a) for a in seq.direction["alpha"]] == [-1]
    for e in seq.entries:
        # certified bound sits below the super-polynomial decay curve
        assert e.log_abs_upper <= e.log_curve + 1e-9
        # the imaginary combination cancels exactly on the chosen modes
        assert e.xi[0] + e.alpha2[0] // 2 == 0


def test_liouville_sequence_certificate_oracle():
    # high-precision check: the actual symbol modulus at the emitted modes
    # is no larger than the certified log upper bound
    seq = liouville_violation_sequence(op_liouville(), n_max=5)
    with mpmath.workdps(900):
        mu = mpmath.mpf(0)
        for k in range(1, 8):
            mu += mpmath.mpf(10) ** (-mpmath.factorial(k))
        for e in seq.entries:
            # re = tau + mu*xi, im = xi + alpha (zero by construction)
            re = mpmath.mpf(e.tau) + mu * e.xi[0]
            assert abs(re) <= mpmath.e ** mpmath.mpf(e.log_abs_upper) * (1 + mpmath.mpf("1e-12"))


def test_liouville_dc_fails():
    rep = dc_check(op_liouville())
    assert rep.status == FAILS and rep.method == METHOD_SEQUENCE
    assert rep.witness is not None and len(rep.witness["entries"]) == 6


def test_two_irrational_keys_unknown():
    op = EvolutionOperator(
        2, 0,
        a=[TaggedReal.non_liouville(math.sqrt(2.0), key="sqrt2"),
           TaggedReal.non_liouville(math.sqrt(3.0), key="sqrt3")],
        b=[0, 0], e=[], f=[], q_re=0, q_im=0)
    rep = dc_check(op, bound=6)
    assert rep.status == UNKNOWN
    assert rep.sweep_min is not None and rep.sweep_min > 0


def test_an_undecided_zero_enters_the_sweep(tmp_path):
    # sqrt 8 = 2 sqrt 2 under its own key: sigma(0, (2k, -k)) is 0.0 in
    # floats and undecided exactly; the sweep used to skip those modes and
    # report a minimum of 0.071
    op = EvolutionOperator(
        2, 0,
        a=[TaggedReal.non_liouville(math.sqrt(2.0), key="A"),
           TaggedReal.non_liouville(math.sqrt(8.0), key="B")],
        b=[0, 0], e=[], f=[], q_re=0, q_im=0)
    path, out = tmp_path / "op.json", tmp_path / "out.json"
    path.write_text(json.dumps(operator_to_json(op)))
    assert cli.main(["--out", str(out), "check-dc", str(path)]) == cli.EXIT_UNKNOWN
    rep = json.loads(out.read_text())
    assert (rep["status"], rep["sweep_min"]) == (UNKNOWN, 0.0)
    assert cli.main(["--out", str(out), "classify", str(path)]) == cli.EXIT_UNKNOWN
    rep = json.loads(out.read_text())
    assert rep["GS"]["status"] == rep["GH"]["status"] == UNKNOWN_AT_BOUND


def test_liouville_sequence_keeps_the_rational_part(tmp_path):
    # a = 1/3 + mu: tau_n must cancel the 1/3 as well as the p_n / j_n
    obj = {"r": 1, "s": 0, "d": [], "q": {"re": "0", "im": "0"},
           "c": [{"re": {"coeffs": [{"freq": 0, "re_rational": "1/3", "im": "0",
                                     "re": {"tag": "liouville_standard",
                                            "approx": 0.11}}]},
                  "im": {"coeffs": []}}]}
    path, out = tmp_path / "op.json", tmp_path / "dc.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["--out", str(out), "check-dc", str(path)]) == cli.EXIT_OK
    rep = json.loads(out.read_text())
    assert (rep["status"], rep["method"]) == (FAILS, METHOD_SEQUENCE)
    certified = {e["n"]: e["log_abs_upper"] for e in rep["witness"]["entries"]}
    seq = liouville_violation_sequence(operator_from_json(obj))
    assert [e.n for e in seq.entries] == sorted(certified)
    # mu to within 2 * 10^-(N+1)!, far below every |sigma_n|, n <= N
    p, j = standard_liouville().emit(max(certified) + 1)
    for e in seq.entries:
        sigma = abs(e.tau + e.xi[0] * (Fraction(1, 3) + Fraction(p, j)))
        log_sigma = math.log(sigma.numerator) - math.log(sigma.denominator)
        assert log_sigma < certified[e.n]
