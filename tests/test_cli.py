"""End-to-end command-line behavior and exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import (mode_residual, odd_length_case, odd_length_u,
                      op_disconnected_sublevel, op_exact_floor, op_liouville,
                      op_neutral_rotation, op_oscillatory_solvable,
                      op_rational_constant, op_sign_change_witness,
                      trig_interpolant)
from gsh import cli, global_solver
from gsh.fourier import ModeIndex, SpectralField, random_field
from gsh.operator_model import operator_to_json

TWO_PI = 2.0 * math.pi


def _write_op(tmp_path, op, name="op.json"):
    path = tmp_path / name
    path.write_text(json.dumps(operator_to_json(op)))
    return str(path)


def test_classify_json_output(tmp_path, capsys):
    path = _write_op(tmp_path, op_rational_constant())
    code = cli.main(["classify", path])
    assert code == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["GS"]["status"] == "YES"
    assert report["GS"]["clause"] == "clause_i"
    assert report["GH"]["status"] == "NO"


def test_classify_text_format_and_out_file(tmp_path):
    path = _write_op(tmp_path, op_rational_constant())
    out = tmp_path / "report.txt"
    code = cli.main(["--format", "text", "--out", str(out), "classify", path])
    assert code == cli.EXIT_OK
    text = out.read_text()
    assert "GS.status: YES" in text


def test_classify_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["classify", str(bad)]) == cli.EXIT_INPUT
    assert cli.main(["classify", str(tmp_path / "missing.json")]) == cli.EXIT_INPUT


def test_solve_round_trip(tmp_path, capsys):
    op = op_oscillatory_solvable()
    u = random_field(np.random.default_rng(0), 1, 1, 2, nt=16, t_bandwidth=2)
    g = global_solver.apply_operator(op, u, nt=128)
    g = SpectralField(1, 1, 2, 128, g.table)
    op_path = _write_op(tmp_path, op)
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps(g.to_json()))
    sol_path = tmp_path / "u.json"
    code = cli.main(["solve", op_path, str(g_path),
                     "--solution-out", str(sol_path)])
    assert code == cli.EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "SOLVED"
    assert rep["residual_sup"] < 1e-8
    back = SpectralField.from_json(json.loads(sol_path.read_text()))
    assert back.table


def test_solve_odd_length_field(tmp_path, capsys):
    # an odd nt used to be solved wrong while the report said SOLVED with
    # a residual of 7e-15
    op, mode, _, g = odd_length_case()
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps(g.to_json()))
    sol_path = tmp_path / "u.json"
    code = cli.main(["solve", _write_op(tmp_path, op), str(g_path),
                     "--solution-out", str(sol_path)])
    assert code == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["residual_sup"] < 1e-10
    u = SpectralField.from_json(json.loads(sol_path.read_text())).get(mode)
    t = np.linspace(0.0, TWO_PI, 97)
    assert np.abs(trig_interpolant(u, t) - odd_length_u(t)).max() < 1e-12
    assert mode_residual(op, mode, u, g.get(mode), t) < 1e-10


def test_solve_membership_failure(tmp_path, capsys):
    op = op_oscillatory_solvable()
    nt = 16
    ts = TWO_PI * np.arange(nt) / nt
    g = SpectralField(1, 1, 1, nt)
    g.set(ModeIndex(xi=(0,), l2=(0,), alpha2=(0,), beta2=(0,)),
          np.exp(-3j * ts))
    op_path = _write_op(tmp_path, op)
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps(g.to_json()))
    code = cli.main(["solve", op_path, str(g_path)])
    assert code == cli.EXIT_MEMBERSHIP
    assert json.loads(capsys.readouterr().out)["status"] == "UNSOLVABLE"


@pytest.mark.parametrize("field_r", [0, 2])
def test_solve_rejects_a_field_of_other_torus_dimension(tmp_path, capsys,
                                                         field_r):
    # r = 2 used to drop the second torus frequency and report SOLVED;
    # r = 0 used to raise IndexError
    op_path = _write_op(tmp_path, op_rational_constant())  # r = 1, s = 1
    g = random_field(np.random.default_rng(0), field_r, 1, 1, nt=16,
                     t_bandwidth=1)
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps(g.to_json()))
    assert cli.main(["solve", op_path, str(g_path)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert f"r = {field_r}" in captured.err


def test_solve_rejects_a_mode_index_of_wrong_length(tmp_path, capsys):
    op_path = _write_op(tmp_path, op_rational_constant())
    g = SpectralField(1, 1, 1, 16)
    g.set(ModeIndex(xi=(0,), l2=(0,), alpha2=(0,), beta2=(0,)), 1.0)
    obj = g.to_json()
    obj["modes"][0]["xi"] = [0, 1]
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps(obj))
    assert cli.main(["solve", op_path, str(g_path)]) == cli.EXIT_INPUT
    assert "does not fit r = 1, s = 1" in capsys.readouterr().err


def test_check_dc_exit_codes(tmp_path, capsys):
    assert cli.main(["check-dc", _write_op(tmp_path, op_exact_floor())]) \
        == cli.EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "HOLDS" and rep["eps"] == "1/30"
    assert cli.main(["check-dc", _write_op(tmp_path, op_liouville())]) \
        == cli.EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "FAILS"


def test_sublevel_witness(tmp_path, capsys):
    path = _write_op(tmp_path, op_disconnected_sublevel())
    code = cli.main(["--bound", "8", "sublevel", path])
    assert code == cli.EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "DISCONNECTED"
    assert rep["xi"] == [0] and rep["alpha"] == ["1"]
    assert rep["m_witness"] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_counterexample_kinds(tmp_path, capsys):
    cs_path = _write_op(tmp_path, op_sign_change_witness(), "cs.json")
    assert cli.main(["counterexample", cs_path, "--kind", "cs"]) == cli.EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["kind"] == "cs" and rep["g_decay"] == "RAPID_DECAY"

    dc_path = _write_op(tmp_path, op_liouville(), "dc.json")
    assert cli.main(["counterexample", dc_path, "--kind", "dc"]) == cli.EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["u_decay"] == "SUPRAPOLYNOMIAL"

    k_path = _write_op(tmp_path, op_neutral_rotation(), "k.json")
    assert cli.main(["counterexample", k_path, "--kind", "kernel"]) == cli.EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["infinite_ladder"] and rep["count"] > 0

    h_path = _write_op(tmp_path, op_disconnected_sublevel(), "h.json")
    assert cli.main(["--bound", "8", "counterexample", h_path,
                     "--kind", "hormander"]) == cli.EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["omega"] < 0

    # a kind with no available witness is an input error
    assert cli.main(["counterexample", cs_path, "--kind", "dc"]) \
        == cli.EXIT_INPUT


def test_transform_round_trip(tmp_path, capsys):
    path = _write_op(tmp_path, op_oscillatory_solvable())
    assert cli.main(["transform", path]) == cli.EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert "operator" in rep and "phase_primitives" in rep
    from gsh.operator_model import operator_from_json
    tilde = operator_from_json(rep["operator"])
    assert tilde.a[0].poly.is_constant()


def test_console_entry_point(tmp_path):
    path = _write_op(tmp_path, op_rational_constant())
    proc = subprocess.run([sys.executable, "-m", "gsh.cli", "classify", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["GS"]["status"] == "YES"
