"""The demos run end to end in-process."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _run(name: str, capsys) -> str:
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


def test_solve_roundtrip(capsys):
    out = _run("solve_roundtrip.py", capsys)
    assert "ok=False, violations=1" in out


def test_counterexample_gallery(capsys):
    out = _run("counterexample_gallery.py", capsys)
    assert "== singular right-hand side" in out


def test_classify_gallery(capsys):
    out = _run("classify_gallery.py", capsys)
    assert out.count("== ") == 6
    assert "GS: YES via clause_iii" in out and "GS: NO  via CS" in out


def test_sublevel_geometry(capsys):
    out = _run("sublevel_geometry.py", capsys)
    assert "connected for every level: False" in out
    assert "splitting level m = 0.333333" in out
