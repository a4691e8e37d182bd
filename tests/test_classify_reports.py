"""The full `gsh classify` reports of the reference operators, pinned.

``classify_reports.json`` holds status, clause and witness of GS and GH
for every operator of conftest.py, as the command line writes them; floats
are compared at a relative tolerance of 1e-9, everything else exactly.
"""

import json
from pathlib import Path

import pytest

import conftest
from gsh import cli
from gsh.operator_model import operator_to_json

PINNED = json.loads((Path(__file__).parent / "classify_reports.json").read_text())


def _same(got, want) -> bool:
    if isinstance(want, float):
        return isinstance(got, float) and got == pytest.approx(want, rel=1e-9)
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(map(_same, got, want)))
    return type(got) is type(want) and got == want


def test_every_reference_operator_is_pinned():
    assert sorted(PINNED) == sorted(n for n in dir(conftest) if n.startswith("op_"))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_classify_report(name, tmp_path):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(operator_to_json(getattr(conftest, name)())))
    out = tmp_path / "report.json"
    cli.main(["--out", str(out), "classify", str(path)])
    report = json.loads(out.read_text())
    assert _same(report, PINNED[name]), json.dumps(report, indent=1)
