"""Tests of the benchmark's own machinery, at tiny mode bounds."""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_generators_are_deterministic(tmp_path):
    one = inputs.digest([it[:2] for it in inputs.classify_inputs(5)])
    assert one == inputs.digest([it[:2] for it in inputs.classify_inputs(5)])
    assert one != inputs.digest([it[:2] for it in inputs.classify_inputs(6)])
    for make in (workloads.solve_resonant, workloads.transform_roundtrip):
        assert make(5, tmp_path, bound=1).digest == make(5, tmp_path, bound=1).digest
        assert make(5, tmp_path, bound=1).digest != make(6, tmp_path, bound=1).digest
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        workloads.classify_mix(5, tmp_path / d)

    def files(d):
        return sorted((p.name, p.read_bytes()) for p in (tmp_path / d).iterdir())
    assert files("a") == files("b")


def test_narrow_dip_labels_follow_the_minimum_of_b():
    dips = [it for it in inputs.classify_inputs(2) if it[0].startswith("dip:")]
    assert sum(1 for _, _, (gs, _) in dips if gs[0] == "NO") == len(dips) // 2
    for label, op, (gs, gh) in dips:
        _, pqh, delta = label.split(":")
        p, q, h = map(int, pqh.split(","))
        delta = float(Fraction(delta))
        t_min = math.atan2(q, p)
        ts = np.append(2 * math.pi * np.arange(4096) / 4096, t_min)
        b = -checks.Theta(op, ts).c[0].real          # theta = i a - b, a = 0
        assert abs(b[-1] + delta) < 1e-12 and b.min() > -delta - 1e-12
        assert (gs[0] == "NO") == (delta > 0) and gh[0] == gs[0]


def test_gauge_variant_keeps_means_and_imaginary_parts():
    rng = np.random.default_rng(0)
    for name, op in inputs.GOLDEN.items():
        var = inputs.gauge_variant(op, rng)
        assert var["q"] == op["q"]
        for key in ("c", "d"):
            for p0, p1 in zip(op[key], var[key]):
                assert p0["im"] == p1["im"]
                c0, off0 = checks._coef_fn(p0["re"])
                c1, off1 = checks._coef_fn(p1["re"])
                assert off0 == off1 and c0.get(0, 0) == c1.get(0, 0)
                assert max(abs(k) for k in c1) <= max(3, max(map(abs, c0), default=0))


@pytest.mark.parametrize("make, unique", [(workloads.solve_resonant, False),
                                          (workloads.solve_nonresonant, True)])
def test_solution_perturbed_by_1e_6_fails(tmp_path, make, unique):
    bench = make(3, tmp_path, bound=1)
    op = bench.ops[0]
    rep = op.run()
    assert op.check(rep) == []
    assert bench.stats["residual_sup_max"] < checks.RESIDUAL_TOL
    mode = next(iter(rep.solution.table))
    rep.solution.table[mode] = rep.solution.table[mode] + 1e-6
    reasons = op.check(rep)
    assert any(r.startswith("residual") for r in reasons)
    assert any(r.startswith("recovery") for r in reasons) == unique


def test_roundtrip_error_fails(tmp_path):
    bench = workloads.transform_roundtrip(3, tmp_path, bound=1)
    op = bench.ops[0]
    G = op.run()
    assert op.check(G) == []
    mode = next(iter(G.table))
    G.table[mode] = G.table[mode] + 1e-9
    assert op.check(G) and bench.stats["roundtrip_err_max"] > checks.ROUNDTRIP_TOL


def test_wrong_verdict_and_exception_are_counted_not_raised(tmp_path):
    from gsh import cli
    path = tmp_path / "op.json"
    path.write_text(json.dumps(inputs.FIXTURES["sign_change_witness"]))
    report = tmp_path / "report.json"
    argv = ["--out", str(report), "classify", str(path)]
    right, wrong = inputs.REFERENCE["sign_change_witness"], (("YES", None), ("NO", None))

    def boom():
        raise ValueError("no answer")
    ops = [workloads.Op("right", lambda: cli.main(argv),
                        lambda code: checks.check_classify(code, report, right)),
           workloads.Op("wrong", lambda: cli.main(argv),
                        lambda code: checks.check_classify(code, report, wrong)),
           workloads.Op("raises", boom, lambda out: [])]
    phase = run.measure(ops, 0, run.Speed())
    assert len(phase.times) == 3
    assert [label for label, _ in phase.failures] == ["wrong", "raises"]
    assert phase.failures[0][1] == ["GS NO/CS != YES/*"]
    assert checks.check_classify(3, report, right) == ["exit code 3"]


def test_known_defect_is_counted_apart_and_nothing_else_is(tmp_path):
    report = tmp_path / "report.json"
    expected = (("NO", None), ("NO", None))

    def write(status, clause):
        report.write_text(json.dumps({p: {"property": p, "status": status,
                                          "clause": clause} for p in ("GS", "GH")}))
    write("YES", "clause_ii")
    reasons = checks.check_classify(0, report, expected, inputs.DIP_KNOWN_DEFECT)
    assert len(reasons) == 2 and all(isinstance(r, checks.KnownDefect) for r in reasons)
    assert not any(isinstance(r, checks.KnownDefect)
                   for r in checks.check_classify(0, report, expected))
    write("YES", "clause_i")
    reasons = checks.check_classify(0, report, expected, inputs.DIP_KNOWN_DEFECT)
    assert reasons and not any(isinstance(r, checks.KnownDefect) for r in reasons)

    ops = [workloads.Op("known", lambda: 0, lambda out: [checks.KnownDefect("k")]),
           workloads.Op("mixed", lambda: 0,
                        lambda out: [checks.KnownDefect("k"), "other"])]
    phase = run.measure(ops, 0, run.Speed())
    assert [label for label, _ in phase.known] == ["known"]
    assert [label for label, _ in phase.failures] == ["mixed"]


def test_resonant_residual_is_a_known_defect_only_up_to_its_bound(tmp_path,
                                                                 monkeypatch):
    def reason(bound):
        monkeypatch.setattr(workloads, "RESONANT_KNOWN_RESIDUAL", bound)
        bench = workloads.solve_resonant(3, tmp_path, bound=1)
        rep = bench.ops[0].run()
        mode = next(iter(rep.solution.table))
        rep.solution.table[mode] = rep.solution.table[mode] + 1e-6
        [why] = bench.ops[0].check(rep)
        return why, bench.stats["residual_sup_max"]
    why, res = reason(None)
    assert why.startswith("residual") and not isinstance(why, checks.KnownDefect)
    assert isinstance(reason(2 * res)[0], checks.KnownDefect)
    assert not isinstance(reason(res / 2)[0], checks.KnownDefect)


def test_speed_factor_uses_the_samples_around_an_interval():
    speed = run.Speed()
    ref = run.SPEED_REF_S
    speed.points = [(1.0, ref), (2.0, 3 * ref), (5.0, 2 * ref)]
    assert speed.factor(1.5, 1.8) == 2.0     # between the first two samples
    assert speed.factor(2.5, 4.0) == 2.5     # between the last two
    assert speed.factor(6.0, 7.0) == 2.0     # after the last sample
    assert speed.median_factor() == 2.0
    speed.points = []
    speed.sample()
    speed.sample()
    assert len(speed.points) == 2 and speed.points[0][0] < speed.points[1][0]
    wall = run.Speed(scaled=False)
    wall.sample()
    assert wall.points == [] and wall.factor(0.0, 1.0) == 1.0


def test_self_time_subtracts_the_children():
    spans = [["root", 0.0, 10.0, -1, 0],
             ["a", 1.0, 4.0, 0, 0],
             ["leaf", 2.0, 3.0, 1, 0],
             ["b", 5.0, 6.0, 0, 0],
             ["a", 6.5, 9.0, 0, 0],
             ["a", 7.0, 8.0, 4, 0],        # recursive call of a
             ["root", 20.0, 21.0, -1, 1]]  # another op
    assert tracing.self_times(spans) == [3.5, 2.0, 1.0, 1.0, 1.5, 1.0, 1.0]
    totals = tracing.layer_totals(spans, {(0, "c.calls"): 4.0}, [0])
    assert totals["root.s"] == 10.0 and totals["root.self_s"] == 3.5
    assert totals["a.calls"] == 3 and totals["a.s"] == 5.5
    assert totals["a.self_s"] == 4.5 and totals["c.calls"] == 4.0
    assert tracing.layer_totals(spans, {}, [0, 1])["root.s"] == 5.5


def test_tracer_wraps_every_binding_and_restores_them(monkeypatch):
    from gsh import operator_model, trigpoly
    original = trigpoly.changes_sign
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("gsh.trigpoly", "no_such_function", tracing.SPAN)])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert trigpoly.changes_sign is not original
        assert operator_model.changes_sign is trigpoly.changes_sign
        assert tracer.absent == ["gsh.trigpoly.no_such_function"]
        poly = trigpoly.TrigPoly.sin(1)
        trigpoly.changes_sign(poly)             # outside an op: not recorded
        tracer.begin_op(0)
        operator_model.changes_sign(poly)
        np.fft.fft(np.zeros((3, 8)), axis=1)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert trigpoly.changes_sign is original and operator_model.changes_sign is original
    totals = tracing.layer_totals(tracer.spans, tracer.counts, [0])
    assert totals["trigpoly.changes_sign.calls"] == 1
    assert totals["numpy.fft.points"] == 24
    assert totals["numpy.fft.flops_computed"] == 3 * 5 * 8 * 3


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
