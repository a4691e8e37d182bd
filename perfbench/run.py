"""Benchmark of gsh: speed, memory and accuracy on four seeded workloads.

    python3 perfbench/run.py --workload classify-mix --seed 1 --seconds 10 --trace 0

Run from the root of a source tree; gsh is imported from its ``src``.
One process runs one workload: set-up (gsh imported in three fresh
interpreters, seeded inputs built three times and compared byte for byte,
untimed warm-up ops), then whole
passes over the workload's ops until the ops have taken ``--seconds``.
Every op's output is checked by the benchmark's own code; an op that
raises or gives a wrong output is counted as failed and the run goes on,
unless its only fault is a defect that a ROADMAP item documents
(``checks.KnownDefect``): such an op is counted and printed apart.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` the run measures an untraced and then a traced phase
and reports the per-layer metrics and the tracing overhead.  Result files
and spans go to ``perfbench/out``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
# Imports gsh in a fresh interpreter and prints how long that took.
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import gsh.cli, gsh.fourier, gsh.global_solver; "
                "print(time.perf_counter() - t)")
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SPEED_REF_S = 0.006        # speed-kernel time at the reference speed
SPEED_EVERY_S = 0.5        # of op time between speed samples
SPEED_SHARE = 0.1          # of the time between samples spent sampling

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
              ("peak_rss_mb", "MB")]

# Per-op means over the traced phase, except the set-up totals below.
PER_LAYER = [
    ("operator_model.classify.s", "s/op"),
    ("operator_model.operator_from_json.s", "s/op"),
    ("cli.self_s", "s/op"),
    ("operator_model.structure_report.s", "s/op"),
    ("diophantine.dc_check.s", "s/op"),
    ("diophantine.dc_check.calls", "calls/op"),
    ("operator_model.zero_set.s", "s/op"),
    ("operator_model.zero_set.calls", "calls/op"),
    ("operator_model.detect_CS.s", "s/op"),
    ("sublevel.connectedness_family.s", "s/op"),
    ("numerics.combine_tagged.calls", "calls/op"),
    ("operator_model.EvolutionOperator.inner_symbol.calls", "calls/op"),
    ("trigpoly.changes_sign.calls", "calls/op"),
    ("trigpoly.changes_sign.s", "s/op"),
    ("trigpoly.real_root_isolation.calls", "calls/op"),
    ("trigpoly.real_root_isolation.s", "s/op"),
    ("global_solver.solve.s", "s/op"),
    ("global_solver.solve.self_s", "s/op"),
    ("global_solver.residual_sup.s", "s/op"),
    ("global_solver.apply_operator.calls", "calls/op"),
    ("global_solver.apply_operator.s", "s/op"),
    ("operator_model.EvolutionOperator.theta_osc.calls", "calls/op"),
    ("operator_model.EvolutionOperator.theta_osc.s", "s/op"),
    ("operator_model.EvolutionOperator.theta_mean.calls", "calls/op"),
    ("operator_model.EvolutionOperator.theta_mean.s", "s/op"),
    ("numpy.fft.calls", "calls/op"),
    ("numpy.fft.s", "s/op"),
    ("numpy.fft.points", "points/op"),
    ("numpy.fft.flops_computed", "flop/op"),
    ("global_solver.solution_nt", "points"),
    ("fourier.synthesize.s", "s/op"),
    ("fourier.synthesize.self_s", "s/op"),
    ("fourier.analyze_partial.s", "s/op"),
    ("fourier.analyze_partial.self_s", "s/op"),
    ("numpy.tensordot.calls", "calls/op"),
    ("numpy.tensordot.s", "s/op"),
    ("numpy.tensordot.bytes_computed", "B/op"),
    ("fourier.SphereBasis.s", "s"),
    ("harmonics.legendre_P.calls", "count"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.ops_per_s_ratio", "ratio"),
]
SETUP_LAYER = {"fourier.SphereBasis.s", "harmonics.legendre_P.calls"}
ALIASES = {"cli.self_s": "cli.main.self_s"}


class Speed:
    """The machine's speed, sampled through the run with a fixed kernel.

    The host is shared, and its speed drifts by tens of percent within
    seconds and between minutes, alike for Python and numpy code.  The
    kernel does exact-rational arithmetic, like the classifier, and
    complex row FFTs, like the transforms.  A time divided by ``factor``
    over its interval reads at the reference speed, so runs made at
    different moments compare.

    An unscaled Speed samples nothing and has a factor of 1, so times
    stay wall times; see ``workloads.UNSCALED``.
    """

    def __init__(self, scaled: bool = True):
        self.scaled = scaled
        self.points: list[tuple[float, float]] = []  # (time, kernel time)
        if not scaled:
            return
        import numpy as np
        from numpy.fft import fft, ifft   # bound before a tracer wraps numpy
        self._fft, self._ifft = fft, ifft
        self._x = np.exp(1j * 0.001 * np.arange(512 * 512)).reshape(512, 512)
        self.sample()   # the first calls fault in pages and plan the FFT
        self.points.clear()

    def sample(self) -> None:
        """Run the kernel for SPEED_SHARE of the time since the last sample,
        and at least five times; record its mean time."""
        if not self.scaled:
            return
        start = time.perf_counter()
        budget = SPEED_SHARE * (start - self.points[-1][0]) if self.points else 0.0
        reps = []
        while len(reps) < 5 or time.perf_counter() - start < budget:
            t = time.perf_counter()
            acc = Fraction(0)
            for i in range(1, 400):
                acc = (acc + Fraction(i % 7, i % 5 + 1)) / 2
            self._ifft(self._fft(self._x, axis=1), axis=1)
            reps.append(time.perf_counter() - t)
        self.points.append((time.perf_counter(), statistics.mean(reps)))

    def factor(self, start: float, end: float) -> float:
        """Kernel time over SPEED_REF_S, from the samples just before
        ``start`` and just after ``end``."""
        if not self.scaled:
            return 1.0
        times = [p[0] for p in self.points]
        around = {bisect.bisect_right(times, start) - 1, bisect.bisect_left(times, end)}
        kernel = [self.points[i][1] for i in around if 0 <= i < len(times)]
        return statistics.mean(kernel) / SPEED_REF_S

    def median_factor(self) -> float:
        """The run's median kernel time over SPEED_REF_S: steadier than
        ``factor`` for an interval as short as a set-up."""
        if not self.scaled:
            return 1.0
        return statistics.median(p[1] for p in self.points) / SPEED_REF_S


@dataclass
class Phase:
    raw: list[float] = field(default_factory=list)       # op wall times
    spans: list[tuple[float, float]] = field(default_factory=list)
    failures: list[tuple[str, list[str]]] = field(default_factory=list)
    known: list[tuple[str, list[str]]] = field(default_factory=list)
    times: list[float] = field(default_factory=list)     # divided by the speed factor

    @property
    def ops_per_s(self) -> float:
        return len(self.times) / sum(self.times)


def measure(ops, seconds: float, speed: Speed, tracer=None) -> Phase:
    """Whole passes over ``ops`` until the ops have taken ``seconds``,
    sampling ``speed`` after every SPEED_EVERY_S of op time."""
    from checks import KnownDefect
    phase = Phase()
    since = SPEED_EVERY_S
    while True:
        for op in ops:
            if since >= SPEED_EVERY_S:
                speed.sample()
                since = 0.0
            gc.collect()
            if tracer:
                tracer.begin_op(len(phase.raw))
            t = time.perf_counter()
            try:
                out, err = op.run(), None
            except (Exception, SystemExit) as exc:  # a failed op, not a failed run
                out, err = None, exc
            end = time.perf_counter()
            if tracer:
                tracer.end_op()
            phase.raw.append(end - t)
            phase.spans.append((t, end))
            since += end - t
            reasons = [f"raised {type(err).__name__}: {err}"] if err else op.check(out)
            if reasons and all(isinstance(r, KnownDefect) for r in reasons):
                phase.known.append((op.label, reasons))
            elif reasons:
                phase.failures.append((op.label, reasons))
            del out
        if sum(phase.raw) >= seconds:
            speed.sample()
            phase.times = [dt / speed.factor(s, e)
                           for dt, (s, e) in zip(phase.raw, phase.spans)]
            return phase


def p90(times):
    """90th percentile, defined when at least ten samples lie beyond it."""
    return statistics.quantiles(times, n=10)[8] if len(times) >= 100 else None


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "seed": seed}


def layer_metrics(tracer, phase: Phase, untraced: Phase, stats: dict,
                  setup_factor: float) -> dict:
    """Every PER_LAYER metric, times at the reference speed."""
    import tracing
    per_op = tracing.layer_totals(tracer.spans, tracer.counts, range(len(phase.raw)))
    setup = tracing.layer_totals(tracer.spans, tracer.counts, ["setup"])
    direct = {"global_solver.solution_nt": stats.get("solution_nt", 0),
              "trace.ops_per_s": phase.ops_per_s,
              "trace.untraced_ops_per_s": untraced.ops_per_s,
              "trace.ops_per_s_ratio": phase.ops_per_s / untraced.ops_per_s}
    factor = sum(phase.raw) / sum(phase.times)
    values = {}
    for name, unit in PER_LAYER:
        if name in direct:
            values[name] = direct[name]
        elif name in SETUP_LAYER:
            value = setup.get(name, 0.0)
            values[name] = value / setup_factor if unit == "s" else value
        else:
            value = per_op.get(ALIASES.get(name, name), 0.0)
            values[name] = value / factor if unit == "s/op" else value
    return values


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[
        "classify-mix", "solve-resonant", "solve-nonresonant", "transform-roundtrip"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gsh" / "__init__.py").is_file():
        print(f"perfbench: no gsh sources at {SRC}; run from a gsh source tree",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:       # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import gsh
    import gsh.cli  # noqa: F401
    import gsh.fourier  # noqa: F401
    import gsh.global_solver  # noqa: F401
    import tracing
    import workloads
    if Path(gsh.__file__).resolve().parent != SRC / "gsh":
        print(f"perfbench: imported gsh from {gsh.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    speed = Speed(scaled=args.workload not in workloads.UNSCALED)
    speed.sample()
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_start = time.perf_counter()
        import_s = statistics.median(float(subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
            text=True, check=True, timeout=120).stdout) for _ in range(SETUP_REPEATS))
        gen_s, digests = [], []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            bench = workloads.WORKLOADS[args.workload](args.seed, workdir)
            gen_s.append(time.perf_counter() - t)
            digests.append(bench.digest)
        if tracer:
            tracer.install()
            tracer.begin_op("setup")
        t = time.perf_counter()
        for _ in range(bench.warmups):
            bench.warmup.run()
        setup_end = time.perf_counter()
        warm_s = setup_end - t
        if tracer:
            tracer.end_op()
            tracer.uninstall()
        raw_setup_s = import_s + statistics.median(gen_s) + warm_s

        phases = [measure(bench.ops, args.seconds, speed)]
        if tracer:
            tracer.install()
            phases.append(measure(bench.ops, args.seconds, speed, tracer))
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = phases[0]
    setup_factor = speed.median_factor()
    attempted = sum(len(p.raw) for p in phases)
    failed = sum(len(p.failures) for p in phases)
    known = sum(len(p.known) for p in phases)
    report = {
        "setup_s": raw_setup_s / setup_factor, "ops_per_s": untraced.ops_per_s,
        "op_p50_s": statistics.median(untraced.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p90_s": p90(untraced.times), "fail_frac": (failed + known) / attempted,
        "known_defect_frac": known / attempted,
        **bench.stats,
    }
    raw = {"setup_s": raw_setup_s, "ops_per_s": len(untraced.raw) / sum(untraced.raw),
           "op_p50_s": statistics.median(untraced.raw)}
    env = environment(args.seed)
    print("environment: " + json.dumps(env))
    if speed.scaled:
        print(f"speed: {len(speed.points)} kernel samples; times below are at the"
              " reference speed; raw wall times: "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    else:
        print("speed: not scaled; times below are wall times")
    print(f"set-up: import {import_s:.3f} s, inputs {statistics.median(gen_s):.3f} s"
          f" (medians of {SETUP_REPEATS}), {bench.warmups} warm-up op(s) {warm_s:.3f} s (wall)")
    print(f"ops: {len(untraced.raw)} timed, {attempted} attempted, {failed} failed,"
          f" {known} wrong by a known defect only")
    for label, reasons in sum((p.failures for p in phases), []):
        print(f"  failed {label}: {'; '.join(reasons)}")
    for label, reasons in sum((p.known for p in phases), []):
        print(f"  known defect {label}: {'; '.join(reasons)}")
    units = dict(END_TO_END, op_p90_s="s", fail_frac="ratio",
                 known_defect_frac="ratio", residual_sup_max="1",
                 recovery_err_max="1", roundtrip_err_max="1", solution_nt="points")
    for name, value in report.items():
        shown = "n/a (fewer than 100 ops)" if value is None else f"{value:.6g} {units[name]}"
        print(f"{name}: {shown}")

    result = {"workload": args.workload, "trace": args.trace, "environment": env,
              "inputs_digest": digests[0], "report": report, "raw": raw,
              "setup_span": [setup_start, setup_end], "speed_points": speed.points,
              "op_times": untraced.times, "op_raw": untraced.raw,
              "op_spans": untraced.spans, "failures": untraced.failures,
              "known_defects": untraced.known}
    if tracer:
        metrics = layer_metrics(tracer, phases[1], untraced, bench.stats, setup_factor)
        units = dict(PER_LAYER)
        if tracer.absent:
            print("absent (reported as 0): " + ", ".join(tracer.absent))
        for name, value in metrics.items():
            print(f"{name}: {value:.6g} {units[name]}")
        result.update(layer=metrics, absent=tracer.absent)
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.to_json()))
    else:
        metrics, units = {k: report[k] for k, _ in END_TO_END}, dict(END_TO_END)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result))
    print(json.dumps({
        "correct": len(set(digests)) == 1, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
