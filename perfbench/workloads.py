"""The four workloads of the gsh benchmark.

Each set-up builds its inputs from the seed and returns the ops of one
pass.  An op calls one public entry point of gsh; its check is the
benchmark's own code (``checks``) and returns the reasons it failed.

- classify-mix: ``gsh.cli.main([... "classify", op.json])`` on the
  reference operators, seeded gauge variants and seeded narrow dips.  Runs
  every classifier module and no FFT; the narrow dips expose the sampled
  sign test.
- solve-resonant: ``global_solver.solve`` on op_oscillatory_solvable at
  criterion 04's settings, where all 10,647 modes are resonant: argmax
  pin, compatibility gate, refinement, residual near its 1e-8 gate.
- solve-nonresonant: the same solve on op_span1_hypoelliptic, where no
  mode is resonant, so u* is recovered exactly.
- transform-roundtrip: ``analyze_partial(synthesize(F))``, the only
  workload that runs fourier and harmonics; the sphere basis is built once
  by the warm-up op.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

BOUND = 6
# ROADMAP item 3: the integrating-factor solver loses accuracy with the
# mode bound; on op_oscillatory_solvable its residual is about the 1e-8
# gate at B = 6 (8.3e-9 to 1.7e-8 over seeds 1-20) and 2.6e-7 at B = 7.  A
# resonant residual above the gate up to this bound is that known defect.
RESONANT_KNOWN_RESIDUAL = 1e-7
# Workloads timed in plain wall time.  The kernel of run.Speed does not
# track a solve, whose working set is 1.7 GB; see perfbench/README.md.
UNSCALED = {"solve-resonant", "solve-nonresonant"}


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Bench:
    ops: list[Op]            # one pass, in run order
    warmup: Op
    digest: str              # of the generated inputs
    stats: dict = field(default_factory=dict)   # accuracy maxima from checks
    warmups: int = 1         # untimed runs of ``warmup`` in set-up


def classify_mix(seed: int, workdir: Path) -> Bench:
    from gsh import cli
    report = workdir / "report.json"

    def make(i, label, op_json, expected):
        known = inputs.DIP_KNOWN_DEFECT if label.startswith("dip:") \
            and expected[0][0] == "NO" else None
        path = workdir / f"op{i:03d}.json"
        path.write_text(json.dumps(op_json, sort_keys=True))
        argv = ["--out", str(report), "classify", str(path)]

        def check(code):
            reasons = checks.check_classify(code, report, expected, known)
            report.unlink(missing_ok=True)
            return reasons
        return Op(label, lambda: cli.main(argv), check)

    items = inputs.classify_inputs(seed)
    ops = [make(i, *item) for i, item in enumerate(items)]
    warm = next(op for op in ops if op.label == "oscillatory_solvable")
    return Bench(ops, warm, inputs.digest([it[:2] for it in items]))


def _field_digest(F) -> str:
    return inputs.digest([(m.xi, m.l2, m.alpha2, m.beta2) for m in F.table],
                         np.stack(list(F.table.values())))


def _solve(seed: int, name: str, unique: bool, bound: int,
           known_residual=None) -> Bench:
    from gsh import fourier, global_solver, operator_model
    op_json = inputs.GOLDEN[name]
    op = operator_model.operator_from_json(op_json)
    u_star = fourier.random_field(np.random.default_rng(seed), 1, 1, bound,
                                  nt=16, t_bandwidth=3)
    g = fourier.SpectralField(1, 1, bound, 256,
                              global_solver.apply_operator(op, u_star, nt=256).table)
    stats: dict = {}
    solve = Op(name, lambda: global_solver.solve(op, g),
               lambda rep: checks.check_solve(op_json, g, rep, stats,
                                              u_star if unique else None,
                                              known_residual))
    # The first two solves of a process fault in most of its 1.7 GB (over
    # 200,000 minor faults each, then about 15,000) and take 30-40% longer.
    return Bench([solve], solve, _field_digest(g), stats, warmups=2)


def solve_resonant(seed: int, workdir: Path, bound: int = BOUND) -> Bench:
    return _solve(seed, "oscillatory_solvable", False, bound, RESONANT_KNOWN_RESIDUAL)


def solve_nonresonant(seed: int, workdir: Path, bound: int = BOUND) -> Bench:
    return _solve(seed, "span1_hypoelliptic", True, bound)


def transform_roundtrip(seed: int, workdir: Path, bound: int = BOUND) -> Bench:
    from gsh import fourier
    F = fourier.random_field(np.random.default_rng(seed), 1, 1, bound,
                             nt=2 * bound + 1)
    stats: dict = {}
    op = Op("roundtrip", lambda: fourier.analyze_partial(fourier.synthesize(F)),
            lambda G: checks.check_roundtrip(F, G, stats))
    return Bench([op], op, _field_digest(F), stats)


WORKLOADS = {
    "classify-mix": classify_mix,
    "solve-resonant": solve_resonant,
    "solve-nonresonant": solve_nonresonant,
    "transform-roundtrip": transform_roundtrip,
}
