"""Spans around calls into gsh's layers, recorded from the benchmark's side.

``Tracer.install`` rebinds every named callable wherever gsh binds it (a
function imported by name into another module is wrapped there too) and
``uninstall`` restores the originals.  A span records (name, start, end,
parent, op); spans stay in memory until the run writes them out.  Calls
made outside an op are passed through unrecorded, so the benchmark's own
checks never show up in a layer.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

SPAN, COUNT, FFT, TENSORDOT = "span", "count", "fft", "tensordot"

# (module, attribute path, how to record it); the span name drops the
# "gsh." prefix.  Callables that run thousands of times per op are counted
# rather than spanned.
TARGETS = [
    ("gsh.cli", "main", SPAN),
    ("gsh.cli", "_load_json", SPAN),
    ("gsh.operator_model", "operator_from_json", SPAN),
    ("gsh.operator_model", "classify", SPAN),
    ("gsh.operator_model", "structure_report", SPAN),
    ("gsh.operator_model", "zero_set", SPAN),
    ("gsh.operator_model", "detect_CS", SPAN),
    ("gsh.operator_model", "EvolutionOperator.inner_symbol", COUNT),
    ("gsh.operator_model", "EvolutionOperator.theta_osc", SPAN),
    ("gsh.operator_model", "EvolutionOperator.theta_mean", SPAN),
    ("gsh.diophantine", "dc_check", SPAN),
    ("gsh.sublevel", "connectedness_family", SPAN),
    ("gsh.numerics", "combine_tagged", COUNT),
    ("gsh.trigpoly", "changes_sign", SPAN),
    ("gsh.trigpoly", "real_root_isolation", SPAN),
    ("gsh.global_solver", "solve", SPAN),
    ("gsh.global_solver", "residual_sup", SPAN),
    ("gsh.global_solver", "apply_operator", SPAN),
    ("gsh.fourier", "synthesize", SPAN),
    ("gsh.fourier", "analyze_partial", SPAN),
    ("gsh.fourier", "SphereBasis", SPAN),
    ("gsh.harmonics", "legendre_P", COUNT),
    ("numpy.fft", "fft", FFT),
    ("numpy.fft", "ifft", FFT),
    ("numpy", "tensordot", TENSORDOT),
]


def span_name(module: str, path: str, kind: str) -> str:
    if kind == FFT:
        return "numpy.fft"
    return f"{module.removeprefix('gsh.')}.{path}"


def _fft_work(args, kwargs) -> tuple[int, float]:
    """(points, 5 n log2 n flops per transformed row) of an fft call."""
    a = args[0]
    shape = getattr(a, "shape", None) or (len(a),)
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    n = kwargs.get("n", args[1] if len(args) > 1 else None) or shape[axis]
    rows = math.prod(shape) // max(shape[axis], 1)
    return rows * n, 5.0 * n * math.log2(n) * rows if n > 1 else 0.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, op]
        self.counts: dict[tuple, float] = defaultdict(float)  # (op, key)
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.absent: list[str] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, op) -> None:
        self.op = op

    def end_op(self) -> None:
        self.op = None

    def _wrap(self, name: str, kind: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            if kind == COUNT:
                tracer.counts[op, name + ".calls"] += 1
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent, op]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if kind == FFT:
                points, flops = _fft_work(args, kwargs)
                tracer.counts[op, name + ".points"] += points
                tracer.counts[op, name + ".flops_computed"] += flops
            elif kind == TENSORDOT:
                tracer.counts[op, name + ".bytes_computed"] += \
                    args[0].nbytes + args[1].nbytes + out.nbytes
            return out
        return wrapper

    # -- binding -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is absent."""
        self.absent = []
        for module, path, kind in TARGETS:
            name = span_name(module, path, kind)
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{path}")
                continue
            if isinstance(original, type):
                # a class: span its construction
                init = original.__init__
                self._patch(original, "__init__", init, self._wrap(name, kind, init))
                continue
            wrapped = self._wrap(name, kind, original)
            if parents:
                self._patch(owner, attr, original, wrapped)
                continue
            for mod in [m for k, m in list(sys.modules.items())
                        if k == module or k.startswith("gsh.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- analysis ----------------------------------------------------------

    def to_json(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "op"],
                "spans": self.spans, "absent": self.absent,
                "counts": [[op, key, v] for (op, key), v in self.counts.items()]}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_totals(spans, counts, ops) -> dict[str, float]:
    """Per-op means over ``ops`` of each span name's time, self time and
    calls, plus the counters.  A span nested in a span of the same name
    adds to calls and self time but not again to time."""
    ops = set(ops)
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, op) in enumerate(spans):
        if op not in ops:
            continue
        totals[name + ".calls"] += 1
        totals[name + ".self_s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            totals[name + ".s"] += end - start
    for (op, key), v in counts.items():
        if op in ops:
            totals[key] += v
    n = max(len(ops), 1)
    return {k: v / n for k, v in totals.items()}
