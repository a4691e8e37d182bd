"""Command-line interface.

Subcommands: classify, solve, check-dc, sublevel, counterexample,
transform.  Operators and right-hand sides are JSON files; reports are
emitted as JSON or text.  Exit codes: 0 decided/succeeded, 2 input
error, 3 undecided at the search bound, 4 compatibility (membership)
failure, 5 the solve's residual check failed or an internal error (any
other exception, reported as one ``internal error:`` line on stderr).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from fractions import Fraction

import numpy as np

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNKNOWN = 3
EXIT_MEMBERSHIP = 4
EXIT_VERIFICATION = 5
EXIT_INTERNAL = 5

log = logging.getLogger("gsh")


def _setup_logging() -> None:
    level = os.environ.get("GSH_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit_(EXIT_INPUT, f"cannot read {path}: {exc}")


class SystemExit_(Exception):
    def __init__(self, code: int, message: str = ""):
        super().__init__(message)
        self.code = code
        self.message = message


def _load_operator(path: str):
    from .operator_model import operator_from_json
    obj = _load_json(path)
    try:
        return operator_from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise SystemExit_(EXIT_INPUT, f"invalid operator file {path}: {exc}")


def _load_field(path: str, op):
    from .fourier import SpectralField
    obj = _load_json(path)
    try:
        g = SpectralField.from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise SystemExit_(EXIT_INPUT, f"invalid field file {path}: {exc}")
    if (g.r, g.s) != (op.r, op.s):
        raise SystemExit_(EXIT_INPUT,
                          f"field {path} has r = {g.r}, s = {g.s}; the "
                          f"operator has r = {op.r}, s = {op.s}")
    return g


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2, default=_json_default)
    else:
        lines = []
        _flatten(report, "", lines)
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return repr(obj)


def _flatten(obj, prefix: str, lines: list) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}{k}.", lines)
    elif isinstance(obj, (list, tuple)) and obj and isinstance(obj[0], (dict, list, tuple)):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}{i}.", lines)
    else:
        val = json.dumps(obj, default=_json_default) if not isinstance(obj, str) else obj
        lines.append(f"{prefix[:-1]}: {val}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_classify(args) -> int:
    from .operator_model import UNKNOWN_AT_BOUND, classify
    op = _load_operator(args.operator)
    gs, gh = classify(op, bound=args.bound)
    report = {"GS": gs.to_json(), "GH": gh.to_json()}
    _emit(report, args)
    if UNKNOWN_AT_BOUND in (gs.status, gh.status):
        return EXIT_UNKNOWN
    return EXIT_OK


def _cmd_solve(args) -> int:
    from . import global_solver
    from .ode_solver import ModeUnsolvable
    op = _load_operator(args.operator)
    g = _load_field(args.rhs, op)
    try:
        rep = global_solver.solve(op, g, tol=args.tolerance)
    except ModeUnsolvable as exc:
        _emit({"status": "UNSOLVABLE",
               "compatibility": abs(exc.compatibility)}, args)
        return EXIT_MEMBERSHIP
    report = {"status": "SOLVED", "residual_bound": rep.residual_bound,
              "mode_count": rep.mode_count,
              "resonant_modes": len(rep.resonant_modes),
              "strategy": rep.strategy, "sup_ratio": rep.sup_ratio}
    if args.solution_out:
        with open(args.solution_out, "w") as fh:
            json.dump(rep.solution.to_json(), fh)
        report["solution_file"] = args.solution_out
    _emit(report, args)
    if rep.residual_bound > max(args.tolerance, 1e-12) * 100:
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_check_dc(args) -> int:
    from . import diophantine
    op = _load_operator(args.operator)
    rep = diophantine.dc_check(op, bound=args.bound)
    _emit(rep.summary(), args)
    if rep.status == diophantine.UNKNOWN:
        return EXIT_UNKNOWN
    return EXIT_OK


def _cmd_sublevel(args) -> int:
    from . import sublevel as sl
    op = _load_operator(args.operator)
    rep = sl.connectedness_family(op, bound=args.bound)
    out = {"status": rep.status, "exact": rep.exact, "bound": rep.bound}
    if rep.status == sl.DISCONNECTED:
        out.update({"xi": list(rep.xi),
                    "alpha": [str(Fraction(a, 2)) for a in rep.alpha2],
                    "m_witness": rep.m_witness,
                    "arcs": [list(a) for a in rep.arcs]})
    _emit(out, args)
    if rep.status == sl.UNKNOWN_AT_BOUND:
        return EXIT_UNKNOWN
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    from . import adversarial
    from .operator_model import detect_CS
    op = _load_operator(args.operator)
    if args.kind == "cs":
        witness = detect_CS(op, search_bound=min(args.bound, 6))
        if witness is None:
            raise SystemExit_(EXIT_INPUT,
                              "no sign-change witness direction found")
        rep = adversarial.cs_singular_rhs(op, witness[0], witness[1])
        _emit({"kind": "cs", "xi": list(rep.xi),
               "alpha": [str(Fraction(a, 2)) for a in rep.alpha2],
               "A": rep.A, "s0": rep.s0, "t0": rep.t0,
               "g_decay": rep.g_decay.kind,
               "u_t0_exponent": rep.u_t0_exponent,
               "entries": [vars(e) for e in rep.entries]}, args)
        return EXIT_OK
    if args.kind == "hormander":
        from . import sublevel as sl
        fam = sl.connectedness_family(op, bound=args.bound)
        if fam.status != sl.DISCONNECTED:
            raise SystemExit_(EXIT_INPUT,
                              "no disconnected sublevel direction found")
        rep = adversarial.hormander_pair(op, fam.xi, fam.alpha2)
        _emit({"kind": "hormander", "xi": list(rep.xi),
               "alpha": [str(Fraction(a, 2)) for a in rep.alpha2],
               "omega": rep.omega, "m0": rep.m0,
               "expected": rep.expected,
               "entries": [{"n": e.n, "pairing": e.pairing,
                            "drift": e.drift,
                            "bound_curves": e.bound_curves}
                           for e in rep.entries]}, args)
        return EXIT_OK
    if args.kind == "dc":
        try:
            rep = adversarial.dc_violation_singular_data(op)
        except ValueError as exc:
            raise SystemExit_(EXIT_INPUT, str(exc))
        _emit({"kind": "dc", "g_decay": rep.g_decay.kind,
               "u_decay": rep.u_decay.kind, "table": rep.table,
               "direction": rep.sequence.direction}, args)
        return EXIT_OK
    if args.kind == "kernel":
        rep = adversarial.homogeneous_kernel_family(op, bound=args.bound)
        if not rep.elements:
            raise SystemExit_(EXIT_INPUT, "no resonant kernel modes found")
        _emit({"kind": "kernel",
               "infinite_ladder": rep.infinite_ladder,
               "count": len(rep.elements),
               "modes": [{"xi": list(e.mode.xi), "l2": list(e.mode.l2),
                          "alpha2": list(e.mode.alpha2),
                          "beta2": list(e.mode.beta2)}
                         for e in rep.elements[:32]]}, args)
        return EXIT_OK
    raise SystemExit_(EXIT_INPUT, f"unknown counterexample kind {args.kind}")


def _cmd_transform(args) -> int:
    from .operator_model import gauge_reduce, operator_to_json
    op = _load_operator(args.operator)
    tilde, phases = gauge_reduce(op)
    report = {"operator": operator_to_json(tilde),
              "phase_primitives": {
                  "A": [p.to_json() for p in phases["A"]],
                  "E": [p.to_json() for p in phases["E"]]}}
    _emit(report, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gsh",
        description="Global solvability and hypoellipticity of first-order "
                    "evolution operators on products of tori and 3-spheres")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--bound", type=int, default=16,
                   help="mode/search bound for sweeps")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--out", help="write the report to a file instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="decide GS and GH with witnesses")
    sp.add_argument("operator")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("solve", help="solve L u = g mode by mode")
    sp.add_argument("operator")
    sp.add_argument("rhs")
    sp.add_argument("--solution-out", help="write the solution field JSON")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("check-dc", help="symbol lower-bound condition")
    sp.add_argument("operator")
    sp.set_defaults(func=_cmd_check_dc)

    sp = sub.add_parser("sublevel", help="sublevel connectedness sweep")
    sp.add_argument("operator")
    sp.set_defaults(func=_cmd_sublevel)

    sp = sub.add_parser("counterexample", help="constructive NO certificates")
    sp.add_argument("operator")
    sp.add_argument("--kind", choices=["cs", "hormander", "dc", "kernel"],
                    required=True)
    sp.set_defaults(func=_cmd_counterexample)

    sp = sub.add_parser("transform", help="gauge-reduce the real parts")
    sp.add_argument("operator")
    sp.set_defaults(func=_cmd_transform)
    return p


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except SystemExit_ as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        code = exc.code
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        code = EXIT_INPUT
    except Exception as exc:
        log.debug("internal error", exc_info=True)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
