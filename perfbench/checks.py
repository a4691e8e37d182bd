"""Independent output checks of the gsh benchmark.

Nothing here calls into gsh: the operator is read from its JSON form and
L u - g is recomputed with plain numpy, one (xi, alpha) group at a time so
the check adds little to the run's peak memory.  Each check returns the
list of reasons an output fails; an empty list means it passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

RESIDUAL_TOL = 1e-8
RECOVERY_TOL = 1e-8
ROUNDTRIP_TOL = 1e-10
RESIDUAL_GRID = 2048


class KnownDefect(str):
    """A failure reason that a ROADMAP item documents as a defect of gsh.

    An op whose every reason is a known defect is reported apart from the
    failed ops: the workloads must have no failing op, yet the defect must
    stay visible until the item fixes it.
    """


def _number(x) -> float:
    """A JSON rational string or tagged real as a float."""
    if isinstance(x, dict):
        return float(Fraction(x["value"])) if "value" in x else float(x["approx"])
    return float(Fraction(x))


def _coef_fn(obj) -> tuple[dict[int, complex], float]:
    """(Fourier coefficients, constant offset) of a JSON coefficient function."""
    coeffs: dict[int, complex] = {}
    offset = 0.0
    for e in obj.get("coeffs", []):
        k = int(e["freq"])
        if isinstance(e["re"], dict):
            offset += _number(e["re"])
            re = _number(e.get("re_rational", "0"))
        else:
            re = _number(e["re"])
        coeffs[k] = coeffs.get(k, 0) + complex(re, _number(e.get("im", "0")))
    return coeffs, offset


class Theta:
    """theta(t) = q + i<c(t), xi> + i<d(t), alpha> for every mode group.

    A mode of u obeys u' + theta u = (L u)_mode, with c = a + ib the torus
    and d = e + if the sphere coefficients, and alpha = alpha2 / 2.
    """

    def __init__(self, op_json: dict, ts: np.ndarray):
        def values(obj):
            coeffs, offset = _coef_fn(obj)
            v = np.full(len(ts), offset, dtype=complex)
            for k, c in coeffs.items():
                v += c * np.exp(1j * k * ts)
            return v.real

        self.c = [1j * values(p["re"]) - values(p["im"]) for p in op_json["c"]]
        self.d = [1j * values(p["re"]) - values(p["im"]) for p in op_json["d"]]
        self.q = complex(_number(op_json["q"]["re"]), _number(op_json["q"]["im"]))

    def __call__(self, xi, alpha2) -> np.ndarray:
        out = self.q + sum(x * c for x, c in zip(xi, self.c)) \
            + sum(a2 / 2.0 * d for a2, d in zip(alpha2, self.d))
        return np.broadcast_to(out, self.c[0].shape if self.c else self.d[0].shape)


def upsample(rows: np.ndarray, n: int) -> np.ndarray:
    """Band-limited interpolation of periodic sample rows onto n >= m points."""
    m = rows.shape[-1]
    if n < m:
        raise ValueError("upsample needs n >= the row length")
    hat = np.fft.fft(rows, axis=-1)
    out = np.zeros(rows.shape[:-1] + (n,), dtype=complex)
    half = (m - 1) // 2
    out[..., :half + 1] = hat[..., :half + 1]
    out[..., n - half:] = hat[..., m - half:]
    if m % 2 == 0:
        # the Nyquist bin of an even row is split between +m/2 and -m/2
        out[..., m // 2] += hat[..., m // 2] / 2
        out[..., n - m // 2] += hat[..., m // 2] / 2
    return np.fft.ifft(out, axis=-1) * (n / m)


def _groups(modes):
    groups: dict[tuple, list] = {}
    for m in modes:
        groups.setdefault((m.xi, m.alpha2), []).append(m)
    return groups


def residual_sup(op_json: dict, u, g) -> float:
    """max |L u - g| over every mode of u or g, on a fixed fine t-grid."""
    n = max(RESIDUAL_GRID, 2 * u.nt, 2 * g.nt)
    ts = 2.0 * math.pi * np.arange(n) / n
    ik = 1j * np.fft.fftfreq(n, d=1.0 / n)
    theta = Theta(op_json, ts)
    zero_u, zero_g = np.zeros(u.nt, complex), np.zeros(g.nt, complex)
    worst = 0.0
    for (xi, alpha2), modes in _groups(set(u.table) | set(g.table)).items():
        U = upsample(np.stack([u.table.get(m, zero_u) for m in modes]), n)
        G = upsample(np.stack([g.table.get(m, zero_g) for m in modes]), n)
        LU = np.fft.ifft(np.fft.fft(U, axis=1) * ik, axis=1) + theta(xi, alpha2) * U
        worst = max(worst, float(np.abs(LU - G).max()))
    return worst


def max_mode_error(got, want) -> float:
    """max |got - want| over the union of modes, on the finer of the grids."""
    n = max(got.nt, want.nt)
    worst = 0.0
    zg, zw = np.zeros(got.nt, complex), np.zeros(want.nt, complex)
    for modes in _groups(set(got.table) | set(want.table)).values():
        A = upsample(np.stack([got.table.get(m, zg) for m in modes]), n)
        B = upsample(np.stack([want.table.get(m, zw) for m in modes]), n)
        worst = max(worst, float(np.abs(A - B).max()))
    return worst


def check_solve(op_json, g, report, stats, u_star=None,
                known_residual=None) -> list[str]:
    """A SolveReport against L u = g, and against u* when it is unique.

    A residual above RESIDUAL_TOL but at most ``known_residual`` is a
    KnownDefect.
    """
    reasons = []
    stats["solution_nt"] = report.solution.nt
    missing = set(g.table) - set(report.solution.table)
    if missing:
        reasons.append(f"{len(missing)} modes of g missing from u")
    res = residual_sup(op_json, report.solution, g)
    stats["residual_sup_max"] = max(stats.get("residual_sup_max", 0.0), res)
    if not res <= RESIDUAL_TOL:
        reason = f"residual {res:.3e} > {RESIDUAL_TOL:g}"
        known = known_residual is not None and res <= known_residual
        reasons.append(KnownDefect(reason) if known else reason)
    if not report.sup_bound_ok:
        reasons.append("sup_bound_ok is false")
    if u_star is not None:
        err = max_mode_error(report.solution, u_star)
        stats["recovery_err_max"] = max(stats.get("recovery_err_max", 0.0), err)
        if not err <= RECOVERY_TOL:
            reasons.append(f"recovery error {err:.3e} > {RECOVERY_TOL:g}")
    return reasons


def check_roundtrip(F, G, stats) -> list[str]:
    err = max_mode_error(G, F)
    stats["roundtrip_err_max"] = max(stats.get("roundtrip_err_max", 0.0), err)
    return [] if err <= ROUNDTRIP_TOL else [f"round-trip error {err:.3e} > {ROUNDTRIP_TOL:g}"]


def check_classify(code: int, report_path, expected, known=None) -> list[str]:
    """CLI exit code and the GS/GH status and clause of its JSON report.

    An expected clause of None checks the status only.  A verdict equal to
    ``known``, a (status, clause) pair, is a KnownDefect.
    """
    if code != 0:
        return [f"exit code {code}"]
    try:
        with open(report_path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    reasons = []
    for prop, (status, clause) in zip(("GS", "GH"), expected):
        got = report.get(prop) or {}
        if got.get("property") != prop or got.get("status") != status \
                or (clause is not None and got.get("clause") != clause):
            verdict = (got.get("status"), got.get("clause"))
            reason = f"{prop} {verdict[0]}/{verdict[1]} != {status}/{clause or '*'}"
            reasons.append(KnownDefect(reason) if verdict == known else reason)
        elif status == "NO" and not got.get("witness"):
            reasons.append(f"{prop} NO without a witness")
    return reasons
