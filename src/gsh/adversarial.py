"""Counterexample constructions certifying NO verdicts.

Four constructions: a rapidly decaying right-hand side whose solutions
decay only like k^(-1/2) (sign-changing oscillation witness); a
dual-pair family with constant pairing but rapidly shrinking seminorm
bounds (disconnected-sublevel witness); singular data driven by a
Liouville violating sequence; and the resonant homogeneous ladder that
defeats hypoellipticity.  Each returns concrete spectral data plus the
numeric certificate the acceptance checks assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import diophantine, fourier, ode_solver, sublevel
from .fourier import ModeIndex, SpectralField
from .trigpoly import TrigPoly

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Sign-change (CS) singular right-hand side
# ---------------------------------------------------------------------------


@dataclass
class CSEntry:
    k: int
    log_g_sup: float          # log sup |ghat_k| including the e^{-kA} factor
    u_t0_abs_log: float       # log |uhat_k(t0)|
    u_sup_log: float          # log sup |uhat_k|
    sup_bound_log: float      # log(2 pi e^{2 pi |Re q|})


@dataclass
class CSReport:
    xi: tuple
    alpha2: tuple
    theta0: float
    A: float
    s0: float
    t0: float
    entries: list[CSEntry]
    g_decay: fourier.DecayReport
    u_t0_exponent: float      # slope of log|uhat(t0)| against log k


def _argmax_H(theta0: float, F_osc: TrigPoly) -> tuple[float, float, float]:
    """Maximize H(s, t) = theta0*s + F(t) - F(t-s) over the torus square."""

    def H(ss, tt):
        return theta0 * ss + np.real(F_osc(tt)) - np.real(F_osc(tt - ss))

    n = 256
    ss = TWO_PI * np.arange(n) / n
    tt = TWO_PI * np.arange(n) / n
    S, T = np.meshgrid(ss, tt, indexing="ij")
    vals = H(S, T)
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    s_best, t_best = float(ss[i]), float(tt[j])
    span = TWO_PI / n
    for _ in range(12):
        sg = np.linspace(s_best - span, s_best + span, 33)
        tg = np.linspace(t_best - span, t_best + span, 33)
        S, T = np.meshgrid(sg, tg, indexing="ij")
        vals = H(S, T)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        s_best, t_best = float(sg[i]), float(tg[j])
        span /= 8.0
    return float(H(np.array(s_best), np.array(t_best))), s_best, t_best


def cs_singular_rhs(op, xi, alpha2, n_max: int = 20,
                    plateau_width: float = 0.5,
                    ode_n: int = 1024) -> CSReport:
    """Slowly solvable modes along a sign-changing direction.

    For each k the right-hand side profile is
    gate * e^{-kA} * phi(t) * e^{ikR(t0-t)} * e^{q(t0-t)} with phi a
    plateau bump at t0 and gate the non-resonance factor; the unique
    periodic solution then satisfies |u(t0)| of order k^{-1/2} while the
    data decays like e^{-kA}.  Amplitudes are carried in log domain.
    """
    theta = op.mode(xi, alpha2).imag
    if theta is None:
        raise ValueError("irrational offsets have no TrigPoly form")
    theta0 = float(theta.mean_real())
    if theta0 > 0:
        xi = tuple(-x for x in xi)
        alpha2 = tuple(-a for a in alpha2)
        theta = op.mode(xi, alpha2).imag
        theta0 = float(theta.mean_real())
    F_osc = theta.oscillatory_part().primitive()
    A, s0, t0 = _argmax_H(theta0, F_osc)
    if A <= 0:
        raise ValueError("direction has no positive oscillation maximum")

    # R = <a0, xi> + <e0, alpha>
    R = sum(op.a[j].approx_mean() * xi[j] for j in range(op.r)) \
        + sum(op.e[k].approx_mean() * alpha2[k] / 2.0 for k in range(op.s))
    q = op.q_approx()

    delta = plateau_width
    sigma0 = (t0 - s0) % TWO_PI
    phi = sublevel.circular_plateau((sigma0 - 2 * delta, sigma0 - delta),
                                    (sigma0 + delta, sigma0 + 2 * delta))

    ts = TWO_PI * np.arange(ode_n) / ode_n
    entries = []
    decay_entries = []
    k = 0
    for n in range(1, n_max + 1):
        k = max(k + 1, n)
        while (sym := op.mode(tuple(k * x for x in xi),
                              tuple(k * a for a in alpha2))).resonant:
            k += 1
        gate = 1.0 - np.exp(-TWO_PI * complex(sym.theta0))
        # amplitude e^{-kA} handled as a log prefactor
        g_core = gate * phi(ts) * np.exp(1j * k * R * (t0 - ts) + q * (t0 - ts))
        ode = ode_solver.ModeODE(theta_osc=sym.osc, theta0=sym.theta0, g=g_core,
                                 n=ode_n, theta0_exact=sym.exact, resonant=False)
        sol = ode_solver.solve_mode(ode)
        u_core = sol.values
        idx0 = int(round(t0 / TWO_PI * ode_n)) % ode_n
        log_amp = -k * A
        u_t0_log = log_amp + math.log(max(abs(complex(u_core[idx0])), 1e-300))
        u_sup_log = log_amp + math.log(float(np.abs(u_core).max()))
        g_sup_log = log_amp + math.log(float(np.abs(g_core).max()))
        bound_log = math.log(TWO_PI) + TWO_PI * abs(q.real)
        entries.append(CSEntry(k=k, log_g_sup=g_sup_log,
                               u_t0_abs_log=u_t0_log, u_sup_log=u_sup_log,
                               sup_bound_log=bound_log))
        weight = k * (sum(abs(x) for x in xi)
                      + sum(abs(a) for a in alpha2) / 2.0)
        decay_entries.append((max(weight, 1.0), g_sup_log))

    g_decay = fourier.decay_classify(decay_entries)
    ks = np.array([e.k for e in entries], dtype=float)
    ys = np.array([e.u_t0_abs_log for e in entries])
    slope = float(np.polyfit(np.log(ks), ys, 1)[0])
    return CSReport(xi=xi, alpha2=alpha2, theta0=theta0, A=A, s0=s0, t0=t0,
                    entries=entries, g_decay=g_decay, u_t0_exponent=slope)


# ---------------------------------------------------------------------------
# Disconnected-sublevel dual pair
# ---------------------------------------------------------------------------


@dataclass
class PairEntry:
    n: int
    pairing: complex
    drift: float              # |pairing - (2 pi)^r|
    bound_curves: dict[int, float]   # lambda -> log bound at this n


@dataclass
class HormanderReport:
    xi: tuple
    alpha2: tuple
    omega: float
    m0: float
    entries: list[PairEntry]
    log_M: dict[int, float]
    expected: float           # (2 pi)^r


def hormander_pair(op, xi, alpha2, ns=(1, 5, 10),
                   lambdas=(1, 2, 3), nt: int = 512) -> HormanderReport:
    """Single-mode dual families with constant pairing.

    g_n lives at (xi, l, alpha, beta) = n * (-xi~, l~, -l~, -l~) with
    t-profile sqrt(d)/d * e^{n i W(t) - q t} g0(t), and v_n at the
    reflected index with the reciprocal exponential and the plateau v0.
    The pairing collapses to the integral of g0 v0 = 1, independent of n,
    while every seminorm bound decays like n^{4 lambda + 3 + s} e^{n omega}
    with omega < 0 exact from the sublevel geometry.
    """
    sym = op.mode(xi, alpha2)
    F = sym.imag.primitive()
    analysis = sublevel.connected_all_m(F)
    cp = sublevel.disjoint_closure_pair(F, analysis)

    # W(t) = integral of <c, xi> + <d, alpha> = -i((theta0 - q) t + prim)
    q = op.q_approx()
    mean = -1j * (sym.theta0 - q)
    W_osc = sym.primitive.scale((0, -1))

    ts = TWO_PI * np.arange(nt) / nt
    g0v = cp.g0(ts)
    v0v = cp.v0(ts)
    expected = TWO_PI ** op.r

    # profile seminorm constants: sup of the first ``lam`` t-derivatives of
    # the n = 1 profiles times the mode frequency factors
    def _sup_derivs(vals, order):
        freqs = np.fft.fftfreq(nt, d=1.0 / nt).astype(int)
        hat = np.fft.fft(vals)
        out = 0.0
        for j in range(order + 1):
            out = max(out, float(np.abs(np.fft.ifft(hat * (1j * freqs) ** j)).max()))
        return out

    l2 = tuple(abs(a) for a in alpha2)
    freq_factor = 1.0 + sum(abs(x) for x in xi) + sum(l2) / 2.0
    entries = []
    log_M = {}
    for lam in lambdas:
        W1 = mean * ts + np.asarray(W_osc(ts))
        pg = np.exp(1j * W1 - q * ts) * g0v
        pv = np.exp(-1j * W1 + q * ts) * v0v
        c_g = _sup_derivs(pg, lam)
        c_v = _sup_derivs(pv, lam)
        log_M[lam] = math.log(max(c_g * c_v * freq_factor ** (2 * lam), 1e-300))

    for n in ns:
        l2n = tuple(n * x for x in l2)
        mode_g = ModeIndex(xi=tuple(-n * x for x in xi), l2=l2n,
                           alpha2=tuple(-n * x for x in l2),
                           beta2=tuple(-n * x for x in l2))
        mode_v = ModeIndex(xi=tuple(n * x for x in xi), l2=l2n,
                           alpha2=l2n, beta2=l2n)
        d = mode_g.d_ell
        Wn = n * (mean * ts + np.asarray(W_osc(ts)))
        prof_g = math.sqrt(d) / d * np.exp(1j * Wn - q * ts) * g0v
        prof_v = math.sqrt(d) / d * np.exp(-1j * Wn + q * ts) * v0v
        gf = SpectralField(op.r, op.s, max(l2n, default=0) + sum(abs(x * n) for x in xi), nt)
        vf = SpectralField(op.r, op.s, gf.bound, nt)
        gf.set(mode_g, prof_g)
        vf.set(mode_v, prof_v)
        pair = fourier.pairing(gf, vf)
        drift = abs(pair - expected)
        curves = {lam: log_M[lam] + (4 * lam + 3 + op.s) * math.log(max(n, 1))
                  + n * cp.omega for lam in lambdas}
        entries.append(PairEntry(n=n, pairing=pair, drift=drift,
                                 bound_curves=curves))
    return HormanderReport(xi=xi, alpha2=alpha2, omega=cp.omega, m0=cp.m0,
                           entries=entries, log_M=log_M, expected=expected)


# ---------------------------------------------------------------------------
# Liouville singular data
# ---------------------------------------------------------------------------


@dataclass
class DCViolationReport:
    sequence: diophantine.ViolationSequence
    g_decay: fourier.DecayReport
    u_decay: fourier.DecayReport
    table: list[dict]


def dc_violation_singular_data(op, n_max: int = 6) -> DCViolationReport:
    """Singular data from a Diophantine violating sequence.

    Mode amplitudes |sigma_n|^(1/2) give a rapidly decaying right-hand
    side whose formal solution amplitudes |sigma_n|^(-1/2) grow faster
    than any power of the mode weight; both tables are classified by the
    shared decay analyzer.
    """
    seq = diophantine.liouville_violation_sequence(op, n_max=n_max)
    if not seq.recognized:
        raise ValueError(seq.message or "pattern not recognized")
    g_entries, u_entries, table = [], [], []
    for e in seq.entries:
        logw = math.log(abs(e.tau)) if e.tau else 0.0
        w = math.exp(min(logw, 700.0))
        half = 0.5 * e.log_abs_upper
        g_entries.append((w, half))
        u_entries.append((w, -half))
        table.append({"n": e.n, "log_weight": logw,
                      "log_g_amp": half, "log_u_amp": -half})
    return DCViolationReport(sequence=seq,
                             g_decay=fourier.decay_classify(g_entries),
                             u_decay=fourier.decay_classify(u_entries),
                             table=table)


# ---------------------------------------------------------------------------
# Homogeneous kernel ladder
# ---------------------------------------------------------------------------


@dataclass
class KernelElement:
    mode: ModeIndex
    values: np.ndarray        # uhat on the nt grid, uhat(0) = 1
    field: SpectralField


@dataclass
class KernelReport:
    elements: list[KernelElement]
    infinite_ladder: bool


def homogeneous_kernel_family(op, bound: int = 6,
                              nt: int = 128) -> KernelReport:
    """Nontrivial periodic solutions of L u = 0 up to the mode bound.

    Every resonant mode carries the solution exp(-integral of theta),
    normalized to 1 at t = 0; for s >= 1 each resonant alpha spawns the
    infinite ladder l = |alpha|, |alpha| + 1, ...
    """
    elements = []
    ladder = False
    for mode in fourier.enumerate_modes(op.r, op.s, bound):
        sym = op.mode(mode.xi, mode.alpha2)
        if not sym.resonant:
            continue
        ode = ode_solver.ModeODE(theta_osc=sym.osc, theta0=sym.theta0,
                                 g=TrigPoly.zero(), n=nt, theta0_exact=sym.exact)
        vals = ode_solver.homogeneous(ode)
        f = SpectralField(op.r, op.s, bound, nt)
        f.set(mode, vals)
        elements.append(KernelElement(mode=mode, values=vals, field=f))
        if op.s >= 1:
            ladder = True
    return KernelReport(elements=elements, infinite_ladder=ladder and bool(elements))
