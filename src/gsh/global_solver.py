"""Constructive global solving of L u = g by mode decoupling.

Each partial Fourier mode of g yields a scalar periodic ODE
u' + theta(t) u = g with theta(t) = i<c(t), xi> + i<d(t), alpha> + q.
Non-resonant modes have a unique periodic solution; resonant modes need a
vanishing compatibility integral and admit a one-parameter family, which
is pinned either at lambda = 0 or by vanishing at the argmax of the
oscillation primitive (the choice that keeps the solution uniformly
bounded in the oscillatory regime).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import fourier, ode_solver, sublevel
from .fourier import ModeIndex, SpectralField
from .trigpoly import TrigPoly, real_root_isolation

TWO_PI = 2.0 * math.pi

RESONANT_ZERO = "ZERO_LAMBDA"
RESONANT_ARGMAX = "ARGMAX_BASEPOINT"


# ---------------------------------------------------------------------------
# The (xi, alpha) group walk
# ---------------------------------------------------------------------------


@dataclass
class _ModeContext:
    """What one (xi, alpha2) group shares: theta = theta0 + theta_osc."""

    xi: tuple[int, ...]
    alpha2: tuple[int, ...]
    theta_osc: TrigPoly
    theta0: complex
    resonant_m: Optional[int]   # m when theta0 = i m, else None

    @property
    def resonant(self) -> bool:
        return self.resonant_m is not None

    @cached_property
    def primitive(self) -> TrigPoly:
        return self.theta_osc.primitive()

    def theta(self, n: int) -> np.ndarray:
        ts = TWO_PI * np.arange(n) / n
        return self.theta0 + np.asarray(self.theta_osc(ts), dtype=complex)

    def prim(self, n: int) -> np.ndarray:
        ts = TWO_PI * np.arange(n) / n
        return np.asarray(self.primitive(ts), dtype=complex)

    def osc_amp(self) -> float:
        return self.primitive.sup_norm_bound()


def _walk(op, *fields: SpectralField):
    """Yield (context, modes) for each (xi, alpha2) group of the fields'
    modes, in first-seen order; the modes of one group share theta."""
    groups: dict[tuple, dict[ModeIndex, None]] = {}
    for F in fields:
        for mode in F.table:
            groups.setdefault((mode.xi, mode.alpha2), {})[mode] = None
    for (xi, alpha2), modes in groups.items():
        theta0, exact, resonant = op.theta_mean(xi, alpha2)
        yield (_ModeContext(xi, alpha2, op.theta_osc(xi, alpha2), theta0,
                            int(exact[1]) if resonant else None),
               list(modes))


def _rows(F: SpectralField, modes: list[ModeIndex]) -> np.ndarray:
    """The modes' values as a stack of rows; zero rows for absent modes."""
    return np.stack([np.asarray(F.get(m), dtype=complex) for m in modes])


def _apply_rows(theta: np.ndarray, V: np.ndarray) -> np.ndarray:
    """L on a stack of rows sampled on theta's uniform grid, spectrally in t."""
    n = V.shape[1]
    freqs = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    dV = np.fft.ifft(np.fft.fft(V, axis=1) * (1j * freqs)[None, :], axis=1)
    return dV + theta[None, :] * V


def _oscillation_argmax(op, xi, alpha2) -> float:
    """Argmax over the circle of the primitive of <b, xi> + <f, alpha>."""
    theta_im = sublevel.mode_combination(op, xi, alpha2)
    if theta_im.is_zero() or theta_im.mean_real() != 0:
        return 0.0
    F = theta_im.primitive()
    crits = real_root_isolation(theta_im)
    if not crits:
        return 0.0
    vals = [float(np.real(F(t))) for t in crits]
    return crits[int(np.argmax(vals))]


# ---------------------------------------------------------------------------
# Operator application
# ---------------------------------------------------------------------------


def apply_operator(op, u: SpectralField, nt: Optional[int] = None) -> SpectralField:
    """L u computed mode-wise and spectrally in t.

    With ``nt`` the result is evaluated on a finer uniform grid (the
    band-limited mode profiles are resampled exactly), which makes the
    residual check independent of the solve grid.
    """
    nt_out = nt or u.nt
    out = SpectralField(u.r, u.s, u.bound, nt_out)
    for ctx, modes in _walk(op, u):
        LV = _apply_rows(ctx.theta(nt_out),
                         fourier.resample(_rows(u, modes), nt_out))
        for i, m in enumerate(modes):
            out.set(m, LV[i])
    return out


# ---------------------------------------------------------------------------
# Compatibility / annihilator test
# ---------------------------------------------------------------------------


@dataclass
class AnnihilatorReport:
    ok: bool
    violations: list[tuple[ModeIndex, complex]]
    resonant_modes: list[ModeIndex]


def _data_bandwidth(G: np.ndarray) -> int:
    """Largest frequency carrying more than machine-level energy in any row."""
    hat = np.abs(np.fft.fft(G, axis=1))
    n = G.shape[1]
    freqs = np.abs(np.fft.fftfreq(n, d=1.0 / n).astype(int))
    live = (hat > 1e-14 * hat.max(axis=1, keepdims=True)).any(axis=0)
    return int(freqs[live].max()) if live.any() else 0


def _mode_grid_size(ctx: _ModeContext, G: np.ndarray) -> int:
    """Grid fine enough for g * exp(oscillation primitive) to machine accuracy.

    The primitive has sup bound A, so the exponential's Fourier tail decays
    like a Bessel function I_k(A); 8A + 32 modes past the data bandwidth
    is far below machine epsilon.
    """
    need = max(64, int(8.0 * ctx.osc_amp()) + 32 + 2 * _data_bandwidth(G))
    n = 64
    while n < need:
        n *= 2
    return n


def annihilator_test(op, g: SpectralField, tol: float = 1e-9) -> AnnihilatorReport:
    """Check the compatibility integrals on every resonant mode of g, with
    the kernel and gate that ``solve`` uses."""
    violations = []
    resonant = []
    for ctx, modes in _walk(op, g):
        if not ctx.resonant:
            continue
        resonant.extend(modes)
        G = _rows(g, modes)
        n = _mode_grid_size(ctx, G)
        G = fourier.resample(G, n)
        _, comp = ode_solver.integral_formula(ctx.theta0, ctx.resonant_m,
                                              ctx.prim(n), G)
        bad = ode_solver.incompatible(comp, G, tol)
        violations.extend((modes[i], complex(comp[i]))
                          for i in np.flatnonzero(bad))
    return AnnihilatorReport(ok=not violations, violations=violations,
                             resonant_modes=resonant)


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------

# Guarded defect-correction passes per group in ``solve``.
REFINE_STEPS = 2


@dataclass
class SolveReport:
    solution: SpectralField
    residual_sup: float
    mode_count: int
    resonant_modes: list[ModeIndex]
    strategy: str
    sup_bound_ok: bool
    sup_ratio: float


def _solve_rows(ctx: _ModeContext, G: np.ndarray, prim: np.ndarray,
                t_star: Optional[float]):
    """The integral-formula kernel on a stack of data rows that share one
    theta.  Returns (solutions, compatibility values or None).

    Resonant rows come back in the argmax-pinned normalization, vanishing
    at t_star, the argmax of the oscillation primitive: the lam = 0 member
    can be exponentially large, which would sink every later step into
    its roundoff.
    """
    U, comp = ode_solver.integral_formula(ctx.theta0, ctx.resonant_m, prim, G)
    if not ctx.resonant:
        return U, None
    n = U.shape[1]
    freqs = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    u_star = (np.fft.fft(U, axis=1) / n) @ np.exp(1j * freqs * t_star)
    h_star = np.exp(-1j * ctx.resonant_m * t_star
                    - complex(ctx.primitive(t_star)))
    h = ode_solver.resonant_homogeneous(ctx.resonant_m, prim)
    return U - np.outer(u_star / h_star, h), comp


def _refine_rows(ctx: _ModeContext, U: np.ndarray, G: np.ndarray,
                 t_star: Optional[float]) -> np.ndarray:
    """Guarded defect-correction on a 4x grid.

    The defect carries structure across the exp(primitive) envelope's whole
    bandwidth, and its product with exp(primitive) must stay alias-free,
    hence the oversampling; the low-pass drops the incorrigible white-noise
    floor, and a pass is kept per row only if it shrinks that row's defect.
    """
    n = U.shape[1]
    nf = 4 * n
    prim = ctx.prim(nf)
    theta = ctx.theta(nf)
    freqs = np.fft.fftfreq(nf, d=1.0 / nf).astype(int)
    kcut = nf // 2 - (int(8.0 * ctx.osc_amp()) + 40)
    VF = fourier.resample(U, nf)
    GF = fourier.resample(G, nf)
    D = GF - _apply_rows(theta, VF)
    best = np.abs(D).max(axis=1)
    for _ in range(REFINE_STEPS):
        Dh = np.fft.fft(D, axis=1)
        Dh[:, np.abs(freqs) > kcut] = 0.0
        CV, _ = _solve_rows(ctx, np.fft.ifft(Dh, axis=1), prim, t_star)
        CAND = VF + CV
        CD = GF - _apply_rows(theta, CAND)
        cand_sup = np.abs(CD).max(axis=1)
        acc = cand_sup < 0.95 * best
        if not acc.any():
            break
        VF[acc] = CAND[acc]
        D[acc] = CD[acc]
        best[acc] = cand_sup[acc]
    return fourier.resample(VF, n)


def solve(op, g: SpectralField, resonant_strategy: str = RESONANT_ARGMAX,
          tol: float = 1e-9, check_compat: bool = True) -> SolveReport:
    """Solve L u = g mode by mode.

    Raises ModeUnsolvable on a resonant mode with nonvanishing
    compatibility (unless ``check_compat`` is off).  The returned report
    carries the sup-norm certificate max|u_mode| <= 2 pi max|g_mode|
    for the argmax-normalized resonant strategy.

    Modes sharing one theta are solved as a vectorized batch, followed by
    ``REFINE_STEPS`` guarded defect-correction passes that absorb the
    roundoff amplified by the integrating factor's dynamic range.
    """
    plans = [(ctx, modes, _mode_grid_size(ctx, _rows(g, modes)))
             for ctx, modes in _walk(op, g)]
    nt_u = max([64] + [n for _, _, n in plans])
    u = SpectralField(g.r, g.s, g.bound, nt_u)
    resonant = []
    sup_ratio = 0.0
    sup_ok = True
    for ctx, modes, n in plans:
        prim = ctx.prim(n)
        G = fourier.resample(_rows(g, modes), n)
        t_star = None
        if ctx.resonant:
            resonant.extend(modes)
            t_star = _oscillation_argmax(op, ctx.xi, ctx.alpha2)
        U, comp = _solve_rows(ctx, G, prim, t_star)
        if ctx.resonant and check_compat:
            bad = ode_solver.incompatible(comp, G, tol)
            if bad.any():
                raise ode_solver.ModeUnsolvable(complex(comp[np.argmax(bad)]))
        U = _refine_rows(ctx, U, G, t_star)
        if ctx.resonant and resonant_strategy != RESONANT_ARGMAX:
            # shift back to the lam = 0 normalization, which vanishes at 0
            h = ode_solver.resonant_homogeneous(ctx.resonant_m, prim)
            U = U - U[:, :1] * h[None, :]
        gmax = np.abs(G).max(axis=1)
        umax = np.abs(U).max(axis=1)
        nz = gmax > 0
        if nz.any():
            ratio = float((umax[nz] / (TWO_PI * gmax[nz])).max())
            sup_ratio = max(sup_ratio, ratio)
            if ctx.resonant and resonant_strategy == RESONANT_ARGMAX \
                    and ratio > 1.0 + 1e-9:
                sup_ok = False
        UU = fourier.resample(U, nt_u)
        for i, mode in enumerate(modes):
            u.set(mode, UU[i])
    residual = residual_sup(op, u, g)
    return SolveReport(solution=u, residual_sup=residual,
                       mode_count=len(g.table), resonant_modes=resonant,
                       strategy=resonant_strategy, sup_bound_ok=sup_ok,
                       sup_ratio=sup_ratio)


def residual_sup(op, u: SpectralField, g: SpectralField,
                 refine: int = 4) -> float:
    """sup-norm of L u - g over all modes, on a ``refine``-times finer grid,
    taken one (xi, alpha2) group at a time."""
    nt = refine * u.nt
    worst = 0.0
    for ctx, modes in _walk(op, u, g):
        LU = _apply_rows(ctx.theta(nt), fourier.resample(_rows(u, modes), nt))
        GV = fourier.resample(_rows(g, modes), nt)
        worst = max(worst, float(np.abs(LU - GV).max()))
    return worst


def decay_certify(field_: SpectralField) -> fourier.DecayReport:
    """Classify the coefficient decay of a spectral field."""
    return fourier.decay_classify(fourier.field_decay_entries(field_))
