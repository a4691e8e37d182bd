"""Constructive global solving of L u = g by mode decoupling.

Each partial Fourier mode of g yields a scalar periodic ODE
u' + theta(t) u = g with theta(t) = i<c(t), xi> + i<d(t), alpha> + q.
Theta is a trigonometric polynomial of small bandwidth, so the ODE is a
banded linear system in the Fourier coefficients of u, and one
Fourier-Galerkin kernel solves every (xi, alpha) group of modes that
share theta.  Non-resonant modes have a unique periodic solution.
Resonant modes need a vanishing compatibility integral and admit a
one-parameter family; the solver borders the system with the cokernel
direction and with the pin u(t*) = 0 at the argmax of the oscillation
primitive, the member that stays uniformly bounded in the oscillatory
regime.
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
    """Largest frequency of the rows above the group's roundoff floor.

    The floor is relative to the group's largest coefficient: the
    rounding noise of data made by ``apply_operator`` reaches 1e-14 of a
    row's peak, and a cut per row would read that noise as bandwidth.
    """
    hat = np.abs(np.fft.fft(G, axis=1))
    n = G.shape[1]
    freqs = np.abs(np.fft.fftfreq(n, d=1.0 / n).astype(int))
    live = (hat > 1e-13 * hat.max()).any(axis=0)
    return int(freqs[live].max()) if live.any() else 0


def _truncation(ctx: _ModeContext, G: np.ndarray) -> int:
    """Galerkin truncation N: the solution's coefficients |k| <= N.

    A particular solution spreads the data's band by e^{+-prim}, whose
    Fourier tail is a Bessel-like I_k(A) that must fall below roundoff
    against the e^{2A} range of the pair; a resonant kernel element
    e^{-imt - prim} sits at frequency -m with the same spread.
    """
    centre = max(_data_bandwidth(G), abs(ctx.resonant_m or 0))
    return centre + int(2.0 * ctx.primitive.sup_norm_bound()) + 24


def _grid_size(N: int) -> int:
    """The smallest power of two >= 2N + 1, and at least 64."""
    return max(64, 1 << (2 * N).bit_length())


def _coefficients(V: np.ndarray, N: int) -> np.ndarray:
    """Fourier coefficients k = -N..N of rows sampled on a grid of >= 2N+1."""
    n = V.shape[1]
    return np.fft.fft(V, axis=1)[:, np.arange(-N, N + 1) % n] / n


def _synthesize(C: np.ndarray, n: int) -> np.ndarray:
    """Samples on the uniform n-grid of coefficient rows k = -N..N."""
    N = (C.shape[1] - 1) // 2
    full = np.zeros((C.shape[0], n), dtype=complex)
    full[:, np.arange(-N, N + 1) % n] = C
    return np.fft.ifft(full, axis=1) * n


def _adjoint_row(ctx: _ModeContext, N: int, n: int) -> np.ndarray:
    """y with y . g_hat = (1 / 2 pi) * integral of g e^{imt + prim}.

    e^{imt + prim} spans the cokernel of a resonant mode, so y annihilates
    the range of the Galerkin matrix up to truncation.
    """
    ts = TWO_PI * np.arange(n) / n
    ell = np.exp(1j * ctx.resonant_m * ts + ctx.prim(n))
    return (np.fft.fft(ell) / n)[-np.arange(-N, N + 1) % n]


def _gate(y: np.ndarray, Ghat: np.ndarray, G: np.ndarray, tol: float):
    """(compatibility integrals, incompatible rows) of a resonant group.

    The gate reads |y . g_hat| / |y| against tol * (max|g| + 1): the
    compatibility integral measured in the direction of the cokernel, which
    does not grow with the e^{A} scale of the integrating factor.
    """
    dots = Ghat @ y
    bad = np.abs(dots) / np.linalg.norm(y) > tol * (np.abs(G).max(axis=1) + 1.0)
    return TWO_PI * dots, bad


def _galerkin_solve(ctx: _ModeContext, Ghat: np.ndarray,
                    y: Optional[np.ndarray],
                    t_star: Optional[float]) -> np.ndarray:
    """Solve u' + theta u = g in coefficients k = -N..N for a stack of rows.

    M = diag(theta0 + ik) + (convolution by theta_osc's coefficients).  A
    resonant group solves the bordered system [[M, w], [p, 0]] [u; mu] =
    [g_hat; 0] with w = conj(y) / |y| and p_k = e^{ik t_star}: the row p
    pins u(t_star) = 0 and the column w takes up the part of g outside the
    range of M, so the solution comes out in the argmax normalization.
    """
    size = Ghat.shape[1]
    ks = np.arange(size) - (size - 1) // 2
    M = np.diag(ctx.theta0 + 1j * ks)
    for j, (re, im) in ctx.theta_osc.coeffs.items():
        M += complex(re, im) * np.eye(size, k=-j)
    if y is None:
        return np.linalg.solve(M, Ghat.T).T
    w = y.conj()[:, None] / np.linalg.norm(y)
    p = np.exp(1j * ks * t_star)[None, :]
    border = np.block([[M, w], [p, np.zeros((1, 1))]])
    rhs = np.vstack([Ghat.T, np.zeros((1, len(Ghat)))])
    return np.linalg.solve(border, rhs)[:-1].T


def annihilator_test(op, g: SpectralField, tol: float = 1e-9) -> AnnihilatorReport:
    """Check the compatibility integrals on every resonant mode of g, with
    the truncation, cokernel row and gate that ``solve`` uses."""
    violations = []
    resonant = []
    for ctx, modes in _walk(op, g):
        if not ctx.resonant:
            continue
        resonant.extend(modes)
        G = _rows(g, modes)
        N = _truncation(ctx, G)
        n = _grid_size(N)
        G = fourier.resample(G, n)
        comp, bad = _gate(_adjoint_row(ctx, N, n), _coefficients(G, N), G, tol)
        violations.extend((modes[i], complex(comp[i]))
                          for i in np.flatnonzero(bad))
    return AnnihilatorReport(ok=not violations, violations=violations,
                             resonant_modes=resonant)


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------


@dataclass
class SolveReport:
    solution: SpectralField
    residual_sup: float
    mode_count: int
    resonant_modes: list[ModeIndex]
    strategy: str
    sup_bound_ok: bool
    sup_ratio: float


def solve(op, g: SpectralField, tol: float = 1e-9,
          check_compat: bool = True) -> SolveReport:
    """Solve L u = g mode by mode with one Fourier-Galerkin kernel.

    Each (xi, alpha) group sizes its truncation N from the oscillation
    amplitude and the data bandwidth; the solution grid is the smallest
    power of two holding every group's 2N + 1 coefficients.  Raises
    ModeUnsolvable on a resonant mode whose compatibility fails the gate
    (unless ``check_compat`` is off).  Resonant modes vanish at the argmax
    of the oscillation primitive, and the report carries the sup-norm
    certificate max|u_mode| <= 2 pi max|g_mode| for them.
    """
    plans = [(ctx, modes, _truncation(ctx, _rows(g, modes)))
             for ctx, modes in _walk(op, g)]
    nt_u = _grid_size(max([0] + [N for _, _, N in plans]))
    u = SpectralField(g.r, g.s, g.bound, nt_u)
    resonant = []
    sup_ratio = 0.0
    sup_ok = True
    for ctx, modes, N in plans:
        G = fourier.resample(_rows(g, modes), nt_u)
        Ghat = _coefficients(G, N)
        y = t_star = None
        if ctx.resonant:
            resonant.extend(modes)
            y = _adjoint_row(ctx, N, nt_u)
            if check_compat:
                comp, bad = _gate(y, Ghat, G, tol)
                if bad.any():
                    raise ode_solver.ModeUnsolvable(complex(comp[np.argmax(bad)]))
            t_star = _oscillation_argmax(op, ctx.xi, ctx.alpha2)
        U = _synthesize(_galerkin_solve(ctx, Ghat, y, t_star), nt_u)
        gmax = np.abs(G).max(axis=1)
        umax = np.abs(U).max(axis=1)
        nz = gmax > 0
        if nz.any():
            ratio = float((umax[nz] / (TWO_PI * gmax[nz])).max())
            sup_ratio = max(sup_ratio, ratio)
            if ctx.resonant and ratio > 1.0 + 1e-9:
                sup_ok = False
        for i, mode in enumerate(modes):
            u.set(mode, U[i])
    residual = residual_sup(op, u, g)
    return SolveReport(solution=u, residual_sup=residual,
                       mode_count=len(g.table), resonant_modes=resonant,
                       strategy=RESONANT_ARGMAX, sup_bound_ok=sup_ok,
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
