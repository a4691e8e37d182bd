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

from . import fourier, ode_solver
from .fourier import ModeIndex, SpectralField
from .trigpoly import TrigPoly

TWO_PI = 2.0 * math.pi

RESONANT_ARGMAX = "ARGMAX_BASEPOINT"


# ---------------------------------------------------------------------------
# The (xi, alpha) group walk
# ---------------------------------------------------------------------------


@dataclass
class _ModeContext:
    """What one (xi, alpha2) group shares: theta = theta0 + theta_osc."""

    theta_osc: TrigPoly
    theta0: complex
    resonant_m: Optional[int]   # m when theta0 = i m, else None

    @property
    def resonant(self) -> bool:
        return self.resonant_m is not None

    @cached_property
    def primitive(self) -> TrigPoly:
        return self.theta_osc.primitive()

    @cached_property
    def osc(self) -> dict[int, complex]:
        """theta_osc's coefficients as floats."""
        return {j: complex(re, im) for j, (re, im) in self.theta_osc.coeffs.items()}


def _walk(op, *fields: SpectralField):
    """Yield (context, modes) for each (xi, alpha2) group of the fields'
    modes, in first-seen order; the modes of one group share theta."""
    groups: dict[tuple, dict[ModeIndex, None]] = {}
    for F in fields:
        for mode in F.table:
            groups.setdefault((mode.xi, mode.alpha2), {})[mode] = None
    for (xi, alpha2), modes in groups.items():
        theta0, exact, resonant = op.theta_mean(xi, alpha2)
        yield (_ModeContext(op.theta_osc(xi, alpha2), theta0,
                            int(exact[1]) if resonant else None),
               list(modes))


def _rows(F: SpectralField, modes: list[ModeIndex]) -> np.ndarray:
    """The modes' values as a stack of rows; zero rows for absent modes."""
    zero = np.zeros(F.nt, dtype=complex)
    return np.stack([F.table.get(m, zero) for m in modes])


def _spectrum(F: SpectralField, modes: list[ModeIndex]) -> np.ndarray:
    """The interpolant coefficients of the modes' rows, in DFT layout."""
    return np.fft.fft(_rows(F, modes), axis=1) / F.nt


def _apply(ctx: _ModeContext, hat: np.ndarray, n: int) -> np.ndarray:
    """L u in n-point DFT layout, from u's DFT rows ``hat``.

    (theta0 + ik) u_hat + theta_osc * u_hat, the product a circular
    convolution, which is the pointwise product on the grid.  It is taken
    on the smallest odd layout that holds all of L u's band, unless the
    n-grid is smaller: the convolution then wraps as the pointwise product
    on the n-grid does.  An even grid's Nyquist bin holds a split cosine,
    whose derivative vanishes on the grid.
    """
    m = min(n, 2 * (hat.shape[1] // 2 + ctx.theta_osc.bandwidth) + 1)
    C = fourier.place_spectrum(hat, m)
    ks = np.fft.fftfreq(m, d=1.0 / m)
    if m % 2 == 0:
        ks[m // 2] = 0.0
    LC = (ctx.theta0 + 1j * ks) * C
    for j, c in ctx.osc.items():
        LC += c * np.roll(C, j, axis=1)
    return fourier.place_spectrum(LC, n)


def _oscillation_argmax(theta_osc: TrigPoly) -> float:
    """Argmax over the circle of F = -Re(primitive of theta_osc).

    For real coefficients F is the primitive of the oscillatory part of
    <b, xi> + <f, alpha>.  Its critical points are the sign changes of
    F' = -Re(theta_osc) on 64 points per unit bandwidth, refined together
    to 1e-12 by Newton steps from the secant point, with a bisection
    wherever a step would leave its bracket.
    """
    c = {k: complex(re, im) for k, (re, im) in theta_osc.coeffs.items()}
    # F' has coefficients -(c_k + conj(c_-k)) / 2, exactly 0 where the
    # rational ones are, since the float conversion is odd
    dF = {k: -(c.get(k, 0) + c.get(-k, 0).conjugate()) / 2
          for k in set(c) | {-k for k in c}}
    ks = np.array([k for k in sorted(dF) if dF[k] != 0])
    if ks.size == 0:
        return 0.0
    d = np.array([dF[k] for k in ks])

    def waves(t):
        return np.exp(1j * np.outer(t, ks))

    def f(t):
        E = waves(t)
        return (E @ d).real, (E @ (1j * ks * d)).real

    n = 64 * int(np.abs(ks).max())
    ts = TWO_PI * np.arange(n + 1) / n
    vals = f(ts)[0]
    i = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    lo, hi, flo = ts[i], ts[i + 1], vals[i]
    x = lo - flo * (hi - lo) / (vals[i + 1] - flo)
    for _ in range(100):
        fx, dfx = f(x)
        same = np.sign(fx) == np.sign(flo)
        lo, flo, hi = np.where(same, x, lo), np.where(same, fx, flo), np.where(same, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            nx = x - fx / dfx
        nx = np.where((nx >= lo) & (nx <= hi), nx, 0.5 * (lo + hi))
        done = (np.abs(nx - x) <= 1e-12).all()
        x = nx
        if done:
            break
    crits = np.concatenate([ts[:-1][vals[:-1] == 0.0], x])
    return float(crits[np.argmax((waves(crits) @ (d / (1j * ks))).real)])


# ---------------------------------------------------------------------------
# Operator application
# ---------------------------------------------------------------------------


def apply_operator(op, u: SpectralField, nt: Optional[int] = None) -> SpectralField:
    """L u computed mode-wise in Fourier coefficients.

    With ``nt`` the result is evaluated on another uniform grid: the
    coefficients of u's interpolant are placed by ``fourier.place_spectrum``,
    so a band-limited profile is carried over exactly, which makes the
    residual check independent of the solve grid.
    """
    nt_out = nt or u.nt
    out = SpectralField(u.r, u.s, u.bound, nt_out)
    for ctx, modes in _walk(op, u):
        LV = np.fft.ifft(_apply(ctx, _spectrum(u, modes), nt_out), axis=1) * nt_out
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


def _data_bandwidth(hat: np.ndarray) -> int:
    """Largest frequency of DFT rows above the group's roundoff floor.

    The floor is relative to the group's largest coefficient: the
    rounding noise of data made by ``apply_operator`` reaches 1e-14 of a
    row's peak, and a cut per row would read that noise as bandwidth.
    """
    mag = np.abs(hat)
    n = hat.shape[1]
    freqs = np.abs(np.fft.fftfreq(n, d=1.0 / n).astype(int))
    live = (mag > 1e-13 * mag.max()).any(axis=0)
    return int(freqs[live].max()) if live.any() else 0


def _truncation(ctx: _ModeContext, hat: np.ndarray) -> int:
    """Galerkin truncation N: the solution's coefficients |k| <= N.

    A particular solution spreads the data's band by e^{+-prim}, whose
    Fourier tail is a Bessel-like I_k(A) that must fall below roundoff
    against the e^{2A} range of the pair; a resonant kernel element
    e^{-imt - prim} sits at frequency -m with the same spread.
    """
    centre = max(_data_bandwidth(hat), abs(ctx.resonant_m or 0))
    return centre + int(2.0 * ctx.primitive.sup_norm_bound()) + 24


def _grid_size(N: int) -> int:
    """The smallest power of two >= 2N + 1, and at least 64."""
    return max(64, 1 << (2 * N).bit_length())


def _group_data(ctx: _ModeContext, g: SpectralField,
                modes: list[ModeIndex]) -> tuple[int, np.ndarray, np.ndarray]:
    """(N, g's coefficients k = -N..N, max|g| per row) of one group, read
    off one gather and one FFT of its rows."""
    G = _rows(g, modes)
    hat = np.fft.fft(G, axis=1) / g.nt
    N = _truncation(ctx, hat)
    band = np.fft.fftshift(fourier.place_spectrum(hat, 2 * N + 1), axes=1)
    return N, band, np.abs(G).max(axis=1)


def _synthesize(C: np.ndarray, n: int) -> np.ndarray:
    """Samples on the uniform n-grid of coefficient rows k = -N..N."""
    hat = fourier.place_spectrum(np.fft.ifftshift(C, axes=1), n)
    return np.fft.ifft(hat, axis=1) * n


def _adjoint_row(ctx: _ModeContext, N: int, n: int) -> np.ndarray:
    """y with y . g_hat = (1 / 2 pi) * integral of g e^{imt + prim}.

    e^{imt + prim} spans the cokernel of a resonant mode, so y annihilates
    the range of the Galerkin matrix up to truncation.
    """
    ts = TWO_PI * np.arange(n) / n
    ell = np.exp(1j * ctx.resonant_m * ts + ctx.primitive(ts))
    return (np.fft.fft(ell) / n)[-np.arange(-N, N + 1) % n]


def _gate(y: np.ndarray, Ghat: np.ndarray, gmax: np.ndarray, tol: float):
    """(compatibility integrals, incompatible rows) of a resonant group.

    The gate reads |y . g_hat| / |y| against tol * (max|g| + 1): the
    compatibility integral measured in the direction of the cokernel, which
    does not grow with the e^{A} scale of the integrating factor.
    """
    dots = Ghat @ y
    bad = np.abs(dots) / np.linalg.norm(y) > tol * (gmax + 1.0)
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
    for j, c in ctx.osc.items():
        M += c * np.eye(size, k=-j)
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
        N, Ghat, gmax = _group_data(ctx, g, modes)
        comp, bad = _gate(_adjoint_row(ctx, N, _grid_size(N)), Ghat, gmax, tol)
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
    # Each plan holds only its group's 2N + 1 coefficients, and is dropped
    # once solved, so the plans never hold more than the solution will.
    plans = [(ctx, modes, *_group_data(ctx, g, modes))
             for ctx, modes in _walk(op, g)]
    nt_u = _grid_size(max([0] + [plan[2] for plan in plans]))
    u = SpectralField(g.r, g.s, g.bound, nt_u)
    resonant = []
    sup_ratio = 0.0
    sup_ok = True
    plans.reverse()
    while plans:
        ctx, modes, N, Ghat, gmax = plans.pop()
        y = t_star = None
        if ctx.resonant:
            resonant.extend(modes)
            y = _adjoint_row(ctx, N, nt_u)
            if check_compat:
                comp, bad = _gate(y, Ghat, gmax, tol)
                if bad.any():
                    raise ode_solver.ModeUnsolvable(complex(comp[np.argmax(bad)]))
            t_star = _oscillation_argmax(ctx.theta_osc)
        U = _synthesize(_galerkin_solve(ctx, Ghat, y, t_star), nt_u)
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
    taken one (xi, alpha2) group at a time: L u - g is formed in
    coefficients and synthesized with one inverse FFT per group."""
    nt = refine * u.nt
    worst = 0.0
    for ctx, modes in _walk(op, u, g):
        R = (_apply(ctx, _spectrum(u, modes), nt)
             - fourier.place_spectrum(_spectrum(g, modes), nt))
        worst = max(worst, float(np.abs(np.fft.ifft(R, axis=1)).max()) * nt)
    return worst


def decay_certify(field_: SpectralField) -> fourier.DecayReport:
    """Classify the coefficient decay of a spectral field."""
    return fourier.decay_classify(fourier.field_decay_entries(field_))
