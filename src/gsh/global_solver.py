"""Constructive global solving of L u = g by mode decoupling.

Each partial Fourier mode of g yields a scalar periodic ODE
u' + theta(t) u = g with theta(t) = i<c(t), xi> + i<d(t), alpha> + q.
Theta is a trigonometric polynomial of small bandwidth bw, so the ODE is a
band linear system in the Fourier coefficients of u, and one
Fourier-Galerkin kernel solves every (xi, alpha) group of modes that
share theta: LAPACK's band LU (zgbtrf) factors the group's matrix once and
zgbtrs solves all of its rows.  The solver reads theta from the operator's
mode symbol (``op.mode``): its mean, its oscillation and that
oscillation's float coefficients and primitive.  Non-resonant modes have a
unique periodic solution.  Resonant modes need a vanishing compatibility
integral and admit a one-parameter family; the solver borders the system
with the cokernel direction and with the pin u(t*) = 0 at the argmax of
the oscillation primitive, the member that stays uniformly bounded in the
oscillatory regime, and solves the bordered system through a diagonal
deflation that keeps the band.  t* is the symbol's exact-pattern
``argmax``, kept with the symbol, so repeated solves of one operator find
it once.  The reported residual is a bound on the whole circle: the l1
norm of the Fourier coefficients of L u - g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fourier, ode_solver
from .fourier import ModeIndex, SpectralField

TWO_PI = 2.0 * math.pi

RESONANT_ARGMAX = "ARGMAX_BASEPOINT"


# ---------------------------------------------------------------------------
# The (xi, alpha) group walk
# ---------------------------------------------------------------------------


def _walk(op, *fields: SpectralField):
    """Yield (mode symbol, modes) for each (xi, alpha2) group of the
    fields' modes, in first-seen order; the modes of one group share
    theta."""
    groups: dict[tuple, dict[ModeIndex, None]] = {}
    for F in fields:
        for mode in F.table:
            groups.setdefault((mode.xi, mode.alpha2), {})[mode] = None
    for (xi, alpha2), modes in groups.items():
        yield op.mode(xi, alpha2), list(modes)


def _rows(F: SpectralField, modes: list[ModeIndex]) -> np.ndarray:
    """The modes' values as a stack of rows; zero rows for absent modes."""
    zero = np.zeros(F.nt, dtype=complex)
    return np.stack([F.table.get(m, zero) for m in modes])


def _spectrum(F: SpectralField, modes: list[ModeIndex]) -> np.ndarray:
    """The interpolant coefficients of the modes' rows, in DFT layout."""
    return np.fft.fft(_rows(F, modes), axis=1) / F.nt


def _apply(sym, hat: np.ndarray, n: int) -> np.ndarray:
    """L u in n-point DFT layout, from u's DFT rows ``hat``.

    (theta0 + ik) u_hat + theta_osc * u_hat, the product a circular
    convolution, which is the pointwise product on the grid.  It is taken
    on the smallest odd layout that holds all of L u's band, unless the
    n-grid is smaller: the convolution then wraps as the pointwise product
    on the n-grid does.  An even grid's Nyquist bin holds a split cosine,
    whose derivative vanishes on the grid.
    """
    m = min(n, 2 * (hat.shape[1] // 2 + sym.osc.bandwidth) + 1)
    C = fourier.place_spectrum(hat, m)
    ks = np.fft.fftfreq(m, d=1.0 / m)
    if m % 2 == 0:
        ks[m // 2] = 0.0
    LC = (sym.theta0 + 1j * ks) * C
    for j, c in sym.osc.floats.items():
        LC += c * np.roll(C, j, axis=1)
    return fourier.place_spectrum(LC, n)


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
    for sym, modes in _walk(op, u):
        LV = np.fft.ifft(_apply(sym, _spectrum(u, modes), nt_out), axis=1) * nt_out
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


def _truncation(sym, hat: np.ndarray) -> int:
    """Galerkin truncation N: the solution's coefficients |k| <= N.

    A particular solution spreads the data's band by e^{+-prim}, whose
    Fourier tail is a Bessel-like I_k(A) that must fall below roundoff
    against the e^{2A} range of the pair; a resonant kernel element
    e^{-imt - prim} sits at frequency -m with the same spread.
    """
    centre = max(_data_bandwidth(hat), abs(sym.resonant_m or 0))
    return centre + int(2.0 * sym.primitive.sup_norm_bound()) + 24


def _grid_size(N: int) -> int:
    """The smallest power of two >= 2N + 1, and at least 64."""
    return max(64, 1 << (2 * N).bit_length())


def _group_data(sym, g: SpectralField, modes: list[ModeIndex]):
    """(N, g's coefficients k = -K..K with K = N + bw, the l1 norm of the
    rest per row, max|g| per row) of one group, read off one gather and one
    FFT of its rows.  K covers the band of L u for u of band N."""
    G = _rows(g, modes)
    hat = np.fft.fft(G, axis=1) / g.nt
    N = _truncation(sym, hat)
    K = N + sym.osc.bandwidth
    band = np.fft.fftshift(fourier.place_spectrum(hat, 2 * K + 1), axes=1)
    beyond = np.abs(np.fft.fftfreq(g.nt, d=1.0 / g.nt)) > K
    return N, band, np.abs(hat[:, beyond]).sum(axis=1), np.abs(G).max(axis=1)


def _synthesize(C: np.ndarray, n: int) -> np.ndarray:
    """Samples on the uniform n-grid of coefficient rows k = -N..N."""
    hat = fourier.place_spectrum(np.fft.ifftshift(C, axes=1), n)
    return np.fft.ifft(hat, axis=1) * n


def _null_rows(sym, N: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(y, z) of a resonant group, on k = -N..N: y . g_hat = (1 / 2 pi) *
    integral of g e^{imt + prim}, and z the coefficients of e^{-imt - prim}.

    e^{imt + prim} spans the cokernel of a resonant mode and e^{-imt - prim}
    its kernel, so y annihilates the range of the Galerkin matrix and z
    spans its null space, both up to truncation.  z only places the
    deflation, so its scale is free: its samples are taken with largest
    modulus 1, as e^{-prim} alone can overflow where e^{prim} does not.
    """
    ts = TWO_PI * np.arange(n) / n
    phase = 1j * sym.resonant_m * ts + sym.primitive(ts)
    ks = np.arange(-N, N + 1)
    y = np.fft.fft(np.exp(phase)) / n
    z = np.fft.fft(np.exp(phase.real.min() - phase)) / n
    return y[-ks % n], z[ks % n]


def _gate(y: np.ndarray, Ghat: np.ndarray, gmax: np.ndarray, tol: float):
    """(compatibility integrals, incompatible rows) of a resonant group.

    The gate reads |y . g_hat| / |y| against tol * (max|g| + 1): the
    compatibility integral measured in the direction of the cokernel, which
    does not grow with the e^{A} scale of the integrating factor.
    """
    dots = Ghat @ y
    bad = np.abs(dots) / np.linalg.norm(y) > tol * (gmax + 1.0)
    return TWO_PI * dots, bad


def _band(sym, ks: np.ndarray) -> np.ndarray:
    """M = diag(theta0 + ik) + (convolution by theta_osc) in LAPACK band
    storage for zgbtrf, kl = ku = bw: M[i, j] sits at row 2 bw + i - j of
    column j, and the first bw rows are zgbtrf's workspace."""
    bw, n = sym.osc.bandwidth, len(ks)
    ab = np.zeros((3 * bw + 1, n), dtype=complex)
    ab[2 * bw] = sym.theta0 + 1j * ks
    for j, c in sym.osc.floats.items():
        ab[2 * bw + j, max(0, -j):n - max(0, j)] = c      # M[i, i - j] = c_j
    return ab


def _band_apply(sym, ks: np.ndarray, C: np.ndarray) -> np.ndarray:
    """M C for coefficient rows C, M truncated to k = -N..N."""
    out = (sym.theta0 + 1j * ks) * C
    n = len(ks)
    for j, c in sym.osc.floats.items():
        out[:, max(0, j):n + min(0, j)] += c * C[:, max(0, -j):n - max(0, j)]
    return out


def _factor(ab: np.ndarray, bw: int):
    """zgbtrf's factors of a band matrix, as a solver of M X = B for
    column stacks B.  scipy.linalg is imported on the first solve: its
    import takes about 0.3 s and 20 MB, which classification never needs."""
    from scipy.linalg.lapack import zgbtrf, zgbtrs
    lu, piv, info = zgbtrf(ab, bw, bw)
    if info:
        raise np.linalg.LinAlgError(f"zgbtrf returned info = {info}")
    return lambda B: zgbtrs(lu, bw, bw, B, piv)[0]


def _galerkin_solve(sym, Ghat: np.ndarray,
                    null: Optional[tuple[np.ndarray, np.ndarray]],
                    t_star: Optional[float]) -> np.ndarray:
    """Solve u' + theta u = g in coefficients k = -N..N for a stack of rows.

    M = diag(theta0 + ik) + (convolution by theta_osc's coefficients), a
    band matrix of bandwidth bw = theta_osc's, factored once per group.  A
    resonant group, with ``null`` = (y, z) from _null_rows, solves the
    bordered system [[M, w], [p, 0]] [u; mu] = [g_hat; 0] with
    w = conj(y) / |y| and p_k = e^{ik t_star}: the row p pins u(t_star) = 0
    and the column w takes up the part of g outside the range of M, so the
    solution comes out in the argmax normalization.

    That M is singular to rounding, so the border is not eliminated through
    M^-1: mu = y . g_hat / |y| leaves M u = h = g_hat - w mu in the range
    of M, and with the band matrix M' = M + (1 + |theta0|) e_a e_a^T,
    x = M'^-1 h and v = M'^-1 e_a, u = x - (p . x / p . v) v.  det M' is
    proportional to y_a z_a, so a is where |y_a z_a| is largest (k = -m
    for a real primitive; the mean of e^{i A sin t} vanishes at a zero of
    J0).  One step of iterative refinement against the bordered equations,
    with the same factors, takes out the rounding the deflation lets in.
    """
    size = Ghat.shape[1]
    ks = np.arange(size) - (size - 1) // 2
    bw = sym.osc.bandwidth
    ab = _band(sym, ks)
    if null is None:
        return _factor(ab, bw)(Ghat.T).T
    y, z = null
    a = int(np.argmax(np.abs(y * z)))
    ab[2 * bw, a] += 1.0 + abs(sym.theta0)
    solve_ = _factor(ab, bw)
    w = y.conj() / np.linalg.norm(y)
    p = np.exp(1j * ks * t_star)

    def range_part(F):
        """The columns h = F - w mu, mu = y . F / |y|, of rows F."""
        return (F - np.outer(F @ w.conj(), w)).T

    H = range_part(Ghat)
    B = np.zeros((size, len(Ghat) + 1), dtype=complex, order="F")
    B[:, :-1] = H
    B[a, -1] = 1.0
    XV = solve_(B)
    v = XV[:, -1]

    def pinned(X, c):
        """x - ((p . x - c) / p . v) v for rows X: p . u = c."""
        return X - np.outer((X @ p - c) / (p @ v), v)

    U = pinned(XV[:, :-1].T, 0.0)
    R = H.T - _band_apply(sym, ks, U)
    return U + pinned(solve_(range_part(R)).T, -(U @ p))


def annihilator_test(op, g: SpectralField, tol: float = 1e-9) -> AnnihilatorReport:
    """Check the compatibility integrals on every resonant mode of g, with
    the truncation, cokernel row and gate that ``solve`` uses."""
    violations = []
    resonant = []
    for sym, modes in _walk(op, g):
        if not sym.resonant:
            continue
        resonant.extend(modes)
        N, band, _, gmax = _group_data(sym, g, modes)
        y, _ = _null_rows(sym, N, _grid_size(N))
        bw = sym.osc.bandwidth
        comp, bad = _gate(y, band[:, bw:bw + 2 * N + 1], gmax, tol)
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
    residual_bound: float
    mode_count: int
    resonant_modes: list[ModeIndex]
    strategy: str
    sup_bound_ok: bool
    sup_ratio: float


def _worse(a: float, b: float) -> float:
    """max(a, b), reading a NaN b, which bounds nothing, as inf."""
    return max(a, b) if b == b else math.inf


def _residual_bound(sym, U: np.ndarray, band: np.ndarray,
                    tail: np.ndarray) -> float:
    """max over rows of sum_k |R_k| + tail, R = L u_hat - g_hat: a bound of
    |L u - g| at every t, for u the interpolant of the samples U.

    u_hat is read off one FFT of U, so the bound covers the solution as
    stored; padded by bw zeros on each side, it holds all of L u_hat's
    band.  ``tail`` bounds the l1 norm of g_hat outside the plan's band.
    """
    n = U.shape[1]
    m = 2 * (n // 2 + sym.osc.bandwidth) + 1
    hat = np.fft.fftshift(fourier.place_spectrum(np.fft.fft(U, axis=1) / n, m), axes=1)
    R = _band_apply(sym, np.arange(m) - m // 2, hat)
    K = band.shape[1] // 2
    R[:, m // 2 - K:m // 2 + K + 1] -= band
    return float((np.abs(R).sum(axis=1) + tail).max())


def solve(op, g: SpectralField, tol: float = 1e-9,
          check_compat: bool = True) -> SolveReport:
    """Solve L u = g mode by mode with one Fourier-Galerkin kernel.

    Each (xi, alpha) group sizes its truncation N from the oscillation
    amplitude and the data bandwidth; the solution grid is the smallest
    power of two holding every group's 2N + 1 coefficients.  Raises
    ModeUnsolvable on a resonant mode whose compatibility fails the gate
    (unless ``check_compat`` is off).  Resonant modes vanish at the argmax
    of the oscillation primitive, and the report carries the sup-norm
    certificate max|u_mode| <= 2 pi max|g_mode| for them.  The reported
    ``residual_bound`` is the l1 norm of the Fourier coefficients of
    L u - g, maximized over the modes, which bounds |L u - g| on the whole
    circle; ``residual_sup`` samples the same residual.
    """
    # Each plan holds only its group's coefficients |k| <= N + bw, and is
    # dropped once solved, so the plans never hold more than the solution
    # will.
    plans = [(sym, modes, *_group_data(sym, g, modes))
             for sym, modes in _walk(op, g)]
    nt_u = _grid_size(max([0] + [plan[2] for plan in plans]))
    u = SpectralField(g.r, g.s, g.bound, nt_u)
    resonant = []
    sup_ratio = 0.0
    sup_ok = True
    bound = 0.0
    plans.reverse()
    while plans:
        sym, modes, N, band, tail, gmax = plans.pop()
        Ghat = band[:, sym.osc.bandwidth:sym.osc.bandwidth + 2 * N + 1]
        null = t_star = None
        if sym.resonant:
            resonant.extend(modes)
            null = _null_rows(sym, N, nt_u)
            if check_compat:
                comp, bad = _gate(null[0], Ghat, gmax, tol)
                if bad.any():
                    raise ode_solver.ModeUnsolvable(complex(comp[np.argmax(bad)]))
            t_star = sym.argmax
        U = _synthesize(_galerkin_solve(sym, Ghat, null, t_star), nt_u)
        bound = _worse(bound, _residual_bound(sym, U, band, tail))
        umax = np.abs(U).max(axis=1)
        nz = gmax > 0
        if nz.any():
            ratio = float((umax[nz] / (TWO_PI * gmax[nz])).max())
            sup_ratio = max(sup_ratio, ratio)
            if sym.resonant and ratio > 1.0 + 1e-9:
                sup_ok = False
        u.table.update(zip(modes, U))
    return SolveReport(solution=u, residual_bound=bound,
                       mode_count=len(g.table), resonant_modes=resonant,
                       strategy=RESONANT_ARGMAX, sup_bound_ok=sup_ok,
                       sup_ratio=sup_ratio)


def residual_sup(op, u: SpectralField, g: SpectralField,
                 refine: int = 4) -> float:
    """sup-norm of L u - g over all modes, sampled on a ``refine``-times
    finer grid, taken one (xi, alpha2) group at a time: L u - g is formed
    in coefficients and synthesized with one inverse FFT per group."""
    nt = refine * u.nt
    worst = 0.0
    for sym, modes in _walk(op, u, g):
        R = (_apply(sym, _spectrum(u, modes), nt)
             - fourier.place_spectrum(_spectrum(g, modes), nt))
        worst = _worse(worst, float(np.abs(np.fft.ifft(R, axis=1)).max()) * nt)
    return worst


def decay_certify(field_: SpectralField) -> fourier.DecayReport:
    """Classify the coefficient decay of a spectral field."""
    return fourier.decay_classify(fourier.field_decay_entries(field_))
