"""The scalar periodic ODE u' + theta(t) u = g on the circle.

Non-resonant modes (mean of theta not in iZ) have a unique periodic
solution given by either of two equivalent integral formulas; resonant
modes are solvable iff a compatibility integral vanishes, with a
one-parameter solution family.  All s-integrals are evaluated exactly per
Fourier mode of the periodized integrand, which keeps both branches
spectrally accurate.  This module is the per-mode reference, used by
``adversarial`` and the tests; ``global_solver`` solves with an
independent Fourier-Galerkin kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .trigpoly import TrigPoly

TWO_PI = 2.0 * math.pi

MINUS, PLUS, AUTO = "MINUS", "PLUS", "AUTO"


class NotPeriodicError(ValueError):
    """Raised when a non-resonant homogeneous solution is requested."""


class ModeUnsolvable(ValueError):
    """Resonant mode whose compatibility integral does not vanish."""

    def __init__(self, compatibility: complex):
        super().__init__(f"resonant mode with nonzero compatibility {compatibility}")
        self.compatibility = compatibility


@dataclass
class ModeODE:
    """One scalar mode: theta = theta0 + oscillation, right-hand side g.

    ``theta0_exact`` carries the exact complex-rational mean when known, in
    which case resonance (theta0 in iZ) is decided exactly; otherwise the
    caller must pass ``resonant`` explicitly.
    """

    theta_osc: TrigPoly
    theta0: complex
    g: Union[TrigPoly, np.ndarray]
    n: int = 512
    theta0_exact: Optional[tuple[Fraction, Fraction]] = None
    resonant: Optional[bool] = None
    resonant_m: Optional[int] = None

    def __post_init__(self):
        if self.theta_osc.coefficient(0) != (Fraction(0), Fraction(0)):
            raise ValueError("theta_osc must have zero mean")
        if self.resonant is None:
            if self.theta0_exact is None:
                raise ValueError("resonance undecidable without exact mean")
            re, im = self.theta0_exact
            self.resonant = (re == 0 and im.denominator == 1)
            if self.resonant:
                self.resonant_m = int(im)
        if self.resonant and self.resonant_m is None:
            m = round(float(np.imag(self.theta0)))
            if abs(np.imag(self.theta0) - m) > 1e-9 or abs(np.real(self.theta0)) > 1e-9:
                raise ValueError("resonant flag inconsistent with theta0")
            self.resonant_m = m

    # -- shared precomputation --------------------------------------------

    def _grid(self) -> np.ndarray:
        return TWO_PI * np.arange(self.n) / self.n

    def _g_samples(self) -> np.ndarray:
        if isinstance(self.g, TrigPoly):
            return np.asarray(self.g.sample(self.n), dtype=complex)
        g = np.asarray(self.g, dtype=complex)
        if g.shape == ():
            return np.full(self.n, complex(g))
        if g.shape != (self.n,):
            raise ValueError("g samples must have length n")
        return g

    def _osc_primitive(self) -> np.ndarray:
        return np.asarray(self.theta_osc.primitive()(self._grid()), dtype=complex)

    def _kernel(self, branch: str = AUTO):
        """``integral_formula`` on this mode's one row."""
        return integral_formula(self.theta0,
                                self.resonant_m if self.resonant else None,
                                self._osc_primitive(),
                                self._g_samples()[None, :], branch)


def _expm1c(z: np.ndarray) -> np.ndarray:
    """exp(z) - 1 for complex arrays, accurate near zero."""
    z = np.asarray(z, dtype=complex)
    out = np.exp(z) - 1.0
    small = np.abs(z) < 1e-8
    if np.any(small):
        zs = z[small]
        out[small] = zs * (1.0 + zs / 2.0 * (1.0 + zs / 3.0))
    return out


def _resolve(branch: str, theta0: complex) -> str:
    """AUTO picks the branch whose kernel stays bounded."""
    if branch == AUTO:
        return MINUS if complex(theta0).real >= 0.0 else PLUS
    return branch


def resonant_homogeneous(m: int, prim: np.ndarray) -> np.ndarray:
    """exp(-i m t - prim) on prim's uniform grid: the periodic kernel
    element of a resonant mode with theta0 = i m."""
    n = len(prim)
    return np.exp(-1j * m * (TWO_PI * np.arange(n) / n) - prim)


def integral_formula(theta0: complex, resonant_m: Optional[int],
                     prim: np.ndarray, G: np.ndarray, branch: str = AUTO):
    """Solve u' + theta u = g for a stack of rows that share one theta.

    ``prim`` samples the primitive of theta's oscillation on the uniform
    n-grid and ``G`` (shape (k, n)) holds k right-hand sides on it;
    ``resonant_m`` is m when theta0 = i m and None otherwise.  Returns
    ``(U, comp)``.  Non-resonant rows: U is the unique periodic solution,
    whose branch divides the exact per-frequency s-integral by
    1 - e^{-2 pi theta0} (MINUS) or e^{2 pi theta0} - 1 (PLUS), and comp
    is None.  Resonant rows: U is the lam = 0 member of the family
    u = e^{-imt - prim} (lam + V) and comp holds the compatibility
    integrals of g * exp(integral of theta).
    """
    n = G.shape[1]
    ts = TWO_PI * np.arange(n) / n
    freqs = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    hat = np.fft.fft(G * np.exp(prim)[None, :], axis=1) / n
    if resonant_m is not None:
        m = resonant_m
        km = freqs + m
        idx = np.where(km == 0)[0]
        comp = TWO_PI * (hat[:, idx[0]] if len(idx)
                         else np.zeros(G.shape[0], dtype=complex))
        with np.errstate(divide="ignore", invalid="ignore"):
            vk = np.where(km[None, :] != 0, hat / (1j * km)[None, :], 0.0)
        # V(t) = sum_{k != -m} p_k (e^{i(k+m)t} - 1)/(i(k+m))
        #      = e^{imt} * idft(vk) - sum_k vk
        V = np.exp(1j * m * ts)[None, :] * np.fft.ifft(vk * n, axis=1) \
            - vk.sum(axis=1, keepdims=True)
        return resonant_homogeneous(m, prim)[None, :] * V, comp
    th0 = complex(theta0)
    w = th0 + 1j * freqs
    branch = _resolve(branch, th0)
    if branch == MINUS:
        ratio = -_expm1c(-TWO_PI * w) / (w * (-_expm1c(np.array(-TWO_PI * th0))))
    elif branch == PLUS:
        ratio = _expm1c(TWO_PI * w) / (w * _expm1c(np.array(TWO_PI * th0)))
    else:
        raise ValueError(f"unknown branch {branch}")
    return np.exp(-prim)[None, :] * np.fft.ifft(hat * ratio[None, :] * n, axis=1), None


@dataclass
class ModeSolution:
    values: np.ndarray
    branch: str
    compatibility: Optional[complex] = None


def compatibility(ode: ModeODE) -> complex:
    """The integral over the period of g * exp(integral of theta)."""
    if not ode.resonant:
        raise ValueError("compatibility is defined for resonant modes")
    return complex(ode._kernel()[1][0])


def homogeneous(ode: ModeODE) -> np.ndarray:
    """exp(-integral_0^t theta); periodic exactly in the resonant case."""
    if not ode.resonant:
        raise NotPeriodicError("homogeneous solution is not periodic: mean not in iZ")
    return resonant_homogeneous(ode.resonant_m, ode._osc_primitive())


def resonant_profile_value(ode: ModeODE, t: float) -> complex:
    """V(t) = sum_{k != -m} p_k (e^{i(k+m)t} - 1)/(i(k+m)) at an arbitrary t.

    The resonant solution family is u = e^{-imt - osc} (lam + V); choosing
    lam = -V(t*) normalizes u(t*) = 0 at any basepoint t*.
    """
    if not ode.resonant:
        raise ValueError("profile value is defined for resonant modes")
    hat = np.fft.fft(ode._g_samples() * np.exp(ode._osc_primitive())) / ode.n
    km = np.fft.fftfreq(ode.n, d=1.0 / ode.n).astype(int) + ode.resonant_m
    kmm = km[km != 0]
    terms = hat[km != 0] * (np.exp(1j * kmm * t) - 1.0) / (1j * kmm)
    return complex(terms.sum())


def solve_mode(ode: ModeODE, branch: str = AUTO, lam: complex = 0.0,
               tol: float = 1e-9, check_compat: bool = True) -> ModeSolution:
    """Solve u' + theta u = g on the uniform n-grid with ``integral_formula``.

    Non-resonant modes use ``branch``; AUTO picks the branch whose kernel
    stays bounded (MINUS when Re theta0 >= 0).  Resonant modes return the
    family member ``lam`` after the compatibility gate
    |integral| <= tol * (max|g| + 1).
    """
    U, comp = ode._kernel(branch)
    if not ode.resonant:
        return ModeSolution(U[0], _resolve(branch, ode.theta0))
    if check_compat and abs(comp[0]) > tol * (np.abs(ode._g_samples()).max() + 1.0):
        raise ModeUnsolvable(complex(comp[0]))
    u = U[0] + lam * homogeneous(ode) if lam else U[0]
    return ModeSolution(u, "RESONANT", compatibility=complex(comp[0]))


def residual(ode: ModeODE, u: np.ndarray) -> float:
    """sup |u' + theta u - g| evaluated spectrally on the mode grid."""
    n = ode.n
    freqs = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    du = np.fft.ifft(np.fft.fft(u) * (1j * freqs))
    theta_vals = ode.theta0 + ode.theta_osc(ode._grid())
    return float(np.abs(du + theta_vals * u - ode._g_samples()).max())
