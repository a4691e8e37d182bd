"""Fourier analysis and synthesis on G = T^{r+1} x (S^3)^s.

The canonical representation of a function (or polynomially bounded
distribution) is a SpectralField: a finitely supported table mapping
partial mode indices (xi, l, alpha, beta) to functions of t on the circle.
Grids exist only at the I/O boundary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .harmonics import WignerIndex, legendre_P

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Mode bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeIndex:
    """Partial mode (xi, l, alpha, beta); half-integers stored as twice-values."""

    xi: tuple[int, ...]
    l2: tuple[int, ...]
    alpha2: tuple[int, ...]
    beta2: tuple[int, ...]
    tau: Optional[int] = None

    def __post_init__(self):
        for l2, a2, b2 in zip(self.l2, self.alpha2, self.beta2):
            for v2 in (a2, b2):
                if abs(v2) > l2 or (l2 - v2) % 2 != 0:
                    raise ValueError(f"invalid mode index {self}")
        # a mode keys the tables of every field: hash it once
        object.__setattr__(self, "_hash",
                           hash((self.xi, self.l2, self.alpha2, self.beta2, self.tau)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def d_ell(self) -> int:
        out = 1
        for l2 in self.l2:
            out *= l2 + 1
        return out

    def weight(self) -> float:
        """The norm |tau| + |xi|_1 + |l|_1 used by growth classification."""
        w = sum(abs(x) for x in self.xi) + sum(l2 for l2 in self.l2) / 2.0
        if self.tau is not None:
            w += abs(self.tau)
        return w

    def bracket(self) -> float:
        """Elliptic weight sqrt(1 + tau^2 + |xi|^2 + sum l(l+1))."""
        out = 1.0 + sum(x * x for x in self.xi)
        out += sum((l2 / 2.0) * (l2 / 2.0 + 1.0) for l2 in self.l2)
        if self.tau is not None:
            out += self.tau * self.tau
        return math.sqrt(out)

    def reflected(self) -> "ModeIndex":
        return ModeIndex(xi=tuple(-x for x in self.xi), l2=self.l2,
                         alpha2=tuple(-a for a in self.alpha2),
                         beta2=tuple(-b for b in self.beta2),
                         tau=None if self.tau is None else -self.tau)


def sphere_modes(bound: int) -> list[tuple[int, int, int]]:
    """All (l2, alpha2, beta2) with l <= bound."""
    out = []
    for l2 in range(0, 2 * bound + 1):
        for a2 in range(-l2, l2 + 1, 2):
            for b2 in range(-l2, l2 + 1, 2):
                out.append((l2, a2, b2))
    return out


def enumerate_modes(r: int, s: int, bound: int) -> Iterable[ModeIndex]:
    xis = itertools.product(range(-bound, bound + 1), repeat=r)
    sph = sphere_modes(bound)
    for xi in xis:
        for combo in itertools.product(sph, repeat=s):
            yield ModeIndex(xi=tuple(xi),
                            l2=tuple(c[0] for c in combo),
                            alpha2=tuple(c[1] for c in combo),
                            beta2=tuple(c[2] for c in combo))


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Product grid resolving a given mode bound.

    Torus axes and phi use uniform nodes (>= 2*bound+1 so products of two
    band-limited factors integrate exactly); psi uses a uniform grid over
    its 4 pi period (>= 4*bound+1 after the half-angle substitution);
    cos(theta) uses Gauss-Legendre nodes.
    """

    r: int
    s: int
    bound: int
    nt: int = 0
    nx: int = 0
    nphi: int = 0
    ntheta: int = 0
    npsi: int = 0

    def __post_init__(self):
        b = self.bound
        object.__setattr__(self, "nt", self.nt or max(2 * b + 1, 8))
        object.__setattr__(self, "nx", self.nx or max(2 * b + 1, 4))
        object.__setattr__(self, "nphi", self.nphi or max(2 * b + 1, 4))
        object.__setattr__(self, "ntheta", self.ntheta or max(2 * b + 1, 4))
        object.__setattr__(self, "npsi", self.npsi or max(4 * b + 1, 4))

    @property
    def shape(self) -> tuple[int, ...]:
        return ((self.nt,) + (self.nx,) * self.r
                + (self.nphi, self.ntheta, self.npsi) * self.s)

    @property
    def phi_nodes(self) -> np.ndarray:
        return TWO_PI * np.arange(self.nphi) / self.nphi

    def theta_nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        x, w = np.polynomial.legendre.leggauss(self.ntheta)
        return np.arccos(x), w / 2.0

    @property
    def psi_nodes(self) -> np.ndarray:
        return -TWO_PI + 2.0 * TWO_PI * np.arange(self.npsi) / self.npsi


@dataclass
class GridFunction:
    spec: GridSpec
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.shape != self.spec.shape:
            raise ValueError("data shape does not match the grid spec")

    def integral(self) -> complex:
        """Integral over G: Lebesgue on the torus axes, mass-1 on spheres."""
        vals = self.data
        # theta quadrature per sphere, then plain means elsewhere
        _, w = self.spec.theta_nodes_weights()
        for k in reversed(range(self.spec.s)):
            ax = 1 + self.spec.r + 3 * k
            vals = vals.mean(axis=ax + 2)          # psi
            vals = np.tensordot(vals, w, axes=([ax + 1], [0]))  # theta
            vals = vals.mean(axis=ax)              # phi
        return complex(vals.mean() * TWO_PI ** (1 + self.spec.r))

    def l2_norm_sq(self) -> float:
        g = GridFunction(self.spec, np.abs(self.data) ** 2)
        return float(np.real(g.integral()))


# ---------------------------------------------------------------------------
# Sphere basis tensors
# ---------------------------------------------------------------------------


class SphereBasis:
    """Sampled Wigner coefficients t^l_{beta,alpha} on the product grid.

    ``synth[i]`` samples t^l_{beta alpha} for mode i = (l2, alpha2, beta2);
    ``conj_weighted[i]`` is its conjugate with the quadrature weights folded
    in, so analysis is a single tensor contraction.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.modes = sphere_modes(spec.bound)
        self.index = {m: i for i, m in enumerate(self.modes)}
        phi = spec.phi_nodes
        theta, wtheta = spec.theta_nodes_weights()
        psi = spec.psi_nodes
        n = len(self.modes)
        self.synth = np.empty((n, spec.nphi, spec.ntheta, spec.npsi), dtype=complex)
        for i, (l2, a2, b2) in enumerate(self.modes):
            idx = WignerIndex(l2, b2, a2)          # t^l_{beta, alpha}
            P = np.array([legendre_P(idx, math.cos(th)) for th in theta])
            e_phi = np.exp(-1j * (b2 / 2.0) * phi)
            e_psi = np.exp(-1j * (a2 / 2.0) * psi)
            self.synth[i] = e_phi[:, None, None] * P[None, :, None] * e_psi[None, None, :]
        w = wtheta / (spec.nphi * spec.npsi)
        self.conj_weighted = np.conj(self.synth) * w[None, None, :, None]
        self.d_ell = np.array([l2 + 1 for (l2, _, _) in self.modes], dtype=float)


_BASIS_CACHE: dict[GridSpec, SphereBasis] = {}


def _basis(spec: GridSpec) -> SphereBasis:
    if spec not in _BASIS_CACHE:
        _BASIS_CACHE[spec] = SphereBasis(spec)
    return _BASIS_CACHE[spec]


# ---------------------------------------------------------------------------
# Spectral fields
# ---------------------------------------------------------------------------


@dataclass
class SpectralField:
    """Finitely supported table of partial Fourier coefficients.

    Values are t-sample vectors of length nt on the uniform grid
    t_j = 2 pi j / nt.
    """

    r: int
    s: int
    bound: int
    nt: int
    table: dict[ModeIndex, np.ndarray] = field(default_factory=dict)

    def set(self, mode: ModeIndex, values) -> None:
        values = np.asarray(values, dtype=complex)
        if values.shape == ():
            values = np.full(self.nt, complex(values))
        if values.shape != (self.nt,):
            raise ValueError("mode values must have length nt")
        self.table[mode] = values

    def get(self, mode: ModeIndex) -> np.ndarray:
        values = self.table.get(mode)
        return np.zeros(self.nt, dtype=complex) if values is None else values

    def copy_empty(self) -> "SpectralField":
        return SpectralField(self.r, self.s, self.bound, self.nt)

    def to_json(self) -> dict:
        modes = []
        for m, v in sorted(self.table.items(), key=lambda kv: repr(kv[0])):
            modes.append({"xi": list(m.xi), "l2": list(m.l2),
                          "alpha2": list(m.alpha2), "beta2": list(m.beta2),
                          "re": list(np.real(v)), "im": list(np.imag(v))})
        return {"r": self.r, "s": self.s, "bound": self.bound,
                "nt": self.nt, "modes": modes}

    @staticmethod
    def from_json(obj) -> "SpectralField":
        out = SpectralField(int(obj["r"]), int(obj["s"]), int(obj["bound"]),
                            int(obj["nt"]))
        for m in obj.get("modes", []):
            mode = ModeIndex(xi=tuple(m["xi"]), l2=tuple(m["l2"]),
                             alpha2=tuple(m["alpha2"]), beta2=tuple(m["beta2"]))
            if len(mode.xi) != out.r or not (
                    len(mode.l2) == len(mode.alpha2) == len(mode.beta2) == out.s):
                raise ValueError(f"mode {mode} does not fit r = {out.r}, s = {out.s}")
            out.set(mode, np.array(m["re"], dtype=float)
                    + 1j * np.array(m["im"], dtype=float))
        return out


def random_field(rng: np.random.Generator, r: int, s: int, bound: int,
                 nt: int, t_bandwidth: Optional[int] = None,
                 density: float = 1.0) -> SpectralField:
    """Random band-limited SpectralField with smooth t-profiles."""
    tb = bound if t_bandwidth is None else t_bandwidth
    out = SpectralField(r, s, bound, nt)
    ts = TWO_PI * np.arange(nt) / nt
    for mode in enumerate_modes(r, s, bound):
        if density < 1.0 and rng.uniform() > density:
            continue
        prof = np.zeros(nt, dtype=complex)
        for k in range(-tb, tb + 1):
            c = rng.normal() + 1j * rng.normal()
            prof += c * np.exp(1j * k * ts)
        out.set(mode, prof / math.sqrt(2 * tb + 1))
    return out


# ---------------------------------------------------------------------------
# Analysis / synthesis
# ---------------------------------------------------------------------------


def analyze_partial(f: GridFunction, bound: Optional[int] = None) -> SpectralField:
    """Partial Fourier coefficients fhat(t, xi, l)_{alpha beta}.

    Exact (to quadrature precision) for inputs band-limited within the
    grid's declared bound.
    """
    spec = f.spec
    bound = spec.bound if bound is None else bound
    if bound > spec.bound:
        raise ValueError("grid does not resolve the requested bound")
    basis = _basis(spec)
    data = f.data
    # torus x transforms: mean with e^{-i xi x} == fft / n
    for ax in range(1, 1 + spec.r):
        data = np.fft.fft(data, axis=ax) / spec.nx
    # sphere contractions, last sphere first so axis numbers stay valid
    for k in reversed(range(spec.s)):
        ax = 1 + spec.r + 3 * k
        data = np.tensordot(data, basis.conj_weighted,
                            axes=([ax, ax + 1, ax + 2], [1, 2, 3]))
    # axes now: (t, x1..xr, sphere_s, ..., sphere_1) reversed sphere order
    out = SpectralField(spec.r, spec.s, bound, spec.nt)
    nsph = len(basis.modes)
    for xi in itertools.product(range(-bound, bound + 1), repeat=spec.r):
        xsel = data[(slice(None),) + tuple(x % spec.nx for x in xi)]
        for combo_idx in itertools.product(range(nsph), repeat=spec.s):
            # tensordot appended spheres in reversed order; keep the t axis
            sel = xsel[(slice(None),) + tuple(reversed(combo_idx))]
            combo = [basis.modes[i] for i in combo_idx]
            mode = ModeIndex(xi=tuple(xi),
                             l2=tuple(c[0] for c in combo),
                             alpha2=tuple(c[1] for c in combo),
                             beta2=tuple(c[2] for c in combo))
            if np.max(np.abs(sel)) > 0.0:
                out.set(mode, sel)
    return out


def synthesize(F: SpectralField, spec: Optional[GridSpec] = None) -> GridFunction:
    """Evaluate the Peter-Weyl series of a SpectralField on a grid."""
    spec = spec or GridSpec(F.r, F.s, F.bound, nt=F.nt)
    if spec.nt != F.nt:
        raise ValueError("grid nt must match the field nt")
    basis = _basis(spec)
    nsph = len(basis.modes)
    shape = (spec.nt,) + (spec.nx,) * spec.r + (nsph,) * spec.s
    coefs = np.zeros(shape, dtype=complex)
    for mode, vals in F.table.items():
        xpos = tuple(x % spec.nx for x in mode.xi)
        spos = tuple(basis.index[(l2, a2, b2)] for l2, a2, b2
                     in zip(mode.l2, mode.alpha2, mode.beta2))
        coefs[(slice(None),) + xpos + spos] += vals * mode.d_ell
    data = coefs
    for k in reversed(range(spec.s)):
        ax = 1 + spec.r + k
        data = np.tensordot(data, basis.synth, axes=([ax], [0]))
    # tensordot appended sphere grid axes in reversed sphere order; restore
    if spec.s > 1:
        base = 1 + spec.r
        perm = list(range(base))
        for k in range(spec.s):
            src = base + 3 * (spec.s - 1 - k)
            perm.extend([src, src + 1, src + 2])
        data = np.transpose(data, perm)
    for ax in range(1, 1 + spec.r):
        data = np.fft.ifft(data, axis=ax) * spec.nx
    return GridFunction(spec, data)


def analyze_total(f, bound: Optional[int] = None) -> dict[ModeIndex, complex]:
    """Total coefficient table (with tau) from a grid or a partial field."""
    F = analyze_partial(f, bound) if isinstance(f, GridFunction) else f
    out: dict[ModeIndex, complex] = {}
    nt = F.nt
    tmax = (nt - 1) // 2
    for mode, vals in F.table.items():
        hat = np.fft.fft(vals) / nt
        for tau in range(-tmax, tmax + 1):
            c = hat[tau % nt]
            if c != 0:
                out[ModeIndex(mode.xi, mode.l2, mode.alpha2, mode.beta2,
                              tau=tau)] = complex(c)
    return out


def synthesize_partial_from_total(total: dict[ModeIndex, complex], r: int,
                                  s: int, bound: int, nt: int) -> SpectralField:
    out = SpectralField(r, s, bound, nt)
    ts = TWO_PI * np.arange(nt) / nt
    for mode, c in total.items():
        base = ModeIndex(mode.xi, mode.l2, mode.alpha2, mode.beta2)
        out.set(base, out.get(base) + c * np.exp(1j * mode.tau * ts))
    return out


def plancherel_partial(F: SpectralField) -> float:
    """(2 pi)^r * integral_t sum d_ell |fhat(t)|^2 dt."""
    acc = 0.0
    for mode, vals in F.table.items():
        acc += mode.d_ell * float(np.mean(np.abs(vals) ** 2)) * TWO_PI
    return acc * TWO_PI ** F.r


def plancherel_total(total: dict[ModeIndex, complex], r: int) -> float:
    acc = 0.0
    for mode, c in total.items():
        acc += mode.d_ell * abs(c) ** 2
    return acc * TWO_PI ** (r + 1)


def pairing(f: SpectralField, g: SpectralField) -> complex:
    """The bilinear form integral_G f*g via the mode-wise formula."""
    if (f.r, f.s) != (g.r, g.s):
        raise ValueError("field dimensions do not match")
    acc = 0.0 + 0.0j
    for mode, vals in f.table.items():
        other = ModeIndex(xi=tuple(-x for x in mode.xi), l2=mode.l2,
                          alpha2=tuple(-a for a in mode.alpha2),
                          beta2=tuple(-b for b in mode.beta2))
        gvals = g.table.get(other)
        if gvals is None:
            continue
        sign = (-1.0) ** (sum((a2 - b2) // 2 for a2, b2
                              in zip(mode.alpha2, mode.beta2)) % 2)
        integral = np.mean(_match_grid(vals, gvals)) * TWO_PI
        acc += mode.d_ell * sign * integral
    return complex(acc * TWO_PI ** f.r)


def _match_grid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) == len(b):
        return a * b
    n = max(len(a), len(b))
    return resample(a, n) * resample(b, n)


def place_spectrum(hat: np.ndarray, n: int) -> np.ndarray:
    """An m-point DFT (last axis) moved to the n-point DFT layout of the
    same trigonometric interpolant, for either parity of m and n.

    Frequencies |k| < min(m, n) / 2 are copied.  When the smaller grid is
    even, its Nyquist bin is split between +-m/2 going up and folded from
    +-n/2 going down, so data of bandwidth below min(m, n) / 2 is
    reproduced exactly.  The scale of ``hat`` is kept.
    """
    m = hat.shape[-1]
    if m == n:
        return hat
    out = np.zeros(hat.shape[:-1] + (n,), dtype=complex)
    k = (min(m, n) - 1) // 2
    out[..., :k + 1] = hat[..., :k + 1]
    out[..., n - k:] = hat[..., m - k:]
    if min(m, n) % 2 == 0:
        half = k + 1
        if m < n:
            out[..., half] = hat[..., half] / 2.0
            out[..., n - half] += hat[..., half] / 2.0
        else:
            out[..., half] = hat[..., half] + hat[..., m - half]
    return out


def resample(vals: np.ndarray, n: int) -> np.ndarray:
    """Band-limited resampling of periodic samples to n points, over the
    last axis, by the placement rule of ``place_spectrum``."""
    X = np.asarray(vals, dtype=complex)
    m = X.shape[-1]
    if m == n:
        return X
    hat = place_spectrum(np.fft.fft(X, axis=-1), n)
    return np.fft.ifft(hat, axis=-1) * (n / m)


# ---------------------------------------------------------------------------
# Growth / decay classification
# ---------------------------------------------------------------------------

RAPID_DECAY = "RAPID_DECAY"
POLYNOMIAL_GROWTH = "POLYNOMIAL_GROWTH"
SUPRAPOLYNOMIAL = "SUPRAPOLYNOMIAL"


@dataclass(frozen=True)
class DecayReport:
    kind: str
    exponent: float
    shell_slopes: tuple[float, ...]


def decay_classify(entries, min_shells: int = 3) -> DecayReport:
    """Classify a coefficient table by dyadic-shell growth of log|coef|.

    ``entries`` is an iterable of (norm, log_magnitude) pairs; magnitudes
    are accepted directly in log domain so adversarial tables never
    materialize underflowing floats.
    """
    shells: dict[int, float] = {}
    for norm, logmag in entries:
        norm = float(norm)
        if norm <= 0.0:
            continue
        k = max(0, int(math.floor(math.log2(max(norm, 0.5)))))
        shells[k] = max(shells.get(k, -math.inf), float(logmag))
    keys = sorted(shells)
    if len(keys) < min_shells:
        raise ValueError(f"need at least {min_shells} dyadic shells, got {len(keys)}")
    # representative norm of shell k is 2^k; slopes in log-log coordinates
    xs = [k * math.log(2.0) + math.log(1.5) for k in keys]
    ys = [shells[k] for k in keys]
    slopes = tuple((ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
                   for i in range(len(keys) - 1))
    overall = float(np.polyfit(xs, ys, 1)[0])
    drift = slopes[-1] - slopes[0]
    if drift < -2.0 and slopes[-1] < -1.0:
        return DecayReport(RAPID_DECAY, overall, slopes)
    if drift > 2.0 and slopes[-1] > 1.0:
        return DecayReport(SUPRAPOLYNOMIAL, overall, slopes)
    if overall < -6.0:
        return DecayReport(RAPID_DECAY, overall, slopes)
    return DecayReport(POLYNOMIAL_GROWTH, overall, slopes)


def field_decay_entries(F: SpectralField) -> list[tuple[float, float]]:
    out = []
    for mode, vals in F.table.items():
        mag = float(np.abs(vals).max())
        if mag > 0.0:
            out.append((max(mode.weight(), 0.5), math.log(mag)))
    return out
