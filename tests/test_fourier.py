"""Analysis/synthesis on the torus-sphere product, checked by quadrature."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsh import fourier
from gsh.fourier import (GridFunction, GridSpec, ModeIndex, RAPID_DECAY,
                         POLYNOMIAL_GROWTH, SUPRAPOLYNOMIAL, SpectralField,
                         analyze_partial, analyze_total, decay_classify,
                         pairing, plancherel_partial, plancherel_total,
                         random_field, resample, synthesize,
                         synthesize_partial_from_total)
from gsh.harmonics import WignerIndex, wigner_t

TWO_PI = 2.0 * math.pi


def _sample_sphere_coefficient(spec: GridSpec, l2: int, a2: int, b2: int) -> GridFunction:
    """Grid samples of the single matrix coefficient t^l_{beta alpha}."""
    assert (spec.r, spec.s) == (0, 1)
    idx = WignerIndex(l2, b2, a2)
    phi = spec.phi_nodes
    theta, _ = spec.theta_nodes_weights()
    psi = spec.psi_nodes
    data = np.empty(spec.shape, dtype=complex)
    for i, ph in enumerate(phi):
        for j, th in enumerate(theta):
            for k, ps in enumerate(psi):
                from gsh.harmonics import EulerAngles
                data[:, i, j, k] = wigner_t(idx, EulerAngles(ph, th, ps))
    return GridFunction(spec, data)


def test_single_coefficient_normalization():
    spec = GridSpec(0, 1, 2)
    for (l2, a2, b2) in [(0, 0, 0), (1, 1, -1), (2, 0, 2), (2, -2, -2)]:
        f = _sample_sphere_coefficient(spec, l2, a2, b2)
        F = analyze_partial(f)
        target = ModeIndex(xi=(), l2=(l2,), alpha2=(a2,), beta2=(b2,))
        d = l2 + 1
        got = F.table.get(target)
        assert got is not None
        assert np.abs(got - 1.0 / d).max() < 1e-12
        for mode, vals in F.table.items():
            if mode != target:
                assert np.abs(vals).max() < 1e-12
        # mass-one sphere measure: the squared L2 norm is 2 pi / d
        assert f.l2_norm_sq() == pytest.approx(TWO_PI / d, rel=1e-12)


def test_round_trip_and_plancherel():
    rng = np.random.default_rng(3)
    F = random_field(rng, r=1, s=1, bound=2, nt=16)
    g = synthesize(F)
    G = analyze_partial(g)
    worst = 0.0
    for mode in set(F.table) | set(G.table):
        worst = max(worst, float(np.abs(F.get(mode) - G.get(mode)).max()))
    assert worst < 1e-10
    # Plancherel: grid quadrature of |f|^2 equals the weighted mode sum
    lhs = g.l2_norm_sq()
    rhs = plancherel_partial(F)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_total_coefficients_consistent():
    rng = np.random.default_rng(11)
    F = random_field(rng, r=0, s=1, bound=1, nt=16, t_bandwidth=3)
    total = analyze_total(F)
    back = synthesize_partial_from_total(total, 0, 1, 1, 16)
    for mode in set(F.table) | set(back.table):
        assert np.abs(F.get(mode) - back.get(mode)).max() < 1e-11
    assert plancherel_total(total, 0) == pytest.approx(plancherel_partial(F),
                                                       rel=1e-9)


def test_pairing_against_grid_quadrature():
    rng = np.random.default_rng(5)
    spec = GridSpec(0, 1, 2)
    F = random_field(rng, r=0, s=1, bound=1, nt=spec.nt, t_bandwidth=2)
    G = random_field(rng, r=0, s=1, bound=1, nt=spec.nt, t_bandwidth=2)
    f = synthesize(F, spec)
    g = synthesize(G, spec)
    prod = GridFunction(spec, f.data * g.data)
    oracle = prod.integral()
    got = pairing(F, G)
    assert got == pytest.approx(oracle, abs=1e-9 * (1 + abs(oracle)))


def test_pairing_mixed_grids():
    rng = np.random.default_rng(9)
    F = random_field(rng, r=1, s=0, bound=2, nt=16)
    G2 = random_field(rng, r=1, s=0, bound=2, nt=32, t_bandwidth=2)
    direct = pairing(fourier.SpectralField(1, 0, 2, 32,
                                           {m: resample(v, 32) for m, v in F.table.items()}),
                     G2)
    assert pairing(F, G2) == pytest.approx(direct, abs=1e-11)


def test_resample_band_limited_exact():
    n = 16
    ts = TWO_PI * np.arange(n) / n
    vals = np.exp(3j * ts) + 0.5 * np.exp(-2j * ts) + 0.25
    up = resample(vals, 48)
    ts_up = TWO_PI * np.arange(48) / 48
    oracle = np.exp(3j * ts_up) + 0.5 * np.exp(-2j * ts_up) + 0.25
    assert np.abs(up - oracle).max() < 1e-12
    # downsampling back is the identity on band-limited data
    assert np.abs(resample(up, n) - vals).max() < 1e-12


@settings(max_examples=200, deadline=None)
@given(m=st.integers(2, 40), n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
@example(m=15, n=16, seed=0)
@example(m=16, n=15, seed=0)
@example(m=17, n=33, seed=0)
@example(m=33, n=17, seed=0)
@example(m=16, n=32, seed=0)
@example(m=32, n=16, seed=0)
def test_resample_any_parity(m, n, seed):
    rng = np.random.default_rng(seed)
    ks = np.arange(-((min(m, n) - 1) // 2), (min(m, n) - 1) // 2 + 1)
    coef = rng.normal(size=(3, len(ks))) + 1j * rng.normal(size=(3, len(ks)))

    def samples(p):
        return coef @ np.exp(1j * np.outer(ks, TWO_PI * np.arange(p) / p))

    # bandwidth below min(m, n) / 2 is reproduced exactly
    assert np.abs(resample(samples(m), n) - samples(n)).max() \
        < 1e-12 * np.abs(coef).sum()
    # a stack is resampled row by row, whatever the data
    X = rng.normal(size=(3, m)) + 1j * rng.normal(size=(3, m))
    assert np.array_equal(resample(X, n), np.stack([resample(x, n) for x in X]))
    assert np.array_equal(resample(X, m), X)


def test_mode_index_geometry():
    mode = ModeIndex(xi=(2,), l2=(3,), alpha2=(1,), beta2=(-1,))
    assert mode.d_ell == 4
    refl = mode.reflected()
    assert refl.xi == (-2,) and refl.alpha2 == (-1,) and refl.beta2 == (1,)
    with pytest.raises(ValueError):
        ModeIndex(xi=(0,), l2=(3,), alpha2=(2,), beta2=(1,))  # parity mismatch
    with pytest.raises(ValueError):
        ModeIndex(xi=(0,), l2=(1,), alpha2=(3,), beta2=(1,))  # |alpha| > l


def test_decay_classification():
    norms = [2.0 ** k for k in range(1, 9)]
    poly = [(w, -3.0 * math.log(w)) for w in norms]
    rep = decay_classify(poly)
    assert rep.kind == POLYNOMIAL_GROWTH
    assert rep.exponent == pytest.approx(-3.0, abs=0.2)

    rapid = [(w, -w) for w in norms]
    assert decay_classify(rapid).kind == RAPID_DECAY

    supra = [(w, w) for w in norms]
    assert decay_classify(supra).kind == SUPRAPOLYNOMIAL

    with pytest.raises(ValueError):
        decay_classify([(1.0, 0.0), (2.0, -1.0)])  # not enough shells


def test_field_decay_entries_log_domain():
    # amplitudes far below float underflow survive via the log representation
    F = SpectralField(1, 0, 64, 8)
    ts = np.zeros(8, dtype=complex)
    for xi in range(1, 65):
        F.set(ModeIndex(xi=(xi,), l2=(), alpha2=(), beta2=()),
              ts + math.exp(-min(xi * 20.0, 700.0)))
    entries = fourier.field_decay_entries(F)
    assert decay_classify(entries).kind == RAPID_DECAY
