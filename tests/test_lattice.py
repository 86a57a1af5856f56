"""Band condition, monodromy, band extraction, and high-energy regimes."""

from __future__ import annotations

import cmath
import json
import math
import sys

import numpy as np
import pytest

from gpi1d import (BandInterval, CouplingScheme, GapInterval, GreekParams, GridTooCoarse,
                   HalflineParams, InsufficientBands, LatticeSpec, PointKind, Regime,
                   asymptotic_regime, band_condition_lhs_bound, band_condition_rhs, band_structure,
                   bloch_determinant, classify_regime, dispersion,
                   gauge_transform, monodromy_trace, point_spectrum, scheme_to_transfer,
                   trace_at_energy)
from gpi1d import lattice
from conftest import exact_trace, random_greek

PI = math.pi


def _spec(alpha, beta, gamma, ell=1.0) -> LatticeSpec:
    return LatticeSpec(CouplingScheme.from_greek(GreekParams(alpha, beta, gamma)), ell)


# ---------------------------------------------------------------------------
# band condition and monodromy
# ---------------------------------------------------------------------------

def test_rhs_examples():
    spec = _spec(1.3, 0.0, 0.0)  # point coupling of delta type
    for k in (0.3, 2.0, 7.7):
        assert abs(band_condition_rhs(spec, k)
                   - (4 * math.cos(k) + (2 * 1.3 / k) * math.sin(k))) < 1e-12
    spec = _spec(0.0, 0.8, 0.0)  # delta' type
    for k in (0.3, 2.0, 7.7):
        assert abs(band_condition_rhs(spec, k)
                   - (4 * math.cos(k) - 2 * 0.8 * k * math.sin(k))) < 1e-12
    spec = _spec(0.0, 0.0, 1.0)
    # free-like RHS shape: (4 + det) cos(k ell) + (2 alpha / k) sin with alpha = 0
    assert abs(band_condition_rhs(spec, 2.0) - 5 * math.cos(2.0)) < 1e-12


def test_lhs_bound_examples():
    assert abs(band_condition_lhs_bound(_spec(1.0, 0.0, 0.0)) - 4.0) < 1e-14
    assert abs(band_condition_lhs_bound(_spec(0.0, 1.0, 0.0)) - 4.0) < 1e-14
    # off-diagonal coupling gamma = 2i: det = 4, w = 8i
    assert abs(band_condition_lhs_bound(_spec(0.0, 0.0, 2j)) - 8.0) < 1e-14


@pytest.mark.parametrize("call, message", [
    (lambda _: LatticeSpec(CouplingScheme.from_halfline(HalflineParams(1.0, 2.0, 0.0)), 1.0),
     "lattice requires a coupled (non-separating) scheme"),
    (lambda _: _spec(0.0, 1.0, 2.0),  # det = 4, Im gamma = 0
     "lattice requires a coupled (non-separating) scheme"),
    (lambda spec: band_condition_rhs(spec, 0.0), "k must be positive and finite, got 0.0"),
    (lambda spec: monodromy_trace(spec, -1.0), "k must be positive and finite, got -1.0"),
    (lambda spec: band_condition_rhs(spec, math.inf), "k must be positive and finite, got inf"),
    (lambda spec: monodromy_trace(spec, math.inf), "k must be positive and finite, got inf"),
    (lambda spec: trace_at_energy(spec, math.nan), "energy must be a number below +inf, got nan"),
    (lambda spec: trace_at_energy(spec, math.inf), "energy must be a number below +inf, got inf"),
    (lambda spec: band_structure(spec, 0), "m_max must be >= 1"),
    (lambda spec: band_structure(spec, 2.5), "m_max must be a whole number, got 2.5"),
    (lambda spec: band_structure(spec, math.nan), "m_max must be a whole number, got nan"),
    (lambda spec: asymptotic_regime(spec, (3.5, 9)),
     "m_range must hold whole numbers, got (3.5, 9)"),
    (lambda spec: dispersion(spec, BandInterval(1, 0.0, 1.0), 1), "need at least 2 samples"),
    (lambda spec: dispersion(spec, BandInterval(1, 0.0, 1.0), 3.5),
     "n_samples must be a whole number, got 3.5"),
], ids=["decoupled_halfline", "decoupled_greek", "rhs", "monodromy", "rhs_inf", "monodromy_inf",
        "trace_nan", "trace_inf", "m_max", "m_max_2.5", "m_max_nan", "m_range", "dispersion",
        "dispersion_3.5"])
def test_lattice_calls_refuse_bad_arguments(call, message):
    with pytest.raises(ValueError) as info:
        call(_spec(1.0, 0.0, 0.0))
    assert (type(info.value), str(info.value)) == (ValueError, message)


def test_lattice_counts_may_be_whole_floats():
    spec = _spec(1.0, 0.0, 0.0)
    band = band_structure(spec, 6)[0][0]
    assert band_structure(spec, 6.0) == band_structure(spec, 6)
    assert dispersion(spec, band, 3.0) == dispersion(spec, band, 3)
    assert asymptotic_regime(spec, (1.0, 5.0)) == asymptotic_regime(spec, (1, 5))


@pytest.mark.parametrize("alpha, tol", [(0.0, 1e-13), (1.3, 1e-12)], ids=["free", "delta"])
def test_monodromy_delta_formula(alpha, tol):
    spec = _spec(alpha, 0.0, 0.0)
    for k in (0.4, 1.0, 6.0):
        assert abs(monodromy_trace(spec, k)
                   - (2 * math.cos(k) + (alpha / k) * math.sin(k))) < tol


def test_array_trace_matches_scalar_oracles(rng):
    # one array call over mixed energies against monodromy_trace and the band
    # condition above zero, the hyperbolic formula below, s + c ell at zero, NaN at NaN
    for _ in range(30):
        g = random_greek(rng, allow_beta_zero=True)
        spec = LatticeSpec(CouplingScheme.from_greek(g), float(rng.uniform(0.5, 2.0)))
        ell = spec.ell
        t = scheme_to_transfer(spec.scheme)
        s, c, b = t.ta + t.td, t.tc, t.tb
        z = np.concatenate([rng.uniform(0.05, 25.0, 40), -rng.uniform(0.05, 6.0, 20), [0.0]])
        rng.shuffle(z)
        energies = z * np.abs(z)
        tr = lattice._floquet_trace(spec._trace_coeffs, ell, energies)
        assert tr.shape == energies.shape
        # tr sech / sech on the signed wavenumber z is that trace, bit for bit
        scaled, sech = lattice._trace(spec._trace_coeffs, ell, z)[:2]
        assert np.array_equal(scaled / sech, tr)
        # a NaN energy among them is NaN, not the trace at zero
        with_nan = lattice._floquet_trace(spec._trace_coeffs, ell, np.append(energies, np.nan))
        assert np.array_equal(with_nan, np.append(tr, np.nan), equal_nan=True)
        wmod = band_condition_lhs_bound(spec)
        signs = set()
        for e, val in zip(energies, tr):
            assert abs(val - trace_at_energy(spec, e)) <= 1e-12 * max(1.0, abs(val))
            if e > 0:
                k = math.sqrt(e)
                mono = monodromy_trace(spec, k)
                assert abs(val - mono) < 1e-12 * max(1.0, abs(s) + abs(c / k - b * k))
                rhs = 2.0 * band_condition_rhs(spec, k) / wmod
                assert abs(abs(val) - abs(rhs)) < 1e-9 * max(1.0, abs(val))
                if abs(rhs) > 1e-3:
                    signs.add(math.copysign(1.0, val * rhs))
            elif e < 0:
                q = math.sqrt(-e)
                hyp = s * math.cosh(q * ell) + (c / q + b * q) * math.sinh(q * ell)
                terms = abs(s) * math.cosh(q * ell) + abs(c / q + b * q) * math.sinh(q * ell)
                assert abs(val - hyp) < 1e-12 * max(1.0, terms)
            else:
                assert val == s + c * ell
        # tr = +-2 rhs / |w| with one sign per coupling
        assert len(signs) == 1
        # the three branches join continuously at the threshold
        for e in (1e-14, -1e-14):
            assert abs(trace_at_energy(spec, e) - (s + c * ell)) < 1e-9 * max(1.0, abs(s) + abs(c))


def test_signed_wavenumber_trace_slopes_match_central_differences(rng):
    for _ in range(30):
        g = random_greek(rng, allow_beta_zero=True)
        spec = LatticeSpec(CouplingScheme.from_greek(g), float(rng.uniform(0.5, 2.0)))
        coeffs, ell = spec._trace_coeffs, spec.ell
        z = np.concatenate([rng.uniform(0.05, 25.0, 20), -rng.uniform(0.05, 6.0, 20)])
        h = 1e-6 * np.abs(z)
        values = lattice._trace(coeffs, ell, z)
        ahead, behind = lattice._trace(coeffs, ell, z + h), lattice._trace(coeffs, ell, z - h)
        for value, slope, step_up, step_down in zip(values[:2], values[2:], ahead, behind):
            central = (step_up - step_down) / (2.0 * h)
            scale = np.maximum(np.abs(slope), np.abs(value) / np.abs(z))
            assert np.all(np.abs(central - slope) <= 1e-6 * scale), g
    s, c, _ = coeffs
    at_zero = lattice._trace(coeffs, ell, np.array([0.0]))
    assert [float(v[0]) for v in at_zero] == [s + c * ell, 1.0, 0.0, 0.0]


@pytest.mark.filterwarnings("error")
def test_signed_wavenumber_trace_is_finite_far_below_zero():
    # q ell ~ 1e3: cosh(q ell) overflows, tr sech and sech do not
    spec = _spec(-2.3, -0.7, 0.2 - 0.9j, ell=2.0)
    values = lattice._trace(spec._trace_coeffs, spec.ell, -np.array([400.0, 500.0, 600.0]))
    assert all(np.all(np.isfinite(v)) for v in values)


def test_signed_wavenumber_trace_below_zero_alone_is_the_masked_trace(rng):
    # an all-negative array takes no masks; its values are those of the same
    # points among positive ones, bit for bit, from q ell ~ 1e-3 to ~1e3
    for _ in range(30):
        g = random_greek(rng, allow_beta_zero=True)
        spec = LatticeSpec(CouplingScheme.from_greek(g), float(rng.uniform(0.5, 2.0)))
        coeffs, ell = spec._trace_coeffs, spec.ell
        z = -10.0 ** rng.uniform(-3.0, 2.7, 25)
        mixed = lattice._trace(coeffs, ell, np.concatenate([z, rng.uniform(0.05, 25.0, 5), [0.0]]))
        for alone, among in zip(lattice._trace(coeffs, ell, z), mixed):
            assert np.array_equal(alone, among[:z.size])
        for alone, among in zip(lattice._trace(coeffs, ell, z[0]), mixed):
            assert alone == among[0]


def test_bloch_determinant_oracle(rng):
    # in a band the determinant has a theta root at the band-condition solution;
    # outside, its minimum over theta scales with the band-condition excess
    for _ in range(10):
        g = random_greek(rng, allow_beta_zero=True)
        spec = LatticeSpec(CouplingScheme.from_greek(g), 1.0)
        wmod = band_condition_lhs_bound(spec)
        w = complex(4.0 - g.det, 4.0 * g.gamma.imag)
        for k in rng.uniform(0.3, 15.0, 8):
            rhs = band_condition_rhs(spec, k)
            ths = np.linspace(0.0, 2 * PI, 180, endpoint=False)
            vals = np.array([abs(bloch_determinant(spec, k, th)) for th in ths])
            if abs(rhs) <= 0.97 * wmod:
                # solve Re(w e^{i theta}) = rhs analytically and plug in
                th_star = math.acos(rhs / wmod) - cmath.phase(w)
                assert abs(bloch_determinant(spec, k, th_star)) <= 1e-8 * vals.max()
            elif abs(rhs) >= 1.03 * wmod:
                # min over theta of |LHS - RHS| is |RHS| - |w|
                floor = (abs(rhs) - wmod) / (abs(rhs) + wmod)
                assert vals.min() >= 0.5 * floor * vals.max()


# ---------------------------------------------------------------------------
# band structure
# ---------------------------------------------------------------------------

def _edge_tol(energy: float) -> float:
    return 1e-12 + 8.0 * sys.float_info.epsilon * abs(energy)


def _certified(spec: LatticeSpec, m_max: int):
    """band_structure(spec, m_max), certified against the 60-digit trace, exact_trace.

    Bands 1..m_max come back (or the one band [0, inf) of M = +-I), and the
    gaps between them.  tr runs from one of +-2 to the other across each band
    and keeps its sign across each gap (lattice module docstring), so, with
    tol = _edge_tol(e) and the trace's rounding near 2, r = 4 eps, the edges,
    the band count and their order hold where
    (a) tr takes the value 2 or -2 between e - tol and e + tol of each finite
        edge e, or, where |tr| varies too slowly for the float trace to place
        e that closely, |tr(e)| = 2 to within r;
    (b) |tr| >= 2 - r at tol outside each band, but beside a gap flagged
        closed, with opposite signs at its two ends, and |tr| <= 2 + r at tol
        inside wherever the band is wider than 2 tol;
    (c) tr has one sign on both sides of each gap, and |tr| > 2 at the
        midpoint of each gap not flagged closed;
    (d) e_lo <= e_hi for every band and gap.
    """
    bands, gaps = band_structure(spec, m_max)
    greek, ell = spec.scheme.greek, spec.ell
    r = 4.0 * sys.float_info.epsilon
    assert [b.m for b in bands] == list(range(1, m_max + 1)) or \
        bands == [BandInterval(1, 0.0, math.inf)], bands
    assert [(gp.m, gp.e_lo, gp.e_hi) for gp in gaps] == \
        [(b0.m, b0.e_hi, b1.e_lo) for b0, b1 in zip(bands, bands[1:])]
    closed = [False] + [gp.closed for gp in gaps] + [False]  # the gaps below and above each band
    outside = []  # tr at tol below and at tol above each band
    for band, closed_below, closed_above in zip(bands, closed, closed[1:]):
        assert band.e_lo <= band.e_hi, band
        ends = []
        for e, out, beside_closed in ((band.e_lo, -1.0, closed_below),
                                      (band.e_hi, 1.0, closed_above)):
            if math.isinf(e):
                ends.append(None)
                continue
            tol = _edge_tol(e)
            beyond, within = (exact_trace(greek, ell, e + side * tol) for side in (out, -out))
            low, high = sorted((beyond, within))
            assert low <= 2 <= high or low <= -2 <= high or \
                abs(abs(exact_trace(greek, ell, e)) - 2) <= r, (band, e)
            assert beside_closed or abs(beyond) >= 2 - r, (band, e)
            assert band.width <= 2.0 * tol or abs(within) <= 2 + r, (band, e)
            ends.append(beyond)
        assert None in ends or (ends[0] > 0) != (ends[1] > 0), band
        outside.append(ends)
    for gap, (_, lower_side), (upper_side, _) in zip(gaps, outside, outside[1:]):
        assert gap.e_lo <= gap.e_hi and (lower_side > 0) == (upper_side > 0), gap
        assert gap.closed or abs(exact_trace(greek, ell, 0.5 * (gap.e_lo + gap.e_hi))) > 2, gap
    return bands, gaps


def test_band_and_gap_records_are_immutable_hashable_tuples():
    bands, gaps = band_structure(_spec(-1.0, 0.5, 0.3 + 0.4j), 6)
    again = band_structure(_spec(-1.0, 0.5, 0.3 + 0.4j), 6)
    assert (bands, gaps) == again
    assert len({*bands, *again[0]}) == len(bands) and len({*gaps, *again[1]}) == len(gaps)
    band, gap = bands[1], gaps[1]
    with pytest.raises(AttributeError):
        band.e_lo = 0.0
    with pytest.raises(AttributeError):
        gap.closed = True
    assert band.width == band.e_hi - band.e_lo and gap.width == gap.e_hi - gap.e_lo
    assert (band.m, gap.m) == (2, 2) and gap.closed is False
    m, e_lo, e_hi = band
    assert band == (m, e_lo, e_hi) == BandInterval(m, e_lo, e_hi)
    assert repr(BandInterval(2, 1.0, 3.5)) == "BandInterval(m=2, e_lo=1.0, e_hi=3.5)"
    assert repr(GapInterval(2, 3.5, 4.0)) == "GapInterval(m=2, e_lo=3.5, e_hi=4.0, closed=False)"
    assert GapInterval(2, 3.5, 4.0) == (2, 3.5, 4.0, False)
    assert GapInterval(2, 3.5, 3.5, closed=True).closed is True


@pytest.mark.parametrize("gamma, ta", [(0j, 1.0), (0.9j, 1.0), (-1.6208877449286674j, 1 + 2 ** -52)],
                         ids=["free", "phase_equivalent", "rounded_past_the_identity"])
def test_identity_transfer_factor_is_gapless(gamma, ta):
    # M = I, up to the rounding of det M = 1 at ta = td = 1 + 2^-52, where
    # |tr| = 2 ta |cos(k ell)| would read tiny gaps at every (pi m / ell)^2
    spec = _spec(0.0, 0.0, gamma)
    assert spec._transfer.ta == spec._transfer.td == ta
    assert _certified(spec, 5) == ([BandInterval(1, 0.0, math.inf)], [])


def test_band_ordering_and_disjointness(rng):
    for _ in range(8):
        g = random_greek(rng, allow_beta_zero=True)
        _certified(LatticeSpec(CouplingScheme.from_greek(g), 1.0), 8)


def test_band_structure_gauge_invariance(rng):
    h = HalflineParams(-1.0, 2.0, 0.8)
    h2 = gauge_transform(h, 1.3)
    b1, g1 = _certified(LatticeSpec(CouplingScheme.from_halfline(h), 1.0), 6)
    b2, g2 = band_structure(LatticeSpec(CouplingScheme.from_halfline(h2), 1.0), 6)
    assert len(b1) == len(b2)
    for x, y in zip(b1, b2):
        assert abs(x.e_lo - y.e_lo) < 1e-8 and abs(x.e_hi - y.e_hi) < 1e-8


def _fuzzed_lattice(rng: np.random.Generator, regime: str) -> LatticeSpec:
    ell = float(rng.uniform(0.5, 2.0))
    alpha = float(rng.choice([-1, 1]) * rng.uniform(1.0, 3.0))
    gamma = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
    if regime == "delta_prime":
        beta = float(rng.choice([-1, 1]) * rng.uniform(0.3, 1.5))
        g = GreekParams(float(rng.uniform(-3.0, 3.0)), beta, gamma)
    elif regime == "delta":
        g = GreekParams(alpha, 0.0, complex(0.0, gamma.imag))
    elif regime == "intermediate":
        re = float(rng.choice([-1, 1]) * rng.uniform(0.1, 1.5))
        g = GreekParams(alpha, 0.0, complex(re, gamma.imag))
    elif regime == "strong_delta":
        # delta-like below k ~ sqrt(|alpha/beta|): narrow low bands on wide cells
        ell = float(rng.uniform(3.0, 10.0))
        g = GreekParams(float(rng.choice([-1, 1]) * rng.uniform(5.0, 30.0)),
                        float(rng.choice([-1, 1]) * rng.uniform(0.05, 0.5)), gamma)
    else:  # near delta-like: Re gamma from 1e-6 to 1e-1
        re = float(rng.choice([-1, 1]) * 10.0 ** rng.uniform(-6.0, -1.0))
        g = GreekParams(alpha, 0.0, complex(re, gamma.imag))
    return LatticeSpec(CouplingScheme.from_greek(g), ell)


@pytest.mark.parametrize("regime", ["delta_prime", "delta", "intermediate", "near_delta",
                                    "strong_delta"])
def test_fuzzed_band_structures_are_certified(rng, regime):
    # strong delta-like draws have the narrowest bands, some narrower than the
    # edge tolerance, so that regime gets more draws
    for _ in range(30 if regime == "strong_delta" else 3):
        _certified(_fuzzed_lattice(rng, regime), 12)


@pytest.mark.parametrize("alpha, beta, gamma", [
    pytest.param(1.0, 0.0, 1.0, id="1.0"),
    pytest.param(1.0, 0.0, 0.8 + 0.5j, id="(0.8+0.5j)"),
    pytest.param(1.0, 0.0, 0.05 - 0.3j, id="(0.05-0.3j)"),
    pytest.param(-2.0, 0.0, 0.0, id="delta"),
    pytest.param(0.0, 1.0, 0.0, id="delta_prime"),
    pytest.param(-1.0, 0.5, 0.3 + 0.4j, id="generic"),
])
def test_intermediate_grid_is_linear_in_band_index(alpha, beta, gamma):
    # every regime needs a fixed number of gap points per pi/ell period at
    # high energy, even where gaps (delta) or bands (delta') close like 1/k
    spec = _spec(alpha, beta, gamma)
    n60 = len(lattice._gap_grid(spec, 61.5 * PI))
    n200 = len(lattice._gap_grid(spec, 201.5 * PI))
    assert n200 <= 4 * n60


@pytest.mark.parametrize("gamma", [2.0 + 1.0j, -2.0 + 1.0j], ids=["ta_zero", "td_zero"])
def test_zero_diagonal_transfer_factor_bands_are_certified(gamma):
    # det = 4 with Re gamma = +-2 makes ta (or td) exactly 0, where the gap
    # points have a closed form
    spec = _spec(-1.0, 1.0, gamma)
    t = scheme_to_transfer(spec.scheme)
    assert (t.ta if gamma.real > 0 else t.td) == 0.0
    _certified(spec, 12)


@pytest.mark.parametrize("greek, ell", [
    ((-0.05, 1e-5, 0.1j), 1.0),
    ((-0.006588008621684658, 0.0010129834398322052, 0.00034194609650965127 - 0.8467155676587824j),
     5.794485405907231),
], ids=["beta_1e-5", "beta_1e-3"])
def test_weak_coupling_keeps_every_gap(greek, ell):
    # every gap has |tr| - 2 ~ 1e-4 or less, far narrower than one pi/ell period
    _, gaps = _certified(_spec(*greek, ell=ell), 12)
    assert not any(gp.closed for gp in gaps)


def test_weak_delta_gaps_are_open_at_their_predicted_width():
    # every gap is 8|alpha| / ((4 + |gamma|^2) ell) = 2e-11 wide, 2e-6 of its
    # energy: narrow in absolute terms, but far wider than the edge tolerance
    spec = _spec(1e-8, 0.0, 0.0, ell=1000.0)
    predicted = 8e-8 / (4.0 * 1000.0)
    _, gaps = _certified(spec, 6)
    for gp in gaps:
        assert not gp.closed
        assert abs(gp.width - predicted) <= 0.01 * predicted, gp


def test_narrow_lowest_band_of_a_strong_delta_like_coupling_is_found():
    spec = _spec(16.457106274866916, 0.16176116715989217,
                 1.056989722216858 + 0.23107466788681874j, ell=7.935160124145342)
    bands, _ = _certified(spec, 12)
    assert bands[0].e_lo == pytest.approx(0.14674, abs=1e-5)
    assert bands[0].e_hi == pytest.approx(0.14879, abs=1e-5)


def test_wide_delta_prime_lattice_bands_are_certified():
    # at ell ~ 300 the whole spectrum up to m = 12 lies below k ~ 0.14
    _certified(_spec(0.0, 0.47039136464501174, 0.0, ell=313.8992808817786), 12)


@pytest.mark.parametrize("alpha, gamma, ell, m_max", [
    (-0.05353731173266851, -0.9938699780119435j, 0.007245323765147425, 12),
    (-0.01876, -0.7575j, 0.518, 60),
], ids=["narrow_cell", "weak_coupling"])
def test_weak_delta_like_gaps_are_resolved(alpha, gamma, ell, m_max):
    # the gaps shrink like 1/k; each keeps an end on its (pi m / ell)^2 anchor
    _, gaps = _certified(_spec(alpha, 0.0, gamma, ell=ell), m_max)
    for gp in gaps:
        anchor = (PI * gp.m / ell) ** 2
        assert min(abs(gp.e_lo - anchor), abs(gp.e_hi - anchor)) <= 1e-10 * anchor


@pytest.mark.parametrize("greek, ell", [
    ((-22.95, -0.2334, -0.891 - 0.667j), 47.63),
    ((-23.01408071362846, 0.06829338878558866, -0.34751065317373153 + 0.9642676681790241j),
     6.121087828796645),
    ((-0.27495, -1.21428, -1.23118j), 239.21),
], ids=["bound_bands", "strong_delta", "wide_cell"])
def test_bands_narrower_than_the_edge_tolerance_keep_their_edges_in_order(greek, ell):
    # band 1 is about 1e-13 wide (the first two; their two edges were solved in
    # the other order) or [E, E]; on the wide cell ||tr| - 2| reads 2.1e-6 in
    # floats at band 2's edges, where the 60-digit trace still crosses 2
    _certified(_spec(*greek, ell=ell), 12)


@pytest.mark.filterwarnings("error")
def test_band_scan_does_not_warn_on_cosh_overflow():
    # kappa ~ 1/beta puts the deepest negative samples past cosh's range
    spec = _spec(1.9387891452115085, 0.004907289763501331,
                 -0.5847032372448747 + 1.3942822924711984j, ell=0.6524145117875798)
    bands, _ = band_structure(spec, 12)
    assert bands[-1].m == 12


@pytest.mark.parametrize("ell", [5.0, 20.0, 80.0, 400.0, 1000.0])
def test_bound_state_bands_of_wide_cells(ell):
    # single-center levels kappa = 3.734 and 0.880: one band each, narrower
    # than the float spacing once kappa ell >~ 40, and then [E, E] at -kappa^2
    spec = _spec(-2.3, -0.7, 0.2 - 0.9j, ell=ell)
    levels = sorted(-p.kappa ** 2 for p in point_spectrum(spec.scheme)
                    if p.kind is PointKind.BOUND)
    assert len(levels) == 2
    for m_max in (3, 6):
        negative = [b for b in _certified(spec, m_max)[0] if b.e_lo < 0.0]
        assert len(negative) == 2
        for b, level in zip(negative, levels):
            # from kappa ell = 70 on, band m sits on the m-th level
            assert ell < 80.0 or max(abs(b.e_lo - level), abs(b.e_hi - level)) <= \
                1e-12 * abs(level), (ell, m_max, b, level)


def test_delta_band_narrower_than_the_float_spacing():
    # kappa ell = 400: cosh overflows nowhere near the band, but the band is
    # e^-400 wide, so it is reported at the bound level -1
    spec = _spec(-2.0, 0.0, 0.0, ell=400.0)
    assert [-p.kappa ** 2 for p in point_spectrum(spec.scheme)
            if p.kind is PointKind.BOUND] == [-1.0]
    for m_max in (3, 6):
        bands, _ = _certified(spec, m_max)
        assert (bands[0].e_lo, bands[0].e_hi) == (-1.0, -1.0)
        assert bands[1].e_lo > 0.0


def test_trace_overflows_to_infinity_not_nan():
    # written as s cosh(q ell) + (c/q) sinh(q ell) it would be inf - inf at q ell = 1000
    assert trace_at_energy(_spec(-2.0, 0.0, 0.0), -1e6) == math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cells_narrow_to_wide_bound_the_spectrum_without_warnings():
    # small beta puts a bound level at kappa ~ 1/|beta|; with ell up to 10^2.5
    # kappa ell reaches far past cosh's range
    rng = np.random.default_rng(8)
    for _ in range(150):
        beta = float(rng.choice([0.0, rng.uniform(-3.0, 3.0),
                                 rng.choice([-1, 1]) * 10.0 ** rng.uniform(-4.0, -1.0)]))
        gamma = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        spec = _spec(float(rng.uniform(-3.0, 3.0)), beta, gamma,
                     ell=float(10.0 ** rng.uniform(-2.5, 2.5)))
        bands, _ = band_structure(spec, 12)
        assert bands[-1].m == 12 or math.isinf(bands[-1].e_hi)


def test_newton_bisects_beside_an_infinite_residual():
    # false position toward an infinite end lands on the finite end, which
    # then creeps by one tolerance a step; the solver bisects instead
    calls = []

    def resid(x):
        calls.append(x.size)
        assert len(calls) < 200
        return np.where(x > 0.3, -np.inf, 1.0 - x), np.full(x.shape, -1.0)

    root = lattice._newton(resid, np.array([0.0]), np.array([1.0]))
    assert abs(root[0] - 0.3) <= 1e-11
    assert len(calls) <= 60


def _solver_evaluations(monkeypatch, spec, m_max) -> list[int]:
    # residual evaluations of each _newton call of one band_structure
    counts = []
    solve = lattice._newton

    def counted(resid, lo, hi, *args, **kwargs):
        counts.append(0)

        def resid_counted(x, *a):
            counts[-1] += 1
            assert counts[-1] <= 100, "the solver does not converge"
            return resid(x, *a)
        return solve(resid_counted, lo, hi, *args, **kwargs)

    monkeypatch.setattr(lattice, "_newton", counted)
    band_structure(spec, m_max)
    return counts


# one coupling per high-energy regime, those of the `bands` benchmark workload
ONE_PER_REGIME = [(0.0, 1.0, 0.0), (-2.0, 0.0, 0.0), (-1.0, 0.5, 0.3 + 0.4j),
                  (-1.0, 0.0, 0.5 + 0.3j)]


@pytest.mark.parametrize("greek, ell, m_max, most", [
    ((-22.95, -0.2334, -0.891 - 0.667j), 47.63, 6, 14),
    (ONE_PER_REGIME[0], 1.0, 200, 8), (ONE_PER_REGIME[1], 1.0, 200, 10),
    (ONE_PER_REGIME[2], 1.0, 200, 8), (ONE_PER_REGIME[3], 1.0, 200, 8),
], ids=["bound_bands", "delta_prime", "delta", "generic", "intermediate"])
def test_edges_take_few_evaluations(monkeypatch, greek, ell, m_max, most):
    # below zero the scaled trace varies like c ell near q = 0 and like c/q
    # further out; above zero the Pruefer residual is nearly linear in k.  The
    # bounds are what a band-point solve and an edge solve took together, less
    # one: the solver evaluates both ends of its brackets in one call.
    gap_points, edges = _solver_evaluations(monkeypatch, _spec(*greek, ell=ell), m_max)
    assert edges <= most


@pytest.mark.parametrize("alpha, beta, most", [(-2.0, 0.0, 10), (0.0, 1.0, 8)],
                         ids=["delta", "delta_prime"])
def test_edges_on_gap_points_take_few_evaluations(monkeypatch, alpha, beta, most):
    # every Dirichlet point of delta and Neumann point of delta' is a band
    # edge whose residual is rounding noise of either sign
    gap_points, edges = _solver_evaluations(monkeypatch, _spec(alpha, beta, 0.0), 60)
    assert gap_points <= 7 and edges <= most


@pytest.mark.parametrize("alpha, beta, gamma, ell, m_max", [
    (6.374638238166747, 0.0, -1.410102540438015j, 1.656958599666053e-4, 12),
    (4.363699631480355, -1.1158415309265318e-05, -0.3460478967885976j, 5.292428886414487e-4, 6),
], ids=["delta_like", "delta_prime_like"])
def test_newton_returns_on_narrow_cells(monkeypatch, alpha, beta, gamma, ell, m_max):
    # an edge bracket wide in z, e.g. [160.30, 9481.35], has a stop tolerance
    # below the float spacing of its ends; a step clamped that far inside an
    # end rounds back onto it and the solver never returns
    spec = _spec(alpha, beta, gamma, ell=ell)
    counts = _solver_evaluations(monkeypatch, spec, m_max)
    assert len(counts) == 2 and max(counts) <= 20
    assert [b.m for b in band_structure(spec, m_max)[0]] == list(range(1, m_max + 1))


def _cubic(c, nan_below=-math.inf):
    # x^3 - c and its slope, one c per bracket along the last axis; the
    # residual is nan at or below nan_below
    def resid(x):
        return np.where(x <= nan_below, np.nan, x * x * x - c), 3.0 * x * x
    return resid


def _recording(resid, seen):
    def recorded(x):
        seen.append(np.array(x))
        return resid(x)
    return recorded


def test_newton_starts_with_both_ends_in_one_call():
    c = np.array([2.0, 30.0, -5.0, 0.5])
    lo, hi = np.array([1.0, 2.0, -3.0, 0.1]), np.array([2.0, 4.0, 0.0, 1.0])
    seen = []
    roots = lattice._newton(_recording(_cubic(c), seen), lo, hi)
    assert seen[0].shape == (2, 4) and (seen[0] == [lo, hi]).all()
    assert all(x.shape == (4,) for x in seen[1:])
    assert (np.abs(roots - np.cbrt(c)) <= 2e-12 * np.abs(np.cbrt(c))).all()
    # each bracket alone, its ends in one call of shape (2, 1), comes to the same root
    for i in range(4):
        alone = lattice._newton(_cubic(c[i:i + 1]), lo[i:i + 1], hi[i:i + 1])
        assert alone.tolist() == roots[i:i + 1].tolist()


def test_newton_updates_no_array_of_its_residual():
    # the residual returns x itself and a read-only slope
    roots = lattice._newton(lambda x: (x, np.broadcast_to(1.0, np.shape(x))),
                            np.array([-1.0, -2.0]), np.array([3.0, 0.5]))
    assert roots.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("greek, ell", [
    ((-2.0, 0.0, 0.0), 1.0), ((-1.0, 0.5, 0.3 + 0.4j), 1.0),
    ((-22.95, -0.2334, -0.891 - 0.667j), 47.63),
    ((4.363699631480355, -1.1158415309265318e-05, -0.3460478967885976j), 5.292428886414487e-4),
], ids=["delta", "generic", "bound_bands", "narrow"])
def test_band_residuals_take_both_ends_as_each_end_alone(monkeypatch, greek, ell):
    # the gap-point and edge residuals give on [lo, hi] what they give on lo
    # and on hi, bit for bit, brackets below zero included
    solve = lattice._newton

    def rowwise(resid, lo, hi, *args, **kwargs):
        def resid_by_rows(x):
            if np.ndim(x) == 1:
                return resid(x)
            (fa, da), (fb, db) = resid(x[0]), resid(x[1])
            both = resid(x)
            assert [v.tobytes() for v in both] == [np.array([fa, fb]).tobytes(),
                                                  np.array([da, db]).tobytes()]
            return both
        return solve(resid_by_rows, lo, hi, *args, **kwargs)

    spec = _spec(*greek, ell=ell)
    want = band_structure(spec, 40)
    monkeypatch.setattr(lattice, "_newton", rowwise)
    assert band_structure(spec, 40) == want


def test_newton_returns_an_end_that_is_an_exact_root():
    # x^3 - 8 vanishes at its lower end 2, x^3 + 1 at its upper end -1
    c = np.array([8.0, -1.0])
    seen = []
    roots = lattice._newton(_recording(_cubic(c), seen), np.array([2.0, -3.0]), np.array([5.0, -1.0]))
    assert roots.tolist() == [2.0, -1.0] and len(seen) == 1


def test_newton_returns_the_end_with_the_smaller_residual_where_the_ends_share_a_sign():
    # x^3 - 2 is positive on [2, 3] and negative on [-3, -2]
    c = np.array([2.0, 2.0])
    seen = []
    roots = lattice._newton(_recording(_cubic(c), seen), np.array([2.0, -3.0]), np.array([3.0, -2.0]))
    assert roots.tolist() == [2.0, -2.0] and len(seen) == 1


def test_newton_takes_no_step_in_a_bracket_narrower_than_its_tolerance():
    # x - 1 - 5e-14 on [1, 1 + 1e-13]: done at the start, at the false-position point
    seen = []
    lo, hi = np.array([1.0]), np.array([1.0 + 1e-13])
    roots = lattice._newton(_recording(lambda x: (x - 1.0 - 5e-14, np.ones_like(x)), seen), lo, hi)
    assert len(seen) == 1
    assert lo[0] <= roots[0] <= hi[0] and abs(roots[0] - (1.0 + 5e-14)) < 1e-15


def test_newton_keeps_finished_brackets_while_others_iterate():
    # bracket 0 is done at the start (its lower end is a root), bracket 2
    # before bracket 1, and bracket 3, whose residual is nan at its lower end,
    # bisects down to its tolerance before bracket 1 is done
    c = np.array([8.0, 30.0, 1.0, 1.0])
    lo = np.array([2.0, 0.5, 0.99, 1.0 - 1e-11])
    hi = np.array([3.0, 10.0, 1.02, 1.0 + 1e-11])
    nan_below = np.array([-math.inf, -math.inf, -math.inf, lo[3]])
    seen = []
    roots = lattice._newton(_recording(_cubic(c, nan_below), seen), lo, hi)
    assert len(seen) > 4
    assert (np.array(seen[1:])[:, 0] == 2.0).all()
    assert roots[0] == 2.0 and np.abs(roots[1:3] - np.cbrt(c[1:3])).max() <= 4e-12
    assert lo[3] < roots[3] <= hi[3]
    # each bracket comes back as it does alone, when the loop ends with it
    for i in range(4):
        one = slice(i, i + 1)
        alone = lattice._newton(_cubic(c[one], nan_below[one]), lo[one], hi[one])
        assert alone.tolist() == roots[one].tolist(), i


@pytest.mark.parametrize("greek, ell", [
    ((0.0, 1.0, 0.0), 1.0), ((-2.0, 0.0, 0.0), 1.0), ((-1.0, 0.5, 0.3 + 0.4j), 1.0),
    ((-1.0, 0.0, 0.5 + 0.3j), 1.0), ((-2.3, -0.7, 0.2 - 0.9j), 80.0),
], ids=["delta_prime", "delta", "generic", "intermediate", "bound_bands"])
def test_band_structure_takes_the_trace_once_per_grid_point(monkeypatch, greek, ell):
    # the scalar probes that place the bottom anchor, the gap points and the
    # halves of brackets cut at +k_min each go to _trace once; solver steps aside
    seen, solving = [], []
    trace, solve = lattice._trace, lattice._newton

    def recorded(coeffs, ell, z):
        if not solving:
            seen.extend(np.ravel(z).tolist())
        return trace(coeffs, ell, z)

    def marked(*args, **kwargs):
        solving.append(True)
        try:
            return solve(*args, **kwargs)
        finally:
            solving.pop()

    monkeypatch.setattr(lattice, "_trace", recorded)
    monkeypatch.setattr(lattice, "_newton", marked)
    band_structure(_spec(*greek, ell=ell), 60)
    assert len(seen) > 120
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("alpha", [-1.0, -2.0, -2.4, -2.6, -6.0])
def test_attractive_delta_bands_are_counted_from_the_bottom(alpha):
    # on both sides of |alpha| = pi^2/4, where labels by the nearest (pi m)^2
    # switch from calling the bound-state band 1 to calling it 0; band 1 dips
    # below zero and band 2 starts at the first Dirichlet point pi^2
    bands, _ = _certified(_spec(alpha, 0.0, 0.0), 8)
    assert bands[0].e_lo < 0
    assert bands[1].e_lo == pytest.approx(PI ** 2, rel=1e-12)


def test_exactly_closed_gap_is_reported_with_zero_width():
    # at this ell the gap at E = 1 closes: tr = -2 there, its Dirichlet and
    # Neumann points coincide, and the two bands beside it meet there
    spec = _spec(-1.0, 1.0, 0.0, ell=8.497482742767767)
    assert trace_at_energy(spec, 1.0) == -2.0
    bands, gaps = _certified(spec, 8)
    assert bands[2].e_hi == bands[3].e_lo == 1.0
    assert gaps[2] == GapInterval(3, 1.0, 1.0, closed=True)
    assert [gp.closed for gp in gaps] == [gp.width == 0.0 for gp in gaps] == \
        [gp.m == 3 for gp in gaps]


@pytest.mark.parametrize("shift", [-1e-9, 1e-9, 1e-7], ids=["minus_1e-9", "plus_1e-9", "plus_1e-7"])
def test_gaps_beside_the_closed_one_are_open(shift):
    # gap 3 is 4.5e-11 wide at ell -+ 1e-9, where |tr| rounds to 2 across it
    _, gaps = _certified(_spec(-1.0, 1.0, 0j, ell=8.497482742767767 + shift), 8)
    assert abs(gaps[2].e_lo - 1.0) < 1e-6 and not any(gp.closed for gp in gaps)


# alpha = 0 makes tc = 0, so the Neumann gap point of n = 0 is k = 0, and so is
# the Dirichlet one where beta = -ell (tb = -ta ell)
_ATTRACTIVE_DELTA_PRIME = ([((0.0, beta, 0j), ell) for beta in (-2.0, -1.0, -0.3)
                            for ell in (0.7, 1.0, 1.3, 3.0)] + [((0.0, -1.0, 0.5j), 1.0)])


@pytest.mark.parametrize("greek, ell", _ATTRACTIVE_DELTA_PRIME,
                         ids=[f"beta{g[1]}-gamma{g[2].imag}i-ell{ell}"
                              for g, ell in _ATTRACTIVE_DELTA_PRIME])
def test_attractive_delta_prime_lattice_keeps_its_gap_points_at_zero(greek, ell):
    _certified(_spec(*greek, ell=ell), 6)


def test_attractive_delta_prime_gap_closes_at_zero_where_beta_is_minus_ell():
    bands, gaps = _certified(_spec(0.0, -1.0, 0j), 6)
    assert bands[0].e_lo == pytest.approx(-5.756915359562582, rel=1e-12)
    assert bands[0].e_hi == bands[1].e_lo == 0.0
    assert bands[1].e_hi == pytest.approx(PI * PI, rel=1e-12)
    assert gaps[0] == GapInterval(1, 0.0, 0.0, True)
    assert not any(gp.closed for gp in gaps[1:])


def test_alpha_zero_lattices_agree_with_alpha_just_off_zero():
    # seeded draws of the alpha = 0 family, where tc = 0: each resolves, and its
    # edges agree with those at alpha = 1e-13 or -1e-13 to 1e-6 max(1, |E|)
    def edges(alpha, beta, gamma, ell):
        bands, _ = band_structure(_spec(alpha, beta, gamma, ell), 5)
        return np.array([e for b in bands for e in (b.e_lo, b.e_hi)])

    rng = np.random.default_rng(1)
    for _ in range(120):
        beta, gamma = rng.uniform(-3.0, 3.0), complex(rng.normal(), rng.normal())
        ell = 10.0 ** rng.uniform(-2.0, 2.5)
        got = edges(0.0, beta, gamma, ell)
        gaps = []
        for alpha in (1e-13, -1e-13):
            try:
                near = edges(alpha, beta, gamma, ell)
            except GridTooCoarse:
                continue
            gaps.append(np.max(np.abs(near - got) / np.maximum(1.0, np.abs(got))))
        assert min(gaps) <= 1e-6, (beta, gamma, ell)


@pytest.mark.parametrize("greek", ONE_PER_REGIME,
                         ids=["delta_prime", "delta", "generic", "intermediate"])
def test_bands_task_edges_up_to_m_max_10000(run, greek):
    alpha, beta, gamma = greek
    code, out, _ = run("bands", "--scheme", "greek", f"--alpha={alpha!r}", f"--beta={beta!r}",
                       f"--gamma-re={complex(gamma).real!r}",
                       f"--gamma-im={complex(gamma).imag!r}",
                       "--ell", "1", "--mmax", "10000", "--format", "json")
    assert code == 0
    spec = _spec(*greek)
    edges = np.array([e for r in json.loads(out)["rows"] if r[0] == "band" and r[3] > r[2]
                      for e in r[2:4]])

    def excess(e):
        # trace_at_energy's values, over an array
        return np.abs(lattice._floquet_trace(spec._trace_coeffs, spec.ell, e)) - 2.0

    # ||tr| - 2| <= 1e-8, or, where one float step of E moves |tr| by more
    # than that (beta != 0 near E ~ 1e9), a sign change of |tr| - 2 within
    # the solver's energy tolerance
    tol = _edge_tol(edges)
    off = edges[(np.abs(excess(edges)) > 1e-8) & (excess(edges - tol) * excess(edges + tol) > 0)]
    assert off.size == 0, off[:5]


def test_weak_delta_like_gaps_of_a_narrow_cell_are_counted():
    # |alpha| ell ~ 1e-6: each gap is 1e-9 of its energy wide, but |tr| - 2
    # there is about 1e-14 or less
    _, gaps = _certified(_spec(-4.13e-4, 0.0, -0.1897j, ell=2.01e-3), 12)
    assert not any(gp.closed for gp in gaps)


def test_edges_of_a_large_coupling_on_a_narrow_cell_are_exact():
    # |gamma| ~ 380 on ell ~ 7e-3: the lower edge of band 2 came out 4.6e-4
    # off when the edge brackets came from a scan of |tr| - 2
    _, gaps = _certified(_spec(0.07842082135248962, 0.0, -0.0015639455944000287
                               + 380.05965984764686j, ell=0.007179823744884764), 60)
    assert not any(gp.closed for gp in gaps)


def test_gap_narrower_than_the_float_trace_resolves_is_found():
    # |gamma| ~ 2.3e5: every gap is about 1e-11 m wide, while |tr| - 2 in it
    # is below the float spacing of 2
    _, gaps = _certified(_spec(0.0012374979784255257, 0.0, -0.02580879164020771
                               - 227052.5784903415j, ell=1.4935940315782685), 6)
    assert not any(gp.closed for gp in gaps)
    assert gaps[0].e_lo == pytest.approx(4.4241985226, abs=1e-9)
    assert 0.5e-11 < gaps[0].width < 2e-11


def _without_gap_3(pts, energies, gap):
    return pts[(energies < gap.e_lo) | (energies > gap.e_hi)]


@pytest.mark.parametrize("grid, message", [
    # without gap 3's two gap points the runs of gaps 2 and 4 merge; counting
    # bands on either side of it would shift every label above it
    (_without_gap_3, "gap 2 holds 4 gap points, not two (a missed gap): energy window"
     " [8.21883, 202.395] sampled at 6 grid points"),
    # a point in band 3 in place of gap 3's makes a gap of one point, and one
    # point is no closed gap
    (lambda pts, energies, gap: np.sort(np.append(_without_gap_3(pts, energies, gap),
                                                  math.sqrt(gap.e_lo - 1.0))),
     "gap 3 holds 1 gap points, not two (a missed gap): energy window [37.8544, 123.428]"
     " sampled at 3 grid points"),
    # a grid that ends after gap 3 holds three gaps above the lowest; one that
    # ends inside gap 3 leaves it one point
    (lambda pts, energies, gap: pts[energies <= gap.e_hi],
     "found 3 bands below k_max, fewer than m_max = 12: energy window [-24.1961, 87.2068]"
     " sampled at 8 grid points"),
    (lambda pts, energies, gap: pts[energies <= energies[energies > gap.e_lo][0]],
     "gap 3 holds 1 gap points, not two (a missed gap): energy window [37.8544, 64.1889]"
     " sampled at 2 grid points"),
    # evenly spaced points, none of them a gap point
    (lambda pts, energies, gap: np.linspace(1e-9, pts[-1], 40),
     "gap 1 holds 3 gap points, not two (a missed gap): energy window [1e-18, 17.529]"
     " sampled at 5 grid points"),
], ids=["gap_points_missing", "band_point_in_their_place", "cut_after_gap_3", "cut_inside_gap_3",
        "no_gap_points"])
def test_a_grid_that_misses_gap_points_raises(monkeypatch, grid, message):
    spec = _spec(-1.0, 0.5, 0.3 + 0.4j)
    gap = band_structure(spec, 12)[1][2]
    real = lattice._gap_grid

    def missing(spec, k_max):
        pts = real(spec, k_max)
        return grid(pts, pts * np.abs(pts), gap)

    monkeypatch.setattr(lattice, "_gap_grid", missing)
    with pytest.raises(GridTooCoarse) as info:
        band_structure(spec, 12)
    assert str(info.value) == message


def test_bands_are_labelled_one_to_m_max():
    rng = np.random.default_rng(12)
    for i in range(300):
        spec = _fuzzed_lattice(rng, ["delta_prime", "delta", "intermediate", "near_delta",
                                     "strong_delta"][i % 5])
        m_max = int(rng.choice([6, 12, 60]))
        bands, gaps = band_structure(spec, m_max)
        assert [b.m for b in bands] == list(range(1, m_max + 1)), (spec.scheme.greek, spec.ell)
        assert [gp.m for gp in gaps] == list(range(1, m_max))


def test_dispersion_free_folds_k():
    spec = _spec(0.0, 0.0, 0.0)
    band = band_structure(spec, 3)[0][0]
    pts = dispersion(spec, band, 40)
    for e, th in pts:
        if e <= 0:
            continue
        k = math.sqrt(e)
        folded = math.acos(math.cos(k))  # k ell mod 2 pi folded into [0, pi]
        assert abs(th - folded) < 1e-9


def test_dispersion_delta_monotone_arccos():
    alpha = 1.0
    spec = _spec(alpha, 0.0, 0.0)
    bands, _ = band_structure(spec, 3)
    band1 = next(b for b in bands if b.m == 1)
    pts = dispersion(spec, band1, 30)
    ths = [th for _, th in pts]
    for e, th in pts:
        k = math.sqrt(e)
        ref = math.acos(max(-1.0, min(1.0, math.cos(k) + (alpha / (2 * k)) * math.sin(k))))
        assert abs(th - ref) < 1e-9
    assert all(t1 <= t2 + 1e-12 for t1, t2 in zip(ths, ths[1:]))
    assert ths[0] < 1e-4 and abs(ths[-1] - PI) < 1e-4


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------

def test_classify_regime():
    assert classify_regime(_spec(0.0, 1.0, 0.0)) is Regime.DELTA_PRIME_LIKE
    assert classify_regime(_spec(0.0, 0.0, 1.0)) is Regime.INTERMEDIATE
    assert classify_regime(_spec(1.0, 0.0, 0.5j)) is Regime.DELTA_LIKE


def test_regime_report_delta_prime():
    rep = asymptotic_regime(_spec(0.0, 1.0, 0.0), (20, 32))
    assert rep.regime is Regime.DELTA_PRIME_LIKE
    assert rep.relative_error < 0.01
    slope = rep.details["gap_slope"]
    assert slope > 0 and rep.details["gap_fit_r2"] > 0.999
    # centre offsets settle at (4 + det)/(beta ell), constant sign
    offs = rep.details["centre_offsets"]
    assert all(abs(o - 4.0) < 0.1 for o in offs)


def test_regime_report_intermediate_mixed_gamma():
    # complex gamma with Re gamma != 0 still lands on the arcsin/arccos law
    gamma = 0.8 + 0.5j
    rep = asymptotic_regime(_spec(0.0, 0.0, gamma), (20, 32))
    assert rep.regime is Regime.INTERMEDIATE
    tinf = rep.details["t_infinity_mod"]
    gm2 = abs(gamma) ** 2
    assert abs(tinf - math.hypot(4 - gm2, 4 * gamma.imag) / (4 + gm2)) < 1e-14
    assert rep.relative_error < 0.02
    # bands and gaps both grow in energy
    assert rep.details["band_energy_slope"] > 0


def test_regime_report_delta_like_off_axis_gamma():
    rep = asymptotic_regime(_spec(1.0, 0.0, 0.7j), (20, 32))
    assert rep.regime is Regime.DELTA_LIKE
    gm2 = 0.49
    assert abs(rep.predicted["gap_width"] - 8.0 / (4 + gm2)) < 1e-12
    assert rep.relative_error < 0.02
    assert max(rep.details["anchor_offsets"]) < 1e-8


def test_regime_requires_enough_bands():
    with pytest.raises(InsufficientBands):
        asymptotic_regime(_spec(0.0, 1.0, 0.0), (10, 12))


def test_intermediate_regime_refuses_a_window_below_zero():
    # the k ell widths need E >= 0: band 1 of this bound-state lattice lies below it
    spec = _spec(-5.0, 0.0, 0.5 + 0.2j, ell=3.0)
    assert classify_regime(spec) is Regime.INTERMEDIATE
    bands, _ = band_structure(spec, 7)
    assert bands[0].e_hi < 0.0 <= bands[1].e_lo
    with pytest.raises(InsufficientBands,
                       match=r"^band 1 of range \(1, 6\) lies below zero \(e_hi = -5\.41574\)"):
        asymptotic_regime(spec, (1, 6))
    assert asymptotic_regime(spec, (2, 7)).regime is Regime.INTERMEDIATE


def test_general_ell_scaling_delta_prime():
    # widths scale like 1/ell at fixed beta (measured, not printed-law, check)
    rep1 = asymptotic_regime(_spec(0.0, 1.0, 0.0, ell=1.0), (20, 30))
    rep2 = asymptotic_regime(_spec(0.0, 1.0, 0.0, ell=2.0), (20, 30))
    w1 = rep1.measured["band_width"]
    w2 = rep2.measured["band_width"]
    assert abs(w1 / w2 - 2.0) < 0.05
