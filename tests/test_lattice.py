"""Band condition, monodromy, band extraction, and high-energy regimes."""

from __future__ import annotations

import cmath
import decimal
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
from conftest import random_greek

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
    (lambda spec: band_condition_rhs(spec, 0.0), "k must be positive"),
    (lambda spec: monodromy_trace(spec, -1.0), "k must be positive"),
    (lambda spec: band_structure(spec, 0), "m_max must be >= 1"),
    (lambda spec: dispersion(spec, BandInterval(1, 0.0, 1.0), 1), "need at least 2 samples"),
], ids=["decoupled_halfline", "decoupled_greek", "rhs", "monodromy", "m_max", "dispersion"])
def test_lattice_calls_refuse_bad_arguments(call, message):
    with pytest.raises(ValueError) as info:
        call(_spec(1.0, 0.0, 0.0))
    assert (type(info.value), str(info.value)) == (ValueError, message)


@pytest.mark.parametrize("alpha, tol", [(0.0, 1e-13), (1.3, 1e-12)], ids=["free", "delta"])
def test_monodromy_delta_formula(alpha, tol):
    spec = _spec(alpha, 0.0, 0.0)
    for k in (0.4, 1.0, 6.0):
        assert abs(monodromy_trace(spec, k)
                   - (2 * math.cos(k) + (alpha / k) * math.sin(k))) < tol


def test_array_trace_matches_scalar_oracles(rng):
    # one array call over mixed energies against monodromy_trace and the band
    # condition above zero, the hyperbolic formula below, s + c ell at zero
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
    assert band_structure(spec, 5) == ([BandInterval(1, 0.0, math.inf)], [])


def test_band_ordering_and_disjointness(rng):
    for _ in range(8):
        g = random_greek(rng, allow_beta_zero=True)
        spec = LatticeSpec(CouplingScheme.from_greek(g), 1.0)
        bands, gaps = band_structure(spec, 8)
        if len(bands) == 1 and math.isinf(bands[0].e_hi):
            continue
        for b0, b1 in zip(bands, bands[1:]):
            assert b0.e_hi <= b1.e_lo + 1e-9
            assert b0.m < b1.m
        for b in bands:
            assert b.e_lo <= b.e_hi
        # edges really sit on |tr| = 2
        for b in bands[1:]:
            assert abs(abs(trace_at_energy(spec, b.e_lo)) - 2.0) < 1e-7


def test_band_structure_gauge_invariance(rng):
    h = HalflineParams(-1.0, 2.0, 0.8)
    h2 = gauge_transform(h, 1.3)
    b1, g1 = band_structure(LatticeSpec(CouplingScheme.from_halfline(h), 1.0), 6)
    b2, g2 = band_structure(LatticeSpec(CouplingScheme.from_halfline(h2), 1.0), 6)
    assert len(b1) == len(b2)
    for x, y in zip(b1, b2):
        assert abs(x.e_lo - y.e_lo) < 1e-8 and abs(x.e_hi - y.e_hi) < 1e-8


def _fuzzed_lattice(rng: np.random.Generator, regime: str) -> LatticeSpec:
    # couplings whose narrowest band or gap below m = 12 stays above ~7e-3 in
    # k ell, two steps of the oracle grid (1000 points per period)
    ell = float(rng.uniform(0.5, 2.0))
    while True:
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
        if math.hypot(4.0 - g.det, 4.0 * g.gamma.imag) > 1.0:
            return LatticeSpec(CouplingScheme.from_greek(g), ell)


def _oracle_edges(spec: LatticeSpec, k_top: float) -> list[float]:
    """Positive-energy roots of |tr| - 2 up to k_top^2: sign changes on a dense
    scalar grid in k, each refined by scalar bisection on monodromy_trace.

    A gap (or band) narrower than the grid shows as a local maximum (minimum)
    of |tr| - 2 whose three samples share one sign; each such extremum is
    refined by golden-section search, and if its extreme value has the other
    sign, the two edges on either side of it are bisected as well.
    """
    def f(k):
        return abs(monodromy_trace(spec, k)) - 2.0

    def bisect(lo, hi, f_lo):
        while hi - lo > 4.0 * np.spacing(hi):
            mid = 0.5 * (lo + hi)
            if (f(mid) <= 0.0) == (f_lo <= 0.0):
                lo = mid
            else:
                hi = mid
        return (0.5 * (lo + hi)) ** 2

    def extremum(lo, hi, sign):
        # golden-section search for the maximum of sign * f on [lo, hi]
        g = 0.5 * (math.sqrt(5.0) - 1.0)
        x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
        f1, f2 = sign * f(x1), sign * f(x2)
        while hi - lo > 4.0 * np.spacing(hi):
            if f1 >= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - g * (hi - lo)
                f1 = sign * f(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + g * (hi - lo)
                f2 = sign * f(x2)
        return x1 if f1 >= f2 else x2

    ks = np.linspace(0.0, k_top, int(1000 * k_top * spec.ell / PI) + 1)[1:].tolist()
    vals = [f(k) for k in ks]
    edges = []
    for k0, k1, f0, f1 in zip(ks, ks[1:], vals, vals[1:]):
        if (f0 <= 0.0) != (f1 <= 0.0):
            edges.append(bisect(k0, k1, f0))
    for k0, k2, f0, f1, f2 in zip(ks, ks[2:], vals, vals[1:], vals[2:]):
        inside = f1 <= 0.0
        if (f0 <= 0.0) != inside or (f2 <= 0.0) != inside:
            continue
        # a maximum inside a band may hide a gap, a minimum inside a gap a band
        sign = 1.0 if inside else -1.0
        if sign * f1 < sign * f0 or sign * f1 < sign * f2:
            continue
        k_ext = extremum(k0, k2, sign)
        if (f(k_ext) <= 0.0) != inside:
            edges += [bisect(k0, k_ext, f0), bisect(k_ext, k2, f(k_ext))]
    return sorted(edges)


def _assert_edges_match_oracle(spec: LatticeSpec, bands, m_max: int, floor: float = 0.0,
                               count: int | None = None) -> None:
    # the edges above the energy floor, up to band m_max's upper edge, against
    # the scalar oracle's, each to 1e-10 relative
    got = sorted(e for b in bands for e in (b.e_lo, b.e_hi) if e > floor)
    top = bands[-1].e_hi
    want = [e for e in _oracle_edges(spec, (m_max + 1.5) * PI / spec.ell)
            if floor < e <= top * (1.0 + 1e-9)]
    assert len(got) == len(want), (spec.scheme.greek, spec.ell)
    assert count is None or len(got) == count
    for e_got, e_want in zip(got, want):
        assert abs(e_got - e_want) <= 1e-10 * max(1.0, abs(e_want)), (spec.scheme.greek, spec.ell)


@pytest.mark.parametrize("regime", ["delta_prime", "delta", "intermediate", "near_delta",
                                    "strong_delta"])
def test_band_edges_match_scalar_oracle(rng, regime):
    m_max = 12
    # a strong delta-like draw has a band narrower than the old k-grid about
    # once in 40, so that regime gets more draws
    for _ in range(30 if regime == "strong_delta" else 3):
        spec = _fuzzed_lattice(rng, regime)
        bands, _ = band_structure(spec, m_max)
        _assert_edges_match_oracle(spec, bands, m_max, floor=1e-6)


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
def test_zero_diagonal_transfer_factor_edges_match_scalar_oracle(gamma):
    # det = 4 with Re gamma = +-2 makes ta (or td) exactly 0, where the gap
    # points have a closed form
    spec = _spec(-1.0, 1.0, gamma)
    t = scheme_to_transfer(spec.scheme)
    assert (t.ta if gamma.real > 0 else t.td) == 0.0
    m_max = 12
    bands, _ = band_structure(spec, m_max)
    assert [b.m for b in bands] == list(range(1, m_max + 1))
    _assert_edges_match_oracle(spec, bands, m_max)


def _max_edge_residual(spec: LatticeSpec, bands) -> float:
    return max(abs(abs(trace_at_energy(spec, e)) - 2.0)
               for b in bands for e in (b.e_lo, b.e_hi) if math.isfinite(e))


def test_weak_coupling_keeps_every_gap():
    # every anchor (pi m)^2 carries a gap of |tr| - 2 ~ 1e-4 or less, far
    # narrower than one pi/ell period
    spec = _spec(-0.05, 1e-5, 0.1j)
    bands, gaps = band_structure(spec, 12)
    assert len(bands) == 12 and len(gaps) == 11
    assert not any(gp.closed for gp in gaps)
    assert _max_edge_residual(spec, bands) <= 1e-8


def test_weak_delta_gaps_are_open_at_their_predicted_width():
    # every gap is 8|alpha| / ((4 + |gamma|^2) ell) = 2e-11 wide, 2e-6 of its
    # energy: narrow in absolute terms, but far wider than the edge tolerance
    spec = _spec(1e-8, 0.0, 0.0, ell=1000.0)
    predicted = 8e-8 / (4.0 * 1000.0)
    _, gaps = band_structure(spec, 6)
    assert len(gaps) == 5
    for gp in gaps:
        assert not gp.closed
        assert abs(gp.width - predicted) <= 0.01 * predicted, gp


def test_narrow_lowest_band_of_a_strong_delta_like_coupling_is_found():
    spec = _spec(16.457106274866916, 0.16176116715989217,
                 1.056989722216858 + 0.23107466788681874j, ell=7.935160124145342)
    bands, _ = band_structure(spec, 12)
    first = bands[0]
    assert first.m == 1
    assert first.e_lo == pytest.approx(0.14674, abs=1e-5)
    assert first.e_hi == pytest.approx(0.14879, abs=1e-5)
    assert _max_edge_residual(spec, bands) <= 1e-8


def test_wide_delta_prime_lattice_edges_match_scalar_oracle():
    # at ell ~ 300 the whole spectrum up to m = 12 lies below k ~ 0.14
    spec = _spec(0.0, 0.47039136464501174, 0.0, ell=313.8992808817786)
    m_max = 12
    bands, _ = band_structure(spec, m_max)
    assert bands[-1].m == m_max
    _assert_edges_match_oracle(spec, bands, m_max, count=23)


def test_oracle_finds_gaps_narrower_than_its_grid():
    # the gaps of this weak coupling are narrower than the oracle's 1000
    # points per period; a sign-change scan alone finds 17 of the 23 edges
    spec = _spec(-0.006588008621684658, 0.0010129834398322052,
                 0.00034194609650965127 - 0.8467155676587824j, ell=5.794485405907231)
    m_max = 12
    bands, _ = band_structure(spec, m_max)
    _assert_edges_match_oracle(spec, bands, m_max, count=23)


@pytest.mark.parametrize("alpha, gamma, ell, m_max", [
    (-0.05353731173266851, -0.9938699780119435j, 0.007245323765147425, 12),
    (-0.01876, -0.7575j, 0.518, 60),
], ids=["narrow_cell", "weak_coupling"])
def test_weak_delta_like_gaps_are_resolved(alpha, gamma, ell, m_max):
    # the gaps shrink like 1/k, far below the oracle grid's spacing, so check
    # the (pi m / ell)^2 anchors and the edge residuals instead
    spec = _spec(alpha, 0.0, gamma, ell=ell)
    bands, gaps = band_structure(spec, m_max)
    assert bands[-1].m == m_max
    assert [gp.m for gp in gaps] == list(range(1, m_max))
    for gp in gaps:
        anchor = (PI * gp.m / ell) ** 2
        assert min(abs(gp.e_lo - anchor), abs(gp.e_hi - anchor)) <= 1e-10 * anchor
    for b in bands:
        for e in (b.e_lo, b.e_hi):
            assert abs(abs(trace_at_energy(spec, e)) - 2.0) <= 1e-8


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
        bands, _ = band_structure(spec, m_max)
        negative = [b for b in bands if b.e_lo < 0.0]
        assert len(negative) == 2
        for b, level in zip(negative, levels):
            residual = max(abs(abs(trace_at_energy(spec, e)) - 2.0) for e in (b.e_lo, b.e_hi))
            degenerate = any(max(abs(b.e_lo - e), abs(b.e_hi - e)) <= 1e-12 * abs(e)
                             for e in levels)
            assert residual <= 1e-8 or degenerate, (ell, m_max, b)
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
        bands, _ = band_structure(spec, m_max)
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
    spec = _spec(alpha, 0.0, 0.0)
    bands, gaps = band_structure(spec, 8)
    assert [b.m for b in bands] == list(range(1, 9))
    assert [gp.m for gp in gaps] == list(range(1, 8))
    assert bands[0].e_lo < 0 and abs(abs(trace_at_energy(spec, bands[0].e_lo)) - 2.0) < 1e-7
    assert bands[1].e_lo == pytest.approx(PI ** 2, rel=1e-12)


def test_exactly_closed_gap_is_reported_with_zero_width():
    # at this ell the gap at E = 1 closes: tr = -2 there, its Dirichlet and
    # Neumann points coincide, and the two bands beside it meet there
    spec = _spec(-1.0, 1.0, 0.0, ell=8.497482742767767)
    assert trace_at_energy(spec, 1.0) == -2.0
    bands, gaps = band_structure(spec, 8)
    assert [b.m for b in bands] == list(range(1, 9))
    assert bands[2].e_hi == bands[3].e_lo == 1.0
    assert gaps[2] == GapInterval(3, 1.0, 1.0, closed=True)
    assert [gp.closed for gp in gaps] == [gp.width == 0.0 for gp in gaps] == \
        [gp.m == 3 for gp in gaps]


def _decimal_pi() -> decimal.Decimal:
    # the decimal module documentation's recipe, at the context precision
    decimal.getcontext().prec += 2
    lasts, t, s, n, na, d, da = 0, decimal.Decimal(3), 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    decimal.getcontext().prec -= 2
    return +s


def _decimal_series(x: decimal.Decimal, i: int) -> decimal.Decimal:
    # the documentation's Taylor recipes: cos x for i = 0, sin x for i = 1
    lasts, s, num, fact, sign = 0, x ** i, x ** i, 1, 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign = -sign
        s += num / fact * sign
    return s


def _exact_excess(greek: GreekParams, ell: float, energy: float) -> decimal.Decimal:
    """|tr| - 2 = 2 |RHS| / |w| - 2 at a float energy to 60 digits, from the
    band condition (the lattice module docstring), k = i q below zero."""
    dec = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 70
        alpha, beta, cell = dec(greek.alpha), dec(greek.beta), dec(ell)
        re, im = dec(greek.gamma.real), dec(greek.gamma.imag)
        det = alpha * beta + re * re + im * im
        e = dec(energy)
        if e > 0:  # cos(k ell) and sin(k ell) / k, the phase reduced to [-pi, pi]
            k = e.sqrt()
            two_pi = 2 * _decimal_pi()
            x = k * cell
            x -= two_pi * (x / two_pi).to_integral_value()
            even, odd = _decimal_series(x, 0), _decimal_series(x, 1) / k
        elif e < 0:  # cosh(q ell) and sinh(q ell) / q
            q = (-e).sqrt()
            grow = (q * cell).exp()
            even, odd = (grow + 1 / grow) / 2, (grow - 1 / grow) / (2 * q)
        else:
            even, odd = dec(1), cell
        rhs = (4 + det) * even + 2 * (alpha - beta * e) * odd
        return 2 * abs(rhs) / ((4 - det) ** 2 + 16 * im * im).sqrt() - 2


def _edge_tol(energy: float) -> float:
    return 1e-12 + 8.0 * sys.float_info.epsilon * abs(energy)


def _assert_edges_are_exact(greek: GreekParams, ell: float, bands) -> None:
    # each edge lies within the solver's tolerance of a 60-digit root of
    # |tr| - 2, or, where |tr| varies too slowly for the float trace to place
    # it that closely, on |tr| = 2 to within the trace's rounding
    for band in bands:
        for e in (band.e_lo, band.e_hi):
            if math.isinf(e):
                continue
            tol = _edge_tol(e)
            sign_change = _exact_excess(greek, ell, e - tol) * _exact_excess(greek, ell, e + tol)
            assert sign_change <= 0 or abs(_exact_excess(greek, ell, e)) <= 4.0 * sys.float_info.epsilon, \
                (greek, ell, band, e)


def _assert_gaps_are_open(greek: GreekParams, ell: float, gaps) -> None:
    for gap in gaps:
        assert not gap.closed and gap.width > 0.0, gap
        assert _exact_excess(greek, ell, 0.5 * (gap.e_lo + gap.e_hi)) > 0, gap


@pytest.mark.parametrize("shift", [-1e-9, 1e-9, 1e-7], ids=["minus_1e-9", "plus_1e-9", "plus_1e-7"])
def test_gaps_beside_the_closed_one_are_open(shift):
    # gap 3 is 4.5e-11 wide at ell -+ 1e-9, where |tr| rounds to 2 across it
    greek, ell = GreekParams(-1.0, 1.0, 0j), 8.497482742767767 + shift
    bands, gaps = band_structure(LatticeSpec(CouplingScheme.from_greek(greek), ell), 8)
    assert [b.m for b in bands] == list(range(1, 9))
    assert abs(gaps[2].e_lo - 1.0) < 1e-6
    _assert_gaps_are_open(greek, ell, gaps)
    _assert_edges_are_exact(greek, ell, bands)


# alpha = 0 makes tc = 0, so the Neumann gap point of n = 0 is k = 0, and so is
# the Dirichlet one where beta = -ell (tb = -ta ell)
_ATTRACTIVE_DELTA_PRIME = ([((0.0, beta, 0j), ell) for beta in (-2.0, -1.0, -0.3)
                            for ell in (0.7, 1.0, 1.3, 3.0)] + [((0.0, -1.0, 0.5j), 1.0)])


@pytest.mark.parametrize("greek, ell", _ATTRACTIVE_DELTA_PRIME,
                         ids=[f"beta{g[1]}-gamma{g[2].imag}i-ell{ell}"
                              for g, ell in _ATTRACTIVE_DELTA_PRIME])
def test_attractive_delta_prime_lattice_keeps_its_gap_points_at_zero(greek, ell):
    g = GreekParams(*greek)
    bands, _ = band_structure(LatticeSpec(CouplingScheme.from_greek(g), ell), 6)
    assert [b.m for b in bands] == list(range(1, 7))
    _assert_edges_are_exact(g, ell, bands)


def test_attractive_delta_prime_gap_closes_at_zero_where_beta_is_minus_ell():
    bands, gaps = band_structure(_spec(0.0, -1.0, 0j), 6)
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
    greek, ell = GreekParams(-4.13e-4, 0.0, -0.1897j), 2.01e-3
    bands, gaps = band_structure(LatticeSpec(CouplingScheme.from_greek(greek), ell), 12)
    assert [b.m for b in bands] == list(range(1, 13))
    _assert_gaps_are_open(greek, ell, gaps)
    _assert_edges_are_exact(greek, ell, bands)


def test_edges_of_a_large_coupling_on_a_narrow_cell_are_exact():
    # |gamma| ~ 380 on ell ~ 7e-3: the lower edge of band 2 came out 4.6e-4
    # off when the edge brackets came from a scan of |tr| - 2
    greek = GreekParams(0.07842082135248962, 0.0, -0.0015639455944000287 + 380.05965984764686j)
    ell = 0.007179823744884764
    bands, gaps = band_structure(LatticeSpec(CouplingScheme.from_greek(greek), ell), 60)
    e = bands[1].e_lo
    tol = _edge_tol(e)
    assert _exact_excess(greek, ell, e - tol) * _exact_excess(greek, ell, e + tol) <= 0
    _assert_gaps_are_open(greek, ell, gaps)
    _assert_edges_are_exact(greek, ell, bands)


def test_gap_narrower_than_the_float_trace_resolves_is_found():
    # |gamma| ~ 2.3e5: every gap is about 1e-11 m wide, while |tr| - 2 in it
    # is below the float spacing of 2
    greek = GreekParams(0.0012374979784255257, 0.0, -0.02580879164020771 - 227052.5784903415j)
    ell = 1.4935940315782685
    bands, gaps = band_structure(LatticeSpec(CouplingScheme.from_greek(greek), ell), 6)
    assert [b.m for b in bands] == list(range(1, 7))
    assert gaps[0].e_lo == pytest.approx(4.4241985226, abs=1e-9)
    assert 0.5e-11 < gaps[0].width < 2e-11
    _assert_gaps_are_open(greek, ell, gaps)
    _assert_edges_are_exact(greek, ell, bands)


def test_a_grid_without_both_points_of_one_gap_raises(monkeypatch):
    # without gap 3's two gap points the runs of gaps 2 and 4 merge; counting
    # bands on either side of it would shift every label above it
    spec = _spec(-1.0, 0.5, 0.3 + 0.4j)
    gap = band_structure(spec, 12)[1][2]
    grid = lattice._gap_grid

    def missing(spec, k_max):
        pts = grid(spec, k_max)
        energies = pts * np.abs(pts)
        return pts[(energies < gap.e_lo) | (energies > gap.e_hi)]

    monkeypatch.setattr(lattice, "_gap_grid", missing)
    with pytest.raises(GridTooCoarse, match=r"gap 2 holds 4 gap points"):
        band_structure(spec, 12)


def test_a_gap_the_grid_misses_still_raises(monkeypatch):
    # the grid holds a point in band 3 in place of the gap points of gap 3:
    # it makes a gap of one point, and one point is no closed gap
    spec = _spec(-1.0, 0.5, 0.3 + 0.4j)
    gap = band_structure(spec, 12)[1][2]
    grid = lattice._gap_grid

    def missing(spec, k_max):
        pts = grid(spec, k_max)
        energies = pts * np.abs(pts)
        kept = pts[(energies < gap.e_lo) | (energies > gap.e_hi)]
        return np.sort(np.append(kept, math.sqrt(gap.e_lo - 1.0)))

    monkeypatch.setattr(lattice, "_gap_grid", missing)
    with pytest.raises(GridTooCoarse, match=r"gap 3 holds 1 gap points"):
        band_structure(spec, 12)


def test_bands_are_labelled_one_to_m_max():
    rng = np.random.default_rng(12)
    for i in range(300):
        spec = _fuzzed_lattice(rng, ["delta_prime", "delta", "intermediate", "near_delta",
                                     "strong_delta"][i % 5])
        m_max = int(rng.choice([6, 12, 60]))
        bands, gaps = band_structure(spec, m_max)
        assert [b.m for b in bands] == list(range(1, m_max + 1)), (spec.scheme.greek, spec.ell)
        assert [gp.m for gp in gaps] == list(range(1, m_max))


def test_grid_too_coarse_names_window_and_density(monkeypatch):
    spec = _spec(0.0, 1.0, 0.0)
    monkeypatch.setattr(lattice, "_gap_grid",
                        lambda spec, k_max: np.linspace(1e-9, k_max, 40))
    with pytest.raises(GridTooCoarse, match=r"energy window \[.*\] sampled at \d+ grid points"):
        band_structure(spec, 20)


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
