"""Spectral denominators, point spectrum, binding regimes, and scattering."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from gpi1d import (BindingKind, CouplingScheme, GreekParams, HalflineBoundary,
                   HalflineParams, InvalidWavenumber, PointKind, binding_regime,
                   denominator_D, denominator_F, gauge_transform,
                   greek_to_halfline, kernel_residue, point_spectrum, s_matrix,
                   s_matrix_array, scattering_asymptotics)
from conftest import random_greek, random_halfline, random_scheme


# ---------------------------------------------------------------------------
# denominators
# ---------------------------------------------------------------------------

def test_denominator_D_delta_prime_root():
    # delta' with beta = -2: a = b = -c = -0.5; root at kappa = -2/beta = 1, i.e. k = i
    h = HalflineParams(-0.5, -0.5, 0.5)
    assert abs(denominator_D(h, 1j)) < 1e-14
    assert abs(denominator_D(h, 0.0)) < 1e-14  # the kappa = 0 root


def test_denominator_D_quadratic_roots():
    h = HalflineParams(-3.0, -1.0, 0.5)
    for kappa in (2 - math.sqrt(5) / 2, 2 + math.sqrt(5) / 2):
        assert abs(denominator_D(h, 1j * kappa)) < 1e-12


def test_denominator_F_equals_2beta2_D(rng):
    for _ in range(200):
        g = random_greek(rng)
        h = greek_to_halfline(g)
        k = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        f = denominator_F(g, k)
        d = denominator_D(h, k)
        assert abs(f - 2 * g.beta ** 2 * d) < 1e-10 * max(1.0, abs(f))


def test_denominator_zero_sets_coincide(rng):
    # zeros of D on the imaginary axis are zeros of F wherever both forms exist
    for _ in range(100):
        g = random_greek(rng)
        h = greek_to_halfline(g)
        roots = np.roots([1.0, h.a + h.b, h.a * h.b - abs(h.c) ** 2])
        for kappa in roots:
            assert abs(denominator_F(g, 1j * kappa)) < 1e-9 * max(1.0, g.scale ** 2)


# ---------------------------------------------------------------------------
# point spectrum
# ---------------------------------------------------------------------------

def test_delta_single_bound_state():
    pts = point_spectrum(CouplingScheme.from_greek(GreekParams(-2.0, 0.0, 0.0)))
    assert len(pts) == 1
    p = pts[0]
    assert p.kind is PointKind.BOUND
    assert abs(p.kappa - 1.0) < 1e-12 and abs(p.energy + 1.0) < 1e-12


def test_delta_prime_bound_plus_spurious():
    pts = point_spectrum(CouplingScheme.from_greek(GreekParams(0.0, -2.0, 0.0)))
    assert [p.kind for p in pts] == [PointKind.BOUND, PointKind.SPURIOUS_ROOT]
    assert abs(pts[0].kappa - 1.0) < 1e-12 and abs(pts[0].energy + 1.0) < 1e-12
    assert pts[1].kappa == 0.0


def test_delta_prime_repulsive_antibound():
    pts = point_spectrum(CouplingScheme.from_greek(GreekParams(0.0, 2.0, 0.0)))
    assert [p.kind for p in pts] == [PointKind.SPURIOUS_ROOT, PointKind.ANTIBOUND]
    assert abs(pts[1].kappa + 1.0) < 1e-12


def test_genuine_zero_energy_resonance():
    # ab = |c|^2 with a + b != 0 and the coupling not of delta' shape
    h = HalflineParams(2.0, 0.5, 1.0)
    pts = point_spectrum(CouplingScheme.from_halfline(h))
    kinds = {p.kind for p in pts}
    assert PointKind.ZERO_RESONANCE in kinds
    assert PointKind.SPURIOUS_ROOT not in kinds


def test_two_bound_states_against_quadratic_oracle():
    h = HalflineParams(-3.0, -1.0, 0.5)
    pts = point_spectrum(CouplingScheme.from_halfline(h))
    # independent oracle: numpy roots of kappa^2 + (a+b) kappa + ab - |c|^2
    kappas = sorted(np.roots([1.0, h.a + h.b, h.a * h.b - abs(h.c) ** 2]), reverse=True)
    assert all(p.kind is PointKind.BOUND for p in pts)
    for p, kref in zip(pts, kappas):
        assert abs(p.kappa - kref) < 1e-12
        assert abs(p.energy + kref ** 2) < 1e-12
    # kappa descending puts the deeper level first
    assert abs(pts[0].energy - (-5.25 - math.sqrt(20))) < 1e-12
    assert abs(pts[1].energy - (-5.25 + math.sqrt(20))) < 1e-12


def test_eigenfunctions_satisfy_boundary_conditions(rng):
    checked = 0
    for _ in range(300):
        h = random_halfline(rng)
        scheme = CouplingScheme.from_halfline(h)
        for p in point_spectrum(scheme):
            if p.kind is not PointKind.BOUND:
                continue
            mu, nu, kappa = p.mu, p.nu, p.kappa
            # f(x) = mu e^{-kappa x} (x>0) + nu e^{kappa x} (x<0)
            r1 = (-kappa * mu) - (h.a * mu + h.c * nu)
            r2 = (-kappa * nu) - (np.conj(h.c) * mu + h.b * nu)
            assert abs(r1) < 1e-10 * max(1.0, abs(mu), abs(nu))
            assert abs(r2) < 1e-10 * max(1.0, abs(mu), abs(nu))
            # unit norm, exact identity |mu|^2 + |nu|^2 = 2 kappa
            assert abs((abs(mu) ** 2 + abs(nu) ** 2) / (2 * kappa) - 1.0) < 1e-12
            assert mu.real >= 0 and abs(mu.imag) < 1e-12 * max(1.0, abs(mu))
            checked += 1
    assert checked > 100


def test_eigenfunction_beta_zero_family(rng):
    # matrix-form boundary conditions for bound states of beta = 0 couplings
    for _ in range(100):
        alpha = rng.uniform(-3, -0.2)
        gamma = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        g = GreekParams(alpha, 0.0, gamma)
        if abs(g.det - 4) < 1e-2 and abs(gamma.imag) < 1e-2:
            continue
        pts = [p for p in point_spectrum(CouplingScheme.from_greek(g))
               if p.kind is PointKind.BOUND]
        assert len(pts) == 1
        p = pts[0]
        assert abs(p.kappa - (-2 * alpha / (4 + abs(gamma) ** 2))) < 1e-12
        mu, nu, kappa = p.mu, p.nu, p.kappa
        fp, fm, dp, dm = mu, nu, -kappa * mu, kappa * nu
        r1 = dp - dm - (alpha / 2) * (fp + fm) - (gamma / 2) * (dp + dm)
        r2 = fp - fm + (np.conj(gamma) / 2) * (fp + fm)
        assert abs(r1) < 1e-10 and abs(r2) < 1e-10


def test_separated_crossing_degenerate_pair():
    pts = point_spectrum(CouplingScheme.from_halfline(HalflineParams(-1.0, -1.0, 0.0)))
    assert len(pts) == 2
    assert all(p.kind is PointKind.BOUND for p in pts)
    assert all(abs(p.energy + 1.0) < 1e-12 for p in pts)
    # one per side
    assert abs(pts[0].mu) > 0 and abs(pts[0].nu) == 0
    assert abs(pts[1].mu) == 0 and abs(pts[1].nu) > 0


def test_separated_neumann_zero_resonance():
    s = CouplingScheme.from_separated(HalflineBoundary.neumann(), HalflineBoundary.dirichlet())
    pts = point_spectrum(s)
    assert len(pts) == 1 and pts[0].kind is PointKind.ZERO_RESONANCE


def test_free_and_phase_equivalent_zero_roots():
    # the free line's kappa = 0 root is spurious (no interaction pole at all)
    pts = point_spectrum(CouplingScheme.from_greek(GreekParams(0.0, 0.0, 0.0)))
    assert [p.kind for p in pts] == [PointKind.SPURIOUS_ROOT]
    # a phase-equivalent coupling keeps a genuine threshold resonance
    # (its bounded zero-energy solution is the piecewise-constant phase)
    pts = point_spectrum(CouplingScheme.from_greek(GreekParams(0.0, 0.0, 0.7j)))
    assert [p.kind for p in pts] == [PointKind.ZERO_RESONANCE]


def test_pole_residue_consistency(rng):
    # roots with nonvanishing kernel residue are exactly the bound/antibound poles;
    # the residue at a bound state is the rank-one eigenprojection -i mu(x) mu(x')*-ish
    for _ in range(100):
        h = random_halfline(rng)
        scheme = CouplingScheme.from_halfline(h)
        for p in point_spectrum(scheme):
            if p.kind is not PointKind.BOUND:
                continue
            res = kernel_residue(scheme, p.kappa, 0.8, 1.1)
            f1 = p.mu * math.exp(-p.kappa * 0.8)
            f2 = p.mu * math.exp(-p.kappa * 1.1)
            # Res G(x,x') at k = i kappa equals i/2 * ... the normalized product:
            # check ratio against the eigenfunction product, position independent
            res2 = kernel_residue(scheme, p.kappa, -0.5, 1.1)
            g1 = p.nu * math.exp(-p.kappa * 0.5)
            assert abs(res / (f1 * f2) - res2 / (g1 * f2)) < 1e-9 * max(1.0, abs(res / (f1 * f2)))


def test_gauge_isospectrality(rng):
    for _ in range(100):
        h = random_halfline(rng)
        h2 = gauge_transform(h, rng.uniform(0, 2 * math.pi))
        e1 = sorted(p.energy for p in point_spectrum(CouplingScheme.from_halfline(h)))
        e2 = sorted(p.energy for p in point_spectrum(CouplingScheme.from_halfline(h2)))
        assert np.allclose(e1, e2, rtol=1e-12, atol=1e-12)
        for k in (0.3, 1.0, 4.2):
            a1 = s_matrix(CouplingScheme.from_halfline(h), k)
            a2 = s_matrix(CouplingScheme.from_halfline(h2), k)
            assert abs(abs(a1.r) - abs(a2.r)) < 1e-12
            assert abs(abs(a1.t) - abs(a2.t)) < 1e-12


# ---------------------------------------------------------------------------
# binding regimes
# ---------------------------------------------------------------------------

def test_binding_regime_examples():
    assert binding_regime(HalflineParams(1.0, -1.0, 0.7)).kind is BindingKind.MIXED_SIGN
    assert binding_regime(HalflineParams(1.0, 3.0, 2.0)).kind is BindingKind.CONSPIRACY_BINDING
    assert binding_regime(HalflineParams(-3.0, -1.0, 0.5)).kind is BindingKind.TWO_BOUND
    assert binding_regime(HalflineParams(-1.0, -1.0, 0.0)).kind is BindingKind.CROSSING


def test_conspiracy_example_has_bound_state():
    # (1, 3, 2) itself sits on the a+b = 2 Re c family without a matrix form,
    # so the root comes from the classification detail; a representable
    # neighbour confirms the actual bound entry.
    reg = binding_regime(HalflineParams(1.0, 3.0, 2.0))
    assert reg.kind is BindingKind.CONSPIRACY_BINDING
    assert abs(reg.detail["kappa_hi"] - (math.sqrt(5) - 2)) < 1e-12
    pts = point_spectrum(CouplingScheme.from_halfline(HalflineParams(1.0, 3.0, 2.1)))
    bound = [p for p in pts if p.kind is PointKind.BOUND]
    assert len(bound) == 1 and bound[0].kappa > 0


def test_binding_regime_consistent_with_spectrum(rng):
    for _ in range(400):
        h = random_halfline(rng)
        reg = binding_regime(h)
        n_bound = sum(p.kind is PointKind.BOUND
                      for p in point_spectrum(CouplingScheme.from_halfline(h)))
        if reg.kind is BindingKind.MIXED_SIGN:
            assert n_bound == 1
        elif reg.kind is BindingKind.CONSPIRACY_BINDING:
            assert n_bound >= 1
        elif reg.kind is BindingKind.TWO_BOUND:
            assert n_bound == 2


# ---------------------------------------------------------------------------
# scattering
# ---------------------------------------------------------------------------

def test_s_matrix_delta_example():
    amp = s_matrix(CouplingScheme.from_greek(GreekParams(-2.0, 0.0, 0.0)), 1.0)
    assert abs(amp.r - (-0.5 + 0.5j)) < 1e-12
    assert abs(amp.t - (0.5 + 0.5j)) < 1e-12


def test_s_matrix_delta_prime_example():
    # both matrix and halfline routes must give the same amplitudes
    amp = s_matrix(CouplingScheme.from_greek(GreekParams(0.0, -2.0, 0.0)), 1.0)
    assert abs(amp.r - (0.5 + 0.5j)) < 1e-12
    assert abs(amp.t - (0.5 - 0.5j)) < 1e-12
    amp2 = s_matrix(CouplingScheme.from_halfline(HalflineParams(-0.5, -0.5, 0.5)), 1.0)
    assert abs(amp.r - amp2.r) < 1e-12 and abs(amp.t - amp2.t) < 1e-12


def test_s_matrix_unitarity(rng):
    for _ in range(300):
        scheme = random_scheme(rng, allow_beta_zero=True)
        k = float(10.0 ** rng.uniform(-3, 3))
        amp = s_matrix(scheme, k)
        assert abs(amp.unitarity - 1.0) < 1e-12


def test_s_matrix_decoupled_no_transmission(rng):
    for _ in range(50):
        a, b = rng.uniform(-3, 3, 2)
        scheme = CouplingScheme.from_halfline(HalflineParams(a, b, 0.0))
        for k in (0.1, 1.0, 10.0):
            amp = s_matrix(scheme, k)
            assert amp.t == 0
            assert abs(abs(amp.r) - 1.0) < 1e-12


def test_s_matrix_greek_vs_halfline_routes(rng):
    # cross-check the matrix-form amplitudes against the halfline formulas
    for _ in range(200):
        g = random_greek(rng)
        h = greek_to_halfline(g)
        k = float(10.0 ** rng.uniform(-2, 2))
        d = denominator_F(g, k)
        r_greek = 2 * (-g.det + (g.gamma - 1j * k * g.beta)
                       * (np.conj(g.gamma) - 1j * k * g.beta)) / d
        t_greek = -1j * k * g.beta * (4 - g.det + 4j * g.gamma.imag) / d
        amp = s_matrix(CouplingScheme.from_halfline(h), k)
        assert abs(amp.r - r_greek) < 1e-10 * max(1.0, abs(r_greek))
        assert abs(amp.t - t_greek) < 1e-10 * max(1.0, abs(t_greek))


def test_s_matrix_rejects_bad_wavenumber():
    scheme = CouplingScheme.from_greek(GreekParams(1.0, 0.0, 0.0))
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidWavenumber):
            s_matrix(scheme, bad)


def _denominator_condition(scheme: CouplingScheme, k: float) -> float:
    # relative condition number of the amplitudes' denominator at k: the
    # halfline D(k) and the beta = 0 denominator cancel at small k when
    # alpha is small, and there any two roundings of the same formula differ
    if scheme.is_separated:
        return 1.0
    h = scheme.halfline
    if h is not None:
        d = (h.a - 1j * k) * (h.b - 1j * k) - abs(h.c) ** 2
        return ((abs(h.a) + k) * (abs(h.b) + k) + abs(h.c) ** 2) / abs(d)
    g = scheme.greek
    gm = abs(g.gamma) ** 2
    return (2.0 * abs(g.alpha) + k * (4.0 + gm)) / abs(2.0 * g.alpha - 1j * k * (4.0 + gm))


def test_s_matrix_array_matches_scalar_calls(rng):
    schemes = [random_scheme(rng, allow_beta_zero=True) for _ in range(200)]
    schemes += [CouplingScheme.from_halfline(HalflineParams(a, b, 0.0))
                for a, b in rng.uniform(-3.0, 3.0, (20, 2))]
    schemes += [CouplingScheme.from_separated(HalflineBoundary.dirichlet(),
                                              HalflineBoundary.robin(1.0)),
                CouplingScheme.from_greek(GreekParams(1.0, 0.0, 2.0))]  # Dirichlet right side
    assert sum(s.is_separated for s in schemes) >= 22
    for scheme in schemes:
        ks = 10.0 ** rng.uniform(-3, 3, 25)
        r, t = s_matrix_array(scheme, ks)
        assert r.shape == t.shape == ks.shape
        assert np.max(np.abs(np.abs(r) ** 2 + np.abs(t) ** 2 - 1.0)) <= 1e-12
        for k, r_k, t_k in zip(ks.tolist(), r.tolist(), t.tolist()):
            amp = s_matrix(scheme, k)
            # numpy and CPython round complex products and quotients differently
            tol = 5e-14 * max(1.0, abs(amp.r), abs(amp.t)) * _denominator_condition(scheme, k)
            assert abs(r_k - amp.r) <= tol and abs(t_k - amp.t) <= tol, (scheme, k)


def test_s_matrix_array_rejects_bad_wavenumbers():
    scheme = CouplingScheme.from_greek(GreekParams(1.0, 0.0, 0.0))
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidWavenumber, match=rf"got {bad!r} at index 1"):
            s_matrix_array(scheme, np.array([1.0, bad, 2.0, bad]))
    # complex wavenumbers are rejected as by s_matrix, not cast to their real part
    with pytest.raises(InvalidWavenumber, match=re.escape("got (1+1j) at index 0")):
        s_matrix_array(scheme, [1 + 1j])
    with pytest.raises(InvalidWavenumber, match=re.escape("got (2-3j) at index 1")):
        s_matrix_array(scheme, np.array([1.0, 2.0 - 3.0j, 1.0j]))
    with pytest.raises(InvalidWavenumber):
        s_matrix(scheme, 1 + 1j)


# ---------------------------------------------------------------------------
# asymptotics (Richardson oracle lives in the acceptance suite; here: structure)
# ---------------------------------------------------------------------------

def test_low_energy_decoupling_for_alpha_nonzero(rng):
    for _ in range(50):
        g = random_greek(rng, allow_beta_zero=True)
        if abs(g.alpha) < 0.1:
            continue
        asym = scattering_asymptotics(CouplingScheme.from_greek(g))
        assert asym.low.branch == "alpha_nonzero"
        assert asym.low.r_limit == -1.0 and asym.low.t_limit == 0
        amp = s_matrix(CouplingScheme.from_greek(g), 1e-7)
        assert abs(amp.r + 1.0) < 1e-5 and abs(amp.t) < 1e-5


def test_high_energy_decoupling_for_beta_nonzero(rng):
    # full high-energy decoupling: |r| -> 1, t -> 0, Neumann-type limit r -> +1
    for _ in range(50):
        g = random_greek(rng)
        asym = scattering_asymptotics(CouplingScheme.from_greek(g))
        assert asym.high.branch == "beta_nonzero"
        assert asym.high.r_limit == 1.0 and asym.high.t_limit == 0
        amp = s_matrix(CouplingScheme.from_greek(g), 1e7)
        assert abs(amp.r - 1.0) < 1e-5 and abs(amp.t) < 1e-5


def test_transparency_iff_re_gamma_zero():
    # beta = 0, Re gamma = 0: |t| -> 1 at high energy
    asym = scattering_asymptotics(CouplingScheme.from_greek(GreekParams(1.0, 0.0, 0.8j)))
    assert abs(abs(asym.high.t_limit) - 1.0) < 1e-14
    # alpha = 0, Re gamma = 0: |t| -> 1 at low energy, with the stated closed form
    g = GreekParams(0.0, 1.0, 0.6j)
    asym = scattering_asymptotics(CouplingScheme.from_greek(g))
    gm = abs(g.gamma) ** 2
    expected = (4 - gm + 4j * g.gamma.imag) / (4 + gm)
    assert abs(asym.low.t_limit - expected) < 1e-14
    assert abs(abs(asym.low.t_limit) - 1.0) < 1e-14
    # Re gamma != 0 is opaque in both limits
    asym = scattering_asymptotics(CouplingScheme.from_greek(GreekParams(0.0, 1.0, 0.5 + 0.5j)))
    assert 0 < abs(asym.low.t_limit) < 1 and abs(asym.low.r_limit) > 0


def test_low_high_duality(rng):
    # alpha = 0 low-energy constants equal beta = 0 high-energy constants
    for _ in range(30):
        gamma = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        g_low = GreekParams(0.0, rng.uniform(0.2, 2.0), gamma)
        g_high = GreekParams(rng.uniform(0.2, 2.0), 0.0, gamma)
        if abs(abs(gamma) ** 2 - 4) < 1e-2:
            continue
        low = scattering_asymptotics(CouplingScheme.from_greek(g_low)).low
        high = scattering_asymptotics(CouplingScheme.from_greek(g_high)).high
        assert abs(low.r_limit - high.r_limit) < 1e-14
        assert abs(low.t_limit - high.t_limit) < 1e-14
