"""Spectral denominators, point spectrum, binding regimes, and scattering."""

from __future__ import annotations

import cmath
import math
import re

import numpy as np
import pytest

from gpi1d import (BindingKind, CouplingScheme, DegenerateParametrization,
                   GreekParams, HalflineBoundary, HalflineParams, InvalidSheet, InvalidWavenumber,
                   PointKind, PoleEvaluation, binding_regime, classify_symmetries,
                   denominator_D, denominator_F, gauge_transform, greek_to_halfline,
                   green_kernel, green_kernel_dx, green_kernel_greek, kernel_residue,
                   params, point_spectrum, s_matrix, s_matrix_array,
                   scattering_asymptotics)
from gpi1d.errors import GpiError
from conftest import exact_roots, random_greek, random_halfline, random_scheme, reference_free


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
        for kappa in map(float, exact_roots(h)):
            assert abs(denominator_F(g, 1j * kappa)) < 1e-9 * max(1.0, g.scale ** 2)


# ---------------------------------------------------------------------------
# point spectrum
# ---------------------------------------------------------------------------

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


@pytest.mark.parametrize("greek, kinds", [
    # |gamma| ~ 1e-11 lies outside the root's window 1e-12 * scale, though the
    # kernel's residue at k = 0 is within 1e-10 of the free i/2
    ((0.0, 1.82, -5.7e-12 + 9.3e-12j), [PointKind.ZERO_RESONANCE, PointKind.ANTIBOUND]),
    # |gamma| ~ 1.3e-9 and |det| ~ 2e-8 lie inside the window 1.1e-7, though
    # the residue strays from i/2 by more than 1e-10
    ((1.9e-13, -1.1e5, 8.3e-10 - 9.4e-10j), [PointKind.BOUND, PointKind.SPURIOUS_ROOT]),
], ids=["gamma-past-window", "gamma-and-det-in-window"])
def test_zero_root_is_spurious_where_gamma_and_det_vanish_in_its_window(greek, kinds):
    scheme = CouplingScheme.from_greek(GreekParams(*greek))
    assert [p.kind for p in point_spectrum(scheme)] == kinds
    # the same window decides whether gamma is zero for the symmetry flags
    assert classify_symmetries(scheme).space_reflection == (PointKind.SPURIOUS_ROOT in kinds)


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


def test_alpha_beta_duality(rng):
    # (lam beta, alpha / lam, gamma) has the same det, and its Delta at lam / k is
    # -(lam / k^2) conj Delta(k): its amplitudes there are -(Delta(k) / conj Delta(k))
    # (r, t) at k, and each root kappa maps to lam / kappa with the same kind
    n = 0
    while n < 2000:
        g = random_greek(rng)
        if abs(g.alpha) < 0.05:
            continue
        lam = float(rng.uniform(0.2, 5.0))
        scheme = CouplingScheme.from_greek(g)
        dual = CouplingScheme.from_greek(GreekParams(lam * g.beta, g.alpha / lam, g.gamma))
        for k in (10.0 ** rng.uniform(-2, 2, 3)).tolist():
            delta = 2.0 * g.alpha - 1j * k * (4.0 + g.det) - 2.0 * g.beta * k * k
            phase = -delta / delta.conjugate()
            amp, amp_dual = s_matrix(scheme, k), s_matrix(dual, lam / k)
            assert abs(amp_dual.r - phase * amp.r) <= 1e-12, (g, lam, k)
            assert abs(amp_dual.t - phase * amp.t) <= 1e-12, (g, lam, k)
        points = sorted(point_spectrum(scheme), key=lambda p: lam / p.kappa)
        dual_points = sorted(point_spectrum(dual), key=lambda p: p.kappa)
        assert len(points) == len(dual_points) == 2, (g, lam)
        for p, q in zip(points, dual_points):
            assert p.kind is q.kind, (g, lam)
            assert abs(q.kappa - lam / p.kappa) <= 1e-13 * abs(q.kappa), (g, lam)
        n += 1


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


@pytest.mark.parametrize("h", [HalflineParams(1e155, 1.0, 1.0 + 0j),
                               HalflineParams(1.0, 1.0, 1e155 + 0j)])
def test_binding_regime_where_a_square_leaves_the_float_range(h):
    # (a - b)^2 or |c|^2 overflows, but kappa_+- = (-(a+b) +- hypot(a - b, 2|c|))/2 do not
    reg = binding_regime(h)
    sq = math.hypot(h.a - h.b, 2.0 * abs(h.c))
    assert reg.detail["kappa_hi"] == (-(h.a + h.b) + sq) / 2.0
    assert reg.detail["kappa_lo"] == (-(h.a + h.b) - sq) / 2.0
    assert reg.kind is BindingKind.OTHER


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
    for bad, got in ((np.array(["a"]), "dtype <U1"), ([[1.0], [1.0, 2.0]], "list")):
        with pytest.raises(InvalidWavenumber) as info:
            s_matrix_array(scheme, bad)
        assert str(info.value) == f"k must be an array of positive real numbers, got {got}"


# its halfline form has |a|, |b|, |c| of about 1.9e154, so |c|^2 overflows
_HALFLINE_PAST_THE_FLOAT_RANGE = GreekParams(
    -3.2201753949266605e-205, -1.795297460710003e+138,
    2.7846321312815223e+146 - 2.42813073191864e+146j)


def test_s_matrix_refuses_a_halfline_form_past_the_float_range():
    scheme = CouplingScheme.from_greek(_HALFLINE_PAST_THE_FLOAT_RANGE)
    assert abs(scheme.halfline.c) > 1.34e154
    with pytest.raises(DegenerateParametrization, match=re.escape("'|c|^2' is not finite")):
        s_matrix(scheme, 1.0)
    with pytest.raises(DegenerateParametrization, match=re.escape("'|c|^2' is not finite")):
        s_matrix_array(scheme, np.array([0.5, 1.0, 2.0]))


# ---------------------------------------------------------------------------
# asymptotics (the Richardson oracle and the random loops live in acceptance criterion 6)
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# per-scheme constants
# ---------------------------------------------------------------------------

def _reference_prefactor(g, k):
    # 1/(2 Delta(k)) as written on GreekParams, before the constants were kept per scheme
    return 0.5 / (2.0 * g.alpha - 1j * k * (4.0 + g.det) - 2.0 * g.beta * k * k)


def _reference_coef(g, k, sx, sxp):
    det = g.det
    if sx > 0 and sxp > 0:
        return 4.0 + det - 4.0 * g.gamma.real - 4j * k * g.beta
    if sx < 0 and sxp < 0:
        return 4.0 + det + 4.0 * g.gamma.real - 4j * k * g.beta
    if sx > 0 > sxp:
        return 4.0 - det + 4j * g.gamma.imag
    return 4.0 - det - 4j * g.gamma.imag


def _sampled_schemes(rng):
    for _ in range(150):
        yield random_scheme(rng, allow_beta_zero=True)
    for _ in range(50):
        yield CouplingScheme.from_halfline(random_halfline(rng))
    yield CouplingScheme.from_greek(GreekParams(-2.0, 0.0, 0.0))
    yield CouplingScheme.from_greek(GreekParams(0.0, 1.0, 0.3 - 0.4j))


def test_kernel_constants_are_those_of_the_matrix_form(rng):
    # the per-scheme constants give the same floats as the formulas on GreekParams
    for scheme in _sampled_schemes(rng):
        g = scheme.greek
        for _ in range(10):
            x, xp = rng.uniform(-3.0, 3.0, 2)
            k = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0))
            sx, sxp = (1 if x > 0 else -1), (1 if xp > 0 else -1)
            assert green_kernel(scheme, x, xp, k) == green_kernel_greek(g, x, xp, k)
            expfac = cmath.exp(1j * k * (sx * x + sxp * xp))
            want = (reference_free(sx, sxp, x, xp, k, 1)
                    + _reference_prefactor(g, k) * _reference_coef(g, k, sx, sxp)
                    * (1j * k * sx) * expfac)
            assert green_kernel_dx(scheme, x, xp, k, diag_side=1) == want
        roots = [p.kappa for p in point_spectrum(scheme)]
        for kappa in roots + [0.0, float(rng.uniform(-2, 2))]:
            for x, xp in ((0.8, 1.1), (-0.5, 1.1), (0.3, -2.0), (-1.0, -0.2)):
                sx, sxp = (1 if x > 0 else -1), (1 if xp > 0 else -1)
                dprime = -1j * (4.0 + g.det + 4.0 * g.beta * kappa)
                want = (_reference_coef(g, 1j * kappa, sx, sxp)
                        * math.exp(-kappa * (sx * x + sxp * xp)) / (2.0 * dprime))
                if kappa not in roots:  # off the roots of Delta the residue is 0
                    want = 0j
                assert kernel_residue(scheme, kappa, x, xp) == want


def test_separated_residue_is_nonzero_exactly_where_the_kernel_refuses_the_pole():
    # Robin slope -1.3 on the right: a bound state at kappa = 1.3; 1e-10 off it
    # the kernel is finite and the residue is 0
    scheme = CouplingScheme.from_separated(HalflineBoundary.robin(-1.3),
                                           HalflineBoundary.dirichlet())
    refused = []
    for kappa0 in (1.3, 1.3 * (1.0 + 1e-10), 1.3 * (1.0 - 1e-10)):
        residue = kernel_residue(scheme, kappa0, 0.8, 1.1)
        try:
            green_kernel(scheme, 0.8, 1.1, 1j * kappa0)
        except PoleEvaluation:
            refused.append(kappa0)
            assert residue == 1j * math.exp(-kappa0 * (0.8 + 1.1))
        else:
            assert residue == 0j, kappa0
    assert refused == [1.3]
    message = "side denominator = 0j vanishes at k = 1.3j"
    with pytest.raises(PoleEvaluation, match=re.escape(message)):
        green_kernel(scheme, 0.8, 1.1, 1.3j)
    assert kernel_residue(scheme, 1.3, -0.8, -1.1) == kernel_residue(scheme, 1.3, 0.8, -1.1) == 0j


def test_kernel_residue_refuses_an_out_of_range_magnitude():
    # e^{-kappa0 (|x|+|x'|)} = e^800 at an antibound pole 400 from the origin
    separated = CouplingScheme.from_separated(HalflineBoundary.robin(1.0),
                                              HalflineBoundary.dirichlet())
    for scheme in (CouplingScheme.from_greek(GreekParams(2.0, 0.0, 0j)), separated):
        with pytest.raises(DegenerateParametrization,
                           match="'kernel residue' is not finite") as info:
            kernel_residue(scheme, -1.0, 400.0, 400.0)
        assert info.value.magnitude == math.inf
    # a quadrant without the pole has residue 0 however far out
    assert (kernel_residue(separated, -1.0, 400.0, -400.0)
            == kernel_residue(separated, -1.0, -400.0, -400.0) == 0j)


def test_coupled_residue_is_nonzero_exactly_where_the_kernel_refuses_the_pole():
    # roots 0.4735... (bound) and -4.2235... (antibound); 1e-12 off the bound one the
    # kernel is finite and the residue is 0, as it is at kappa0 = 0.2 and at the vertex
    # -(4 + det)/(4 beta) = -1.875 of Delta(i kappa), where Delta' vanishes
    scheme = CouplingScheme.from_greek(GreekParams(-1.0, 0.5, 0.3 + 0.4j))
    bound, antibound = (p.kappa for p in point_spectrum(scheme))
    refused = []
    offsets = (0.0, 1e-13, -1e-13, 5e-13, -5e-13, 1e-12, -1e-12, 2e-12, -2e-12, 1e-10, -1e-10)
    for kappa0 in [bound * (1.0 + f) for f in offsets] + [0.2, 1.875]:
        residue = kernel_residue(scheme, kappa0, 0.8, -1.1)
        try:
            green_kernel(scheme, 0.8, -1.1, 1j * kappa0)
        except PoleEvaluation:
            refused.append(kappa0)
            assert residue != 0j
        else:
            assert residue == 0j, kappa0
    # the rule's edge, |Delta| = DEGENERACY_TOL * scale, lies between 5e-13 and 1e-12 off
    assert refused == [bound * (1.0 + f) for f in offsets[:5]]
    assert kernel_residue(scheme, antibound, 0.8, -1.1) != 0j
    assert (kernel_residue(scheme, -1.875, 0.8, -1.1) == kernel_residue(scheme, 0.2, -0.8, 1.1)
            == 0j)


def test_kernel_residue_refuses_a_double_root():
    # gamma = 1e-7 i keeps (2, 2, gamma) coupled, and its two antibound roots lie 1e-7
    # apart around kappa0 = -(4 + det)/(4 beta), where Delta passes the pole rule and
    # Delta'(i kappa0) is exactly 0
    scheme = CouplingScheme.from_greek(GreekParams(2.0, 2.0, 1e-7j))
    assert not scheme.is_separated
    kappa0 = -(4.0 + scheme.greek.det) / (4.0 * scheme.greek.beta)
    message = ("degenerate parametrization: denominator \"Delta'(i kappa0)\" vanishes"
               " (|value| = 0.000e+00)")
    with pytest.raises(DegenerateParametrization, match=re.escape(message)):
        kernel_residue(scheme, kappa0, 0.5, 0.7)
    for p in point_spectrum(scheme):
        assert cmath.isfinite(kernel_residue(scheme, p.kappa, 0.5, 0.7))


def test_kernel_refuses_an_out_of_range_delta():
    # |k|^2 past the float range (|k| > 1.34e154), Delta(k) past it at beta ~ 1e150,
    # |k| ~ 1e100, where the kernel returned nan before, and at alpha ~ 1e308, where it
    # returned the free part alone; |k| = 1e150 still evaluates
    g = GreekParams(-1.0, 0.5, 0.3 + 0.4j)
    scheme = CouplingScheme.from_greek(g)
    big_beta = GreekParams(-1.0, 1e150, 0.3 + 0.4j)
    big_alpha = GreekParams(1.5e308, 1e-10, 0.5j)  # 2 alpha = inf under a finite pole scale
    message = "degenerate parametrization: 'Delta(k)' is not finite (|value| = inf)"
    for call in (lambda: green_kernel(scheme, 0.5, -0.7, 1e160j),
                 lambda: green_kernel_dx(scheme, 0.5, -0.7, 1e160j),
                 lambda: green_kernel_greek(g, 0.5, -0.7, 1e160j),
                 lambda: green_kernel(CouplingScheme.from_greek(big_beta), 0.5, 0.7, 1e100j),
                 lambda: green_kernel_greek(big_beta, -0.5, 0.7, 3e99 + 1e100j),
                 lambda: green_kernel(CouplingScheme.from_greek(big_alpha), 0.5, 0.7, 1j)):
        with pytest.raises(DegenerateParametrization, match=re.escape(message)) as info:
            call()
        assert info.value.magnitude == math.inf
    for x, xp in ((0.5, -0.7), (0.5, 0.7)):
        assert green_kernel(scheme, x, xp, 1e150j) == green_kernel_greek(g, x, xp, 1e150j)
        assert cmath.isfinite(green_kernel_dx(scheme, x, xp, 1e150j))
    # at beta = 0 Delta(k) = 2 alpha - ik (4 + det) is finite past |k| = 1.34e154,
    # and so is its pole scale
    g0 = GreekParams(-1.5, 0.0, 0.3 + 0.4j)
    beta_zero = CouplingScheme.from_greek(g0)
    assert green_kernel(beta_zero, 0.5, -0.7, 1e155j) == 0j
    assert green_kernel_dx(beta_zero, 0.5, -0.7, 1e155j) == 0j
    assert green_kernel_greek(g0, 0.5, -0.7, 1e155j) == 0j
    for kappa0 in (1e155, -1e155):
        assert kernel_residue(beta_zero, kappa0, 0.8, -1.1) == 0j


def test_kernel_refuses_a_wavenumber_whose_modulus_leaves_the_float_range():
    # |k| itself overflows (abs raises OverflowError), on the beta != 0 and the
    # beta = 0 forms, for the value and its d/dx
    k = 1.5e308 + 1.5e308j
    with pytest.raises(OverflowError):
        abs(k)
    message = "degenerate parametrization: 'Delta(k)' is not finite (|value| = inf)"
    for g in (GreekParams(-1.0, 0.5, 0.3 + 0.4j), GreekParams(-1.0, 0.0, 0.3 + 0.4j)):
        scheme = CouplingScheme.from_greek(g)
        for call in (lambda: green_kernel(scheme, 0.3, 0.2, k),
                     lambda: green_kernel_dx(scheme, 0.3, -0.2, k),
                     lambda: green_kernel_greek(g, -0.3, 0.2, k)):
            with pytest.raises(DegenerateParametrization, match=re.escape(message)) as info:
                call()
            assert info.value.magnitude == math.inf


def test_matrix_form_kernel_with_an_infinite_det_refuses_a_bad_point_first():
    # det = alpha beta + |gamma|^2 overflows, so the matrix constants refuse;
    # an off-sheet k and an unsided x = 0 are still refused as on every kernel
    g = GreekParams(1e200, 1e200, 0.5)
    with pytest.raises(InvalidSheet, match=re.escape("got k = (-0-1j)")):
        green_kernel_greek(g, 0.3, 0.2, -1j)
    with pytest.raises(ValueError, match="x = 0 requires an explicit side"):
        green_kernel_greek(g, 0.0, 0.2, 1j)
    for k in (1j, 1.5e308 + 1.5e308j):
        with pytest.raises(DegenerateParametrization) as info:
            green_kernel_greek(g, 0.3, 0.2, k)
        assert (info.value.denominator, info.value.magnitude) == ("det", math.inf)


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _outcome(f, *args):
    # a kernel's value bits, or its refusal's type and message
    try:
        return _bits(f(*args))
    except (ValueError, GpiError) as exc:
        return type(exc).__name__, str(exc)


def _reference_kernel(scheme, x, xp, k, x_side, xp_side, diag_side=None):
    # free part + coefficient * e^{ik(|x|+|x'|)}: 0.5 / Delta * quadrant for a coupled
    # scheme, 1/(s - ik) on a Robin or Neumann side of a separated one; dx multiplies
    # the coefficient by ik sx; the same refusals, in the same order
    k = complex(k)
    if not (k.imag > 0 and math.isfinite(k.real) and math.isfinite(k.imag)):
        return "InvalidSheet", f"green kernel requires Im k > 0, got k = {k!r}"
    sides = []
    for name, v, side in (("x", x, x_side), ("x'", xp, xp_side)):
        if v == 0 and side not in (1, -1):
            return "ValueError", f"{name} = 0 requires an explicit side (+1 or -1)"
        sides.append(1 if v > 0 else -1 if v < 0 else side)
    sx, sxp = sides
    expfac = cmath.exp(1j * k * (sx * x + sxp * xp))
    if diag_side == 0 and sx == sxp and x == xp:
        return "ValueError", "x = x' requires diag_side (+1 or -1)"
    free = reference_free(sx, sxp, x, xp, k, diag_side)
    if scheme.is_separated:
        bc = scheme.separated.right if sx > 0 else scheme.separated.left
        coef = 0j
        if sx == sxp and bc.kind != params.DIRICHLET:
            d = bc.slope - 1j * k
            if abs(d) <= params.DEGENERACY_TOL * max(1.0, abs(bc.slope), abs(k)):
                return "PoleEvaluation", f"side denominator = {d!r} vanishes at k = {k!r}"
            coef = 1.0 / d
    else:
        g = scheme.greek
        d = 2.0 * g.alpha - 1j * k * (4.0 + g.det) - 2.0 * g.beta * k * k
        scale = max(1.0, abs(g.alpha), abs(k) * abs(4.0 + g.det), abs(g.beta) * abs(k) ** 2)
        if abs(d) <= params.DEGENERACY_TOL * scale:
            return "PoleEvaluation", f"Delta(k) = {d!r} vanishes at k = {k!r}"
        coef = _reference_prefactor(g, k) * _reference_coef(g, k, sx, sxp)
    if diag_side is None:
        return _bits(free + coef * expfac)
    return _bits(free + coef * (1j * k * sx) * expfac)


def _bit_schemes(rng):
    g = GreekParams(-1.0, 0.5, 0.3 + 0.4j)
    yield g, CouplingScheme.from_greek(g)
    for g in (GreekParams(-2.0, 0.0, 0j), GreekParams(-1.5, 0.0, 0.3 + 0.4j),
              *(random_greek(rng) for _ in range(4))):
        yield g, CouplingScheme.from_greek(g)
    sides = (HalflineBoundary.robin(-1.3), HalflineBoundary.robin(0.7),
             HalflineBoundary.neumann(), HalflineBoundary.dirichlet())
    for right in sides:
        for left in sides:
            yield None, CouplingScheme.from_separated(right, left)


def test_scheme_kernels_are_the_written_out_formula_bit_for_bit(rng):
    # green_kernel, green_kernel_dx and green_kernel_greek against free part + 0.5/Delta
    # quadrant e^{ik(|x|+|x'|)} (1/(s - ik) on a separated side): value bits, refusals
    # and messages, at x = 0 with and without a side, Im k Q > 1, poles +- 1e-13 and Im k <= 0
    seen = set()
    for g, scheme in _bit_schemes(rng):
        poles = [p.kappa for p in point_spectrum(scheme) if p.kappa > 0]
        ks = [complex(rng.uniform(-3, 3), rng.uniform(0.05, 3)) for _ in range(6)]
        ks += [complex(rng.uniform(-1, 1), rng.uniform(5, 50)), 0.7 - 0.2j, 1.3 + 0j, -0.4j,
               complex(math.inf, 1.0), complex(0.5, math.inf), complex(math.nan, 1.0)]
        ks += [1j * kappa * f for kappa in poles for f in (1.0, 1.0 + 1e-13, 1.0 - 1e-13)]
        for k in ks:
            for _ in range(8):
                x, xp = (float(v) for v in rng.uniform(-3, 3, 2))
                x_side, xp_side, diag_side = (int(v) for v in rng.choice([-1, 0, 1], 3))
                if rng.uniform() < 0.3:
                    x = 0.0
                if rng.uniform() < 0.3:
                    xp = 0.0
                if rng.uniform() < 0.2:
                    xp, xp_side = x, x_side
                want = _reference_kernel(scheme, x, xp, k, x_side, xp_side)
                assert _outcome(green_kernel, scheme, x, xp, k, x_side, xp_side) == want
                if g is not None:
                    assert _outcome(green_kernel_greek, g, x, xp, k, x_side, xp_side) == want
                want_dx = _reference_kernel(scheme, x, xp, k, x_side, xp_side, diag_side)
                assert (_outcome(green_kernel_dx, scheme, x, xp, k, x_side, xp_side, diag_side)
                        == want_dx)
                for w in (want, want_dx):
                    value = "0x" in w[0]
                    seen.add(w[1][:12] if w[0] == "ValueError" else "value" if value else w[0])
                if "0x" in want[0]:
                    seen.add("x = 0 sided" if 0.0 in (x, xp) else None)
                    same_side = x * xp > 0
                    seen.add("Im k Q > 1" if same_side and k.imag * min(abs(x), abs(xp)) > 1.0
                             else None)
    # |Delta| ~ 1.7e308, where 0.5 / Delta is subnormal and 0.5 * (1 / Delta) rounds apart
    scheme = CouplingScheme.from_greek(GreekParams(-1.0, 0.5, 0.3 + 0.4j))
    for kappa in (1.25e154, 1.27e154, 1.3e154, 1.32e154, 1.34e154):
        k = complex(1e150, kappa)
        for x, xp in ((1e-155, 2e-155), (-1e-155, -3e-155), (2e-155, -1e-155)):
            want = _reference_kernel(scheme, x, xp, k, 0, 0)
            assert _outcome(green_kernel, scheme, x, xp, k, 0, 0) == want
            assert want[0] != "0x0.0p+0" and want[0].startswith(("0x", "-0x"))
    assert {"value", "InvalidSheet", "PoleEvaluation", "x = 0 requir", "x' = 0 requi",
            "x = x' requi", "x = 0 sided", "Im k Q > 1"} <= seen, seen


def test_s_matrix_converts_once_per_scheme(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return greek_to_halfline(g)

    monkeypatch.setattr(params, "greek_to_halfline", counted)
    scheme = CouplingScheme.from_greek(GreekParams(-1.0, 0.5, 0.3 + 0.4j))
    amps = [s_matrix(scheme, k) for k in np.linspace(0.1, 10.0, 100)]
    assert len(calls) == 1
    assert max(abs(a.unitarity - 1.0) for a in amps) < 1e-12


def test_kernel_raises_at_a_bound_state():
    # beta = 0 included, in every quadrant of (x, x')
    for g in (GreekParams(-2.0, 0.0, 0.0), GreekParams(-1.0, 0.5, 0.3 + 0.4j)):
        scheme = CouplingScheme.from_greek(g)
        bound = [p for p in point_spectrum(scheme) if p.kind is PointKind.BOUND]
        assert bound
        for p in bound:
            for x, xp in ((0.5, 0.7), (-0.5, -0.7), (0.5, -0.7), (-0.5, 0.7)):
                with pytest.raises(PoleEvaluation):
                    green_kernel(scheme, x, xp, 1j * p.kappa)


def test_asymptotics_and_bound_states_past_the_range_of_squares():
    # (4 + |gamma|^2)^2, (4 + det)^2 and |4 - det|^2 leave the float range,
    # but the expansions and the bound state do not
    alpha, gamma = 3.2075846633429543e+23, -1.2123854869096575e+78 + 6.321262325789779e-61j
    asym = scattering_asymptotics(CouplingScheme.from_greek(
        GreekParams(alpha, 5.414192566293566e-23, gamma)))
    for end in (asym.low, asym.high):
        assert all(cmath.isfinite(v) for v in (end.r_limit, end.t_limit, end.r_coeff, end.t_coeff))
    # r = r0 - 2i alpha (4 + |gamma|^2 + 4 Re gamma) / (4 + |gamma|^2)^2 / k + ...
    assert asym.high.r_coeff == pytest.approx(-2j * alpha / abs(gamma) ** 2, rel=1e-14)

    greek = GreekParams(-5.665947502505928e+76, -2.45401545968452e+77,
                        -1.2781139565475978e-63 + 5.783306489429932e-25j)
    bound = [p for p in point_spectrum(CouplingScheme.from_greek(greek))
             if p.kind is PointKind.BOUND]
    assert len(bound) == 1
    point = bound[0]
    # 2 beta kappa^2 + (4 + det) kappa + 2 alpha = 0, det ~ alpha beta: kappa ~ -det / (2 beta)
    det = greek.alpha * greek.beta
    assert point.kappa == pytest.approx(-det / (2.0 * greek.beta), rel=1e-14)
    assert abs(point.mu) ** 2 + abs(point.nu) ** 2 == pytest.approx(2.0 * point.kappa, rel=1e-14)
    # (4 + det) + root overflows in the larger root, -(4 + det)/(2 beta) = 5e157, which
    # comes out inf, and so does |(mu, nu)|: the bound state is refused
    with pytest.raises(DegenerateParametrization) as info:
        point_spectrum(CouplingScheme.from_greek(GreekParams(0.0, -1e150, 1e154 + 0j)))
    assert str(info.value) == \
        "degenerate parametrization: '|(mu, nu)|' is not finite (|value| = nan)"
