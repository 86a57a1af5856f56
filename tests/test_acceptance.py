"""Acceptance suite: eleven gate criteria, one pass line printed per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the pass lines; every
tolerance is pinned in the assertions below.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

from gpi1d import (CouplingScheme, GreekParams, HalflineParams, ParameterLoop,
                   PointKind, band_condition_lhs_bound,
                   band_structure, berry_phase_discrete, connection_riemann_sum,
                   greek_to_halfline, green_kernel_dx,
                   green_kernel_greek, green_kernel_halfline,
                   halfline_to_greek, halfline_to_inverse, inverse_to_halfline,
                   kernel_derivative_jump, LatticeSpec, monodromy_trace,
                   point_spectrum, s_matrix, scattering_asymptotics,
                   PoleEvaluation)
from conftest import close, exact_roots, random_greek, random_halfline, random_scheme

PI = math.pi


def _report(n: int, text: str) -> None:
    print(f"[PASS] criterion {n}: {text}")


# ---------------------------------------------------------------------------
# 1. conversion round trips
# ---------------------------------------------------------------------------

def _same_fields(p, q) -> bool:
    # two records of one chart agree field by field to 1e-10
    return all(close(x, y, 1e-10) for x, y in zip(vars(p).values(), vars(q).values()))


def test_criterion_1_conversion_round_trips():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_rt = 0.0
    worst_det = 0.0
    draws = []
    for _ in range(1000):
        g = random_greek(rng)
        h = greek_to_halfline(g)
        i = halfline_to_inverse(h)
        h2 = inverse_to_halfline(i)
        g2 = halfline_to_greek(h2)
        rel = max(abs(g2.alpha - g.alpha), abs(g2.beta - g.beta),
                  abs(g2.gamma - g.gamma)) / g.scale
        rel = max(rel, max(abs(h2.a - h.a), abs(h2.b - h.b), abs(h2.c - h.c)) / h.scale)
        worst_rt = max(worst_rt, rel)
        det_rhs = 4.0 * (h.a + h.b + 2 * h.c.real) / (h.a + h.b - 2 * h.c.real)
        worst_det = max(worst_det, abs(g.det - det_rhs) / max(1.0, abs(g.det)))
        draws.append((g, h))
    elapsed = time.perf_counter() - t0
    # each field to its own size: g -> h -> g on the same draws, then h -> i -> h
    # and the det identity from the halfline side on 500 halfline draws
    for g, h in draws:
        assert _same_fields(g, halfline_to_greek(h)), g
    for _ in range(500):
        h = random_halfline(rng)
        det_rhs = 4.0 * (h.a + h.b + 2 * h.c.real) / (h.a + h.b - 2 * h.c.real)
        assert _same_fields(h, inverse_to_halfline(halfline_to_inverse(h))), h
        assert close(halfline_to_greek(h).det, det_rhs, 1e-10), h
    assert worst_rt <= 1e-10
    assert worst_det <= 1e-10
    assert elapsed < 1.0
    _report(1, f"1000 round trips, worst rel err {worst_rt:.2e}, det identity {worst_det:.2e}, "
               f"per field to 1e-10 (+500 halfline), {elapsed:.2f}s (< 1 s)")


# ---------------------------------------------------------------------------
# 2. delta and delta' anchors
# ---------------------------------------------------------------------------

def test_criterion_2_delta_anchors():
    pts = point_spectrum(CouplingScheme.from_greek(GreekParams(-2.0, 0.0, 0.0)))
    assert len(pts) == 1 and pts[0].kind is PointKind.BOUND
    assert abs(pts[0].kappa - 1.0) <= 1e-12
    assert abs(pts[0].energy + 1.0) <= 1e-12

    pts = point_spectrum(CouplingScheme.from_greek(GreekParams(0.0, -2.0, 0.0)))
    assert [p.kind for p in pts] == [PointKind.BOUND, PointKind.SPURIOUS_ROOT]
    assert abs(pts[0].kappa - 1.0) <= 1e-12 and abs(pts[0].energy + 1.0) <= 1e-12
    assert pts[1].kappa == 0.0
    _report(2, "delta(-2): one bound state kappa=1; delta'(-2): bound kappa=1 "
               "plus kappa=0 flagged spurious by vanishing residue")


# ---------------------------------------------------------------------------
# 3. two-bound-state case
# ---------------------------------------------------------------------------

def test_criterion_3_two_bound_states():
    h = HalflineParams(-3.0, -1.0, 0.5)
    pts = point_spectrum(CouplingScheme.from_halfline(h))
    assert all(p.kind is PointKind.BOUND for p in pts) and len(pts) == 2
    # independent oracle: the 60-digit roots, kappa descending (the deeper level first)
    kappas = sorted(map(float, exact_roots(h)), reverse=True)
    for p, kref in zip(pts, kappas):
        assert abs(p.kappa - kref) <= 1e-12
        assert abs(p.energy + kref ** 2) <= 1e-12
    assert abs(pts[0].energy - (-5.25 - math.sqrt(20))) <= 1e-12
    assert abs(pts[1].energy - (-5.25 + math.sqrt(20))) <= 1e-12
    for p in pts:
        r1 = (-p.kappa * p.mu) - (h.a * p.mu + h.c * p.nu)
        r2 = (-p.kappa * p.nu) - (np.conj(h.c) * p.mu + h.b * p.nu)
        assert max(abs(r1), abs(r2)) <= 1e-10
        assert abs((abs(p.mu) ** 2 + abs(p.nu) ** 2) / (2 * p.kappa) - 1.0) <= 1e-12
    _report(3, "energies -5.25 -+ sqrt(20) match the quadratic oracle to 1e-12; "
               "eigenfunctions satisfy the boundary conditions to 1e-10, unit norm")


# ---------------------------------------------------------------------------
# 4. kernel-form equality, boundary conditions, unit jump
# ---------------------------------------------------------------------------

def test_criterion_4_kernel_equality():
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    worst = 0.0
    n_done = 0
    while n_done < 10_000:
        g = random_greek(rng)
        h = greek_to_halfline(g)
        x = rng.uniform(-3, 3)
        xp = rng.uniform(-3, 3)
        if abs(x) < 1e-3 or abs(xp) < 1e-3:
            continue
        k = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3.0))
        try:
            v1 = green_kernel_halfline(h, x, xp, k)
            v2 = green_kernel_greek(g, x, xp, k)
        except PoleEvaluation:
            continue
        worst = max(worst, abs(v1 - v2) / max(1.0, abs(v1)))
        n_done += 1
    assert worst <= 1e-10

    worst_bc = 0.0
    worst_jump = 0.0
    for _ in range(200):
        h = random_halfline(rng)
        scheme = CouplingScheme.from_halfline(h)
        k = complex(rng.uniform(-2, 2), rng.uniform(0.2, 2.0))
        try:
            for xp in (1.1, -0.7):
                f_p = green_kernel_halfline(h, 0.0, xp, k, x_side=+1)
                f_m = green_kernel_halfline(h, 0.0, xp, k, x_side=-1)
                d_p = green_kernel_dx(scheme, 0.0, xp, k, x_side=+1)
                d_m = green_kernel_dx(scheme, 0.0, xp, k, x_side=-1)
                scale = max(1.0, abs(f_p), abs(f_m), abs(d_p), abs(d_m))
                worst_bc = max(worst_bc,
                               abs(d_p - (h.a * f_p + h.c * f_m)) / scale,
                               abs(-d_m - (np.conj(h.c) * f_p + h.b * f_m)) / scale)
            worst_jump = max(worst_jump,
                             abs(kernel_derivative_jump(scheme, 0.9, k) + 1.0))
        except PoleEvaluation:
            continue
    elapsed = time.perf_counter() - t0
    assert worst_bc <= 1e-10
    assert worst_jump <= 1e-12
    assert elapsed < 10.0
    _report(4, f"10^4 samples: matrix vs halfline kernel rel dev {worst:.2e} "
               f"(<= 1e-10); bc residual {worst_bc:.2e}; derivative jump = -1 "
               f"to {worst_jump:.2e}; {elapsed:.2f}s (< 10 s)")


# ---------------------------------------------------------------------------
# 5. unitarity
# ---------------------------------------------------------------------------

def test_criterion_5_unitarity():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(200):
        scheme = random_scheme(rng, allow_beta_zero=True)
        for k in 10.0 ** rng.uniform(-3, 3, 10):
            worst = max(worst, abs(s_matrix(scheme, float(k)).unitarity - 1.0))
    assert worst <= 1e-12
    for _ in range(20):
        a, b = rng.uniform(-3, 3, 2)
        scheme = CouplingScheme.from_halfline(HalflineParams(a, b, 0.0))
        for k in [*10.0 ** rng.uniform(-3, 3, 5), 0.1, 1.0, 10.0]:
            amp = s_matrix(scheme, float(k))
            assert amp.t == 0 and abs(abs(amp.r) - 1.0) <= 1e-12
    _report(5, f"|r|^2+|t|^2 = 1 within {worst:.2e} over 200 schemes x 10 "
               "wavenumbers; decoupled schemes transmit nothing")


# ---------------------------------------------------------------------------
# 6. low/high-energy asymptotics with Richardson oracle
# ---------------------------------------------------------------------------

def _rel(est: complex, ref: complex) -> float:
    return abs(est - ref) / abs(ref) if abs(ref) > 1e-14 else abs(est - ref)


def _richardson_low(scheme, asym):
    h = 1e-3
    s = lambda k: s_matrix(scheme, k)
    dev = max(abs((2 * s(h / 2).r - s(h).r) - asym.low.r_limit),
              abs((2 * s(h / 2).t - s(h).t) - asym.low.t_limit))
    q = lambda k: ((s(k).r - asym.low.r_limit) / k, (s(k).t - asym.low.t_limit) / k)
    q1, q2 = q(h), q(h / 2)
    dev = max(dev, _rel(2 * q2[0] - q1[0], asym.low.r_coeff),
              _rel(2 * q2[1] - q1[1], asym.low.t_coeff))
    return dev


def _richardson_high(scheme, asym):
    big = 1e3
    s = lambda k: s_matrix(scheme, k)
    dev = max(abs((2 * s(2 * big).r - s(big).r) - asym.high.r_limit),
              abs((2 * s(2 * big).t - s(big).t) - asym.high.t_limit))
    q = lambda k: ((s(k).r - asym.high.r_limit) * k, (s(k).t - asym.high.t_limit) * k)
    q1, q2 = q(big), q(2 * big)
    dev = max(dev, _rel(2 * q2[0] - q1[0], asym.high.r_coeff),
              _rel(2 * q2[1] - q1[1], asym.high.t_coeff))
    return dev


def test_criterion_6_asymptotic_duality():
    # alpha != 0: full decoupling at k -> 0 (Dirichlet-type, r -> -1).
    worst = 0.0
    for g in (GreekParams(-2.0, 0.0, 0.0), GreekParams(-2.0, 0.5, 0.2)):
        scheme = CouplingScheme.from_greek(g)
        asym = scattering_asymptotics(scheme)
        assert asym.low.r_limit == -1.0 and asym.low.t_limit == 0
        amp = s_matrix(scheme, 1e-8)
        assert abs(amp.r + 1.0) < 1e-6 and abs(amp.t) < 1e-6
    worst = max(worst, _richardson_low(
        CouplingScheme.from_greek(GreekParams(-2.0, 0.0, 0.0)),
        scattering_asymptotics(CouplingScheme.from_greek(GreekParams(-2.0, 0.0, 0.0)))))

    # beta != 0: full decoupling at k -> infinity.  The Richardson oracle fixes
    # the limit to +1 (Neumann type): |r| -> 1 and t -> 0 hold as stated.
    schemep = CouplingScheme.from_greek(GreekParams(0.0, -2.0, 0.0))
    asymp = scattering_asymptotics(schemep)
    amp = s_matrix(schemep, 1e8)
    assert abs(abs(amp.r) - 1.0) < 1e-6 and abs(amp.t) < 1e-6
    assert asymp.high.r_limit == 1.0 and asymp.high.t_limit == 0
    worst = max(worst, _richardson_high(schemep, asymp))

    # alpha = 0 closed forms at low energy; beta = 0 closed forms at high energy
    g_a0 = CouplingScheme.from_greek(GreekParams(0.0, 1.0, 0.5j))
    worst = max(worst, _richardson_low(g_a0, scattering_asymptotics(g_a0)))
    g_b0 = CouplingScheme.from_greek(GreekParams(-1.0, 0.0, 0.5j))
    worst = max(worst, _richardson_high(g_b0, scattering_asymptotics(g_b0)))
    # the duality: the same constants appear at the opposite ends
    low = scattering_asymptotics(g_a0).low
    high = scattering_asymptotics(CouplingScheme.from_greek(GreekParams(1.0, 0.0, 0.5j))).high
    assert abs(low.r_limit - high.r_limit) < 1e-14
    assert abs(low.t_limit - high.t_limit) < 1e-14

    # random couplings: alpha != 0 decouples at k -> 0, beta != 0 at k -> infinity
    rng = np.random.default_rng(106)
    for _ in range(50):
        g = random_greek(rng, allow_beta_zero=True)
        if abs(g.alpha) < 0.1:
            continue
        scheme = CouplingScheme.from_greek(g)
        asym = scattering_asymptotics(scheme)
        assert asym.low.branch == "alpha_nonzero"
        assert asym.low.r_limit == -1.0 and asym.low.t_limit == 0
        amp = s_matrix(scheme, 1e-7)
        assert abs(amp.r + 1.0) < 1e-5 and abs(amp.t) < 1e-5
    for _ in range(50):
        scheme = random_scheme(rng)
        asym = scattering_asymptotics(scheme)
        assert asym.high.branch == "beta_nonzero"
        assert asym.high.r_limit == 1.0 and asym.high.t_limit == 0
        amp = s_matrix(scheme, 1e7)
        assert abs(amp.r - 1.0) < 1e-5 and abs(amp.t) < 1e-5
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

    assert worst <= 1e-6
    _report(6, f"Richardson-extracted limits and first coefficients match the closed forms "
               f"within {worst:.2e} (<= 1e-6); both decouplings, with the oracle-resolved "
               f"r -> +1 sign at high energy, and the duality hold on random couplings")


# ---------------------------------------------------------------------------
# 7. Berry phase
# ---------------------------------------------------------------------------

def test_criterion_7_berry_phase():
    phases = {}
    for cmod in (0.3, 1.0):
        res = berry_phase_discrete(ParameterLoop(a=-2.0, c_mod=cmod, samples=1000))
        assert abs(res.phase - PI) <= 1e-5
        assert len(res.per_step_overlaps) == 1000
        phases[cmod] = res.phase
    assert abs(phases[0.3] - phases[1.0]) <= 1e-8
    assert abs(cmath.exp(1j * phases[0.3]) - cmath.exp(1j * phases[1.0])) <= 1e-8

    loop = ParameterLoop(a=-2.0, c_mod=1.0, samples=8)
    errs = {n: abs(PI - connection_riemann_sum(loop, n)) for n in (100, 200)}
    order = math.log2(errs[100] / errs[200])
    assert abs(order - 2.0) <= 0.1
    _report(7, f"phase = pi within 1e-5 at N=1000 for |c| in {{0.3, 1.0}}, "
               f"identical across |c| within 1e-8; discretization converges "
               f"at order {order:.3f} (~2) between N=100 and N=200")


# ---------------------------------------------------------------------------
# 8-10. band-structure regimes
# ---------------------------------------------------------------------------

def test_criterion_8_delta_prime_regime():
    t0 = time.perf_counter()
    spec = LatticeSpec(CouplingScheme.from_greek(GreekParams(0.0, 1.0, 0.0)), 1.0)
    bands, gaps = band_structure(spec, 61)
    sel = [b for b in bands if 40 <= b.m <= 60]
    widths = np.array([b.width for b in sel])
    assert abs(widths.mean() - 8.0) <= 0.05 * 8.0
    gsel = [gp for gp in gaps if 40 <= gp.m <= 60]
    ms = np.array([gp.m for gp in gsel], dtype=float)
    ws = np.array([gp.width for gp in gsel])
    slope, intercept = np.polyfit(ms, ws, 1)
    resid = ws - (slope * ms + intercept)
    r2 = 1.0 - float(np.sum(resid ** 2)) / float(np.sum((ws - ws.mean()) ** 2))
    elapsed = time.perf_counter() - t0
    assert slope > 0 and r2 > 0.99
    # band 1 is the bound-state band, so the band starting at (50 pi)^2 is band 51
    b51 = next(b for b in bands if b.m == 51)
    assert abs(b51.e_lo - (50 * PI) ** 2) <= 1e-8 and abs(b51.width - 8.0) <= 0.05 * 8.0
    assert elapsed < 30.0
    _report(8, f"delta'(beta=1): band widths -> {widths.mean():.4f} (8 within 5%); "
               f"gap growth slope {slope:.2f} > 0 with R^2 = {r2:.6f} > 0.99; "
               f"{elapsed:.2f}s (< 30 s)")


def test_criterion_9_delta_regime():
    spec = LatticeSpec(CouplingScheme.from_greek(GreekParams(1.0, 0.0, 0.0)), 1.0)
    bands, gaps = band_structure(spec, 61)
    # alpha > 0: each gap starts at its Dirichlet point
    anchor_dev = max(abs(gp.e_lo - (PI * gp.m) ** 2) for gp in gaps)
    widths = np.array([gp.width for gp in gaps if 40 <= gp.m <= 60])
    assert anchor_dev <= 1e-8
    assert abs(widths.mean() - 2.0) <= 0.05 * 2.0
    _report(9, f"delta(alpha=1): every gap in m=[1,60] starts at (pi m)^2 "
               f"within {anchor_dev:.2e} (<= 1e-8); gap width -> "
               f"{widths.mean():.4f} (2 within 5%)")


def test_criterion_10_intermediate_regime():
    spec = LatticeSpec(CouplingScheme.from_greek(GreekParams(0.0, 0.0, 1.0)), 1.0)
    bands, gaps = band_structure(spec, 56)
    b50 = [b for b in bands if 45 <= b.m <= 55]
    g50 = [gp for gp in gaps if 45 <= gp.m <= 55]
    band_kl = np.array([math.sqrt(b.e_hi) - math.sqrt(b.e_lo) for b in b50])
    gap_kl = np.array([math.sqrt(gp.e_hi) - math.sqrt(gp.e_lo) for gp in g50])
    assert abs(band_kl.mean() - 2 * math.asin(0.6)) <= 0.02 * 2 * math.asin(0.6)
    assert abs(gap_kl.mean() - 2 * math.acos(0.6)) <= 0.02 * 2 * math.acos(0.6)
    # band-to-gap width ratio is asymptotically constant
    lo_bands = [b for b in bands if 25 <= b.m <= 35]
    lo_gaps = [gp for gp in gaps if 25 <= gp.m <= 35]
    ratio_hi = np.mean([b.width for b in b50]) / np.mean([gp.width for gp in g50])
    ratio_lo = (np.mean([b.width for b in lo_bands])
                / np.mean([gp.width for gp in lo_gaps]))
    assert abs(ratio_hi / ratio_lo - 1.0) <= 0.02
    _report(10, f"gamma=1: per-period band width {band_kl.mean():.5f} = "
                f"2 asin(3/5) within 2%, gap {gap_kl.mean():.5f} = 2 acos(3/5); "
                f"band/gap ratio constant ({ratio_lo:.4f} vs {ratio_hi:.4f})")


# ---------------------------------------------------------------------------
# 11. band condition vs monodromy oracle
# ---------------------------------------------------------------------------

def test_criterion_11_band_condition_monodromy_concordance():
    from gpi1d import scheme_to_transfer
    rng = np.random.default_rng(111)
    disagreements = 0
    total = 0
    for _ in range(50):
        g = random_greek(rng, allow_beta_zero=True)
        ell = float(rng.uniform(0.5, 2.0))
        scheme = CouplingScheme.from_greek(g)
        spec = LatticeSpec(scheme, ell)
        wmod = band_condition_lhs_bound(spec)
        ks = np.linspace(0.05, 20.0 * PI / ell, 10_000)
        kl = ks * ell
        # route 1: the band condition with the 4i Im(gamma) convention
        det = g.det
        rhs = (4.0 + det) * np.cos(kl) + (2.0 / ks) * (g.alpha - g.beta * ks ** 2) * np.sin(kl)
        in_bc = np.abs(rhs) <= wmod
        # route 2: the Floquet discriminant of the transfer parametrization
        t = scheme_to_transfer(scheme)
        tr = (t.ta + t.td) * np.cos(kl) + (t.tc / ks - t.tb * ks) * np.sin(kl)
        in_tr = np.abs(tr) <= 2.0
        # |tr| = 2 |RHS| / |w| identically, so the band memberships coincide
        assert np.all(np.abs(np.abs(tr) - 2.0 * np.abs(rhs) / wmod)
                      <= 1e-9 * np.maximum(1.0, np.abs(tr)))
        # the scalar entry point agrees with the vectorized evaluation
        sub = rng.integers(0, len(ks), 25)
        assert np.allclose([monodromy_trace(spec, float(ks[j])) for j in sub],
                           tr[sub], rtol=1e-10, atol=1e-12)
        mism = in_tr != in_bc
        near_edge = np.abs(np.abs(rhs) - wmod) <= 1e-8 * max(1.0, wmod)
        disagreements += int(np.sum(mism & ~near_edge))
        total += len(ks)
    assert disagreements == 0
    _report(11, f"|tr| = 2 |RHS| / |w| to 1e-9 and band membership agree on {total} grid "
                f"points across 50 schemes (edge window 1e-8); the 4i Im(gamma) convention "
                f"of the Bloch side is thereby frozen")
