"""Resolvent kernel: defining properties and closed-form anchors."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from gpi1d import (CouplingScheme, GreekParams, HalflineBoundary,
                   HalflineParams, InvalidSheet, PoleEvaluation,
                   green_kernel, green_kernel_dx, green_kernel_greek, green_kernel_halfline,
                   kernel_derivative_jump, kernel_residue, point_spectrum)
from conftest import random_greek, random_halfline


def _sample_k(rng) -> complex:
    return complex(rng.uniform(-3, 3), rng.uniform(0.1, 3.0))


def _sample_x(rng) -> float:
    x = rng.uniform(-3, 3)
    return x if abs(x) > 1e-3 else 1.0


# ---------------------------------------------------------------------------
# closed-form anchors (form equality: acceptance criterion 4)
# ---------------------------------------------------------------------------

def test_free_kernel():
    scheme = CouplingScheme.from_greek(GreekParams(0.0, 0.0, 0.0))
    for x, xp, k in ((0.7, 1.9, 0.5 + 1j), (-1.2, 0.4, 2j), (-0.3, -2.0, -1 + 0.7j)):
        ref = (1j / (2 * k)) * cmath.exp(1j * k * abs(x - xp))
        assert abs(green_kernel(scheme, x, xp, k) - ref) < 1e-13 * max(1.0, abs(ref))


def test_delta_kernel_standard_expression():
    alpha = -2.0
    scheme = CouplingScheme.from_greek(GreekParams(alpha, 0.0, 0.0))
    for x, xp, k in ((0.7, 1.9, 0.5 + 1j), (-1.2, 0.4, 2j), (-0.3, -2.0, 0.3 + 0.8j)):
        free = (1j / (2 * k)) * cmath.exp(1j * k * abs(x - xp))
        corr = -(2 * k * alpha / (2 * k + 1j * alpha)) * (1j / (2 * k)) ** 2 \
            * cmath.exp(1j * k * (abs(x) + abs(xp)))
        val = green_kernel(scheme, x, xp, k)
        assert abs(val - (free + corr)) < 1e-12 * max(1.0, abs(val))


def test_delta_prime_kernel_standard_expression():
    beta = -2.0
    scheme = CouplingScheme.from_greek(GreekParams(0.0, beta, 0.0))
    for x, xp, k in ((0.7, 1.9, 0.5 + 1j), (-1.2, 0.4, 2j), (-0.3, -2.0, 0.3 + 0.8j)):
        gt = lambda y: (1j / (2 * k)) * cmath.exp(1j * k * abs(y)) * math.copysign(1.0, y)
        free = (1j / (2 * k)) * cmath.exp(1j * k * abs(x - xp))
        corr = -(2 * beta * k ** 2 / (2 - 1j * k * beta)) * gt(x) * gt(xp)
        val = green_kernel(scheme, x, xp, k)
        assert abs(val - (free + corr)) < 1e-12 * max(1.0, abs(val))


@pytest.mark.parametrize("x, xp", [(1.0, 1.0), (0.95, 1.3), (-1.2, -0.9), (-0.01, 0.02)])
def test_kernel_at_large_imaginary_k_stays_finite(x, xp):
    # e^{ik|x|>} and sin(k|x|<) as separate factors overflow once
    # Im k min(|x|, |x'|) passes ~710, although the kernel is ~e^{-Im k |x - x'|}/(2|k|)
    alpha = -2.0
    scheme = CouplingScheme.from_greek(GreekParams(alpha, 0.0, 0.0))
    for k in (800j, 300 + 900j):
        free = (1j / (2 * k)) * cmath.exp(1j * k * abs(x - xp))
        corr = -(2 * k * alpha / (2 * k + 1j * alpha)) * (1j / (2 * k)) ** 2 \
            * cmath.exp(1j * k * (abs(x) + abs(xp)))
        val = green_kernel(scheme, x, xp, k)
        assert abs(val - (free + corr)) <= 1e-12 * abs(free + corr)
        if x != xp:
            side = math.copysign(1.0, x)
            dx = -0.5 * math.copysign(1.0, x - xp) * cmath.exp(1j * k * abs(x - xp)) \
                + corr * 1j * k * side
            assert abs(green_kernel_dx(scheme, x, xp, k) - dx) <= 1e-12 * abs(dx)


def test_generic_kernel_at_large_imaginary_k():
    # (1 - e^{-2 kappa})/(2 kappa) plus a correction times e^{-2 kappa}, which underflows
    scheme = CouplingScheme.from_greek(GreekParams(-1.0, 0.5, 0.3 + 0.4j))
    kappa = 800.0
    assert abs(green_kernel(scheme, 1.0, 1.0, kappa * 1j) - 0.5 / kappa) <= 1e-12 * 0.5 / kappa
    assert green_kernel_dx(scheme, 1.0, 1.0, kappa * 1j, diag_side=+1) == pytest.approx(-0.5, rel=1e-12)
    assert green_kernel_dx(scheme, 1.0, 1.0, kappa * 1j, diag_side=-1) == pytest.approx(0.5, rel=1e-12)


def test_decoupled_kernel_has_no_cross_terms(rng):
    for _ in range(30):
        a, b = rng.uniform(-2, 2, 2)
        scheme = CouplingScheme.from_halfline(HalflineParams(a, b, 0.0))
        k = _sample_k(rng)
        assert green_kernel(scheme, 1.0, -1.5, k) == 0
        assert green_kernel(scheme, -0.2, 2.5, k) == 0


# ---------------------------------------------------------------------------
# defining properties: PDE, boundary conditions, unit jump
# ---------------------------------------------------------------------------

def test_kernel_solves_helmholtz_away_from_singularities(rng):
    # (-d2/dx2 - k^2) G = 0 away from x' and 0, via central differences
    step = 1e-4
    for _ in range(200):
        g = random_greek(rng, allow_beta_zero=True)
        scheme = CouplingScheme.from_greek(g)
        k = _sample_k(rng)
        x, xp = _sample_x(rng), _sample_x(rng)
        if abs(x - xp) < 0.05 or abs(x) < 0.05:
            continue
        try:
            vm = green_kernel(scheme, x - step, xp, k)
            v0 = green_kernel(scheme, x, xp, k)
            vp = green_kernel(scheme, x + step, xp, k)
        except PoleEvaluation:
            continue
        second = (vp - 2 * v0 + vm) / step ** 2
        resid = -second - k * k * v0
        assert abs(resid) <= 1e-6 * max(1.0, abs(k * k * v0))


def test_kernel_satisfies_halfline_boundary_conditions(rng):
    for _ in range(300):
        h = random_halfline(rng)
        scheme = CouplingScheme.from_halfline(h)
        k = _sample_k(rng)
        for xp in (1.3, -0.8):
            try:
                f_p = green_kernel(scheme, 0.0, xp, k, x_side=+1)
                f_m = green_kernel(scheme, 0.0, xp, k, x_side=-1)
                d_p = green_kernel_dx(scheme, 0.0, xp, k, x_side=+1)
                d_m = green_kernel_dx(scheme, 0.0, xp, k, x_side=-1)
            except PoleEvaluation:
                continue
            scale = max(1.0, abs(f_p), abs(f_m), abs(d_p), abs(d_m))
            assert abs(d_p - (h.a * f_p + h.c * f_m)) <= 1e-10 * scale
            assert abs(-d_m - (np.conj(h.c) * f_p + h.b * f_m)) <= 1e-10 * scale


def test_kernel_satisfies_matrix_boundary_conditions_beta_zero(rng):
    for _ in range(100):
        alpha = rng.uniform(-3, 3)
        gamma = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        g = GreekParams(alpha, 0.0, gamma)
        if abs(g.det - 4) < 1e-2 and abs(gamma.imag) < 1e-2:
            continue
        scheme = CouplingScheme.from_greek(g)
        k = _sample_k(rng)
        for xp in (0.9, -1.4):
            f_p = green_kernel(scheme, 0.0, xp, k, x_side=+1)
            f_m = green_kernel(scheme, 0.0, xp, k, x_side=-1)
            d_p = green_kernel_dx(scheme, 0.0, xp, k, x_side=+1)
            d_m = green_kernel_dx(scheme, 0.0, xp, k, x_side=-1)
            scale = max(1.0, abs(f_p), abs(f_m), abs(d_p), abs(d_m))
            r1 = d_p - d_m - (alpha / 2) * (f_p + f_m) - (gamma / 2) * (d_p + d_m)
            r2 = f_p - f_m + (np.conj(gamma) / 2) * (f_p + f_m)
            assert abs(r1) <= 1e-10 * scale and abs(r2) <= 1e-10 * scale


def test_unit_derivative_jump(rng):
    # the analytic split derivative jumps by exactly -1 across x = x'
    for _ in range(100):
        g = random_greek(rng, allow_beta_zero=True)
        scheme = CouplingScheme.from_greek(g)
        k = _sample_k(rng)
        xp = _sample_x(rng)
        try:
            jump = kernel_derivative_jump(scheme, xp, k)
        except PoleEvaluation:
            continue
        assert abs(jump + 1.0) < 1e-12
    # separated schemes too
    scheme = CouplingScheme.from_separated(HalflineBoundary.robin(-1.0),
                                           HalflineBoundary.dirichlet())
    assert abs(kernel_derivative_jump(scheme, 0.7, 0.5 + 1j) + 1.0) < 1e-13
    assert abs(kernel_derivative_jump(scheme, -0.7, 0.5 + 1j) + 1.0) < 1e-13


def test_kernel_pole_set_matches_spectrum(rng):
    # near a bound state the kernel blows up; PoleEvaluation exactly at it
    for _ in range(50):
        h = random_halfline(rng)
        scheme = CouplingScheme.from_halfline(h)
        for p in point_spectrum(scheme):
            if p.kappa <= 0.05:
                continue
            k0 = 1j * p.kappa
            with pytest.raises(PoleEvaluation):
                green_kernel(scheme, 0.7, 1.1, k0)
            near = green_kernel(scheme, 0.7, 1.1, k0 + 1e-7j)
            far = green_kernel(scheme, 0.7, 1.1, k0 + 0.3j)
            assert abs(near) > 1e3 * abs(far)


def test_kernel_rejects_unphysical_sheet():
    scheme = CouplingScheme.from_greek(GreekParams(1.0, 1.0, 0.0))
    for k in (1.0, 1 - 0.5j, 0.0):
        with pytest.raises(InvalidSheet):
            green_kernel(scheme, 0.5, 1.0, k)
    with pytest.raises(InvalidSheet, match=r"^green kernel requires Im k > 0, got k = \(1\+0j\)$"):
        green_kernel_halfline(HalflineParams(1.0, 2.0, 0.5), 0.5, 1.0, 1.0)


def test_kernels_refuse_a_nan_point_by_name():
    # with a side given or not, where an unsided x = 0 is refused too; two infinite
    # points on one side have no limit, since the kernel depends on |x| - |x'|
    scheme = CouplingScheme.from_greek(GreekParams(1.0, 1.0, 0.0))
    coupled = CouplingScheme.from_greek(GreekParams(-1.0, 0.5, 0.3 + 0.4j))
    nan, inf = math.nan, math.inf
    both = "x and x' must not both be infinite on one side"
    for call, message in (
            (lambda: green_kernel(scheme, nan, 1.0, 1j), "x must not be NaN"),
            (lambda: green_kernel(scheme, 0.5, nan, 1j, 0, 1), "x' must not be NaN"),
            (lambda: green_kernel_dx(scheme, nan, 1.0, 1j, 1, 1, 1), "x must not be NaN"),
            (lambda: green_kernel_greek(scheme.greek, 0.0, nan, 1j, 1), "x' must not be NaN"),
            (lambda: green_kernel_halfline(scheme.halfline, nan, 0.0, 1j), "x must not be NaN"),
            (lambda: kernel_residue(scheme, 0.5, 0.3, nan), "x' must not be NaN"),
            (lambda: kernel_residue(coupled, nan, 0.3, 0.2), "kappa0 must be finite, got nan"),
            (lambda: kernel_residue(coupled, -inf, 0.3, 0.2), "kappa0 must be finite, got -inf"),
            (lambda: green_kernel(coupled, inf, inf, 1j), both),
            (lambda: green_kernel_dx(coupled, inf, inf, 1j, diag_side=1), both),
            (lambda: green_kernel_dx(coupled, -inf, -inf, 1e-3j, diag_side=-1), both),
            (lambda: green_kernel_greek(coupled.greek, -inf, -inf, 2.0 + 1j), both),
            (lambda: green_kernel_halfline(coupled.halfline, inf, inf, 1j), both),
            (lambda: green_kernel(CouplingScheme.from_separated(
                HalflineBoundary.neumann(), HalflineBoundary.dirichlet()), inf, inf, 1j), both)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    # one infinite point, or one on each side, keeps the limit 0
    for x, xp in ((inf, 1.0), (-2.0, -inf), (inf, -inf), (inf, 0.0)):
        assert green_kernel(coupled, x, xp, 1j, 1, 1) == 0j
        assert green_kernel_dx(coupled, x, xp, 1j, 1, 1, 1) == 0j
        assert green_kernel_halfline(coupled.halfline, x, xp, 1j, 1, 1) == 0j


def test_separated_kernel_boundary_conditions():
    # Robin on the right, Dirichlet on the left
    scheme = CouplingScheme.from_separated(HalflineBoundary.robin(-0.7),
                                           HalflineBoundary.dirichlet())
    k = 0.4 + 1.1j
    f_p = green_kernel(scheme, 0.0, 1.2, k, x_side=+1)
    d_p = green_kernel_dx(scheme, 0.0, 1.2, k, x_side=+1)
    assert abs(d_p - (-0.7) * f_p) < 1e-12 * max(1.0, abs(d_p))
    f_m = green_kernel(scheme, 0.0, -1.2, k, x_side=-1)
    assert abs(f_m) < 1e-14


def test_symmetry_of_kernel(rng):
    # G(x, x') = G(x', x) for time-reversal invariant (real c) couplings
    for _ in range(50):
        h = random_halfline(rng)
        h = HalflineParams(h.a, h.b, abs(h.c))
        scheme = CouplingScheme.from_halfline(h)
        k = _sample_k(rng)
        x, xp = _sample_x(rng), _sample_x(rng)
        try:
            v1 = green_kernel(scheme, x, xp, k)
            v2 = green_kernel(scheme, xp, x, k)
        except PoleEvaluation:
            continue
        assert abs(v1 - v2) < 1e-12 * max(1.0, abs(v1))
