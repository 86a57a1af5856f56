"""Chart edges: beta -> 0 (through DEGENERACY_TOL), alpha -> 0 and det -> 4,
and each refusing conversion on either side of its DEGENERACY_TOL edge.

The oracles here are independent of the library's floating-point route:
roots come from 60-digit `decimal` arithmetic (`conftest.exact_roots`), kernel
coefficients from exact `fractions.Fraction` arithmetic on the binary inputs
(only the exponential is evaluated in floating point).
"""

from __future__ import annotations

import cmath
import decimal
import math
from fractions import Fraction

import pytest

from gpi1d import (ChernoffHughesParams, CouplingScheme, DegenerateParametrization,
                   GreekParams, HalflineParams, InverseParams, SebaParams,
                   TransferParams, chernoff_hughes_to_greek,
                   chernoff_hughes_to_inverse, green_kernel, green_kernel_dx,
                   greek_to_halfline, greek_to_inverse, greek_to_transfer,
                   halfline_to_greek, halfline_to_inverse, halfline_to_transfer,
                   inverse_to_greek, inverse_to_halfline, point_spectrum,
                   seba_to_halfline, transfer_to_greek, transfer_to_halfline)
from gpi1d.params import DEGENERACY_TOL
from conftest import exact_roots, reference_free

_BETA_BASES = ((-2.681821950849469, complex(0.26487946756737557, -0.978265951835119)),
               (1.3, 0.4 + 0.2j), (-1.3, 0.4 + 0.2j), (0.5, -1.1 + 0.0j))
_EXPONENTS = [-14.0 + 0.5 * j for j in range(23)]   # 1e-14 ... 1e-3


def _beta_sweep() -> list[GreekParams]:
    out = []
    for alpha, gamma in _BETA_BASES:
        scale = max(abs(alpha), abs(gamma), 1.0)
        mags = [10.0 ** e for e in _EXPONENTS]
        mags += [f * DEGENERACY_TOL * scale for f in (0.5, 0.999, 1.001, 2.0)]
        for beta in mags:
            out += [GreekParams(alpha, beta, gamma), GreekParams(alpha, -beta, gamma)]
    return out


def _alpha_sweep() -> list[GreekParams]:
    return [GreekParams(sign * 10.0 ** e, beta, 0.4 + 0.2j)
            for beta in (0.7, -1.9) for sign in (1.0, -1.0) for e in _EXPONENTS[::2]]


def _det_sweep() -> list[GreekParams]:
    out = []
    for beta, gamma in ((0.9, 0.3 + 0.8j), (-1.6, -0.5 + 0.6j)):
        for sign in (1.0, -1.0):
            for e in _EXPONENTS[::2]:
                alpha = (4.0 + sign * 10.0 ** e - abs(gamma) ** 2) / beta
                out.append(GreekParams(alpha, beta, gamma))
    return out


SWEEPS = {"beta": _beta_sweep(), "alpha": _alpha_sweep(), "det": _det_sweep()}
edge_sweeps = pytest.mark.parametrize("edge", sorted(SWEEPS))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _cmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _cdiv(u, v):
    den = v[0] * v[0] + v[1] * v[1]
    return ((u[0] * v[0] + u[1] * v[1]) / den, (u[1] * v[0] - u[0] * v[1]) / den)


def _exact_correction_ratio(g: GreekParams, k: complex, sx: int, sxp: int) -> complex:
    """coefficient / (2 Delta(k)) of the matrix-form kernel, in exact rationals."""
    al, be = Fraction(g.alpha), Fraction(g.beta)
    gr, gi = Fraction(g.gamma.real), Fraction(g.gamma.imag)
    kk = (Fraction(k.real), Fraction(k.imag))
    det = al * be + gr * gr + gi * gi
    if sx == sxp:
        # 4 + det -+ 4 Re gamma - 4ik beta
        coef = (4 + det - sx * 4 * gr + 4 * be * kk[1], -4 * be * kk[0])
    else:
        coef = (4 - det, sx * 4 * gi)
    # Delta = 2 alpha - ik (4+det) - 2 beta k^2
    k2 = _cmul(kk, kk)
    delta = (2 * al + (4 + det) * kk[1] - 2 * be * k2[0], -(4 + det) * kk[0] - 2 * be * k2[1])
    re, im = _cdiv(coef, (2 * delta[0], 2 * delta[1]))
    return complex(float(re), float(im))


_KERNEL_POINTS = ((0.7, 1.3), (0.7, -1.1), (-0.6, -1.7), (-0.5, 0.9))
_KS = (0.7 + 0.9j, -1.3 + 0.4j, 2.1 + 1.5j)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@edge_sweeps
def test_roots_match_60_digit_oracle(edge):
    # one root when |beta| <= DEGENERACY_TOL * scale (the other escapes to -inf)
    for g in SWEEPS[edge]:
        scheme = CouplingScheme.from_greek(g)
        assert not scheme.is_separated
        kappas = [p.kappa for p in point_spectrum(scheme)]
        expected_count = 1 if abs(g.beta) <= DEGENERACY_TOL * g.scale else 2
        assert len(kappas) == expected_count, g
        for kappa, r in zip(sorted(kappas, key=abs), exact_roots(g)):
            err = float(abs(decimal.Decimal(kappa) - r) / max(1, abs(r)))
            assert err <= 1e-12, (g, kappa, r, err)


@edge_sweeps
def test_kernel_matches_exact_rational_coefficients(edge):
    for g in SWEEPS[edge]:
        scheme = CouplingScheme.from_greek(g)
        for k in _KS:
            for x, xp in _KERNEL_POINTS:
                sx, sxp = (1 if x > 0 else -1), (1 if xp > 0 else -1)
                corr = (_exact_correction_ratio(g, k, sx, sxp)
                        * cmath.exp(1j * k * (abs(x) + abs(xp))))
                dcorr = corr * 1j * k * sx
                free = reference_free(sx, sxp, x, xp, k)
                free_dx = reference_free(sx, sxp, x, xp, k, 1)
                err = abs(green_kernel(scheme, x, xp, k) - (free + corr))
                assert err <= 1e-12 * (abs(free) + abs(corr)), (g, k, x, xp, err)
                err = abs(green_kernel_dx(scheme, x, xp, k) - (free_dx + dcorr))
                assert err <= 1e-12 * (abs(free_dx) + abs(dcorr)), (g, k, x, xp, err)


@edge_sweeps
def test_transfer_chart_exists_and_round_trips(edge):
    for g in SWEEPS[edge]:
        back = transfer_to_greek(greek_to_transfer(g))
        gap = max(abs(back.alpha - g.alpha), abs(back.beta - g.beta),
                  abs(back.gamma - g.gamma))
        assert gap <= 1e-10 * g.scale, (g, gap)


def _transfer_beta_zero_reference(g: GreekParams) -> TransferParams:
    # the beta = 0 transfer form in its original arithmetic order
    det = g.det
    wmod = math.hypot(4.0 - det, 4.0 * g.gamma.imag)
    omega = complex(4.0 - det, 4.0 * g.gamma.imag) / wmod
    e = 16.0 / wmod
    ta = (e - 2.0 * omega.real - e * g.gamma.real / 2.0) / 2.0
    td = (e - 2.0 * omega.real + e * g.gamma.real / 2.0) / 2.0
    return TransferParams(omega, ta, 0.0, g.alpha * e / 4.0, td)


def test_transfer_chart_is_bit_identical_at_beta_zero(rng):
    couplings = [GreekParams(0.0, 0.0, 0.9j), GreekParams(-2.0, 0.0, 0.0),
                 GreekParams(1.7, 0.0, -0.3 + 1.2j), GreekParams(-0.0, 0.0, complex(0.5, -0.0))]
    for _ in range(200):
        couplings.append(GreekParams(rng.uniform(-3, 3), 0.0,
                                     complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))))
    for g in couplings:
        if abs(g.det - 4) < 1e-2 and abs(g.gamma.imag) < 1e-2:
            continue
        got, ref = greek_to_transfer(g), _transfer_beta_zero_reference(g)
        fields = ("omega", "ta", "tb", "tc", "td")
        assert [repr(getattr(got, f)) for f in fields] == [repr(getattr(ref, f)) for f in fields]


def test_root_inside_the_zero_window_is_reported_as_computed():
    # |kappa| <= DEGENERACY_TOL * scale makes the root a zero resonance, but
    # its value is the computed root, not 0.0
    g = GreekParams(4e-12, 2.5, 0.4 + 0.2j)
    point = min(point_spectrum(CouplingScheme.from_greek(g)), key=lambda p: abs(p.kappa))
    assert point.kind.value == "zero_resonance"
    r = exact_roots(g)[0]
    assert float(abs(decimal.Decimal(point.kappa) - r)) <= 1e-12 * float(abs(r))
    assert point.energy == -point.kappa ** 2
    # an exact zero root stays +0.0
    point = min(point_spectrum(CouplingScheme.from_greek(GreekParams(0.0, 1.0, 0.0))),
                key=lambda p: abs(p.kappa))
    assert point.kappa == 0.0 and math.copysign(1.0, point.kappa) == 1.0
    assert math.copysign(1.0, point.energy) == 1.0


# Each refusing conversion at its own edge: build(v) returns a record whose
# refused quantity is v (or, where noted, the float nearest it that the
# record's arithmetic can land on) and that quantity's computed value.  The
# scale is the one each conversion measures v against: S = 8, a power of two,
# so products and quotients by it are exact.
_S = 8.0


def _on_grid(v: float, s: float) -> float:
    # the float nearest v for which s + v and s - v are exact
    return (s + v) - s


def _build_transfer_den(v):
    v = _on_grid(v, _S)  # ta + td = S + (v - S) = v exactly
    ta, td = _S, v - _S
    return TransferParams(1j, ta, 1.0, ta * td - 1.0, td), v


def _build_transfer_w(v):
    v = _on_grid(v, 4.0)  # |w| = 4 - det = 4 - (4 - v) = v exactly, det = alpha
    return GreekParams(4.0 - v, 1.0, 0j), v


def _build_chernoff_hughes_inverse(v):
    z = complex(0.5 * math.log(2.0), 0.3)
    grow = math.exp(2.0 * z.real)  # 2, up to the platform's exp
    r = v / (grow - 1.0)
    return ChernoffHughesParams(r, z), r * (grow - 1.0)


def _build_chernoff_hughes_greek(v):
    # e^z = -(1 - v): exp rounds 1 + e^z to within 1e-4 of v, not onto it
    z = complex(math.log1p(-v), math.pi)
    return ChernoffHughesParams(0.7, z), abs(1.0 + cmath.exp(z))


_EDGES = {
    # conversion: (refused quantity, scale, build)
    greek_to_halfline: ("beta", _S, lambda v: (GreekParams(_S, v, 0.3 + 0.4j), v)),
    greek_to_inverse: ("alpha", _S, lambda v: (GreekParams(v, _S, 0.3 + 0.4j), v)),
    halfline_to_greek: ("a+b-2Re(c)", _S, lambda v: (HalflineParams(v, 0.0, _S * 1j), v)),
    inverse_to_greek: ("A+B+2Re(C)", _S, lambda v: (InverseParams(v, 0.0, _S * 1j), v)),
    transfer_to_halfline: ("tb", _S,
                           lambda v: (TransferParams(1 + 0j, _S, v, 0.0, 1.0 / _S), v)),
    transfer_to_greek: ("ta+td+2Re(omega)", _S, _build_transfer_den),
    halfline_to_transfer: ("c", _S, lambda v: (HalflineParams(_S, 0.0, complex(v)), v)),
    greek_to_transfer: ("|4-det+4i*Im(gamma)|", 4.0, _build_transfer_w),
    # the involution compares |ab - |c|^2| / scale, so the minor itself is S v
    halfline_to_inverse: ("a*b-|c|^2", _S, lambda v: (HalflineParams(_S, v, 0j), _S * v)),
    inverse_to_halfline: ("A*B-|C|^2", _S, lambda v: (InverseParams(_S, v, 0j), _S * v)),
    seba_to_halfline: ("delta_s", 1.0, lambda v: (SebaParams(-1.0, 0.0, -1.0, v), v)),
    chernoff_hughes_to_inverse: ("r*(exp(2Re(z))-1)", 1.0, _build_chernoff_hughes_inverse),
    chernoff_hughes_to_greek: ("1+exp(z)", 1.0, _build_chernoff_hughes_greek),
}


@pytest.mark.parametrize("convert", list(_EDGES), ids=lambda f: f.__name__)
def test_each_conversion_refuses_just_inside_its_edge_and_converts_just_outside(convert):
    name, scale, build = _EDGES[convert]
    minor = name in ("a*b-|c|^2", "A*B-|C|^2")
    for factor in (0.999, 1.001):
        target = factor * DEGENERACY_TOL * scale
        record, value = build(target)
        assert abs(value) / (scale if minor else 1.0) == pytest.approx(target, rel=1e-4), record
        if factor > 1.0:
            convert(record)
            continue
        with pytest.raises(DegenerateParametrization) as info:
            convert(record)
        assert info.value.denominator == name and info.value.magnitude == abs(value)
        assert str(info.value) == (f"degenerate parametrization: denominator {name!r} "
                                   f"vanishes (|value| = {abs(value):.3e})")
