"""Resolvent kernel, point spectrum, and scattering of a single point coupling.

Conventions: energy z = k^2 with k = sqrt(z) cut along the positive real axis,
so Im k >= 0 on the physical sheet; kappa := -i k, so bound states sit at real
kappa > 0 with energy -kappa^2.

The resolvent kernel splits as (Dirichlet pair kernel) + (rank-one-per-quadrant
correction).  Every coupled scheme evaluates the correction in matrix form::

    ( (4+det-4 Re gamma-4ik beta) [x,x'>0] + (4+det+4 Re gamma-4ik beta) [x,x'<0]
      + (4-det+4i Im gamma) [x>0>x'] + (4-det-4i Im gamma) [x<0<x'] )
        * exp(ik (|x|+|x'|)) / (2 Delta(k)),

    Delta(k) = 2 alpha - ik (4+det) - 2 beta k^2,

which is regular at beta = 0.  The halfline form of the same function,

    ( (b-ik) [x,x'>0] + (a-ik) [x,x'<0] - c [x>0>x'] - conj(c) [x<0<x'] )
        * exp(ik (|x|+|x'|)) / D(k),        D(k) = (a-ik)(b-ik) - |c|^2,

with 2 beta D(k) = Delta(k), exists only for beta != 0 and is kept as an
independent oracle (`green_kernel_halfline`).  The point spectrum, the kernel
residues and the bound-state coefficients come from the same Delta.

Roots of the spectral denominator on the imaginary k-axis classify as bound
(kappa > 0), zero-energy resonance (kappa = 0), or antibound (kappa < 0); a
root whose kernel residue coincides with the free-kernel residue is spurious
(the delta' family's kappa = 0 root).  The on-shell amplitudes for a wave
incident from the left are r(k) = -((a-ik)(b+ik)-|c|^2)/D(k), t(k) = 2ikc/D(k),
unitary: |r|^2 + |t|^2 = 1.  `s_matrix` evaluates them at one k;
`s_matrix_array` evaluates the same formula over a whole array of k with
numpy, converting the scheme once per call, for tables.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

from .errors import InvalidSheet, InvalidWavenumber, PoleEvaluation
from .params import (DEGENERACY_TOL, DIRICHLET, CouplingScheme, GreekParams,
                     HalflineBoundary, HalflineParams)

_POLE_TOL = 1e-12


# ---------------------------------------------------------------------------
# Spectral denominators
# ---------------------------------------------------------------------------

def denominator_D(h: HalflineParams, k: complex) -> complex:
    """D(k) = (a - ik)(b - ik) - |c|^2, the halfline-form spectral denominator."""
    k = complex(k)
    return (h.a - 1j * k) * (h.b - 1j * k) - abs(h.c) ** 2


def denominator_F(g: GreekParams, k: complex) -> complex:
    """F(k) = (det - 2ik beta)(2 - ik beta) - 2|gamma|^2, the matrix-form denominator.

    Identically equal to 2 beta^2 D(k) under the parameter correspondence, so
    the two zero sets on the imaginary axis coincide wherever both forms exist.
    """
    k = complex(k)
    return (g.det - 2j * k * g.beta) * (2.0 - 1j * k * g.beta) - 2.0 * abs(g.gamma) ** 2


# ---------------------------------------------------------------------------
# Green (resolvent) kernel
# ---------------------------------------------------------------------------

def _side(x: float, side: int, name: str) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    if side in (1, -1):
        return side
    raise ValueError(f"{name} = 0 requires an explicit side (+1 or -1)")


def _free_pair_value(sx: int, sxp: int, x: float, xp: float, k: complex) -> complex:
    # Dirichlet kernel of the decoupled pair of halflines.
    if sx > 0 and sxp > 0:
        lo, hi = min(x, xp), max(x, xp)
        return cmath.exp(1j * k * hi) * cmath.sin(k * lo) / k
    if sx < 0 and sxp < 0:
        lo, hi = min(x, xp), max(x, xp)
        return -cmath.exp(-1j * k * lo) * cmath.sin(k * hi) / k
    return 0.0 + 0.0j


def _free_pair_dx(sx: int, sxp: int, x: float, xp: float, k: complex,
                  diag_side: int) -> complex:
    if sx > 0 and sxp > 0:
        if x > xp or (x == xp and diag_side > 0):
            return 1j * cmath.exp(1j * k * x) * cmath.sin(k * xp)
        if x < xp or (x == xp and diag_side < 0):
            return cmath.exp(1j * k * xp) * cmath.cos(k * x)
        raise ValueError("x = x' requires diag_side (+1 or -1)")
    if sx < 0 and sxp < 0:
        if x < xp or (x == xp and diag_side < 0):
            return 1j * cmath.exp(-1j * k * x) * cmath.sin(k * xp)
        if x > xp or (x == xp and diag_side > 0):
            return -cmath.exp(-1j * k * xp) * cmath.cos(k * x)
        raise ValueError("x = x' requires diag_side (+1 or -1)")
    return 0.0 + 0.0j


def _halfline_coef(h: HalflineParams, k: complex, sx: int, sxp: int) -> complex:
    if sx > 0 and sxp > 0:
        return h.b - 1j * k
    if sx < 0 and sxp < 0:
        return h.a - 1j * k
    if sx > 0 > sxp:
        return -h.c
    return -h.c.conjugate()


def _greek_coef(g: GreekParams, k: complex, sx: int, sxp: int) -> complex:
    det = g.det
    if sx > 0 and sxp > 0:
        return 4.0 + det - 4.0 * g.gamma.real - 4j * k * g.beta
    if sx < 0 and sxp < 0:
        return 4.0 + det + 4.0 * g.gamma.real - 4j * k * g.beta
    if sx > 0 > sxp:
        return 4.0 - det + 4j * g.gamma.imag
    return 4.0 - det - 4j * g.gamma.imag


def _check_sheet(k: complex) -> complex:
    k = complex(k)
    if not (k.imag > 0 and math.isfinite(k.real) and math.isfinite(k.imag)):
        raise InvalidSheet(f"green kernel requires Im k > 0, got k = {k!r}")
    return k


def _halfline_prefactor(h: HalflineParams, k: complex) -> complex:
    d = denominator_D(h, k)
    scale = max(1.0, (abs(h.a) + abs(k)) * (abs(h.b) + abs(k)), abs(h.c) ** 2)
    if abs(d) <= _POLE_TOL * scale:
        raise PoleEvaluation(f"D(k) = {d!r} vanishes at k = {k!r}")
    return 1.0 / d


def _greek_prefactor(g: GreekParams, k: complex) -> complex:
    # 1/(2 Delta) with Delta(k) = 2 alpha - ik (4+det) - 2 beta k^2 = 2 beta D(k)
    d = 2.0 * g.alpha - 1j * k * (4.0 + g.det) - 2.0 * g.beta * k * k
    if abs(d) <= _POLE_TOL * max(1.0, abs(g.alpha), abs(k) * abs(4.0 + g.det),
                                 abs(g.beta) * abs(k) ** 2):
        raise PoleEvaluation(f"Delta(k) = {d!r} vanishes at k = {k!r}")
    return 0.5 / d


def _separated_corr(bc: HalflineBoundary, k: complex) -> complex:
    # coefficient of exp(ik(|x|+|x'|)) on one decoupled side
    if bc.kind == DIRICHLET:
        return 0.0 + 0.0j
    d = bc.slope - 1j * k
    if abs(d) <= _POLE_TOL * max(1.0, abs(bc.slope), abs(k)):
        raise PoleEvaluation(f"side denominator vanishes at k = {k!r}")
    return 1.0 / d


def green_kernel(scheme: CouplingScheme, x: float, xp: float, k: complex,
                 x_side: int = 0, xp_side: int = 0) -> complex:
    """Resolvent kernel G(x, x'; k) for Im k > 0.

    `x_side` / `xp_side` select the one-sided limit when the corresponding
    argument is exactly 0.  Coupled schemes use the matrix form, regular at
    beta = 0 (the same expression as `green_kernel_greek`); separated schemes
    use the decoupled kernel.
    """
    k = _check_sheet(k)
    sx = _side(x, x_side, "x")
    sxp = _side(xp, xp_side, "x'")
    free = _free_pair_value(sx, sxp, x, xp, k)
    expfac = cmath.exp(1j * k * (sx * x + sxp * xp))
    if scheme.is_separated:
        if sx != sxp:
            return 0.0 + 0.0j
        bc = scheme.separated.right if sx > 0 else scheme.separated.left
        return free + _separated_corr(bc, k) * expfac
    g = scheme.greek
    return free + _greek_prefactor(g, k) * _greek_coef(g, k, sx, sxp) * expfac


def green_kernel_dx(scheme: CouplingScheme, x: float, xp: float, k: complex,
                    x_side: int = 0, xp_side: int = 0, diag_side: int = 0) -> complex:
    """Analytic d/dx of the resolvent kernel; `diag_side` picks the branch at x = x'."""
    k = _check_sheet(k)
    sx = _side(x, x_side, "x")
    sxp = _side(xp, xp_side, "x'")
    free_dx = _free_pair_dx(sx, sxp, x, xp, k, diag_side)
    expfac = cmath.exp(1j * k * (sx * x + sxp * xp))
    dfac = 1j * k * sx
    if scheme.is_separated:
        if sx != sxp:
            return 0.0 + 0.0j
        bc = scheme.separated.right if sx > 0 else scheme.separated.left
        return free_dx + _separated_corr(bc, k) * dfac * expfac
    g = scheme.greek
    return free_dx + _greek_prefactor(g, k) * _greek_coef(g, k, sx, sxp) * dfac * expfac


def green_kernel_halfline(h: HalflineParams, x: float, xp: float, k: complex,
                          x_side: int = 0, xp_side: int = 0) -> complex:
    """Kernel evaluated strictly through the halfline-form expression."""
    k = _check_sheet(k)
    sx = _side(x, x_side, "x")
    sxp = _side(xp, xp_side, "x'")
    expfac = cmath.exp(1j * k * (sx * x + sxp * xp))
    return (_free_pair_value(sx, sxp, x, xp, k)
            + _halfline_prefactor(h, k) * _halfline_coef(h, k, sx, sxp) * expfac)


def green_kernel_greek(g: GreekParams, x: float, xp: float, k: complex,
                       x_side: int = 0, xp_side: int = 0) -> complex:
    """Kernel evaluated strictly through the matrix-form expression."""
    k = _check_sheet(k)
    sx = _side(x, x_side, "x")
    sxp = _side(xp, xp_side, "x'")
    expfac = cmath.exp(1j * k * (sx * x + sxp * xp))
    return (_free_pair_value(sx, sxp, x, xp, k)
            + _greek_prefactor(g, k) * _greek_coef(g, k, sx, sxp) * expfac)


def kernel_derivative_jump(scheme: CouplingScheme, xp: float, k: complex) -> complex:
    """d/dx G at x = x'+ minus at x = x'-; equal to -1 for every scheme (unit source)."""
    up = green_kernel_dx(scheme, xp, xp, k, diag_side=+1)
    lo = green_kernel_dx(scheme, xp, xp, k, diag_side=-1)
    return up - lo


# ---------------------------------------------------------------------------
# Point spectrum
# ---------------------------------------------------------------------------

class PointKind(str, enum.Enum):
    BOUND = "bound"
    ZERO_RESONANCE = "zero_resonance"
    ANTIBOUND = "antibound"
    SPURIOUS_ROOT = "spurious_root"


@dataclass(frozen=True)
class SpectralPoint:
    """A root kappa of the spectral denominator, with classification.

    energy = -kappa^2 is filled for every kind; the eigenfunction coefficients
    mu (right) and nu (left) of mu*exp(-kappa x) [x>0] + nu*exp(kappa x) [x<0]
    are present only for bound states and normalized to unit L2 norm,
    (|mu|^2 + |nu|^2) / (2 kappa) = 1, with mu chosen real nonnegative.
    """

    kappa: float
    energy: float
    kind: PointKind
    mu: complex | None = None
    nu: complex | None = None


def _denominator_roots(scheme: CouplingScheme) -> list[float]:
    # Delta(i kappa) = 0 reads 2 beta kappa^2 + (4+det) kappa + 2 alpha = 0;
    # stable quadratic, so neither root cancels.  The discriminant is
    # (4 - alpha beta)^2 + 2|gamma|^2 (4 + alpha beta) + |gamma|^4 >= 0.
    g = scheme.greek
    b = 4.0 + g.det
    q = -(b + math.copysign(math.sqrt(max(b * b - 16.0 * g.alpha * g.beta, 0.0)), b)) / 2.0
    if abs(g.beta) <= DEGENERACY_TOL * g.scale:
        return [2.0 * g.alpha / q]  # the second root escapes to -infinity
    return sorted([2.0 * g.alpha / q, q / (2.0 * g.beta)], reverse=True)


def kernel_residue(scheme: CouplingScheme, kappa0: float, x: float, xp: float) -> complex:
    """Residue in k of the resolvent kernel at the simple pole k = i*kappa0."""
    sx = _side(x, 0, "x")
    sxp = _side(xp, 0, "x'")
    expfac = math.exp(-kappa0 * (sx * x + sxp * xp))
    if scheme.is_separated:
        if sx != sxp:
            return 0.0 + 0.0j
        bc = scheme.separated.right if sx > 0 else scheme.separated.left
        if bc.kind == DIRICHLET or abs(-bc.slope - kappa0) > 1e-9 * max(1, abs(kappa0)):
            return 0.0 + 0.0j
        return 1j * expfac  # d/dk (slope - ik) = -i
    g = scheme.greek
    # Delta'(i kappa) = -i (4 + det + 4 beta kappa)
    dprime = -1j * (4.0 + g.det + 4.0 * g.beta * kappa0)
    return _greek_coef(g, 1j * kappa0, sx, sxp) * expfac / (2.0 * dprime)


def _zero_root_is_spurious(scheme: CouplingScheme) -> bool:
    # The free kernel (i/2k) e^{ik|x-x'|} carries residue i/2 at k = 0; a
    # kappa = 0 root is spurious when the full kernel's residue matches it
    # identically, i.e. the interacting part has vanishing residue.  At
    # kappa = 0 the exponential is 1, so the residue depends only on the
    # quadrant of (x, x').
    devs = []
    scale = 0.5
    for sx in (1.0, -1.0):
        for sxp in (1.0, -1.0):
            res = kernel_residue(scheme, 0.0, sx, sxp)
            devs.append(abs(res - 0.5j))
            scale = max(scale, abs(res))
    return max(devs) <= 1e-10 * scale


def _bound_coefficients(scheme: CouplingScheme, kappa: float) -> tuple[complex, complex]:
    g = scheme.greek
    # boundary system at the root, (a+kappa) mu + c nu = 0, times 4 beta
    mu0 = complex(4.0 - g.det, 4.0 * g.gamma.imag)
    nu0 = complex(4.0 + g.det + 4.0 * g.gamma.real + 4.0 * g.beta * kappa)
    norm = math.sqrt((abs(mu0) ** 2 + abs(nu0) ** 2) / (2.0 * kappa))
    mu0, nu0 = mu0 / norm, nu0 / norm
    anchor = mu0 if abs(mu0) > 1e-300 else nu0
    phase = anchor.conjugate() / abs(anchor)
    return mu0 * phase, nu0 * phase


def _classified_point(scheme: CouplingScheme, kappa: float, ztol: float) -> SpectralPoint:
    if kappa > ztol:
        mu, nu = _bound_coefficients(scheme, kappa)
        return SpectralPoint(kappa, -kappa * kappa, PointKind.BOUND, mu, nu)
    if kappa < -ztol:
        return SpectralPoint(kappa, -kappa * kappa, PointKind.ANTIBOUND)
    kind = (PointKind.SPURIOUS_ROOT if _zero_root_is_spurious(scheme)
            else PointKind.ZERO_RESONANCE)
    # the window decides the kind only; the root is reported as computed (+ 0.0 turns -0.0 into 0.0)
    return SpectralPoint(kappa + 0.0, 0.0 - kappa * kappa, kind)


def point_spectrum(scheme: CouplingScheme) -> list[SpectralPoint]:
    """All roots of the spectral denominator, sorted by kappa descending.

    Coupled schemes with beta != 0 yield two roots; the beta = 0 family yields
    one.  Separated schemes contribute one root per non-Dirichlet side (Robin
    slope s gives kappa = -s; Neumann gives the kappa = 0 threshold
    resonance).  Bound entries carry normalized eigenfunction coefficients.
    """
    points: list[SpectralPoint] = []
    if scheme.is_separated:
        sep = scheme.separated
        for which, bc in (("right", sep.right), ("left", sep.left)):
            if bc.kind == DIRICHLET:
                continue
            kappa = -bc.slope
            if kappa > 0:
                amp = math.sqrt(2.0 * kappa)
                mu, nu = (amp, 0.0) if which == "right" else (0.0, amp)
                points.append(SpectralPoint(kappa, -kappa * kappa, PointKind.BOUND,
                                            complex(mu), complex(nu)))
            elif kappa < 0:
                points.append(SpectralPoint(kappa, -kappa * kappa, PointKind.ANTIBOUND))
            else:
                points.append(SpectralPoint(0.0, 0.0, PointKind.ZERO_RESONANCE))
        points.sort(key=lambda p: -p.kappa)
        return points

    g = scheme.greek
    ztol = DEGENERACY_TOL * g.scale
    for kappa in _denominator_roots(scheme):
        points.append(_classified_point(scheme, kappa, ztol))
    return points


# ---------------------------------------------------------------------------
# Binding regimes
# ---------------------------------------------------------------------------

class BindingKind(str, enum.Enum):
    MIXED_SIGN = "mixed_sign"
    CONSPIRACY_BINDING = "conspiracy_binding"
    TWO_BOUND = "two_bound"
    CROSSING = "crossing"
    OTHER = "other"


@dataclass(frozen=True)
class BindingRegime:
    kind: BindingKind
    detail: dict = field(default_factory=dict)


def binding_regime(h: HalflineParams) -> BindingRegime:
    """Classify the bound-state content of halfline parameters.

    Both roots are kappa_{+-} = -(a+b)/2 +- sqrt((a-b)^2 + 4|c|^2)/2, so the
    number of bound states is governed by |c|^2 against ab: with a, b > 0 a
    bound state exists ("binding by conspiracy") iff |c|^2 > ab, and with
    a, b < 0 two bound states persist iff |c|^2 < ab.  The a = b, c = 0 point
    is the doubly degenerate eigenvalue crossing of two identical Robin
    halflines.
    """
    tol = DEGENERACY_TOL * h.scale
    cmod = abs(h.c)
    s = h.a + h.b
    sq = math.sqrt((h.a - h.b) ** 2 + 4.0 * cmod ** 2)
    detail = {
        "kappa_hi": (-s + sq) / 2.0,
        "kappa_lo": (-s - sq) / 2.0,
        "coupling_threshold": math.sqrt(h.a * h.b) if h.a * h.b > 0 else None,
    }
    if abs(h.a - h.b) <= tol and cmod <= tol:
        return BindingRegime(BindingKind.CROSSING, detail)
    if h.a * h.b < 0:
        return BindingRegime(BindingKind.MIXED_SIGN, detail)
    if h.a > 0 and h.b > 0 and abs(h.a - h.b) > tol and cmod ** 2 > h.a * h.b:
        return BindingRegime(BindingKind.CONSPIRACY_BINDING, detail)
    if h.a < 0 and h.b < 0 and abs(h.a - h.b) > tol and cmod ** 2 < h.a * h.b:
        return BindingRegime(BindingKind.TWO_BOUND, detail)
    return BindingRegime(BindingKind.OTHER, detail)


# ---------------------------------------------------------------------------
# Scattering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScatteringAmplitudes:
    """On-shell reflection and transmission at real wavenumber k > 0."""

    k: float
    r: complex
    t: complex

    @property
    def unitarity(self) -> float:
        return abs(self.r) ** 2 + abs(self.t) ** 2


def _amplitudes(scheme: CouplingScheme, k):
    # (r, t) at k > 0; the same arithmetic serves a float k and an ndarray k
    if scheme.is_separated:
        bc = scheme.separated.right
        if bc.kind == DIRICHLET:
            return -1.0 + 0.0j * k, 0.0j * k
        return -(bc.slope + 1j * k) / (bc.slope - 1j * k), 0.0j * k
    h = scheme.halfline
    if h is not None:
        d = (h.a - 1j * k) * (h.b - 1j * k) - abs(h.c) ** 2
        return -((h.a - 1j * k) * (h.b + 1j * k) - abs(h.c) ** 2) / d, 2j * k * h.c / d
    g = scheme.greek
    gm = abs(g.gamma) ** 2
    den = 2.0 * g.alpha - 1j * k * (4.0 + gm)
    return (-(2.0 * g.alpha + 4j * k * g.gamma.real) / den,
            -1j * k * (4.0 - gm + 4j * g.gamma.imag) / den)


def s_matrix(scheme: CouplingScheme, k: float) -> ScatteringAmplitudes:
    """Reflection r(k) and transmission t(k); raises InvalidWavenumber unless k > 0.

    Separated schemes transmit nothing; their reported r is the right-incidence
    reflection of the right halfline.
    """
    try:
        k = float(k)
    except (TypeError, ValueError) as exc:
        raise InvalidWavenumber(f"k must be a positive real number, got {k!r}") from exc
    if not (math.isfinite(k) and k > 0):
        raise InvalidWavenumber(f"k must be a positive real number, got {k!r}")
    r, t = _amplitudes(scheme, k)
    return ScatteringAmplitudes(k, r, t)


def s_matrix_array(scheme: CouplingScheme, k):
    """(r, t) as complex arrays over an array of wavenumbers k > 0.

    The same amplitudes as `s_matrix`, broadcast over k; the scheme is put in
    halfline form once per call.  Raises InvalidWavenumber naming the first k
    that is complex (the first with a nonzero imaginary part, if any), or else
    the first that is not finite and positive.
    """
    import numpy as np

    try:
        k = np.asarray(k)
        if np.iscomplexobj(k):
            i = int(np.argmax(k.imag.ravel() != 0.0))
            raise InvalidWavenumber(
                f"k must be a positive real number, got {complex(k.flat[i])!r} at index {i}")
        k = k.astype(float)
    except (TypeError, ValueError) as exc:
        raise InvalidWavenumber(f"k must be an array of positive real numbers: {exc}") from exc
    bad = np.flatnonzero(~(np.isfinite(k) & (k > 0)))
    if bad.size:
        raise InvalidWavenumber(
            f"k must be a positive real number, got {float(k.flat[bad[0]])!r} at index {bad[0]}")
    return _amplitudes(scheme, k)


@dataclass(frozen=True)
class AsymptoticExpansion:
    """Leading behaviour of (r, t) at one end of the energy axis.

    For `order` = +1 the amplitudes behave as limit + coeff * k + O(k^2)
    (low energy); for `order` = -1 as limit + coeff / k + O(k^-2) (high
    energy).  The coefficients are the exact expansion coefficients of the
    closed-form amplitudes.
    """

    regime: str            # "low" or "high"
    branch: str
    order: int
    r_limit: complex
    t_limit: complex
    r_coeff: complex
    t_coeff: complex


@dataclass(frozen=True)
class ScatteringAsymptotics:
    low: AsymptoticExpansion
    high: AsymptoticExpansion


def scattering_asymptotics(scheme: CouplingScheme) -> ScatteringAsymptotics:
    """Low- and high-energy expansions of the scattering amplitudes.

    alpha != 0 decouples at k -> 0 (r -> -1, t -> 0, both corrections O(k));
    beta != 0 decouples at k -> infinity, with Neumann-type reflection
    (r -> +1, corrections O(1/k)).  When the relevant coefficient vanishes the
    amplitudes converge to the closed-form constants
    r = 4 Re gamma / (4+|gamma|^2), t = (4-|gamma|^2+4i Im gamma)/(4+|gamma|^2)
    (transparent iff Re gamma = 0), the same pair at both ends with the roles
    of alpha and beta interchanged.
    """
    if scheme.is_separated:
        right = scheme.separated.right
        if right.kind == DIRICHLET:
            low = AsymptoticExpansion("low", "separated", 1, -1.0, 0.0j, 0.0j, 0.0j)
            high = AsymptoticExpansion("high", "separated", -1, -1.0, 0.0j, 0.0j, 0.0j)
        elif right.slope == 0.0:
            low = AsymptoticExpansion("low", "separated", 1, 1.0, 0.0j, 0.0j, 0.0j)
            high = AsymptoticExpansion("high", "separated", -1, 1.0, 0.0j, 0.0j, 0.0j)
        else:
            s = right.slope
            low = AsymptoticExpansion("low", "separated", 1, -1.0, 0.0j, -2j / s, 0.0j)
            high = AsymptoticExpansion("high", "separated", -1, 1.0, 0.0j, -2j * s, 0.0j)
        return ScatteringAsymptotics(low, high)

    g = scheme.greek
    det = g.det
    gm = abs(g.gamma) ** 2
    re, im = g.gamma.real, g.gamma.imag
    tol = DEGENERACY_TOL * g.scale

    if abs(g.alpha) > tol:
        low = AsymptoticExpansion(
            "low", "alpha_nonzero", 1,
            r_limit=-1.0, t_limit=0.0j,
            r_coeff=-1j * (4.0 + det + 4.0 * re) / (2.0 * g.alpha),
            t_coeff=-1j * (4.0 - det + 4j * im) / (2.0 * g.alpha))
    else:
        low = AsymptoticExpansion(
            "low", "alpha_zero", 1,
            r_limit=4.0 * re / (4.0 + gm),
            t_limit=(4.0 - gm + 4j * im) / (4.0 + gm),
            r_coeff=-2j * g.beta * (4.0 + gm - 4.0 * re) / (4.0 + gm) ** 2,
            t_coeff=2j * g.beta * (4.0 - gm + 4j * im) / (4.0 + gm) ** 2)

    if abs(g.beta) > tol:
        high = AsymptoticExpansion(
            "high", "beta_nonzero", -1,
            r_limit=1.0, t_limit=0.0j,
            r_coeff=-1j * (4.0 + det - 4.0 * re) / (2.0 * g.beta),
            t_coeff=1j * (4.0 - det + 4j * im) / (2.0 * g.beta))
    else:
        high = AsymptoticExpansion(
            "high", "beta_zero", -1,
            r_limit=4.0 * re / (4.0 + gm),
            t_limit=(4.0 - gm + 4j * im) / (4.0 + gm),
            r_coeff=-2j * g.alpha * (4.0 + gm + 4.0 * re) / (4.0 + gm) ** 2,
            t_coeff=-2j * g.alpha * (4.0 - gm + 4j * im) / (4.0 + gm) ** 2)
    return ScatteringAsymptotics(low, high)
