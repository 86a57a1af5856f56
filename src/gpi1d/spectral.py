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
numpy, for tables.

What depends only on the coupling is built once, when its `CouplingScheme`
is constructed, and kept on it: the matrix-form constants (2 alpha, 4 + det and
2 beta of Delta, the magnitudes that scale its pole rule, and the constant
parts of the four quadrant coefficients) and the halfline form.  A scalar
kernel or S-matrix call reads them instead of deriving them again.

The scheme kernels, `green_kernel`, `green_kernel_dx` (the same coefficient
times ik sx) and `green_kernel_greek`, are each one call to one body,
`_scheme_kernel`, written out so that a kernel costs one Python call: the sheet
check, the sides of x and x', exp(ik(|x|+|x'|)), the Dirichlet pair kernel, and
one coefficient times that exponential, the quadrant coefficient over 2 Delta(k)
for a coupled scheme and 1/(s - ik) on a separated Robin or Neumann side.  The
pole rule refuses a denominator d where |d| <= DEGENERACY_TOL * scale, and the
body refuses Delta(k) as DegenerateParametrization where it or its scale is not
finite.  `kernel_residue` asks the same rule at k = i kappa0, so a residue is
nonzero exactly where the kernel refuses the pole.  `green_kernel_halfline` is a
test oracle for the matrix form and keeps its own code: prologue, free part and
D(k).

The scalar and array S-matrix paths share `_amplitudes`, which reads the
halfline fields into locals once, so a scalar call costs few lookups beyond
its arithmetic.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DegenerateParametrization, InvalidSheet, InvalidWavenumber, PoleEvaluation
from .params import (DEGENERACY_TOL, DIRICHLET, CouplingScheme, GreekParams,
                     HalflineBoundary, HalflineParams, SeparatedHalflineBC,
                     _matrix_constants, _MatrixConstants)


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


def _halfline_coef(h: HalflineParams, k: complex, sx: int, sxp: int) -> complex:
    if sx == sxp:
        return (h.b if sx > 0 else h.a) - 1j * k
    return -h.c if sx > 0 else -h.c.conjugate()


def _quadrant_coef(m: _MatrixConstants, k: complex, sx: int, sxp: int) -> complex:
    if sx == sxp:
        return (m.pp if sx > 0 else m.mm) - 4j * k * m.beta
    return m.pm if sx > 0 else m.mp


def _reciprocal(d: complex, scale: float, name: str, k: complex) -> complex:
    # 1 / d; the kernel's pole rule refuses |d| <= DEGENERACY_TOL * scale
    if abs(d) <= DEGENERACY_TOL * scale:
        raise PoleEvaluation(f"{name} = {d!r} vanishes at k = {k!r}")
    return 1.0 / d


def _coupling_coef(separated: SeparatedHalflineBC, k: complex, sx: int, sxp: int) -> complex:
    # a separated scheme's coefficient of exp(ik(|x|+|x'|)): 1/(s - ik) on a Robin or
    # Neumann side of slope s, nothing on a Dirichlet side or across
    bc = separated.right if sx > 0 else separated.left
    if sx != sxp or bc.kind == DIRICHLET:
        return 0.0j
    return _reciprocal(bc.slope - 1j * k, max(1.0, abs(bc.slope), abs(k)), "side denominator", k)


def _scheme_kernel(m: _MatrixConstants | None, separated: SeparatedHalflineBC | None,
                   x: float, xp: float, k: complex, x_side: int, xp_side: int,
                   diag_side: int | None = None) -> complex:
    # G, or d/dx G where diag_side is given, in one call: a helper call costs ~5% of a kernel
    k = complex(k)
    if not (k.imag > 0 and cmath.isfinite(k)):
        raise InvalidSheet(f"green kernel requires Im k > 0, got k = {k!r}")
    sx = 1 if x > 0 else -1 if x < 0 else _side(x, x_side, "x")
    sxp = 1 if xp > 0 else -1 if xp < 0 else _side(xp, xp_side, "x'")
    expfac = cmath.exp(1j * k * (sx * x + sxp * xp))
    # Dirichlet pair kernel e^{ikP} sin(kQ)/k on either side, P = max(|x|, |x'|), Q = min;
    # its d/dx is sx i e^{ikP} sin(kQ) where |x| = P, sx e^{ikP} cos(kQ) where |x| = Q
    if sx != sxp:
        free = 0.0 + 0.0j
    elif diag_side is None:
        p, q = abs(x), abs(xp)
        if p < q:
            p, q = q, p
        if k.imag * q <= 1.0:
            free = cmath.exp(1j * k * p) * cmath.sin(k * q) / k
        else:  # sin(kQ) alone overflows at large Im(k) Q, where |e^{2ikQ}| < e^-2 cancels nothing
            free = cmath.exp(1j * k * (p - q)) * (cmath.exp(2j * k * q) - 1.0) / (2j * k)
    else:
        if x == xp and diag_side == 0:
            raise ValueError("x = x' requires diag_side (+1 or -1)")
        p, q = abs(x), abs(xp)
        far = p > q or (p == q and diag_side * sx > 0)
        if p < q:
            p, q = q, p
        if k.imag * q <= 1.0:
            free = sx * cmath.exp(1j * k * p) * (1j * cmath.sin(k * q) if far else cmath.cos(k * q))
        else:
            e = cmath.exp(2j * k * q)
            free = 0.5 * sx * cmath.exp(1j * k * (p - q)) * (e - 1.0 if far else e + 1.0)
    if m is None:
        coef = _coupling_coef(separated, k, sx, sxp)
    else:  # quadrant coefficient / (2 Delta), Delta(k) = 2 alpha - ik (4+det) - 2 beta k^2
        (beta, _, _, two_alpha, four_det, two_beta, abs_alpha, abs_four_det, abs_beta,
         pp, mm, pm, mp) = m
        d = two_alpha - 1j * k * four_det - two_beta * k * k
        try:
            abs_k, abs_d = abs(k), abs(d)
            tol = DEGENERACY_TOL * max(1.0, abs_alpha, abs_k * abs_four_det, abs_beta * abs_k * abs_k)
        except OverflowError:  # |k| or |Delta| leaves the float range
            tol = abs_d = math.inf
        if not tol < abs_d < math.inf:  # the pole rule, or Delta(k) or its scale not finite
            if abs_d <= tol < math.inf:
                raise PoleEvaluation(f"Delta(k) = {d!r} vanishes at k = {k!r}")
            raise DegenerateParametrization("Delta(k)", math.inf)
        # 0.5 / Delta: 0.5 * (1 / Delta) rounds apart where 1 / Delta has a subnormal part
        coef = 0.5 / d * ((pp if sx > 0 else mm) - 4j * k * beta if sx == sxp
                          else pm if sx > 0 else mp)
    return free + coef * expfac if diag_side is None else free + coef * (1j * k * sx) * expfac


def green_kernel(scheme: CouplingScheme, x: float, xp: float, k: complex,
                 x_side: int = 0, xp_side: int = 0) -> complex:
    """Resolvent kernel G(x, x'; k) for Im k > 0.

    `x_side` / `xp_side` select the one-sided limit when the corresponding
    argument is exactly 0.  Coupled schemes use the matrix form, regular at
    beta = 0 (the same expression as `green_kernel_greek`); separated schemes
    use the decoupled kernel.
    """
    return _scheme_kernel(scheme._matrix, scheme.separated, x, xp, k, x_side, xp_side)


def green_kernel_dx(scheme: CouplingScheme, x: float, xp: float, k: complex,
                    x_side: int = 0, xp_side: int = 0, diag_side: int = 0) -> complex:
    """Analytic d/dx of the resolvent kernel; `diag_side` picks the branch at x = x'."""
    return _scheme_kernel(scheme._matrix, scheme.separated, x, xp, k, x_side, xp_side, diag_side)


def green_kernel_halfline(h: HalflineParams, x: float, xp: float, k: complex,
                          x_side: int = 0, xp_side: int = 0) -> complex:
    """Kernel evaluated strictly through the halfline-form expression.

    An oracle for the matrix form, written apart from `green_kernel`.
    """
    k = complex(k)
    if not (k.imag > 0 and math.isfinite(k.real) and math.isfinite(k.imag)):
        raise InvalidSheet(f"green kernel requires Im k > 0, got k = {k!r}")
    sx, sxp = _side(x, x_side, "x"), _side(xp, xp_side, "x'")
    expfac = cmath.exp(1j * k * (sx * x + sxp * xp))
    free = 0.0 + 0.0j
    if sx == sxp:  # e^{ikP} sin(kQ)/k, P = max(|x|, |x'|), Q = min(|x|, |x'|)
        p, q = abs(x), abs(xp)
        if p < q:
            p, q = q, p
        if k.imag * q <= 1.0:
            free = cmath.exp(1j * k * p) * cmath.sin(k * q) / k
        else:
            free = cmath.exp(1j * k * (p - q)) * (cmath.exp(2j * k * q) - 1.0) / (2j * k)
    scale = max(1.0, (abs(h.a) + abs(k)) * (abs(h.b) + abs(k)), abs(h.c) ** 2)
    return (free + _reciprocal(denominator_D(h, k), scale, "D(k)", k)
            * _halfline_coef(h, k, sx, sxp) * expfac)


def green_kernel_greek(g: GreekParams, x: float, xp: float, k: complex,
                       x_side: int = 0, xp_side: int = 0) -> complex:
    """Kernel evaluated strictly through the matrix-form expression."""
    try:
        m = _matrix_constants(g)
    except (DegenerateParametrization, OverflowError):
        # an off-sheet k or an unsided x = 0 is refused first, as in every kernel
        dirichlet = HalflineBoundary.dirichlet()
        _scheme_kernel(None, SeparatedHalflineBC(dirichlet, dirichlet), x, xp, k, x_side, xp_side)
        raise
    return _scheme_kernel(m, None, x, xp, k, x_side, xp_side)


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


class SpectralPoint(NamedTuple):
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


def _denominator_roots(g: GreekParams, m: _MatrixConstants) -> list[float]:
    # Delta(i kappa) = 0 reads 2 beta kappa^2 + (4+det) kappa + 2 alpha = 0;
    # stable quadratic, so neither root cancels.  The discriminant is
    # (4 - alpha beta)^2 + 2|gamma|^2 (4 + alpha beta) + |gamma|^4 >= 0.
    b = m.four_det
    root = math.sqrt(max(b * b - 16.0 * g.alpha * g.beta, 0.0))
    if root == math.inf:  # b * b leaves the float range: take |b| out of the root
        root = abs(b) * math.sqrt(max(1.0 - 16.0 * (g.alpha / b) * (g.beta / b), 0.0))
    q = -(b + math.copysign(root, b)) / 2.0
    if abs(g.beta) <= m.ztol:
        return [m.two_alpha / q]  # the second root escapes to -infinity
    return sorted([m.two_alpha / q, q / m.two_beta], reverse=True)


def kernel_residue(scheme: CouplingScheme, kappa0: float, x: float, xp: float) -> complex:
    """Residue in k of the resolvent kernel at the simple pole k = i*kappa0.

    The residue is nonzero exactly where the kernel's pole rule refuses
    k = i*kappa0 (where `green_kernel` would); DegenerateParametrization where
    the residue leaves the float range, or at a double root of Delta.
    """
    sx = _side(x, 0, "x")
    sxp = _side(xp, 0, "x'")
    m = scheme._matrix
    try:  # 0 where the kernel's own pole rule lets k = i kappa0 through
        if m is None:
            _coupling_coef(scheme.separated, 1j * kappa0, sx, sxp)
            return 0.0j
        abs_k = abs(kappa0)  # Delta(i kappa0) = 2 alpha + (4 + det) kappa0 + 2 beta kappa0^2
        if (DEGENERACY_TOL * max(1.0, m.abs_alpha, abs_k * m.abs_four_det, m.abs_beta * abs_k * abs_k)
                < abs(m.two_alpha + kappa0 * m.four_det + m.two_beta * kappa0 * kappa0) < math.inf):
            return 0.0j
    except (PoleEvaluation, OverflowError):
        pass
    try:
        expfac = math.exp(-kappa0 * (sx * x + sxp * xp))
    except OverflowError:  # an antibound pole far from the origin
        expfac = math.inf
    if m is None:
        res = 1j * expfac  # d/dk (slope - ik) = -i
    else:  # Delta'(i kappa) = -i (4 + det + 4 beta kappa)
        dprime = -1j * (m.four_det + 4.0 * m.beta * kappa0)
        if dprime == 0:
            raise DegenerateParametrization("Delta'(i kappa0)", 0.0)
        res = _quadrant_coef(m, 1j * kappa0, sx, sxp) * expfac / (2.0 * dprime)
    if not cmath.isfinite(res):
        raise DegenerateParametrization("kernel residue", math.inf)
    return res


def _bound_coefficients(g: GreekParams, m: _MatrixConstants,
                        kappa: float) -> tuple[complex, complex]:
    # boundary system at the root, (a+kappa) mu + c nu = 0, times 4 beta
    mu0 = complex(4.0 - m.det, 4.0 * g.gamma.imag)
    nu0 = complex(m.mm + 4.0 * m.beta * kappa)
    try:
        norm = math.sqrt((abs(mu0) ** 2 + abs(nu0) ** 2) / (2.0 * kappa))
    except OverflowError:  # a square leaves the float range; hypot does not
        norm = math.hypot(abs(mu0), abs(nu0)) / math.sqrt(2.0 * kappa)
        if not math.isfinite(norm):
            raise DegenerateParametrization("|(mu, nu)|", norm) from None
    mu0, nu0 = mu0 / norm, nu0 / norm
    anchor = mu0 if abs(mu0) > 1e-300 else nu0
    phase = anchor.conjugate() / abs(anchor)
    return mu0 * phase, nu0 * phase


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

    g, m = scheme.greek, scheme._matrix
    ztol = m.ztol
    for kappa in _denominator_roots(g, m):
        if kappa > ztol:
            mu, nu = _bound_coefficients(g, m, kappa)
            points.append(SpectralPoint(kappa, -kappa * kappa, PointKind.BOUND, mu, nu))
        elif kappa < -ztol:
            points.append(SpectralPoint(kappa, -kappa * kappa, PointKind.ANTIBOUND))
        else:
            # spurious where the kernel's residue at k = 0 is the free i/2 in
            # every quadrant: Delta'(0) = -i (4 + det), so pp, mm, pm and mp
            # must all equal 4 + det, i.e. gamma = 0 and det = 0
            kind = (PointKind.SPURIOUS_ROOT if abs(g.gamma) <= ztol and abs(m.det) <= ztol
                    else PointKind.ZERO_RESONANCE)
            # the window decides the kind only; the root is reported as computed
            # (+ 0.0 turns -0.0 into 0.0)
            points.append(SpectralPoint(kappa + 0.0, 0.0 - kappa * kappa, kind))
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
    a, b = h.a, h.b
    cmod = abs(h.c)
    tol = DEGENERACY_TOL * h.scale
    s, ab, split = a + b, a * b, abs(a - b)
    try:
        sq = math.sqrt((a - b) ** 2 + 4.0 * cmod ** 2)
    except OverflowError:  # a square leaves the float range; hypot does not
        sq = math.hypot(a - b, 2.0 * cmod)
    detail = {
        "kappa_hi": (-s + sq) / 2.0,
        "kappa_lo": (-s - sq) / 2.0,
        "coupling_threshold": math.sqrt(ab) if ab > 0 else None,
    }
    if split <= tol and cmod <= tol:
        kind = BindingKind.CROSSING
    elif ab < 0:
        kind = BindingKind.MIXED_SIGN
    elif a > 0 and b > 0 and split > tol and cmod * cmod > ab:
        kind = BindingKind.CONSPIRACY_BINDING
    elif a < 0 and b < 0 and split > tol and cmod * cmod < ab:
        kind = BindingKind.TWO_BOUND
    else:
        kind = BindingKind.OTHER
    return BindingRegime(kind, detail)


# ---------------------------------------------------------------------------
# Scattering
# ---------------------------------------------------------------------------

class ScatteringAmplitudes(NamedTuple):
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
        a, b, c = h.a, h.b, h.c
        ik = 1j * k
        try:
            c2 = abs(c) ** 2
        except OverflowError:  # the halfline route leaves the float range
            raise DegenerateParametrization("|c|^2", math.inf) from None
        d = (a - ik) * (b - ik) - c2
        return -((a - ik) * (b + ik) - c2) / d, 2j * k * c / d
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

    The same amplitudes as `s_matrix`, broadcast over k, from the halfline form
    the scheme built at construction (the matrix form where beta = 0).  Raises
    InvalidWavenumber naming the first k that is complex (the first with a
    nonzero imaginary part, if any), or else the first that is not finite and
    positive.
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


class AsymptoticExpansion(NamedTuple):
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


class ScatteringAsymptotics(NamedTuple):
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

    g, m = scheme.greek, scheme._matrix
    alpha, beta, re4 = g.alpha, g.beta, 4.0 * g.gamma.real
    alpha_zero, beta_zero = abs(alpha) <= m.ztol, abs(beta) <= m.ztol
    if alpha_zero or beta_zero:
        # the constants both ends share: r = 4 Re gamma/(4+|gamma|^2), t = w/(4+|gamma|^2)
        gm = abs(g.gamma) ** 2
        four_gm = 4.0 + gm
        w = 4.0 - gm + 4j * g.gamma.imag
        r0, t0 = re4 / four_gm, w / four_gm
        try:
            minus, plus, w_num, den = four_gm - re4, four_gm + re4, w, four_gm ** 2
        except OverflowError:  # (4+|gamma|^2)^2 leaves the float range: divide twice
            minus, plus, w_num, den = 1.0 - r0, 1.0 + r0, t0, four_gm

    # m.pm is 4 - det + 4i Im gamma
    if alpha_zero:
        low = AsymptoticExpansion("low", "alpha_zero", 1, r0, t0,
                                  -2j * beta * minus / den, 2j * beta * w_num / den)
    else:
        low = AsymptoticExpansion("low", "alpha_nonzero", 1, -1.0, 0.0j,
                                  -1j * (m.four_det + re4) / (2.0 * alpha),
                                  -1j * m.pm / (2.0 * alpha))
    if beta_zero:
        high = AsymptoticExpansion("high", "beta_zero", -1, r0, t0,
                                   -2j * alpha * plus / den, -2j * alpha * w_num / den)
    else:
        high = AsymptoticExpansion("high", "beta_nonzero", -1, 1.0, 0.0j,
                                   -1j * (m.four_det - re4) / (2.0 * beta),
                                   1j * m.pm / (2.0 * beta))
    return ScatteringAsymptotics(low, high)
