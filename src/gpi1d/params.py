"""Parametrizations of the one-dimensional generalized point interaction.

A single point coupling at x = 0 for H = -d^2/dx^2 (units 2m = hbar = 1) is a
self-adjoint matching condition between the boundary values f(0+-), f'(0+-).
The full family has four real parameters; no single coordinate chart covers it,
which is why several parametrizations coexist and exact conversions matter.

Matrix ("Greek") form, coefficients alpha, beta real, gamma complex::

    f'(0+) - f'(0-) =  (alpha/2) (f(0+)+f(0-)) + (gamma/2) (f'(0+)+f'(0-))
    f(0+)  - f(0-)  = -(conj(gamma)/2) (f(0+)+f(0-)) + (beta/2) (f'(0+)+f'(0-))

with the derived determinant det = alpha*beta + |gamma|^2.  The line decouples
into two independent halflines iff det = 4 and Im gamma = 0.

Halfline (Robin-coupled) form, a, b real, c complex, all 1/length::

    f'(0+) = a f(0+) + c f(0-)       -f'(0-) = conj(c) f(0+) + b f(0-)

Decoupled iff c = 0; does not exist when beta = 0 (pure delta family).

Inverse form (boundary values from derivatives), A, B real, C complex::

    f(0+) = A f'(0+) - C f'(0-)      f(0-) = conj(C) f'(0+) - B f'(0-)

Decoupled iff C = 0; does not exist when alpha = 0.  The halfline/inverse
correspondence is the involution (A, B, C) = (b, a, -c) / (ab - |c|^2).

Transfer form: (f(0+), f'(0+))^T = omega * M (f(0-), f'(0-))^T with |omega| = 1
and M real with det M = 1; covers every coupled scheme (and only those).

Three further forms from the literature (Carreau; Seba; Chernoff-Hughes) are
provided as one-way maps into the charts above, each with its validity domain.

Anchors: the delta interaction of strength alpha is (alpha, 0, 0) in matrix
form and A = B = C = 1/alpha in inverse form; the delta' interaction of
strength beta is (0, beta, 0), i.e. a = b = -c = 1/beta in halfline form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DegenerateParametrization

#: Relative tolerance deciding "denominator is zero", the symmetry/decoupling
#: flags, the record constraints (|omega| = 1, det M = 1, Seba's two) and the
#: Berry overlaps (same kappa branch, numerically zero step overlap).
DEGENERACY_TOL = 1e-12


def _check_denominator(value: complex, scale: float, name: str) -> None:
    # scale: the record's largest magnitude; the rule floors it at 1 for every caller
    if abs(value) <= DEGENERACY_TOL * max(1.0, scale):
        raise DegenerateParametrization(name, abs(value))


def _checked_form(x: float, y: float, z_mod: float, sign: float, name: str) -> float:
    """x y + sign z_mod^2 (alpha beta + |gamma|^2, a b - |c|^2 or A B - |C|^2); refused as `name` if not finite."""
    try:
        value = x * y + sign * z_mod ** 2
    except OverflowError:  # z_mod^2 left the float range
        value = math.inf
    if not math.isfinite(value):  # or x y did
        raise DegenerateParametrization(name, math.inf)
    return value


def _require_finite(*values: float) -> None:
    # real fields: a complex (numpy's complex scalars included) or a string is refused
    for v in values:
        try:
            ok = not isinstance(v, complex) and math.isfinite(v)
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"parameters must be finite real numbers, got {v!r}")


def _require_finite_complex(*values: complex) -> None:
    for v in values:
        try:
            ok = cmath.isfinite(v)
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"parameters must be finite complex numbers, got {v!r}")


def _chart_fields(x: float, y: float, z: complex) -> complex:
    # the matrix, halfline and inverse records' field check; returns the complex field as stored
    if not (type(x) is float and type(y) is float and type(z) is complex
            and math.isfinite(x + y + z.real + z.imag)):
        _require_finite(x, y)
        _require_finite_complex(z)
        z = complex(z)
    return z


# ---------------------------------------------------------------------------
# Parameter records
# ---------------------------------------------------------------------------
#
# The four chart records accept the common case in one test: real fields whose
# type is exactly float, a complex field whose type is exactly complex, and a
# finite sum of all of them.  Any other input goes through _require_finite and
# _require_finite_complex, which decide what is stored, refused and said.
# The three of two real fields and one complex share that check, _chart_fields.
#
# These four and the scheme validate in a hand-written __init__ that stores
# the fields straight into the instance dict: a frozen dataclass's generated
# one calls object.__setattr__ per field, which takes twice as long.  The
# scheme stores its matrix-form constants and halfline form in the same
# update, built once at construction.  The records that only carry results
# (the symmetry flags and the outputs of spectral, lattice and berry) are
# named tuples, save berry's PhaseResult, which builds its overlap tuple lazily.

@dataclass(frozen=True)
class GreekParams:
    """Matrix-form coefficients (alpha, beta, gamma)."""

    alpha: float
    beta: float
    gamma: complex

    def __init__(self, alpha: float, beta: float, gamma: complex):
        self.__dict__.update(alpha=alpha, beta=beta, gamma=_chart_fields(alpha, beta, gamma))

    @property
    def det(self) -> float:
        """Determinant alpha*beta + |gamma|^2 of the coupling matrix (derived, never stored).

        inf where |gamma|^2 leaves the float range, as where alpha*beta does.
        """
        try:
            return self.alpha * self.beta + abs(self.gamma) ** 2
        except OverflowError:
            return self.alpha * self.beta + math.inf

    @property
    def scale(self) -> float:
        return max(abs(self.alpha), abs(self.beta), abs(self.gamma), 1.0)


@dataclass(frozen=True)
class HalflineParams:
    """Robin-coupled halfline coefficients (a, b, c), dimension 1/length."""

    a: float
    b: float
    c: complex

    def __init__(self, a: float, b: float, c: complex):
        self.__dict__.update(a=a, b=b, c=_chart_fields(a, b, c))

    @property
    def scale(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), 1.0)


@dataclass(frozen=True)
class InverseParams:
    """Value-from-derivative coefficients (A, B, C), dimension length."""

    A: float
    B: float
    C: complex

    def __init__(self, A: float, B: float, C: complex):
        self.__dict__.update(A=A, B=B, C=_chart_fields(A, B, C))


@dataclass(frozen=True)
class TransferParams:
    """Transfer form omega * [[ta, tb], [tc, td]] with |omega| = 1, ta*td - tb*tc = 1."""

    omega: complex
    ta: float
    tb: float
    tc: float
    td: float

    def __init__(self, omega: complex, ta: float, tb: float, tc: float, td: float):
        if not (type(omega) is complex and type(ta) is float and type(tb) is float
                and type(tc) is float and type(td) is float
                and math.isfinite(omega.real + omega.imag + ta + tb + tc + td)):
            _require_finite_complex(omega)
            _require_finite(ta, tb, tc, td)
            omega = complex(omega)
        if abs(abs(omega) - 1.0) > DEGENERACY_TOL:
            raise ValueError(f"|omega| must be 1, got {abs(omega)!r}")
        tatd, tbtc = ta * td, tb * tc
        det = tatd - tbtc
        if abs(det - 1.0) > DEGENERACY_TOL * max(1.0, abs(tatd), abs(tbtc)):
            raise ValueError(f"ta*td - tb*tc must be 1, got {det!r}")
        self.__dict__.update(omega=omega, ta=ta, tb=tb, tc=tc, td=td)

    @property
    def matrix(self):
        """The real unimodular 2x2 factor, as a numpy array."""
        import numpy as np

        return np.array([[self.ta, self.tb], [self.tc, self.td]], dtype=float)


@dataclass(frozen=True)
class CarreauParams:
    """(alpha_c, beta_c, rho_c, theta_c) with rho_c >= 0 and theta_c in [0, 2*pi)."""

    alpha_c: float
    beta_c: float
    rho_c: float
    theta_c: float

    def __post_init__(self):
        _require_finite(self.alpha_c, self.beta_c, self.rho_c, self.theta_c)
        if self.rho_c < 0:
            raise ValueError("rho_c must be nonnegative")
        if not (0.0 <= self.theta_c < 2 * math.pi):
            raise ValueError("theta_c must lie in [0, 2*pi)")


@dataclass(frozen=True)
class SebaParams:
    """(alpha_s, beta_s, gamma_s, delta_s) constrained by alpha_s + gamma_s = -2, alpha_s*gamma_s - beta_s*delta_s = 1."""

    alpha_s: float
    beta_s: float
    gamma_s: float
    delta_s: float

    def __post_init__(self):
        _require_finite(self.alpha_s, self.beta_s, self.gamma_s, self.delta_s)
        if abs(self.alpha_s + self.gamma_s + 2.0) > DEGENERACY_TOL * max(1.0, abs(self.alpha_s), abs(self.gamma_s)):
            raise ValueError("alpha_s + gamma_s must equal -2")
        det = self.alpha_s * self.gamma_s - self.beta_s * self.delta_s
        if abs(det - 1.0) > DEGENERACY_TOL * max(1.0, abs(self.alpha_s * self.gamma_s), abs(self.beta_s * self.delta_s)):
            raise ValueError("alpha_s*gamma_s - beta_s*delta_s must equal 1")


@dataclass(frozen=True)
class ChernoffHughesParams:
    """(r, z) with r real and z complex; covers beta = 0 couplings."""

    r: float
    z: complex

    def __post_init__(self):
        _require_finite(self.r)
        _require_finite_complex(self.z)
        object.__setattr__(self, "z", complex(self.z))


# ---------------------------------------------------------------------------
# Separated (decoupled) boundary conditions
# ---------------------------------------------------------------------------

ROBIN = "robin"
DIRICHLET = "dirichlet"
NEUMANN = "neumann"


@dataclass(frozen=True)
class HalflineBoundary:
    """One decoupled side: Robin slope (f' = slope * f toward the origin), Dirichlet, or Neumann.

    Robin with slope 0 is identified with Neumann; Dirichlet and Neumann are
    symbolic, never infinite slopes.
    """

    kind: str
    slope: float = 0.0

    def __post_init__(self):
        if self.kind not in (ROBIN, DIRICHLET, NEUMANN):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        _require_finite(self.slope)
        if self.kind == ROBIN and self.slope == 0.0:
            object.__setattr__(self, "kind", NEUMANN)
        if self.kind in (DIRICHLET, NEUMANN):
            object.__setattr__(self, "slope", 0.0)

    @staticmethod
    def robin(slope: float) -> "HalflineBoundary":
        return HalflineBoundary(ROBIN, slope)

    @staticmethod
    def dirichlet() -> "HalflineBoundary":
        return HalflineBoundary(DIRICHLET)

    @staticmethod
    def neumann() -> "HalflineBoundary":
        return HalflineBoundary(NEUMANN)


@dataclass(frozen=True)
class SeparatedHalflineBC:
    """Decoupled pair: right side f'(0+) = a f(0+), left side -f'(0-) = b f(0-)."""

    right: HalflineBoundary
    left: HalflineBoundary


# ---------------------------------------------------------------------------
# Coupling scheme (tagged union)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingScheme:
    """Either a genuinely coupled scheme in matrix form, or a separated pair.

    Construct through :meth:`from_greek` / :meth:`from_halfline` /
    :meth:`from_separated`; the constructors canonicalize decoupled matrix
    parameters into the explicit separated representation.  A coupled scheme
    also carries `_matrix`, its matrix-form constants, and `halfline`, its
    halfline form or None where beta = 0 (both None on a separated scheme);
    they are not fields, so equality, hashing and repr read only the two fields.
    """

    greek: GreekParams | None = None
    separated: SeparatedHalflineBC | None = None

    def __init__(self, greek: GreekParams | None = None,
                 separated: SeparatedHalflineBC | None = None):
        if (greek is None) == (separated is None):
            raise ValueError("exactly one of greek/separated must be given")
        matrix = halfline = None
        if greek is not None:
            matrix = _matrix_constants(greek)
            if abs(greek.beta) > matrix.ztol:
                halfline = greek_to_halfline(greek)
        self.__dict__.update(greek=greek, separated=separated, _matrix=matrix,
                             halfline=halfline)

    @property
    def is_separated(self) -> bool:
        return self.separated is not None

    @classmethod
    def from_greek(cls, greek: GreekParams) -> "CouplingScheme":
        if _greek_is_decoupled(greek):
            return cls(None, _separated_from_decoupled_greek(greek))
        return cls(greek)

    @classmethod
    def from_halfline(cls, h: HalflineParams) -> "CouplingScheme":
        if abs(h.c) <= DEGENERACY_TOL * h.scale:
            return cls(separated=SeparatedHalflineBC(
                right=HalflineBoundary.robin(h.a), left=HalflineBoundary.robin(h.b)))
        return cls(greek=halfline_to_greek(h))

    @classmethod
    def from_separated(cls, right: HalflineBoundary, left: HalflineBoundary) -> "CouplingScheme":
        return cls(separated=SeparatedHalflineBC(right=right, left=left))


class _MatrixConstants(NamedTuple):
    """What the matrix-form kernel, roots and residues need of (alpha, beta, gamma).

    Delta(k) = two_alpha - ik four_det - two_beta k^2 with four_det = 4 + det;
    its pole test scales by abs_alpha, abs_four_det and abs_beta.  The four
    quadrant coefficients of the kernel are pp - 4ik beta [x,x'>0],
    mm - 4ik beta [x,x'<0], pm [x>0>x'] and mp [x<0<x'].  ztol, DEGENERACY_TOL
    * max(|alpha|, |beta|, |gamma|, 1), is the coupling's one zero tolerance:
    every reader of a coupled scheme compares beta, a root or gamma against it.
    """

    beta: float
    det: float
    ztol: float
    two_alpha: float
    four_det: float
    two_beta: float
    abs_alpha: float
    abs_four_det: float
    abs_beta: float
    pp: float
    mm: float
    pm: complex
    mp: complex


def _matrix_constants(g: GreekParams) -> _MatrixConstants:
    alpha, beta, gamma = g.alpha, g.beta, g.gamma
    det = _checked_form(alpha, beta, abs(gamma), 1.0, "det")
    four_det = 4.0 + det
    abs_alpha, abs_beta = abs(alpha), abs(beta)
    return _MatrixConstants(
        beta, det, DEGENERACY_TOL * max(abs_alpha, abs_beta, abs(gamma), 1.0),
        2.0 * alpha, four_det, 2.0 * beta, abs_alpha, abs(four_det), abs_beta,
        four_det - 4.0 * gamma.real, four_det + 4.0 * gamma.real,
        4.0 - det + 4j * gamma.imag, 4.0 - det - 4j * gamma.imag)


def _greek_is_decoupled(g: GreekParams) -> bool:
    alpha, beta, gamma = g.alpha, g.beta, g.gamma
    gamma_mod = abs(gamma)
    det = _checked_form(alpha, beta, gamma_mod, 1.0, "det")  # an infinite det must not scale tol
    tol = DEGENERACY_TOL * max(abs(det), abs(alpha), abs(beta), gamma_mod, 1.0)
    return abs(det - 4.0) <= tol and abs(gamma.imag) <= tol


def _separated_from_decoupled_greek(g: GreekParams) -> SeparatedHalflineBC:
    if abs(g.beta) > DEGENERACY_TOL * g.scale:
        # Robin slopes from the halfline form at det = 4, Im gamma = 0.
        a = (2.0 + g.gamma.real) / g.beta
        b = (2.0 - g.gamma.real) / g.beta
        return SeparatedHalflineBC(right=HalflineBoundary.robin(a),
                                   left=HalflineBoundary.robin(b))
    # beta = 0 forces gamma = +-2: one Dirichlet side, one Robin side of slope alpha/4.
    if g.gamma.real > 0:
        return SeparatedHalflineBC(right=HalflineBoundary.dirichlet(),
                                   left=HalflineBoundary.robin(g.alpha / 4.0))
    return SeparatedHalflineBC(right=HalflineBoundary.robin(g.alpha / 4.0),
                               left=HalflineBoundary.dirichlet())


# ---------------------------------------------------------------------------
# Exact conversions
# ---------------------------------------------------------------------------

def greek_to_halfline(g: GreekParams) -> HalflineParams:
    """Matrix form -> halfline form; requires beta != 0.

    (a, c; conj(c), b) = (1/(4 beta)) * (4+det+4 Re g,  -4+det-4i Im g;
                                         -4+det+4i Im g, 4+det-4 Re g)
    """
    alpha, beta, gamma = g.alpha, g.beta, g.gamma
    gamma_mod = abs(gamma)
    _check_denominator(beta, max(abs(alpha), abs(beta), gamma_mod), "beta")
    det = _checked_form(alpha, beta, gamma_mod, 1.0, "det")
    re4, four_beta = 4.0 * gamma.real, 4.0 * beta
    return HalflineParams((4.0 + det + re4) / four_beta, (4.0 + det - re4) / four_beta,
                          (-4.0 + det - 4.0j * gamma.imag) / four_beta)


def halfline_to_greek(h: HalflineParams) -> GreekParams:
    """Halfline form -> matrix form; requires a + b - 2 Re c != 0."""
    a, b, c = h.a, h.b, h.c
    c_mod = abs(c)
    den = a + b - 2.0 * c.real
    _check_denominator(den, max(abs(a), abs(b), c_mod), "a+b-2Re(c)")
    # den / 4 is exact (|den| > 1e-12), and 4 ab may overflow where alpha does not
    alpha = _checked_form(a, b, c_mod, -1.0, "a*b-|c|^2") / (0.25 * den)
    return GreekParams(alpha, 4.0 / den,
                       4.0 * (0.5 * (a - b) - 1.0j * c.imag) / den)


def _involution(x: float, y: float, z: complex, name: str) -> tuple[float, float, complex]:
    """(y, x, -z) / (x y - |z|^2), refused as `name` where the minor vanishes against scale^2."""
    z_mod = abs(z)
    den = _checked_form(x, y, z_mod, -1.0, name)
    scale = max(abs(x), abs(y), z_mod, 1.0)
    if abs(den) / scale <= DEGENERACY_TOL * scale:  # scale^2 itself may overflow
        raise DegenerateParametrization(name, abs(den))
    return y / den, x / den, -z / den


def halfline_to_inverse(h: HalflineParams) -> InverseParams:
    """Halfline form -> inverse form; requires ab - |c|^2 != 0.

    (A, B, C) = (b, a, -c) / (ab - |c|^2).  The same map with (A, B, C) in
    place of (a, b, c) is its own inverse, and it preserves the spectral
    condition: (1 + kappa A)(1 + kappa B) - kappa^2 |C|^2 = 0 has the same
    roots as (a + kappa)(b + kappa) - |c|^2 = 0.
    """
    return InverseParams(*_involution(h.a, h.b, h.c, "a*b-|c|^2"))


def inverse_to_halfline(i: InverseParams) -> HalflineParams:
    """Inverse form -> halfline form; requires AB - |C|^2 != 0."""
    return HalflineParams(*_involution(i.A, i.B, i.C, "A*B-|C|^2"))


def greek_to_inverse(g: GreekParams) -> InverseParams:
    """Matrix form -> inverse form; requires alpha != 0.

    Mirror of greek_to_halfline under the alpha <-> beta duality:
    (A, C; conj(C), B) = (1/(4 alpha)) * (4+det-4 Re g,  4-det+4i Im g;
                                          4-det-4i Im g, 4+det+4 Re g).
    """
    alpha, beta, gamma = g.alpha, g.beta, g.gamma
    gamma_mod = abs(gamma)
    _check_denominator(alpha, max(abs(alpha), abs(beta), gamma_mod), "alpha")
    det = _checked_form(alpha, beta, gamma_mod, 1.0, "det")
    re4, four_alpha = 4.0 * gamma.real, 4.0 * alpha
    return InverseParams((4.0 + det - re4) / four_alpha, (4.0 + det + re4) / four_alpha,
                         (4.0 - det + 4.0j * gamma.imag) / four_alpha)


def inverse_to_greek(i: InverseParams) -> GreekParams:
    """Inverse form -> matrix form; requires A + B + 2 Re C != 0."""
    A, B, C = i.A, i.B, i.C
    C_mod = abs(C)
    den = A + B + 2.0 * C.real
    _check_denominator(den, max(abs(A), abs(B), C_mod), "A+B+2Re(C)")
    # den / 4 is exact (|den| > 1e-12), and 4 AB may overflow where beta does not
    beta = _checked_form(A, B, C_mod, -1.0, "A*B-|C|^2") / (0.25 * den)
    return GreekParams(4.0 / den, beta,
                       (2.0 * (B - A) + 4.0j * C.imag) / den)


def transfer_to_halfline(t: TransferParams) -> HalflineParams:
    """Transfer form -> halfline form; requires tb != 0.

    a = td/tb, b = ta/tb, c = -omega/tb.
    """
    ta, tb, td = t.ta, t.tb, t.td
    _check_denominator(tb, max(abs(ta), abs(tb), abs(t.tc), abs(td)), "tb")
    return HalflineParams(td / tb, ta / tb, -t.omega / tb)


def transfer_to_greek(t: TransferParams) -> GreekParams:
    """Transfer form -> matrix form; requires ta + td + 2 Re omega != 0.

    alpha = 4 tc / E, beta = 4 tb / E, gamma = (2 (td - ta) + 4i Im omega) / E
    with E = ta + td + 2 Re omega.
    """
    omega, ta, td = t.omega, t.ta, t.td
    den = ta + td + 2.0 * omega.real
    _check_denominator(den, max(abs(ta), abs(td)), "ta+td+2Re(omega)")
    return GreekParams(4.0 * t.tc / den, 4.0 * t.tb / den,
                       (2.0 * (td - ta) + 4.0j * omega.imag) / den)


def halfline_to_transfer(h: HalflineParams) -> TransferParams:
    """Halfline form -> transfer form; requires c != 0 (coupled).

    omega = -c/|c|, (ta, tb, tc, td) = (b, 1, ab-|c|^2, a)/|c|.
    """
    a, b, c = h.a, h.b, h.c
    m = abs(c)
    _check_denominator(m, max(abs(a), abs(b), m), "c")
    minor = a * b - m * m  # not _checked_form: m ** 2 and m * m can differ in the last bit
    if not math.isfinite(minor):
        raise DegenerateParametrization("a*b-|c|^2", math.inf)
    return TransferParams(-c / m, b / m, 1.0 / m, minor / m, a / m)


def greek_to_transfer(g: GreekParams) -> TransferParams:
    """Matrix form -> transfer form; exists for every coupled scheme.

    One closed form, regular at beta = 0: with w = (4 - det) + 4i Im gamma,
    E = 16/|w|, omega0 = w/|w| and s = -1 for beta < 0, +1 otherwise,
    omega = s omega0, ta,td = s (E - 2 Re omega0 -+ E Re gamma / 2)/2,
    tb = s E beta / 4, tc = s E alpha / 4.  For beta != 0 it equals the route
    through the halfline form, halfline_to_transfer(greek_to_halfline(g)),
    without dividing by beta.
    """
    alpha, beta, gamma = g.alpha, g.beta, g.gamma
    det = _checked_form(alpha, beta, abs(gamma), 1.0, "det")
    im4 = 4.0 * gamma.imag
    wmod = math.hypot(4.0 - det, im4)
    _check_denominator(wmod, det, "|4-det+4i*Im(gamma)|")
    s = -1.0 if beta < 0 else 1.0
    omega0 = complex(4.0 - det, im4) / wmod
    e = 16.0 / wmod
    # s multiplies finished values, so beta = 0 results stay bit for bit; a
    # shorter ta = s (4+det-4 Re gamma)/|w| rounds |tr| above 2 on gapless couplings
    re2, half_re = 2.0 * omega0.real, e * gamma.real / 2.0
    ta = s * ((e - re2 - half_re) / 2.0)
    td = s * ((e - re2 + half_re) / 2.0)
    tb, tc = s * (e * beta / 4.0), s * (alpha * e / 4.0)
    try:
        return TransferParams(complex(s * omega0.real, s * omega0.imag), ta, tb, tc, td)
    except ValueError:  # ta td - tb tc rounded away from 1: ta, td cancel in E -+ E Re gamma / 2
        raise DegenerateParametrization("ta*td-tb*tc", abs(ta * td - tb * tc - 1.0),
                                        target=1.0) from None


def scheme_to_transfer(scheme: CouplingScheme) -> TransferParams:
    """Transfer form of a coupled scheme; separated schemes have none."""
    if scheme.is_separated:
        raise DegenerateParametrization("c (separated scheme has no transfer form)")
    return greek_to_transfer(scheme.greek)


def carreau_to_halfline(p: CarreauParams) -> HalflineParams:
    """a = rho_c + beta_c, b = rho_c + alpha_c, c = -rho_c * exp(-i theta_c); total on its domain."""
    c = -p.rho_c * cmath.exp(-1.0j * p.theta_c)
    return HalflineParams(p.rho_c + p.beta_c, p.rho_c + p.alpha_c, c)


def seba_to_halfline(s: SebaParams) -> HalflineParams:
    """a = -(gamma_s + 2)/delta_s, b = gamma_s/delta_s, c = 1/delta_s; requires delta_s != 0."""
    scale = max(abs(s.alpha_s), abs(s.beta_s), abs(s.gamma_s), abs(s.delta_s))
    _check_denominator(s.delta_s, scale, "delta_s")
    return HalflineParams(-(s.gamma_s + 2.0) / s.delta_s, s.gamma_s / s.delta_s,
                          complex(1.0 / s.delta_s))


def chernoff_hughes_to_greek(p: ChernoffHughesParams) -> GreekParams:
    """alpha = 4 r (e^{2 Re z} - 1)/|1 + e^z|^2, beta = 0, gamma = 2 (e^{conj(z)} - 1)/(e^{conj(z)} + 1).

    Requires e^z != -1.
    """
    try:
        ez = cmath.exp(p.z)
        _check_denominator(1.0 + ez, abs(ez), "1+exp(z)")
        ezb = cmath.exp(p.z.conjugate())
        alpha = 4.0 * p.r * (math.exp(2.0 * p.z.real) - 1.0) / abs(1.0 + ez) ** 2
        gamma = 2.0 * (ezb - 1.0) / (ezb + 1.0)
    except OverflowError:
        alpha = math.inf
    if not math.isfinite(alpha):  # Re z past ~354: both forms divided by e^{2 Re z}
        emzb = cmath.exp(-p.z.conjugate())
        alpha = 4.0 * p.r * (1.0 - math.exp(-2.0 * p.z.real)) / abs(1.0 + emzb) ** 2
        gamma = 2.0 * (1.0 - emzb) / (1.0 + emzb)
    return GreekParams(alpha, 0.0, gamma)


def chernoff_hughes_to_inverse(p: ChernoffHughesParams) -> InverseParams:
    """A = 1/d, B = e^{2 Re z}/d, C = e^{conj(z)}/d with d = r (e^{2 Re z} - 1) != 0."""
    try:
        grow = math.exp(2.0 * p.z.real)
    except OverflowError:
        grow = math.inf
    den = p.r * (grow - 1.0)
    if math.isfinite(den):
        num = (1.0, grow, cmath.exp(p.z.conjugate()))
    else:  # Re z past ~354: A, B, C and d divided by e^{2 Re z}
        num = (math.exp(-2.0 * p.z.real), 1.0, cmath.exp(-p.z))
        den = p.r * (1.0 - num[0])
    _check_denominator(den, abs(p.r), "r*(exp(2Re(z))-1)")
    return InverseParams(num[0] / den, num[1] / den, num[2] / den)


# ---------------------------------------------------------------------------
# Classification and gauge action
# ---------------------------------------------------------------------------

class SymmetryFlags(NamedTuple):
    time_reversal: bool
    space_reflection: bool
    quasifree: bool


def is_decoupled(scheme: CouplingScheme) -> bool:
    """True iff the scheme separates the two halflines (det = 4 and Im gamma = 0, i.e. c = 0)."""
    if scheme.is_separated:
        return True
    return _greek_is_decoupled(scheme.greek)


def classify_symmetries(scheme: CouplingScheme) -> SymmetryFlags:
    """Symmetry flags of a coupling.

    Time reversal (complex conjugation) holds iff Im gamma = 0 (c real);
    space reflection iff gamma = 0 (a = b and c real), which implies time
    reversal; "quasifree" flags the family unitarily equivalent to the free
    Hamiltonian by a piecewise-constant phase: alpha = beta = 0 with gamma
    purely imaginary (the free case gamma = 0 included).
    """
    if scheme.is_separated:
        sep = scheme.separated
        return SymmetryFlags(time_reversal=True,
                             space_reflection=(sep.right == sep.left),
                             quasifree=False)
    g, tol = scheme.greek, scheme._matrix.ztol
    gamma = g.gamma
    return SymmetryFlags(abs(gamma.imag) <= tol, abs(gamma) <= tol,
                         abs(g.alpha) <= tol and abs(g.beta) <= tol and abs(gamma.real) <= tol)


def gauge_transform(h: HalflineParams, phi: float) -> HalflineParams:
    """Rotate the coupling phase: (a, b, c) -> (a, b, c e^{i phi}).

    The transformed operator is unitarily equivalent (multiplication by a
    piecewise-constant phase), hence isospectral; |c| is preserved exactly.
    """
    return HalflineParams(h.a, h.b, h.c * cmath.exp(1.0j * phi))
