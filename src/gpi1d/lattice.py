"""Band structure of an equidistant array of identical point couplings.

For a coupled scheme repeated on the lattice {n * ell} the Bloch problem on one
cell reduces to the band condition

    Re( w e^{i theta} ) = (4 + det) cos(k ell) + (2/k)(alpha - beta k^2) sin(k ell),
    w = (4 - det) + 4i Im(gamma),

so k lies in a band iff |RHS(k)| <= |w|.  Equivalently, with the single-center
transfer matrix omega * M (M real, det M = 1) and the free-cell propagator
T(k, ell) = [[cos, sin/k], [-k sin, cos]], the Floquet discriminant
tr(M T(k, ell)) obeys band <=> |tr| <= 2; the two routes agree identically and
serve as mutual oracles.  Negative energies continue k = i q.

Gap points: where an off-diagonal entry of the monodromy vanishes,

    (M T)_12 = ta sin(k ell)/k + tb cos(k ell) = 0   (Dirichlet points),
    (M T)_21 = tc cos(k ell) - td k sin(k ell) = 0   (Neumann points),

M T is triangular with real diagonal lam, 1/lam, so |tr| = |lam + 1/lam| >= 2
and the point lies in a closed gap; every gap holds exactly one Dirichlet
point (Hill's-equation oscillation theory: Magnus & Winkler, Hill's Equation,
1966; Eastham, The Spectral Theory of Periodic Differential Equations, 1973).
Two gap points of one open gap cannot share an end, where M T = +-I + N with
N nilpotent and nonzero, so their midpoint lies strictly inside the gap; the
root of tr between two gap points of opposite trace sign lies inside the band
that separates them.  So bands are counted, not matched to anchors: band m is
the m-th band from the bottom, and gap m, between bands m and m+1, holds the
m-th Dirichlet point, (pi m / ell)^2 when beta = 0 (then tb = 0).

Above zero tr = R cos(theta) with the Pruefer phase theta = k ell - atan(y/s),
y = c/k - b k and R = hypot(s, y) sgn(s) (Pruefer 1926; Pryce, Numerical
Solution of Sturm-Liouville Problems, 1993); theta rises by about pi per pi/ell.
Gap j is where |theta - j pi| <= a = arccos(min(1, 2/R)), so a band edge beside
gap j is a root of a - |theta - j pi|, a residual of slope about ell in k where
|tr| - 2 flattens at a narrow gap.  The gap points, the band points and the
edges all come from one vectorised bracketed Newton solver, _newton: _gap_grid
solves the gap points, band_structure the band points and then the edges, all
on one trace evaluator, _trace, of the signed wavenumber z (E = z |z|).

Below zero (q = sqrt(-E), x = q ell, (u, v) = (tb/ta, tc/td)) they vanish
where tanh x = -u q and q tanh x = -v, the n = 0 gap points continued through
E = 0: one each at most, with x in [x0 - 1, x0 + 1] for x0 = -ell/u > 1
(1/(1 + x) < tanh x / x < 1/x) and in [max(x0 - 1, sqrt(x0/2)), x0 + 1] for
x0 = -v ell > 0 (x - 1 < x tanh x <= min(x, x^2)).  In tr = (sinh x / q)
(b q^2 + s q coth x + c), (s, c, b) = (ta + td, tc, tb), the second factor
keeps the sign of b (of s if b = 0) past q_up, the positive root of
|b| q^2 - |s| q - |s|/ell - |c| (|c/s| if b = 0); as every band holds a root
of tr, the first q_bot = q_up 2^j with |tr| > 2 lies below every band.

Three high-energy regimes, decided by the coupling:
beta != 0 (delta'-like): band widths tend to 2|w| / (|beta| ell), gaps grow;
beta = 0, Re gamma != 0 (intermediate): per period of pi/ell the band occupies
2 arcsin|t_inf| and the gap 2 arccos|t_inf| in k*ell, both widths growing in
energy, with |t_inf| = |w| / (4 + |gamma|^2);
beta = 0, Re gamma = 0 (delta-like): every gap keeps one endpoint at
(pi m / ell)^2 and its width tends to 8|alpha| / ((4+|gamma|^2) ell).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridTooCoarse, InsufficientBands
from .params import (DEGENERACY_TOL, CouplingScheme, TransferParams, is_decoupled,
                     scheme_to_transfer)

_EDGE_XTOL = 1e-12  # absolute stop tolerance of the root solver (in energy for the edges)
_EPS = np.finfo(float).eps
_EDGE_RTOL = 8.0 * _EPS  # relative part of the same tolerance


@dataclass(frozen=True)
class LatticeSpec:
    """A coupled point interaction repeated with spacing ell > 0."""

    scheme: CouplingScheme
    ell: float

    def __post_init__(self):
        if not (math.isfinite(self.ell) and self.ell > 0):
            raise ValueError("ell must be positive and finite")
        if is_decoupled(self.scheme):
            raise ValueError("lattice requires a coupled (non-separating) scheme")

    @cached_property
    def _transfer(self) -> TransferParams:
        return scheme_to_transfer(self.scheme)

    @cached_property
    def _trace_coeffs(self) -> tuple[float, float, float]:
        # tr(M T) = (ta + td) cos(k ell) + tc sin(k ell)/k - tb k sin(k ell)
        t = self._transfer
        return t.ta + t.td, t.tc, t.tb


@dataclass(frozen=True)
class BandInterval:
    """Closed energy interval [e_lo, e_hi] of band m, the m-th band from the bottom."""

    m: int
    e_lo: float
    e_hi: float

    @property
    def width(self) -> float:
        return self.e_hi - self.e_lo


@dataclass(frozen=True)
class GapInterval:
    """Open gap (e_lo, e_hi) between band m and band m+1; closed flags zero width."""

    m: int
    e_lo: float
    e_hi: float
    closed: bool = False

    @property
    def width(self) -> float:
        return self.e_hi - self.e_lo


class Regime(str, enum.Enum):
    DELTA_PRIME_LIKE = "delta_prime_like"
    INTERMEDIATE = "intermediate"
    DELTA_LIKE = "delta_like"


@dataclass(frozen=True)
class RegimeReport:
    """Measured band/gap behaviour over a band-index range against the regime prediction."""

    regime: Regime
    predicted: dict
    measured: dict
    relative_error: float
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Band condition and monodromy
# ---------------------------------------------------------------------------

def band_condition_rhs(spec: LatticeSpec, k: float) -> float:
    """(4 + det) cos(k ell) + (2/k)(alpha - beta k^2) sin(k ell) at real k > 0."""
    if not k > 0:
        raise ValueError("k must be positive")
    g = spec.scheme.greek
    kl = k * spec.ell
    return ((4.0 + g.det) * math.cos(kl)
            + (2.0 / k) * (g.alpha - g.beta * k * k) * math.sin(kl))


def band_condition_lhs_bound(spec: LatticeSpec) -> float:
    """|w| with w = (4 - det) + 4i Im(gamma): the attainable range of the Bloch side."""
    g = spec.scheme.greek
    return math.hypot(4.0 - g.det, 4.0 * g.gamma.imag)


def monodromy_trace(spec: LatticeSpec, k: float) -> float:
    """Floquet discriminant tr(M T(k, ell)) of the real transfer factor; band iff |tr| <= 2."""
    if not k > 0:
        raise ValueError("k must be positive")
    s, c_sin, b_sin = spec._trace_coeffs
    kl = k * spec.ell
    return s * math.cos(kl) + (c_sin / k - b_sin * k) * math.sin(kl)


def _trace(coeffs: tuple[float, float, float], ell: float, z):
    # (tr sech, sech) at every signed wavenumber z of an array (E = z |z|) and
    # their slopes in z, sech = 1/cosh(q ell) at q = -z > 0 and 1 elsewhere, so
    # neither overflows; at z = 0 tr = s + c ell and both slopes are 0
    s, c_sin, b_sin = coeffs
    z = np.asarray(z, dtype=float)

    def above(k):  # tr and its slope at k > 0
        cos, sin = np.cos(k * ell), np.sin(k * ell)
        y = c_sin / k - b_sin * k
        return s * cos + y * sin, y * ell * cos - (c_sin / k / k + b_sin + s * ell) * sin

    sech, sech_slope = np.ones(z.shape), np.zeros(z.shape)
    up = z > 0.0
    if up.all():  # above zero only, as in most solver steps: no masks
        scaled, slope = above(z)
        return scaled, sech, slope, sech_slope
    scaled, slope = np.full(z.shape, s + c_sin * ell), np.zeros(z.shape)
    if up.any():
        scaled[up], slope[up] = above(z[up])
    down = z < 0.0
    if down.any():
        q = -z[down]
        th = np.tanh(q * ell)
        w = c_sin / q + b_sin * q
        decay = np.exp(-q * ell)
        h = 2.0 * decay / (1.0 + decay * decay)
        scaled[down], sech[down] = s + w * th, h
        slope[down] = (c_sin / q / q - b_sin) * th - w * ell * h * h
        sech_slope[down] = ell * h * th
    return scaled, sech, slope, sech_slope


def _floquet_trace(coeffs: tuple[float, float, float], ell: float, energy) -> np.ndarray:
    # The discriminant at every energy of an array; it overflows to +-inf, and
    # an exact zero of tr sech stays 0 rather than inf * 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scaled, sech = _trace(coeffs, ell, np.copysign(np.sqrt(np.abs(energy)), energy))[:2]
        return np.where(scaled == 0.0, 0.0, scaled / sech)


def trace_at_energy(spec: LatticeSpec, energy: float) -> float:
    """Floquet discriminant as a function of energy, hyperbolic below zero."""
    return float(_floquet_trace(spec._trace_coeffs, spec.ell, energy))


def bloch_determinant(spec: LatticeSpec, k: float, theta: float) -> complex:
    """Determinant of the 4x4 cell system (matching at the coupling + Bloch phases).

    Vanishes exactly when k^2 belongs to the band with Bloch parameter theta;
    independent oracle for the band condition and the monodromy trace.
    """
    g = spec.scheme.greek
    al, be, gm = g.alpha, g.beta, g.gamma
    gb = gm.conjugate()
    ik = 1j * k
    e = np.exp(1j * k * spec.ell / 2.0)
    b = np.exp(1j * theta)
    rows = np.array([
        [-ik - al / 2 - (gm / 2) * ik, ik - al / 2 + (gm / 2) * ik,
         ik - al / 2 - (gm / 2) * ik, -ik - al / 2 + (gm / 2) * ik],
        [-1 + gb / 2 - (be / 2) * ik, -1 + gb / 2 + (be / 2) * ik,
         1 + gb / 2 - (be / 2) * ik, 1 + gb / 2 + (be / 2) * ik],
        [1 / e, e, -b * e, -b / e],
        [ik / e, -ik * e, -b * ik * e, b * ik / e],
    ], dtype=complex)
    return complex(np.linalg.det(rows))


# ---------------------------------------------------------------------------
# Band extraction
# ---------------------------------------------------------------------------

def _gap_grid(spec: LatticeSpec, k_max: float) -> np.ndarray:
    # Signed wavenumbers z, E = z |z|, ascending: the gap points below k_max
    # and the anchors -q_bot, -+k_min and k_max.
    t = spec._transfer
    ell = spec.ell
    s, c, b = coeffs = spec._trace_coeffs
    k_min = 1e-9 / ell
    # below every band: q_bot = q_up 2^j, the first with |tr| > 2
    q_bot = max(k_min, abs(c / s) if b == 0.0 else
                (abs(s) + math.sqrt(s * s + 4.0 * abs(b) * (abs(s) / ell + abs(c)))) / (2.0 * abs(b)))
    scaled, sech = _trace(coeffs, ell, -q_bot)[:2]
    while not abs(scaled) > 2.0 * sech:
        q_bot *= 2.0
        scaled, sech = _trace(coeffs, ell, -q_bot)[:2]
    ns = np.arange(math.floor(k_max * ell / math.pi + 0.5) + 1, dtype=float)
    # Away from a zero diagonal factor, (M T)_12 = 0 and (M T)_21 = 0 read
    # t pi + atan(u k - v/k) = 0 with (u, v) = (tb/ta, 0) and (0, tc/td), where
    # k ell = (n + t) pi; for n >= 1 exactly one root has |t| <= 1/2.  Besides
    # k = 0, n = 0 has a root only if v > 0 (bracketed from k = 0) or
    # u < -ell (bracketed from the minimum of t pi + atan(u k)).  Below zero,
    # t = -x/pi < 0 (module docstring), they read tanh(q ell)/q + u = 0 or q tanh(q ell) + v = 0.
    closed, rows, below = [], [], []  # (n, u, v, t_lo, t_hi); those below zero go first
    for diag, u_diag, v_diag in ((t.ta, t.tb, 0.0), (t.td, 0.0, t.tc)):
        if diag == 0.0:  # the entry is a multiple of cos(k ell)
            closed.append((ns + 0.5) * (math.pi / ell))
            continue
        uj, vj = u_diag / diag, v_diag / diag
        lo = np.full(ns.shape, -0.5)
        lo[0] = math.sqrt(-uj / ell - 1.0) * ell / (-uj * math.pi) if uj < -ell else 0.0
        first = 0 if uj < -ell or vj > 0.0 else 1
        rows.append(np.column_stack([ns, np.full(ns.shape, uj), np.full(ns.shape, vj),
                                     lo, np.full(ns.shape, 0.5)])[first:])
        if -ell < uj < 0.0 or vj < 0.0:  # one root below zero, near x0 = q0 ell
            x0 = -ell / uj if uj else -vj * ell
            x_lo = max(x0 - 1.0, k_min * ell if uj else math.sqrt(0.5 * x0))
            below.append([0.0, uj, vj, -(x0 + 1.0) / math.pi, -x_lo / math.pi])
    n, u, v, t_lo, t_hi = np.concatenate([np.reshape(below, (-1, 5))] + rows).T

    def phase(tt):  # and its slope in t
        k = (n + tt) * (math.pi / ell)
        y = u * k * k - v
        out = tt * math.pi + np.arctan2(y, k)
        slope = math.pi + (math.pi / ell) * (u * k * k + v) / (k * k + y * y)
        for i in range(np.count_nonzero(k < 0.0)):  # the (at most two) brackets below zero
            q = -float(k[i])
            th = math.tanh(q * ell)
            sech2 = 1.0 - th * th
            if u[i]:
                out[i] = th / q + u[i]
                slope[i] = (th / q - ell * sech2) / ell * math.pi / q
            else:
                out[i] = q * th + v[i]
                slope[i] = -(th + q * ell * sech2) * math.pi / ell
        return out, slope

    tt = _newton(phase, t_lo, t_hi)
    pts = np.concatenate(closed + [(n + tt) * (math.pi / ell)])
    return np.sort(np.concatenate([pts[(np.abs(pts) > k_min) & (pts < k_max)],
                                   [-q_bot, -k_min, k_min, k_max]]))


def _xtol(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # the stop tolerance of the brackets [lo, hi], set by their lower ends
    return _EDGE_XTOL + _EDGE_RTOL * np.abs(lo)


def _newton(resid, lo: np.ndarray, hi: np.ndarray, tol=_xtol) -> np.ndarray:
    """A root of f in every bracket [lo_i, hi_i] at once, where (f, f') = resid(x).

    resid takes one point per bracket, in the order of the brackets.
    Each step is the shorter of the Newton steps from the two ends where it
    lands in the bracket (a step within tol of an end, or past it, goes tol
    inside it instead, tol = max(tol(lo, hi), eps max(|lo|, |hi|)), at least
    the float spacing of the ends); else false position, or bisection
    where the previous step was not a Newton step either or an end's residual
    is infinite or nan.  A bracket is done once |hi - lo|/2 < tol, an end is
    an exact root, or its ends' residuals share a sign, which happens only
    where rounding flips the sign of an end that is itself a root.  Its root
    is then the false-position point of the final bracket, or the end with
    the smaller residual where that point is not in it or where that end's
    Newton step is shorter than its float spacing.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # infinite ends
        (fa, da), (fb, db) = resid(a), resid(b)
        done = np.sign(fa) * np.sign(fb) >= 0.0
        newton = np.ones(a.shape, dtype=bool)
        while True:
            w = np.maximum(tol(a, b), _EPS * np.maximum(b, -a))  # a <= b
            w2 = w + w
            done |= b - a < w2
            if done.all():
                break
            step_a, step_b = fa / da, fb / db
            x = np.where(np.abs(step_a) <= np.abs(step_b), a - step_a, b - step_b)
            lo_in, hi_in = a + w, b - w
            step = np.minimum(np.maximum(x, lo_in), hi_in)
            fallback = ~(np.abs(step - x) <= w2)  # a Newton step that leaves the bracket
            if fallback.any():
                df = fb - fa
                x = np.where(newton & np.isfinite(df), a - fa * (b - a) / df, 0.5 * (a + b))
                step = np.where(fallback, np.minimum(np.maximum(x, lo_in), hi_in), step)
            newton = ~fallback
            step = np.where(done, a, step)  # a bracket that is done stays as it is
            fx, dx = resid(step)
            done |= fx == 0.0
            # the root lies in [step, b] where step has the sign of a: step replaces a
            up = (np.sign(fx) == np.sign(fa)) | done
            a, fa, da = np.where(up, step, a), np.where(up, fx, fa), np.where(up, dx, da)
            b, fb, db = np.where(up, b, step), np.where(up, fb, fx), np.where(up, db, dx)
        x = a - fa * (b - a) / (fb - fa)
        at_a = np.abs(fa) <= np.abs(fb)
        end = np.where(at_a, a, b)
        # an end whose Newton step is shorter than its float spacing is the root
        settled = np.abs(np.where(at_a, fa / da, fb / db)) < np.abs(np.spacing(end))
    return np.where((x >= a) & (x <= b) & ~settled, x, end)


def _grid_note(energies: np.ndarray, e_lo: float, e_hi: float) -> str:
    n = int(np.count_nonzero((energies >= e_lo) & (energies <= e_hi)))
    return f"energy window [{e_lo:.6g}, {e_hi:.6g}] sampled at {n} grid points"


def band_structure(spec: LatticeSpec, m_max: int) -> tuple[list[BandInterval], list[GapInterval]]:
    """Bands and gaps up to band index m_max.

    Edges are bracketed by sign changes of |tr| - 2 on one grid over the
    whole energy axis: from _gap_grid the gap points below k_max (module
    docstring) and the anchors -q_bot^2, -+k_min^2 (k_min = 1e-9/ell) and
    k_max^2, and, solved here, the midpoint of two neighbours in one gap and
    the root of tr between two gaps, about 4 m_max points in all.  The gap
    points, the band points and the edges come from one vectorised bracketed
    Newton solver, the edges to an energy tolerance of 1e-12 (plus 8 ulp
    relative); above zero each edge is solved in k on the Pruefer phase of
    the gap beside it (module docstring).  A gap no wider than twice that
    tolerance at its lower end is flagged closed.
    A band narrower than the float spacing (below zero on wide cells) is
    reported as [E, E] at its root of tr.  Band m is the m-th band from the
    bottom (m = 1..m_max); gap m, between bands m and m+1, holds the m-th
    Dirichlet point, (pi m / ell)^2 when beta = 0.  A band holding two band
    points (an exactly closed gap, or one the grid missed) raises
    GridTooCoarse naming it, as do fewer than m_max bands below k_max.
    Gapless spectra (the free and phase-equivalent couplings) come back as a
    single [e_lo, inf) band 1.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    ell = spec.ell
    k_max = (m_max + 1.5) * math.pi / ell
    s, c, b = coeffs = spec._trace_coeffs

    sign_s = math.copysign(1.0, s)
    ss_4 = (abs(s) - 2.0) * (abs(s) + 2.0)

    def theta(y, k):  # the Pruefer phase above zero, y = c/k - b k (module docstring)
        return k * ell - np.arctan2(sign_s * y, abs(s))

    def pruefer(k, j_pi):  # a - |theta - j pi|: > 0 in gap j, < 0 in the bands beside it
        c_k = c / k
        y, dy = c_k - b * k, c_k / k + b  # dy = -y'
        yy = y * y
        r2 = ss_4 + 4.0 + yy
        # tan a = sqrt(R^2 - 4)/2, with R^2 - 4 free of the cancellation in R - 2
        root = np.sqrt(np.maximum(ss_4 + yy, 0.0))
        d = theta(y, k) - j_pi
        slope_a = np.where(root > 0.0, -2.0 * y * dy / (r2 * root), 0.0)
        return np.arctan2(root, 2.0) - np.abs(d), slope_a - np.sign(d) * (ell + s * dy / r2)

    # The grid z: the gap points and anchors (z[0::2]) and after each but the
    # last (z[1::2]) the root of tr between two of opposite trace sign, a band
    # point, or else the midpoint of the two, which lies in their gap.  tr
    # changes sign across zero only where tr(0) = s + c ell rounds to 0: the
    # midpoint 0 of -k_min and k_min is then the band point.
    pts = _gap_grid(spec, k_max)
    z, scaled, sech = np.empty((3, 2 * len(pts) - 1))
    scaled[0::2], sech[0::2] = _trace(coeffs, ell, pts)[:2]
    sign = np.sign(scaled[0::2])
    flip = sign[:-1] != sign[1:]
    split = flip & ((pts[:-1] > 0.0) | (pts[1:] < 0.0))
    inner = 0.5 * (pts[:-1] + pts[1:])
    inner[split] = _newton(lambda x: _trace(coeffs, ell, x)[::2], pts[:-1][split], pts[1:][split])
    z[0::2], z[1::2] = pts, inner
    scaled[1::2], sech[1::2] = _trace(coeffs, ell, inner)[:2]
    energies = z * np.abs(z)
    resolved = np.abs(scaled) - 2.0 * sech <= 0.0
    # A band point lies in its band.  Below zero, where a band can be narrower
    # than the float spacing and |tr| round above 2 at every float, it is both
    # band edges: the brackets beside it collapse onto it.
    inside = resolved.copy()
    inside[1:-1:2] |= flip & (energies[1:-1:2] < 0.0)
    stuck = inside & ~resolved
    i = np.flatnonzero(inside[:-1] != inside[1:])
    lo = np.where(stuck[i + 1], z[i + 1], z[i])
    hi = np.where(stuck[i], z[i], z[i + 1])
    # Above zero each edge is solved in k on the Pruefer phase of index j, that
    # of the bracket's gap end (theta near j pi).  The brackets are ascending,
    # and the n with an end at zero or below go first.  The edges are solved
    # in z, so the energy tolerance maps to tol/(|z_lo| + |z_hi|).
    n = np.count_nonzero(lo <= 0.0)
    gap_end = z[np.where(inside[i], i + 1, i)[n:]]
    j_pi = math.pi * np.round(theta(c / gap_end - b * gap_end, gap_end) / math.pi)

    def edge(x):  # > 0 in a gap: |tr| - 2 times sech, then pruefer
        f, slope = pruefer(x[n:], j_pi)
        if n == 0:
            return f, slope
        scaled, sech, scaled_slope, sech_slope = _trace(coeffs, ell, x[:n])
        return (np.concatenate([np.abs(scaled) - 2.0 * sech, f]),
                np.concatenate([np.sign(scaled) * scaled_slope - 2.0 * sech_slope, slope]))

    edges = _newton(edge, lo, hi, tol=lambda z0, z1: _xtol(z0 * z0, z1 * z1) / np.abs(z0 + z1))
    edges *= np.abs(edges)
    # an edge within the refinement tolerance of zero is the threshold itself
    edges = np.where(np.abs(edges) < _EDGE_XTOL, 0.0, edges)
    # edges alternate band start, band end; an odd count leaves a band open at
    # k_max, and a fully gapless spectrum (free and phase-equivalent couplings)
    # shows up as one such band
    if len(edges) == 1:
        return [BandInterval(1, float(edges[0]), math.inf)], []
    lo, hi = edges[0:len(edges) - 1:2][:m_max], edges[1::2][:m_max]
    # band m is the m-th from the bottom, so each must hold exactly one band
    # point, a root of tr between two gap points of opposite trace sign
    points = energies[1:-1:2][flip]
    held = np.searchsorted(points, hi, side="right") - np.searchsorted(points, lo)
    merged = np.flatnonzero(held != 1)
    if merged.size:
        j = merged[0]
        raise GridTooCoarse(f"band {j + 1} [{lo[j]:.6g}, {hi[j]:.6g}] holds {held[j]} band points,"
                            " not one (a closed or missed gap): "
                            + _grid_note(energies, lo[j], hi[j]))
    if len(lo) < m_max:
        raise GridTooCoarse(f"found {len(lo)} bands below k_max, fewer than m_max = {m_max}: "
                            + _grid_note(energies, energies[0], energies[-1]))
    # a gap is closed where its width is within the edge solver's tolerance
    closed = (lo[1:] - hi[:-1] <= 2.0 * _xtol(hi[:-1], lo[1:])).tolist()
    lo, hi = lo.tolist(), hi.tolist()
    bands = [BandInterval(m, e0, e1) for m, (e0, e1) in enumerate(zip(lo, hi), 1)]
    gaps = [GapInterval(m, e0, e1, closed=shut)
            for m, (e0, e1, shut) in enumerate(zip(hi, lo[1:], closed), 1)]
    return bands, gaps


def dispersion(spec: LatticeSpec, band: BandInterval,
               n_samples: int) -> list[tuple[float, float]]:
    """(energy, theta) samples across one band, theta in [0, pi].

    theta is the Floquet phase arccos(tr/2) of the real monodromy factor; band
    edges land on theta in {0, pi}.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    hi = band.e_hi if math.isfinite(band.e_hi) else band.e_lo + 10.0 / spec.ell ** 2
    es = np.linspace(band.e_lo, hi, n_samples)
    tr = _floquet_trace(spec._trace_coeffs, spec.ell, es)
    return list(zip(es.tolist(), np.arccos(np.clip(tr / 2.0, -1.0, 1.0)).tolist()))


# ---------------------------------------------------------------------------
# Asymptotic regimes
# ---------------------------------------------------------------------------

def classify_regime(spec: LatticeSpec) -> Regime:
    g = spec.scheme.greek
    tol = DEGENERACY_TOL * g.scale
    if abs(g.beta) > tol:
        return Regime.DELTA_PRIME_LIKE
    if abs(g.gamma.real) > tol:
        return Regime.INTERMEDIATE
    return Regime.DELTA_LIKE


def _linear_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def asymptotic_regime(spec: LatticeSpec, m_range: tuple[int, int]) -> RegimeReport:
    """Measure band/gap widths over band indices m_range = (m_lo, m_hi) and
    compare with the applicable high-energy law.

    delta'-like: mean band width against 2|w|/(|beta| ell); gap widths are
    fitted linearly in m.  Intermediate: mean per-period k*ell band width
    against 2 arcsin|t_inf| (gap against 2 arccos).  delta-like: mean gap width
    against 8|alpha|/((4+|gamma|^2) ell), plus the (pi m / ell)^2 gap-endpoint
    anchors.
    """
    m_lo, m_hi = m_range
    if m_hi - m_lo + 1 < 5:
        raise InsufficientBands("need at least 5 band indices to fit the regime")
    bands, gaps = band_structure(spec, m_hi + 1)
    sel_bands = [b for b in bands if m_lo <= b.m <= m_hi]
    sel_gaps = [gp for gp in gaps if m_lo <= gp.m <= m_hi]
    if len(sel_bands) < 5:
        raise InsufficientBands(f"only {len(sel_bands)} bands in range {m_range}")

    g = spec.scheme.greek
    ell = spec.ell
    wmod = band_condition_lhs_bound(spec)
    regime = classify_regime(spec)
    ms = np.array([b.m for b in sel_bands], dtype=float)
    band_widths = np.array([b.width for b in sel_bands])
    gap_widths = np.array([gp.width for gp in sel_gaps])
    gap_ms = np.array([gp.m for gp in sel_gaps], dtype=float)

    details: dict = {
        "band_indices": [b.m for b in sel_bands],
        "band_widths": band_widths.tolist(),
        "gap_widths": gap_widths.tolist(),
    }

    if regime is Regime.DELTA_PRIME_LIKE:
        predicted_width = 2.0 * wmod / (abs(g.beta) * ell)
        measured_width = float(band_widths.mean())
        slope, intercept, r2 = _linear_fit(gap_ms, gap_widths)
        # each band against its nearest (pi n / ell)^2: bound-state bands shift
        # the count m against the anchors
        centres = 0.5 * np.array([b.e_lo + b.e_hi for b in sel_bands])
        ns = np.round(np.sqrt(np.maximum(centres, 0.0)) * ell / math.pi)
        centre_offsets = (centres - (math.pi * ns / ell) ** 2).tolist()
        details.update(gap_slope=slope, gap_intercept=intercept, gap_fit_r2=r2,
                       centre_offsets=centre_offsets,
                       predicted_centre_offset=(4.0 + g.det) / (g.beta * ell))
        return RegimeReport(
            regime,
            predicted={"band_width": predicted_width},
            measured={"band_width": measured_width},
            relative_error=abs(measured_width - predicted_width) / predicted_width,
            details=details)

    gm2 = abs(g.gamma) ** 2
    if regime is Regime.INTERMEDIATE:
        tinf = wmod / (4.0 + gm2)
        pred_band_kl = 2.0 * math.asin(min(1.0, tinf))
        pred_gap_kl = 2.0 * math.acos(min(1.0, tinf))
        band_kl = np.array([(math.sqrt(b.e_hi) - math.sqrt(max(b.e_lo, 0.0))) * ell
                            for b in sel_bands])
        gap_kl = np.array([(math.sqrt(gp.e_hi) - math.sqrt(max(gp.e_lo, 0.0))) * ell
                           for gp in sel_gaps])
        slope_b, _, r2_b = _linear_fit(ms, band_widths)
        details.update(band_kl_widths=band_kl.tolist(), gap_kl_widths=gap_kl.tolist(),
                       band_energy_slope=slope_b, band_energy_fit_r2=r2_b,
                       t_infinity_mod=tinf)
        measured = float(band_kl.mean())
        return RegimeReport(
            regime,
            predicted={"band_kl_width": pred_band_kl, "gap_kl_width": pred_gap_kl},
            measured={"band_kl_width": measured,
                      "gap_kl_width": float(gap_kl.mean()) if len(gap_kl) else math.nan},
            relative_error=abs(measured - pred_band_kl) / pred_band_kl,
            details=details)

    # delta-like: constant gaps anchored at (pi m / ell)^2
    predicted_gap = 8.0 * abs(g.alpha) / ((4.0 + gm2) * ell)
    measured_gap = float(gap_widths.mean()) if len(gap_widths) else math.nan
    anchors = [min(abs(gp.e_lo - (math.pi * gp.m / ell) ** 2),
                   abs(gp.e_hi - (math.pi * gp.m / ell) ** 2)) for gp in sel_gaps]
    slope_b, _, r2_b = _linear_fit(ms, band_widths)
    details.update(anchor_offsets=anchors, band_slope=slope_b, band_fit_r2=r2_b)
    rel = (abs(measured_gap - predicted_gap) / predicted_gap
           if predicted_gap > 0 else 0.0)
    return RegimeReport(
        regime,
        predicted={"gap_width": predicted_gap},
        measured={"gap_width": measured_gap},
        relative_error=rel,
        details=details)
