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
and the point lies in a closed gap.  Every gap above the lowest holds one
Dirichlet and one Neumann point, and the lowest, below every band, holds no
Dirichlet point (Hill's-equation oscillation theory: Magnus & Winkler, Hill's
Equation, 1966; Eastham, The Spectral Theory of Periodic Differential
Equations, 1973).  Two gap points of one open gap cannot share an end, where
M T = +-I + N with N nilpotent and nonzero, so their midpoint lies strictly
inside the gap; at a closed gap M T = +-I, and its Dirichlet and Neumann
points coincide.  tr runs monotonically from one of +-2 to the other across
each band, so neighbouring gaps have opposite trace signs.  The sign of tr at
a gap point, where |tr| >= 2, survives the rounding that hides a narrow gap
from |tr| - 2, so the gaps are counted by it: each run of one sign over the
gap points is one gap, band m lies between gaps m - 1 and m, and gap m holds
the m-th Dirichlet point, (pi m / ell)^2 when beta = 0 (then tb = 0).

Below zero (q = sqrt(-E), x = q ell, (u, v) = (tb/ta, tc/td)) the entries
vanish where tanh x = -u q and q tanh x = -v, the n = 0 gap points continued
through E = 0: one each at most, with x in [x0 - 1, x0 + 1] for x0 = -ell/u > 1
(1/(1 + x) < tanh x / x < 1/x) and in [max(x0 - 1, sqrt(x0/2)), x0 + 1] for
x0 = -v ell > 0 (x - 1 < x tanh x <= min(x, x^2)).  In tr = (sinh x / q)
(b q^2 + s q coth x + c), (s, c, b) = (ta + td, tc, tb), the second factor
keeps the sign of b (of s if b = 0) past q_up, the positive root of
|b| q^2 - |s| q - |s|/ell - |c| (|c/s| if b = 0); as every band holds a root
of tr, the first q_bot = q_up 2^j where tr has that sign and |tr| > 2 lies
below every band (at q_up itself, a root of tr on wide cells, rounding can
give tr the other sign).

Above zero tr = R cos(theta) with the Pruefer phase theta = k ell - atan(y/s),
y = c/k - b k and R = hypot(s, y) sgn(s) (Pruefer 1926; Pryce, Numerical
Solution of Sturm-Liouville Problems, 1993); theta rises by about pi per pi/ell.
Gap j is where |theta - j pi| <= a = arccos(min(1, 2/R)), so a band edge beside
gap j is a root of a - |theta - j pi|, a residual of slope about ell in k where
|tr| - 2 flattens at a narrow gap.  As det M = 1,

    R^2 - 4 = (ta - td)^2 + (tb k + tc/k)^2,

a sum of squares, so tan a = sqrt(R^2 - 4)/2 carries no cancellation.  At or
below zero an edge beside a gap of trace sign sigma is a root of sigma tr - 2,
which has no kink.  The gap points and the edges come from one vectorised
bracketed Newton solver, _newton, on one trace evaluator, _trace, of the
signed wavenumber z (E = z |z|).

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
from itertools import chain, product, repeat
from typing import NamedTuple

import numpy as np

from .errors import GridTooCoarse, InsufficientBands
from .params import CouplingScheme, TransferParams, is_decoupled, scheme_to_transfer

# The band solve's ufuncs take 0-d arrays, never floats: under numpy 2's scalar
# promotion (NEP 50) a ufunc on a (120,) array takes about 0.55 us with a Python
# float operand and 0.37 us with a 0-d ndarray (numpy 2.4, x86_64).  An np.float64
# is as slow as a float, so each constant below is a 0-d array, and so is each
# scalar that the solve's closures take, built once per call.
_EDGE_XTOL = np.array(1e-12)  # absolute stop tolerance of the root solver (in energy for the edges)
_EPS = np.array(np.finfo(float).eps)
_EDGE_RTOL = np.array(8.0 * _EPS)  # relative part of the same tolerance
_TINY = np.array(np.finfo(float).tiny)
_ZERO, _HALF, _ONE, _TWO, _PI = map(np.array, (0.0, 0.5, 1.0, 2.0, math.pi))
_K_MIN = 1e-9  # k_min ell: the anchors -+k_min either side of zero
_LOWER = np.array([[False], [True]])  # up != _LOWER is [up, ~up], a mask on _newton's two rows


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

    @cached_property
    def _bottom(self) -> tuple[float, float, float]:
        # q_bot = q_up 2^j, the first where tr has the sign of b (of s if
        # b = 0) and |tr| > 2, lies below every band (module docstring); with
        # (tr sech, sech) at z = -q_bot
        ell = self.ell
        s, c, b = coeffs = self._trace_coeffs
        q_bot = max(_K_MIN / ell, abs(c / s) if b == 0.0 else
                    (abs(s) + math.sqrt(s * s + 4.0 * abs(b) * (abs(s) / ell + abs(c))))
                    / (2.0 * abs(b)))
        sign = math.copysign(1.0, b if b else s)
        scaled, sech = _trace(coeffs, ell, -q_bot)[:2]
        while not sign * scaled > 2.0 * sech:
            q_bot *= 2.0
            scaled, sech = _trace(coeffs, ell, -q_bot)[:2]
        return q_bot, scaled, sech


class BandInterval(NamedTuple):
    """Closed energy interval [e_lo, e_hi] of band m, the m-th band from the bottom."""

    m: int
    e_lo: float
    e_hi: float

    @property
    def width(self) -> float:
        return self.e_hi - self.e_lo


class GapInterval(NamedTuple):
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
    s_ell = s * ell
    # 0-d operands for the ufuncs on an array z, as the module's constants; a
    # scalar z (LatticeSpec._bottom) keeps the floats of numpy's scalar arithmetic,
    # which 0-d operands would send through the slower ufunc machinery
    if z.ndim:
        s, c_sin, b_sin, ell, s_ell = map(np.array, (s, c_sin, b_sin, ell, s_ell))

    def above(k):  # tr and its slope at k > 0
        cos, sin = np.cos(k * ell), np.sin(k * ell)
        y = c_sin / k - b_sin * k
        return s * cos + y * sin, y * ell * cos - (c_sin / k / k + b_sin + s_ell) * sin

    def below(q):  # tr sech, sech and their slopes in z at q = -z > 0
        th = np.tanh(q * ell)
        w = c_sin / q + b_sin * q
        decay = np.exp(-q * ell)
        h = _TWO * decay / (_ONE + decay * decay)
        return s + w * th, h, (c_sin / q / q - b_sin) * th - w * ell * h * h, ell * h * th

    # one side of zero only, as in nearly every solver step: no masks
    up = z > _ZERO
    n_up = np.count_nonzero(up)
    if n_up == z.size:
        scaled, slope = above(z)
        return scaled, np.ones(z.shape), slope, np.zeros(z.shape)
    down = z < _ZERO
    n_down = np.count_nonzero(down)
    if n_down == z.size:
        return below(-z)
    scaled, sech = np.full(z.shape, s + c_sin * ell), np.ones(z.shape)
    slope, sech_slope = np.zeros(z.shape), np.zeros(z.shape)
    if n_up:
        scaled[up], slope[up] = above(z[up])
    if n_down:
        scaled[down], sech[down], slope[down], sech_slope[down] = below(-z[down])
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
    # Signed wavenumbers z, E = z |z|, ascending: the bottom anchor -q_bot and
    # the gap points between it and k_max.
    t = spec._transfer
    ell = spec.ell
    k_min = _K_MIN / ell
    ns = np.arange(math.floor(k_max * ell / math.pi + 0.5) + 1, dtype=float)
    # Away from a zero diagonal factor, (M T)_12 = 0 and (M T)_21 = 0 read
    # t pi + atan(u k - v/k) = 0 with (u, v) = (tb/ta, 0) and (0, tc/td), where
    # k ell = (n + t) pi; for n >= 1 exactly one root has |t| <= 1/2.  n = 0
    # has a root at k >= 0 only if v >= 0 on the Neumann row (bracketed from
    # k = 0, the root where v = 0, tc = 0) or u <= -ell (bracketed from the
    # minimum of t pi + atan(u k); at k = 0 where u = -ell).  Below zero,
    # t = -x/pi < 0 (module docstring), they read tanh(q ell)/q + u = 0 or q tanh(q ell) + v = 0.
    closed, rows, below = [], [], []  # (n, u, v, t_lo, t_hi); those below zero go first
    for diag, u_diag, v_diag, neumann in ((t.ta, t.tb, 0.0, False), (t.td, 0.0, t.tc, True)):
        if diag == 0.0:  # the entry is a multiple of cos(k ell)
            closed.append((ns + 0.5) * (math.pi / ell))
            continue
        uj, vj = u_diag / diag, v_diag / diag
        block = np.empty((5, ns.size))
        block[0], block[1], block[2], block[3], block[4] = ns, uj, vj, -0.5, 0.5
        block[3, 0] = math.sqrt(-uj / ell - 1.0) * ell / (-uj * math.pi) if uj < -ell else 0.0
        rows.append(block[:, 0 if uj <= -ell or (neumann and vj >= 0.0) else 1:])
        if -ell < uj < 0.0 or vj < 0.0:  # one root below zero, near x0 = q0 ell
            x0 = -ell / uj if uj else -vj * ell
            x_lo = max(x0 - 1.0, k_min * ell if uj else math.sqrt(0.5 * x0))
            below.append([0.0, uj, vj, -(x0 + 1.0) / math.pi, -x_lo / math.pi])
    n, u, v, t_lo, t_hi = np.concatenate([np.reshape(below, (-1, 5)).T] + rows, axis=1)
    pi_ell = np.array(math.pi / ell)  # 0-d, as the module's constants

    def phase(tt):  # and its slope in t
        k = (n + tt) * pi_ell
        u_kk = u * k * k
        y = u_kk - v
        out = tt * _PI + np.arctan2(y, k)
        slope = _PI + pi_ell * (u_kk + v) / (k * k + y * y)
        # the (at most two) brackets below zero, its first columns: both
        # ends lie below zero, so k < 0 there at every step
        for i in product(*map(range, k.shape[:-1]), range(len(below))):
            q, (_, uj, vj, _, _) = -float(k[i]), below[i[-1]]
            th = math.tanh(q * ell)
            sech2 = 1.0 - th * th
            if uj:
                out[i] = th / q + uj
                slope[i] = (th / q - ell * sech2) / ell * math.pi / q
            else:
                out[i] = q * th + vj
                slope[i] = -(th + q * ell * sech2) * math.pi / ell
        return out, slope

    tt = _newton(phase, t_lo, t_hi)
    pts = np.concatenate(closed + [(n + tt) * pi_ell])
    q_bot = spec._bottom[0]
    return np.sort(np.append(pts[(pts > -q_bot) & (pts < k_max)], -q_bot))


def _xtol(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # the stop tolerance of the brackets [lo, hi], set by their lower ends
    return _EDGE_XTOL + _EDGE_RTOL * np.abs(lo)


def _newton(resid, lo: np.ndarray, hi: np.ndarray, tol=_xtol) -> np.ndarray:
    """A root of f in every bracket [lo_i, hi_i] at once, where (f, f') = resid(x).

    resid takes one point per bracket along the last axis of x, in the order
    of the brackets, and returns f and f' of the shape of x.  Its first call
    takes both ends at once, a leading axis of two: x = [lo, hi].
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
    ends = np.array([lo, hi], dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # infinite ends
        # the bracket state, row 0 at the lower ends and row 1 at the upper,
        # updated in place: a, fa, da, b, fb, db are views of its rows, and
        # f, df are copies, whatever resid returns
        f, df = (np.array(v, dtype=float) for v in resid(ends))
        (a, b), (fa, fb), (da, db) = ends, f, df
        done = np.sign(fa) * np.sign(fb) >= _ZERO
        fallback = np.zeros(a.shape, dtype=bool)  # where the previous step was no Newton step
        while True:
            w = np.maximum(tol(a, b), _EPS * np.maximum(b, -a))  # a <= b
            w2 = w + w
            done |= b - a < w2
            if np.count_nonzero(done) == done.size:
                break
            # the Newton steps from both ends, and the shorter one
            steps = f / df
            size = np.abs(steps)
            x = ends - steps
            x = np.where(size[0] <= size[1], x[0], x[1])
            lo_in, hi_in = a + w, b - w
            step = np.minimum(np.maximum(x, lo_in), hi_in)
            leaves = ~(np.abs(step - x) <= w2)  # a Newton step that leaves the bracket
            if np.count_nonzero(leaves):
                d = fb - fa
                x = np.where(~fallback & np.isfinite(d), a - fa * (b - a) / d, _HALF * (a + b))
                np.copyto(step, np.minimum(np.maximum(x, lo_in), hi_in), where=leaves)
            fallback = leaves
            np.copyto(step, a, where=done)  # a bracket that is done stays as it is
            fx, dx = resid(step)
            done |= fx == _ZERO
            # the root lies in [step, b] where step has the sign of a: step
            # replaces a there, and b elsewhere
            up = np.sign(fx) == np.sign(fa)
            up |= done
            side = up != _LOWER
            np.copyto(ends, step, where=side)
            np.copyto(f, fx, where=side)
            np.copyto(df, dx, where=side)
        x = a - fa * (b - a) / (fb - fa)
        at_a = np.abs(fa) <= np.abs(fb)
        end = np.where(at_a, a, b)
        # an end whose Newton step is shorter than its float spacing is the root
        settled = np.abs(np.where(at_a, fa / da, fb / db)) < np.abs(np.spacing(end))
    return np.where((x >= a) & (x <= b) & ~settled, x, end)


def _grid_note(z: np.ndarray, i: int, j: int) -> str:
    # the energy window of the ascending grid's points i..j
    e_lo, e_hi = z[i] * abs(z[i]), z[j] * abs(z[j])
    return f"energy window [{e_lo:.6g}, {e_hi:.6g}] sampled at {j - i + 1} grid points"


def band_structure(spec: LatticeSpec, m_max: int) -> tuple[list[BandInterval], list[GapInterval]]:
    """Bands and gaps up to band index m_max.

    The gaps are counted on one grid, from _gap_grid: the bottom anchor
    -q_bot^2 and the gap points below k_max^2 (module docstring), where the
    trace is taken once.  Each run of one trace sign is one gap, gap 0
    starting at the bottom; gaps 1..m_max must each hold two gap points,
    which coincide at a closed gap, and any other count raises GridTooCoarse
    naming the gap and its energy window.  Band m lies between gaps m - 1
    and m: its lower edge is the root of gap m - 1's residual between the
    midpoint of that gap's points and the first point of gap m, its upper
    edge the root of gap m's residual between the last point of gap m - 1
    and the midpoint of gap m's points.  Every edge comes from one call of a
    vectorised bracketed Newton solver, to an energy tolerance of 1e-12
    (plus 8 ulp relative): above zero on the Pruefer phase of its gap,
    at or below zero on sigma tr - 2 (sigma the gap's trace sign, both
    scaled by sech; module docstring).  A bracket across zero is cut at
    -+k_min (k_min = 1e-9/ell) on the side where tr(0) = s + c ell puts the
    edge; one cut at +k_min, where the Pruefer residual tends to 0, is halved
    the same way by the trace at its midpoint.  A gap no wider than twice the
    edge tolerance at its lower end is flagged closed.  A band narrower than
    the float spacing (below zero on wide cells) comes back as [E, E].  Band
    m is the m-th band from the bottom (m = 1..m_max); gap m, between bands
    m and m+1, holds the m-th Dirichlet point, (pi m / ell)^2 when beta = 0.
    M = +-I (the free and phase-equivalent couplings) has no gap: one band
    [0, inf) comes back.  The records are named tuples.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    t = spec._transfer
    if t.tb == 0.0 and t.tc == 0.0 and t.ta == t.td:
        # M = +-I up to the rounding of det M = 1: tr = +-2 cos(k ell)
        return [BandInterval(1, 0.0, math.inf)], []
    ell = spec.ell
    k_max = (m_max + 1.5) * math.pi / ell
    s, c, b = coeffs = spec._trace_coeffs
    pts = _gap_grid(spec, k_max)
    # the grid's first point is the bottom anchor -q_bot, whose trace is known
    scaled = spec._bottom[1]
    sign = np.sign(np.concatenate([[scaled], _trace(coeffs, ell, pts[1:])[0]]))
    # each run of one trace sign is one gap: its first and last grid point
    first = np.flatnonzero(np.concatenate([[True], sign[1:] != sign[:-1]]))
    last = np.append(first[1:] - 1, len(pts) - 1)
    held = (last - first + 1)[1:m_max + 1]
    wrong = np.flatnonzero(held != 2)
    if wrong.size:
        j = wrong[0] + 1
        raise GridTooCoarse(f"gap {j} holds {held[j - 1]} gap points, not two (a missed gap): "
                            + _grid_note(pts, last[j - 1], first[j + 1] if j + 1 < len(first)
                                         else len(pts) - 1))
    if len(first) <= m_max:
        raise GridTooCoarse(f"found {len(first) - 1} bands below k_max, fewer than"
                            f" m_max = {m_max}: " + _grid_note(pts, 0, len(pts) - 1))
    first, last = first[:m_max + 1], last[:m_max + 1]
    mid = _HALF * (pts[first] + pts[last])
    # The brackets in ascending order, band m's lower edge then its upper
    # edge.  Each belongs to the gap at one end, of trace sign sigma: a lower
    # edge to gap m - 1 at lo, an upper edge to gap m at hi.
    lo, hi, sigma = np.empty((3, 2 * m_max))
    lo[0::2], hi[0::2], sigma[0::2] = mid[:-1], pts[first[1:]], sign[first[:-1]]
    lo[1::2], hi[1::2], sigma[1::2] = pts[last[:-1]], mid[1:], sign[first[1:]]
    at_lo = np.arange(2 * m_max) % 2 == 0
    # A bracket across zero (from lo = 0 too, a gap point at k = 0) keeps the
    # side of its edge: above zero where 0 lies in the gap at lo, or outside
    # the gap at hi.
    k_min = _K_MIN / ell
    across = (lo <= 0.0) & (hi > 0.0)
    above = across & ((sigma * (s + c * ell) > 2.0) == at_lo)
    lo = np.where(above, np.minimum(k_min, hi), lo)
    hi = np.where(across & ~above, np.maximum(-k_min, lo), hi)
    # The Pruefer residual tends to 0 as k -> 0, where Newton and false
    # position stall, so a bracket from +k_min keeps the side of its edge at
    # hi/2 too: above it where hi/2 lies in the gap at lo, or outside the gap at hi.
    cut = np.flatnonzero(above & (hi > 2.0 * k_min))
    if cut.size:
        half = 0.5 * hi[cut]
        up = (sigma[cut] * _trace(coeffs, ell, half)[0] >= 2.0) == at_lo[cut]
        lo[cut[up]], hi[cut[~up]] = half[up], half[~up]
    # The brackets with lo <= 0 come first.  Above zero each edge is solved
    # in k on the Pruefer phase of index j, that of the bracket's gap end
    # (theta near j pi); the edges are solved in z, so the energy tolerance
    # maps to tol/(|z_lo| + |z_hi|).
    n = np.count_nonzero(lo <= 0.0)
    gap_end, sigma = np.where(at_lo, lo, hi)[n:], sigma[:n]
    t_diff = t.ta - t.td
    # the Pruefer residual's scalars, 0-d arrays from here on, as the module's constants
    s, c, b, ell, sign_s, abs_s, s2, t_diff2 = map(
        np.array, (s, c, b, ell, math.copysign(1.0, s), abs(s), s * s, t_diff * t_diff))

    def theta(y, k):  # the Pruefer phase above zero, y = c/k - b k (module docstring)
        return k * ell - np.arctan2(sign_s * y, abs_s)

    j_pi = _PI * np.round(theta(c / gap_end - b * gap_end, gap_end) / _PI)

    def pruefer(k):  # a - |theta - j pi|: > 0 in gap j, < 0 in the bands beside it
        c_k, b_k = c / k, b * k
        c_kk = c_k / k
        y, dy = c_k - b_k, c_kk + b  # dy = -y'
        r2 = s2 + y * y
        # tan a = sqrt(R^2 - 4)/2, R^2 - 4 = (ta - td)^2 + (tb k + tc/k)^2 as
        # det M = 1, with (tb, tc) = (b, c); where root = 0, p = 0 too
        p = b_k + c_k
        root = np.sqrt(t_diff2 + p * p)
        d = theta(y, k) - j_pi
        slope_a = _TWO * p / np.maximum(root, _TINY) * (b - c_kk) / r2
        return np.arctan2(root, _TWO) - np.abs(d), slope_a - np.sign(d) * (ell + s * dy / r2)

    def edge(x):  # > 0 in the bracket's gap: sigma tr sech - 2 sech, then pruefer
        f, slope = pruefer(x[..., n:])
        if n == 0:
            return f, slope
        scaled, sech, scaled_slope, sech_slope = _trace(coeffs, spec.ell, x[..., :n])
        return (np.concatenate([sigma * scaled - _TWO * sech, f], axis=-1),
                np.concatenate([sigma * scaled_slope - _TWO * sech_slope, slope], axis=-1))

    # _xtol at the lower end's energy z0 * z0 >= 0, in z
    edges = _newton(edge, lo, hi,
                    tol=lambda z0, z1: (_EDGE_XTOL + _EDGE_RTOL * (z0 * z0)) / np.abs(z0 + z1))
    edges *= np.abs(edges)
    # an edge within the refinement tolerance of zero is the threshold itself
    edges = np.where(np.abs(edges) < _EDGE_XTOL, 0.0, edges)
    lo, hi = edges[0::2], edges[1::2]
    # a gap is closed where its width is within the edge solver's tolerance
    closed = lo[1:] - hi[:-1] <= _TWO * _xtol(hi[:-1], lo[1:])
    # the records, built as _make builds them but without a Python call each
    m = range(1, m_max + 1)
    bands = list(map(tuple.__new__, repeat(BandInterval), zip(m, lo.tolist(), hi.tolist())))
    gaps = list(map(tuple.__new__, repeat(GapInterval),
                    zip(m, hi[:-1].tolist(), lo[1:].tolist(), closed.tolist())))
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
    g, tol = spec.scheme.greek, spec.scheme._matrix.ztol
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


def _fields(records: list, width: int) -> np.ndarray:
    # the fields of named-tuple records as the rows of one float array
    flat = np.fromiter(chain.from_iterable(records), float, len(records) * width)
    return flat.reshape(-1, width).T


def asymptotic_regime(spec: LatticeSpec, m_range: tuple[int, int]) -> RegimeReport:
    """Measure band/gap widths over band indices m_range = (m_lo, m_hi) and
    compare with the applicable high-energy law.

    delta'-like: mean band width against 2|w|/(|beta| ell); gap widths are
    fitted linearly in m.  Intermediate: mean per-period k*ell band width
    against 2 arcsin|t_inf| (gap against 2 arccos); a window band below zero
    has no k*ell width and raises InsufficientBands.  delta-like: mean gap width
    against 8|alpha|/((4+|gamma|^2) ell), plus the (pi m / ell)^2 gap-endpoint
    anchors.
    """
    m_lo, m_hi = m_range
    if m_hi - m_lo + 1 < 5:
        raise InsufficientBands("need at least 5 band indices to fit the regime")
    bands, gaps = band_structure(spec, m_hi + 1)
    # band m and gap m are the records' row m - 1, so the window is one slice;
    # its fields are read once into arrays (m, e_lo, e_hi, and closed for gaps)
    window = slice(max(m_lo, 1) - 1, max(m_hi, 0))
    ms, band_lo, band_hi = _fields(bands[window], 3)
    if len(ms) < 5:
        raise InsufficientBands(f"only {len(ms)} bands in range {m_range}")
    gap_ms, gap_lo, gap_hi, _ = _fields(gaps[window], 4)

    g = spec.scheme.greek
    ell = spec.ell
    wmod = band_condition_lhs_bound(spec)
    regime = classify_regime(spec)
    band_widths = band_hi - band_lo
    gap_widths = gap_hi - gap_lo

    details: dict = {
        "band_indices": ms.astype(int).tolist(),
        "band_widths": band_widths.tolist(),
        "gap_widths": gap_widths.tolist(),
    }

    if regime is Regime.DELTA_PRIME_LIKE:
        predicted_width = 2.0 * wmod / (abs(g.beta) * ell)
        measured_width = float(band_widths.mean())
        slope, intercept, r2 = _linear_fit(gap_ms, gap_widths)
        # each band against its nearest (pi n / ell)^2: bound-state bands shift
        # the count m against the anchors
        centres = 0.5 * (band_lo + band_hi)
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
        below = np.flatnonzero(band_hi < 0.0)
        if below.size:
            i = below[0]
            raise InsufficientBands(f"band {int(ms[i])} of range {m_range} lies below zero"
                                    f" (e_hi = {band_hi[i]:.6g}): no k*ell width to fit")
        # np.sqrt rounds correctly, as math.sqrt does
        band_kl, gap_kl = (np.sqrt([band_hi, gap_hi])
                           - np.sqrt(np.maximum([band_lo, gap_lo], 0.0))) * ell
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
    # float_power squares with libm's pow, as a float's ** does; x * x, which
    # ** 2 on an array computes, differs from it in the last bit about once in 1000
    dirichlet = np.float_power(math.pi * gap_ms / ell, 2.0)
    anchors = np.minimum(np.abs(gap_lo - dirichlet), np.abs(gap_hi - dirichlet)).tolist()
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
