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
that separates them.

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
from .params import CouplingScheme, TransferParams, is_decoupled, scheme_to_transfer

_EDGE_XTOL = 1e-12  # absolute stop tolerance of the root solver (in energy for the edges)
_EDGE_RTOL = 8.0 * np.finfo(float).eps  # relative part of the same tolerance


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
    """Closed energy interval [e_lo, e_hi] of band index m."""

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


def _trace_coeffs(spec: LatticeSpec) -> tuple[float, float, float]:
    # (s, c, b) of tr = s cos(k ell) + (c/k - b k) sin(k ell), computed once per spec
    return spec._trace_coeffs


def monodromy_trace(spec: LatticeSpec, k: float) -> float:
    """Floquet discriminant tr(M T(k, ell)) of the real transfer factor; band iff |tr| <= 2."""
    if not k > 0:
        raise ValueError("k must be positive")
    s, c_sin, b_sin = _trace_coeffs(spec)
    kl = k * spec.ell
    return s * math.cos(kl) + (c_sin / k - b_sin * k) * math.sin(kl)


def _scaled_trace(coeffs: tuple[float, float, float], ell: float,
                  energy) -> tuple[np.ndarray, np.ndarray]:
    # (tr sech, sech) at every energy of an array, sech = 1/cosh(q ell) below
    # zero (q = sqrt(-E)) and 1 elsewhere: tr is trigonometric in k = sqrt(E)
    # above zero, s + c ell at 0, and tr sech = s + (c/q + b q) tanh(q ell) below.
    s, c_sin, b_sin = coeffs
    e = np.asarray(energy, dtype=float)
    k = np.sqrt(np.abs(e))
    tr = np.full(e.shape, s + c_sin * ell)
    sech = 1.0
    up, down = e > 0, e < 0
    ku = k[up]
    tr[up] = s * np.cos(ku * ell) + (c_sin / ku - b_sin * ku) * np.sin(ku * ell)
    if down.any():
        qd, sech = k[down], np.ones(e.shape)
        tr[down] = s + (c_sin / qd + b_sin * qd) * np.tanh(qd * ell)
        decay = np.exp(-qd * ell)
        sech[down] = 2.0 * decay / (1.0 + decay * decay)
    return tr, sech


def _floquet_trace(coeffs: tuple[float, float, float], ell: float, energy) -> np.ndarray:
    # The discriminant at every energy of an array; it overflows to +-inf, and
    # an exact zero of tr sech stays 0 rather than inf * 0
    scaled, sech = _scaled_trace(coeffs, ell, energy)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(scaled == 0.0, 0.0, scaled / sech)


def trace_at_energy(spec: LatticeSpec, energy: float) -> float:
    """Floquet discriminant as a function of energy, hyperbolic below zero."""
    return float(_floquet_trace(_trace_coeffs(spec), spec.ell, energy))


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
    # Signed wavenumbers z, E = z |z|, ascending: the gap points below k_max,
    # the anchors -q_bot, -+k_min and k_max, and after each but the last
    # (grid[1::2]) the midpoint of two in one gap or the root of tr between two.
    t = spec._transfer
    ell = spec.ell
    s, c, b = coeffs = _trace_coeffs(spec)
    k_min = 1e-9 / ell
    # below every band: q_bot = q_up 2^j, the first with |tr| > 2
    q_bot = max(k_min, abs(c / s) if b == 0.0 else
                (abs(s) + math.sqrt(s * s + 4.0 * abs(b) * (abs(s) / ell + abs(c)))) / (2.0 * abs(b)))
    while not abs(_floquet_trace(coeffs, ell, -q_bot * q_bot)) > 2.0:
        q_bot *= 2.0
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
        rows.append(np.column_stack([ns, np.full(ns.shape, uj), np.full(ns.shape, vj),
                                     lo, np.full(ns.shape, 0.5)]))
        if -ell < uj < 0.0 or vj < 0.0:  # one root below zero, near x0 = q0 ell
            x0 = -ell / uj if uj else -vj * ell
            x_lo = max(x0 - 1.0, k_min * ell if uj else math.sqrt(0.5 * x0))
            below.append([0.0, uj, vj, -(x0 + 1.0) / math.pi, -x_lo / math.pi])
    n, u, v, t_lo, t_hi = np.concatenate([np.reshape(below, (-1, 5))] + rows).T

    def phase(tt, n, u, v):
        k = (n + tt) * (math.pi / ell)
        out = tt * math.pi + np.arctan2(u * k * k - v, k)
        for i in range(np.count_nonzero(k < 0.0)):  # the (at most two) brackets below zero
            q = -float(k[i])
            th = math.tanh(q * ell)
            out[i] = th / q + u[i] if u[i] else q * th + v[i]
        return out

    keep = (n > 0) | ((phase(t_lo, n, u, v) < 0.0) != (phase(t_hi, n, u, v) < 0.0))
    n, u, v, t_lo, t_hi = n[keep], u[keep], v[keep], t_lo[keep], t_hi[keep]
    tt = _illinois(phase, t_lo, t_hi, n, u, v)
    pts = np.concatenate(closed + [(n + tt) * (math.pi / ell)])
    pts = np.sort(np.concatenate([pts[(np.abs(pts) > k_min) & (pts < k_max)],
                                  [-q_bot, -k_min, k_min, k_max]]))

    def trace(z):  # of the sign of tr at E = z |z|
        return _scaled_trace(coeffs, ell, z * np.abs(z))[0]

    sign = np.sign(trace(pts))
    split = sign[:-1] != sign[1:]
    inner = 0.5 * (pts[:-1] + pts[1:])
    inner[split] = _illinois(trace, pts[:-1][split], pts[1:][split])
    grid = np.empty(2 * len(pts) - 1)
    grid[0::2], grid[1::2] = pts, inner
    return grid


def _illinois(resid, lo: np.ndarray, hi: np.ndarray, *args: np.ndarray) -> np.ndarray:
    """A root of resid(x, *args) in every bracket [lo_i, hi_i] at once.

    args are per-bracket arrays, passed on sliced to the brackets still open.
    Illinois false position: an end kept twice running has its residual
    halved.  A step that rounds onto or past an end goes tol = _EDGE_XTOL +
    _EDGE_RTOL |lo| inside it instead.  Where an end's residual is infinite
    (or nan) the step bisects: false position there is undefined or lands on
    the finite end.  A bracket is done once |hi - lo|/2 < tol or an end is an
    exact root.  Its root is then the false-position point of the final
    bracket, or the end with the smaller residual where that point is not in it.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    fa, fb = resid(a, *args), resid(b, *args)  # Illinois-scaled residuals; the signs stay exact
    kept = np.zeros(a.shape, dtype=np.int8)  # end the last step kept: -1 lower, +1 upper
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # infinite ends
        while True:
            tol = _EDGE_XTOL + _EDGE_RTOL * np.abs(a)
            live = np.flatnonzero((0.5 * (b - a) >= tol) & (fa != 0.0) & (fb != 0.0))
            if live.size == 0:
                break
            ai, bi, fai, fbi, toli = a[live], b[live], fa[live], fb[live], tol[live]
            df = fbi - fai
            x = np.where(np.isfinite(df), ai - fai * (bi - ai) / df, 0.5 * (ai + bi))
            x = np.where(x <= ai, ai + toli, np.where(x >= bi, bi - toli, x))
            fx = resid(x, *(p[live] for p in args))
            up = np.sign(fx) == np.sign(fai)  # the root lies in [x, b]: x replaces a
            # an end kept twice running has its residual halved
            fai = np.where(~up & (kept[live] == -1), 0.5 * fai, fai)
            fbi = np.where(up & (kept[live] == 1), 0.5 * fbi, fbi)
            a[live] = np.where(up, x, ai)
            fa[live] = np.where(up, fx, fai)
            b[live] = np.where(up, bi, x)
            fb[live] = np.where(up, fbi, fx)
            kept[live] = np.where(up, 1, -1)
        ra, rb = resid(a, *args), resid(b, *args)
        x = a - ra * (b - a) / (rb - ra)
    return np.where((x >= a) & (x <= b), x, np.where(np.abs(ra) <= np.abs(rb), a, b))


def _grid_note(energies: np.ndarray, e_lo: float, e_hi: float) -> str:
    n = int(np.count_nonzero((energies >= e_lo) & (energies <= e_hi)))
    return f"energy window [{e_lo:.6g}, {e_hi:.6g}] sampled at {n} grid points"


def band_structure(spec: LatticeSpec, m_max: int) -> tuple[list[BandInterval], list[GapInterval]]:
    """Bands and gaps up to band index m_max.

    Edges are bracketed by sign changes of |tr| - 2 on one grid over the
    whole energy axis: the gap points below k_max (module docstring) with the
    anchors -q_bot^2, -+k_min^2 (k_min = 1e-9/ell) and k_max^2, the midpoint
    of two neighbours in one gap and the root of tr between two gaps, so
    about 4 m_max points in all.  The gap points, the band points and the
    edges come from one vectorised Illinois solver, the edges to an energy
    tolerance of 1e-12 (plus 8 ulp relative).  A band narrower than the float
    spacing (below zero on wide cells) is reported as [E, E] at its root of
    tr.  Bands are indexed by the nearest (pi m / ell)^2, ties broken
    downward, then forced strictly increasing.  Gapless spectra (the free
    and phase-equivalent couplings) come back as a single [e_lo, inf) band.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    ell = spec.ell
    k_max = (m_max + 1.5) * math.pi / ell
    coeffs = _trace_coeffs(spec)

    def gap(e):  # |tr| - 2, and below zero that times sech: the same sign, no overflow
        scaled, sech = _scaled_trace(coeffs, ell, e)
        return np.abs(scaled) - 2.0 * sech

    z = _gap_grid(spec, k_max)
    energies = z * np.abs(z)
    resolved = gap(energies) <= 0.0
    # A band point (grid[1::2] between gap points of opposite trace sign) lies
    # in its band.  Below zero, where a band can be narrower than the float
    # spacing and |tr| round above 2 at every float, it is both band edges:
    # the brackets beside it collapse onto it.
    sign = np.sign(_scaled_trace(coeffs, ell, energies[0::2])[0])
    inside = resolved.copy()
    inside[1:-1:2] |= (sign[:-1] != sign[1:]) & (energies[1:-1:2] < 0.0)
    stuck = inside & ~resolved
    j = np.flatnonzero(inside[:-1] != inside[1:])
    edges = _illinois(gap, np.where(stuck[j + 1], energies[j + 1], energies[j]),
                      np.where(stuck[j], energies[j], energies[j + 1]))
    # an edge within the refinement tolerance of zero is the threshold itself
    edges = np.where(np.abs(edges) < _EDGE_XTOL, 0.0, edges)
    # edges alternate band start, band end; an odd count leaves a band open at
    # k_max, and a fully gapless spectrum (free and phase-equivalent couplings)
    # shows up as one such band
    if len(edges) == 1:
        return [BandInterval(0, float(edges[0]), math.inf)], []
    lo, hi = edges[0:len(edges) - 1:2], edges[1::2]

    # nearest (pi m / ell)^2, exact ties broken downward, then made strictly
    # increasing: m_i = max(nearest_i, m_{i-1} + 1)
    x = np.sqrt(np.maximum(0.5 * (lo + hi), 0.0)) * ell / math.pi
    nearest = np.maximum(np.floor(x + 0.5 - 1e-12).astype(np.int64), 0)
    i = np.arange(len(nearest))
    ms = np.maximum.accumulate(nearest - i) + i
    bands = [BandInterval(int(m), float(e0), float(e1)) for m, e0, e1 in zip(ms, lo, hi)]

    if not bands or bands[-1].m < m_max:
        raise GridTooCoarse(
            f"resolved band indices up to {bands[-1].m if bands else 'none'}"
            f" < m_max = {m_max}: " + _grid_note(energies, energies[0], energies[-1]))
    bands = [b for b in bands if b.m <= m_max]

    gaps: list[GapInterval] = []
    for b0, b1 in zip(bands, bands[1:]):
        if b0.e_hi > b1.e_lo + 1e-9:
            raise GridTooCoarse(f"bands {b0.m} and {b1.m} overlap; the grid missed an edge"
                                " in the " + _grid_note(energies, b0.e_lo, b1.e_hi))
        width = b1.e_lo - b0.e_hi
        gaps.append(GapInterval(b0.m, b0.e_hi, b1.e_lo, closed=width <= 1e-10))
    if m_max >= 8:
        # asymptotically one band per pi/ell period; a shortfall in a fully
        # resolved high window means the grid skipped over a feature
        win_hi = (k_max - 1.5 * math.pi / ell) ** 2
        win_lo = (k_max - 4.5 * math.pi / ell) ** 2
        n_win = sum(win_lo <= 0.5 * (b.e_lo + b.e_hi) <= win_hi for b in bands)
        if not 2 <= n_win <= 4:
            raise GridTooCoarse(
                f"found {n_win} bands in a 3-period window where ~3 are expected: "
                + _grid_note(energies, win_lo, win_hi))
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
    tr = _floquet_trace(_trace_coeffs(spec), spec.ell, es)
    return list(zip(es.tolist(), np.arccos(np.clip(tr / 2.0, -1.0, 1.0)).tolist()))


# ---------------------------------------------------------------------------
# Asymptotic regimes
# ---------------------------------------------------------------------------

def classify_regime(spec: LatticeSpec) -> Regime:
    g = spec.scheme.greek
    tol = 1e-12 * g.scale
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
        centre_offsets = [0.5 * (b.e_lo + b.e_hi) - (math.pi * b.m / ell) ** 2
                          for b in sel_bands]
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
