"""Band structure of an equidistant array of identical point couplings.

For a coupled scheme repeated on the lattice {n * ell} the Bloch problem on one
cell reduces to the band condition

    Re( w e^{i theta} ) = (4 + det) cos(k ell) + (2/k)(alpha - beta k^2) sin(k ell),
    w = (4 - det) + 4i Im(gamma),

so k lies in a band iff |RHS(k)| <= |w|.  Equivalently, with the single-center
transfer matrix omega * M (M real, det M = 1) and the free-cell propagator
T(k, ell) = [[cos, sin/k], [-k sin, cos]], the Floquet discriminant
tr(M T(k, ell)) obeys band <=> |tr| <= 2; the two routes agree identically and
serve as mutual oracles.  Negative energies use the hyperbolic continuation
k = i kappa.

Amplitude-phase (Pruefer) form: with s = ta + td, c = tc, b = tb and
B(k) = c/k - b k,

    tr(k) = s cos(k ell) + B(k) sin(k ell) = R(k) cos theta(k),
    R = hypot(s, B),  theta = k ell - phi,  phi = atan2(B, s).

Since |phi'| <= |B'|/(2|B|), theta' >= ell/2 from k* = max(5/(3 ell),
2 sqrt|c/b|) on (k* = 1/ell for b = 0), so theta is monotone there.  Its
quarter-period nodes theta in (pi/2)Z bracket every band edge: |tr| = R at
theta = j pi and tr = 0 at theta = j pi + pi/2.

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
from .params import CouplingScheme, is_decoupled, scheme_to_transfer

_EDGE_XTOL = 1e-12  # energy tolerance of edge refinement
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
    def _trace_coeffs(self) -> tuple[float, float, float]:
        # tr(M T) = (ta + td) cos(k ell) + tc sin(k ell)/k - tb k sin(k ell)
        t = scheme_to_transfer(self.scheme)
        return t.ta + t.td, t.tc, t.tb


@dataclass(frozen=True)
class BandInterval:
    """Closed energy interval [e_lo, e_hi] of band index m, with (k, theta) samples."""

    m: int
    e_lo: float
    e_hi: float
    samples: tuple[tuple[float, float], ...] = ()

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


def _floquet_trace(coeffs: tuple[float, float, float], ell: float, energy) -> np.ndarray:
    # The discriminant at every energy of an array: trigonometric in k = sqrt(E)
    # above zero, hyperbolic in q = sqrt(-E) below, and s + c ell at E = 0.
    s, c_sin, b_sin = coeffs
    e = np.asarray(energy, dtype=float)
    k = np.sqrt(np.abs(e))
    tr = np.full(e.shape, s + c_sin * ell)
    up, down = e > 0, e < 0
    ku, qd = k[up], k[down]
    tr[up] = s * np.cos(ku * ell) + (c_sin / ku - b_sin * ku) * np.sin(ku * ell)
    tr[down] = s * np.cosh(qd * ell) + (c_sin / qd + b_sin * qd) * np.sinh(qd * ell)
    return tr


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

def _feature_scale_k(spec: LatticeSpec, k: np.ndarray) -> np.ndarray:
    # Smallest band/gap width in k expected near each k, from the asymptotic
    # widths; keeps the sampling grid fine enough to bracket narrow features.
    g = spec.scheme.greek
    ell = spec.ell
    wmod = band_condition_lhs_bound(spec)
    k = np.maximum(k, 1.0)
    scale = np.full(k.shape, math.pi / ell)
    if abs(g.beta) > 1e-12 * g.scale:
        scale = np.minimum(scale, wmod / (abs(g.beta) * ell * k))
    else:
        gm2 = abs(g.gamma) ** 2
        tinf = min(1.0, wmod / (4.0 + gm2))
        # vanishing band/gap widths are closed features, not ones to resolve
        if tinf < 1.0 - 1e-9:
            scale = np.minimum(scale, 2.0 * math.acos(tinf) / ell)
        elif abs(g.alpha) > 0:
            # delta-like (t_inf = 1): the gaps close like 1/k; in the
            # intermediate regime they do not, and this would make the grid O(m^2)
            scale = np.minimum(scale, 4.0 * abs(g.alpha) / ((4.0 + gm2) * ell * k))
        if tinf > 1e-9:
            scale = np.minimum(scale, 2.0 * math.asin(tinf) / ell)
    return np.maximum(scale, math.pi / (4000.0 * ell))


def _positive_grid(spec: LatticeSpec, k_max: float) -> np.ndarray:
    # Above k* the quarter-period nodes theta = j pi/2 of the amplitude-phase
    # form bracket every edge (|tr| = R at theta = j pi, tr = 0 between), so
    # the grid is O(m); below k* one piece per period of pi/ell, at least 48
    # points each and finer where the asymptotic widths predict narrow features.
    ell = spec.ell
    s, c_sin, b_sin = _trace_coeffs(spec)
    # |phi'| <= |B'|/(2|B|) <= ell/2 from k* on, so theta' >= ell/2
    k_star = (max(5.0 / (3.0 * ell), 2.0 * math.sqrt(abs(c_sin / b_sin)))
              if b_sin != 0.0 else 1.0 / ell)
    k_low = min(k_star, k_max)
    period = math.pi / ell
    k_min = 1e-9 / ell
    steps = int(math.ceil((k_low - k_min) / period)) + 1
    starts = np.cumsum(np.concatenate([[k_min], np.full(steps, period)]))
    starts = starts[starts < k_low]
    ends = np.minimum(starts + period, k_low)
    n = np.maximum(48, np.ceil(5.0 * period / _feature_scale_k(spec, ends)).astype(np.int64))
    grid = np.empty(int(n.sum()) + 1)
    grid[0] = k_min
    j = 1
    for k0, k1, m in zip(starts.tolist(), ends.tolist(), n.tolist()):
        grid[j:j + m] = np.arange(1, m + 1) * ((k1 - k0) / m) + k0
        j += m
        grid[j - 1] = k1
    if k_star >= k_max:
        return grid

    def phase(k):
        return np.arctan2(c_sin / k - b_sin * k, s)

    def theta(k):
        return k * ell - float(phase(k))

    quarter = 0.5 * math.pi
    js = np.arange(math.floor(theta(k_star) / quarter) + 1, math.ceil(theta(k_max) / quarter))
    # node j solves k ell = j pi/2 + phi(k); from k* the step contracts by 1/2 or better
    nodes = np.full(js.shape, k_star)
    for _ in range(64):
        step = (quarter * js + phase(nodes)) / ell
        done = bool(np.all(np.abs(step - nodes) <= 4.0 * np.finfo(float).eps * step))
        nodes = step
        if done:
            break
    nodes = nodes[(nodes > k_star) & (nodes < k_max)]
    return np.concatenate([grid, nodes, [k_max]])


def _negative_kappa_max(spec: LatticeSpec, coeffs: tuple[float, float, float],
                        levels: list) -> float:
    # The first of 60 depths, each 1.5 times the last, below which |tr| > 10.
    q0 = max(2.0, 2.0 * max((abs(p.kappa) for p in levels), default=0.0)) + 4.0 / spec.ell
    qs = np.cumprod(np.concatenate([[q0], np.full(59, 1.5)]))
    with np.errstate(over="ignore", invalid="ignore"):
        cleared = np.abs(_floquet_trace(coeffs, spec.ell, -qs * qs)) > 10.0
    if not cleared.any():
        raise GridTooCoarse(
            "could not bound the negative-energy spectrum: |tr| <= 10 at all"
            f" {len(qs)} depths of the energy window [{-qs[-1] ** 2:.6g}, {-q0 * q0:.6g}]")
    return float(qs[np.argmax(cleared)])


def _negative_grid(spec: LatticeSpec, q_max: float, levels: list) -> np.ndarray:
    # Uniform sweep plus dense clusters around the single-center bound levels,
    # whose lattice bands are exponentially narrow: half-width in kappa on the
    # tight-binding scale ~ kappa * exp(-kappa * ell).  The exact level always
    # lies inside its band (the Floquet discriminant there is exponentially
    # small), so it is included as a grid point outright; that keeps even
    # sub-resolution bands bracketed.
    from .spectral import PointKind
    q_eps = 1e-9 / spec.ell
    qs = [np.linspace(q_max, q_eps, 600)]
    for p in levels:
        if p.kind is not PointKind.BOUND:
            continue
        w_q = 4.0 * p.kappa * math.exp(-p.kappa * spec.ell)
        for half, n in ((max(0.15 * p.kappa, 40.0 * w_q), 500), (10.0 * w_q, 400)):
            lo = max(q_eps, p.kappa - half)
            hi = min(q_max, p.kappa + half)
            if hi > lo:
                qs.append(np.linspace(hi, lo, n))
        qs.append(np.array([p.kappa]))
    merged = np.unique(np.concatenate(qs))[::-1]  # descending kappa = ascending energy
    return merged


def _refine_edges(coeffs: tuple[float, float, float], ell: float,
                  lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Roots of |tr| - 2 in every bracket [lo_i, hi_i] at once.

    Illinois false position; a step that would leave its bracket, or that
    follows two steps which did not halve the bracket, bisects instead, so
    every bracket at least halves in three steps.  A bracket is done once
    |hi - lo|/2 < _EDGE_XTOL + _EDGE_RTOL |lo| or an end is an exact root, and
    its edge is the end with the smaller residual.
    """
    def resid(e):
        return np.abs(_floquet_trace(coeffs, ell, e)) - 2.0

    a, b = lo.copy(), hi.copy()
    fa, fb = resid(a), resid(b)  # Illinois-scaled residuals; the signs stay exact
    kept = np.zeros(a.shape, dtype=np.int8)  # end the last step kept: -1 lower, +1 upper
    width_last = np.full(a.shape, np.inf)
    width_before = np.full(a.shape, np.inf)
    while True:
        live = np.flatnonzero((0.5 * (b - a) >= _EDGE_XTOL + _EDGE_RTOL * np.abs(a))
                              & (fa != 0.0) & (fb != 0.0))
        if live.size == 0:
            break
        ai, bi, fai, fbi = a[live], b[live], fa[live], fb[live]
        width = bi - ai
        x = ai - fai * width / (fbi - fai)
        bisect = ~((x > ai) & (x < bi)) | (width > 0.5 * width_before[live])
        x = np.where(bisect, ai + 0.5 * width, x)
        fx = resid(x)
        up = np.sign(fx) == np.sign(fai)  # the root lies in [x, b]: x replaces a
        # an end kept twice running has its residual halved
        fai = np.where(~up & (kept[live] == -1), 0.5 * fai, fai)
        fbi = np.where(up & (kept[live] == 1), 0.5 * fbi, fbi)
        a[live] = np.where(up, x, ai)
        fa[live] = np.where(up, fx, fai)
        b[live] = np.where(up, bi, x)
        fb[live] = np.where(up, fbi, fx)
        kept[live] = np.where(up, 1, -1)
        width_before[live] = width_last[live]
        width_last[live] = width
    edges = np.where(np.abs(resid(a)) <= np.abs(resid(b)), a, b)
    # an edge within the refinement tolerance of zero is the threshold itself
    return np.where(np.abs(edges) < _EDGE_XTOL, 0.0, edges)


def _grid_note(energies: np.ndarray, e_lo: float, e_hi: float) -> str:
    n = int(np.count_nonzero((energies >= e_lo) & (energies <= e_hi)))
    return f"energy window [{e_lo:.6g}, {e_hi:.6g}] sampled at {n} grid points"


def band_structure(spec: LatticeSpec, m_max: int) -> tuple[list[BandInterval], list[GapInterval]]:
    """Bands and gaps up to band index m_max.

    Edges are bracketed by sign changes of |tr| - 2 on a grid in k: above k*
    (module docstring) the quarter-period nodes of the phase theta, so O(m_max)
    points in all; below k* at least 48 samples per pi/ell period, denser where
    the asymptotic widths predict narrow features.  The negative-energy grid
    clusters around the single-center bound levels, and a trace that overflows
    there counts as outside a band.  All brackets are refined at once by
    Illinois false position safeguarded by bisection to an energy tolerance of
    1e-12 (plus 8 ulp relative).  Bands are indexed by the nearest (pi m / ell)^2,
    ties broken downward, then forced strictly increasing.  Gapless spectra
    (the free and phase-equivalent couplings) come back as a single
    [e_lo, inf) band.
    """
    from .spectral import point_spectrum  # local import; spectral does not import lattice
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    ell = spec.ell
    k_max = (m_max + 1.5) * math.pi / ell
    coeffs = _trace_coeffs(spec)
    levels = point_spectrum(spec.scheme)

    qs = _negative_grid(spec, _negative_kappa_max(spec, coeffs, levels), levels)
    ks = _positive_grid(spec, k_max)
    energies = np.concatenate([-qs * qs, [0.0], ks * ks])
    # deep in the negative grid cosh overflows; an inf or nan trace is outside a band
    with np.errstate(over="ignore", invalid="ignore"):
        inside = np.abs(_floquet_trace(coeffs, ell, energies)) <= 2.0
    if inside[0]:
        # in band at the lowest sampled energy: the negative bound failed
        raise GridTooCoarse("negative-energy grid did not clear the lowest band: "
                            + _grid_note(energies, energies[0], 0.0))

    j = np.flatnonzero(inside[:-1] != inside[1:])
    edges = _refine_edges(coeffs, ell, energies[j], energies[j + 1])
    # edges alternate band start, band end; an odd count leaves a band open at
    # k_max, and a fully gapless spectrum (free and phase-equivalent couplings)
    # shows up as one such band
    if len(edges) == 1:
        lo = float(edges[0])
        samples = _band_samples(coeffs, ell, edges, np.array([k_max * k_max]), 9)
        return [BandInterval(0, lo, math.inf, samples[0])], []
    lo, hi = edges[0:len(edges) - 1:2], edges[1::2]

    # nearest (pi m / ell)^2, exact ties broken downward, then made strictly
    # increasing: m_i = max(nearest_i, m_{i-1} + 1)
    x = np.sqrt(np.maximum(0.5 * (lo + hi), 0.0)) * ell / math.pi
    nearest = np.maximum(np.floor(x + 0.5 - 1e-12).astype(np.int64), 0)
    i = np.arange(len(nearest))
    ms = np.maximum.accumulate(nearest - i) + i
    samples = _band_samples(coeffs, ell, lo, hi, 9)
    bands = [BandInterval(int(m), float(e0), float(e1), smp)
             for m, e0, e1, smp in zip(ms, lo, hi, samples)]

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


def _band_samples(coeffs: tuple[float, float, float], ell: float, e_lo: np.ndarray,
                  e_hi: np.ndarray, n: int) -> list[tuple[tuple[float, float], ...]]:
    # n (k, theta) samples across each band [e_lo_i, e_hi_i], positive energies only
    es = np.linspace(e_lo, e_hi, n, axis=-1)
    theta = np.arccos(np.clip(_floquet_trace(coeffs, ell, es) / 2.0, -1.0, 1.0))
    ks = np.sqrt(np.maximum(es, 0.0))
    return [tuple((k, th) for e, k, th in zip(e_row, k_row, th_row) if e > 0)
            for e_row, k_row, th_row in zip(es.tolist(), ks.tolist(), theta.tolist())]


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
