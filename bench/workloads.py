"""Workload inputs, built from a seed, and the fixed call list of one pass.

Every workload runs the same three sections; the workload sets their sizes,
so every end-to-end metric exists on every workload while each workload puts
its weight on different layers (`bands` on lattice, `tables` on spectral,
berry and the CLI).  On `bands` the tables and sweep sections run at a tenth
and a half of their size, as probes: they keep their metrics present and
measured while leaving the run's time to the lattice ops, each of which
needs as many samples in a run as it can get for a steady median.

* lattice: `band_structure` at two `m_max` for a list of lattice couplings,
  plus one in-process `gpi1d bands` task (two `band_structure` calls and the
  regime fit);
* tables: one coupled scheme on dense grids: the in-process `gpi1d scatter`
  task with JSON output to a buffer, a `green_kernel` table, and
  `berry_phase_discrete` plus `connection_riemann_sum` on one loop;
* sweep: 2000 seeded couplings (1000 on `bands`), a tenth of them at chart
  edges, with a few scalar calls each.

A third workload that ran the sweep section at 1e4 couplings was dropped: on
the shared host it was measured on, its figures spread the most from run to
run, and both remaining workloads run the same section.

Library functions are looked up through their module at call time, so the
span wrappers of `tracing.Tracer` see every call.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

import gpi1d
from gpi1d import berry, cli, lattice, params, spectral
from gpi1d.errors import DegenerateParametrization, GpiError

import checks

WORKLOADS = ("bands", "tables")

# Lattice couplings of the `bands` workload, one per high-energy regime.  The
# grid density of `band_structure` scales with |beta| / |w| and with the
# regime's narrowest feature, so the seeded couplings are the fixed bases
# jittered by at most 2% per coefficient: the seed varies the inputs without
# changing the amount of work by much.
REGIME_BASES = (
    ("delta_prime", 0.0, 1.0, 0.0, 0.0, False),
    ("delta", -2.0, 0.0, 0.0, 0.0, False),
    ("intermediate", 1.0, 0.0, 1.0, 0.0, True),
    ("generic", -1.0, 0.5, 0.3, 0.4, True),
)
REGIME_JITTER = 0.02
# Lattice coupling of the `tables` workload: fixed, so that the
# section's cost does not depend on the seed.
PROBE_COUPLING = ("generic", -1.0, 0.5, 0.3, 0.4, False)
ELL = 1.0

FULL_SIZES = {
    "bands": {"lattice": "regimes", "m_max": (60, 200), "scatter_steps": 1_000,
              "kernel_points": 1_000, "berry_samples": 10_000, "couplings": 1_000},
    "tables": {"lattice": "probe", "m_max": (60, 200), "scatter_steps": 10_000,
               "kernel_points": 10_000, "berry_samples": 100_000, "couplings": 2_000},
}
SMOKE_SIZES = {"m_max": (8, 12), "scatter_steps": 40, "kernel_points": 40,
               "berry_samples": 200, "couplings": 40}

# Chart edges of the sweep: a tenth of the couplings sit at distance
# 10^u, u in [-14, -3], from one edge, a quarter per edge.  u is stratified so
# that every decade is covered the same way for every seed.
EDGE_CLASSES = ("edge:beta", "edge:alpha", "edge:det", "edge:c")
EDGE_SHARE = 0.1
EDGE_LOG_RANGE = (-14.0, -3.0)
EDGE_NEAR = 0.05
SCATTER_K_RANGE = (0.05, 20.0)
SHORT_OP_S = 0.1           # ops shorter than this are repeated within a pass ...
SHORT_OP_REPEATS = 10      # ... up to this many runs in all
SWEEP_WAVENUMBERS = 3      # s_matrix calls per coupling
SWEEP_KERNEL_POINTS = 2    # green_kernel calls per coupling
SWEEP_CHUNK = 500          # sweep couplings between two host-speed probes


def sizes_for(workload: str, smoke: bool) -> dict:
    sizes = dict(FULL_SIZES[workload])
    if smoke:
        sizes.update(SMOKE_SIZES)
    n = sizes["couplings"]
    sizes["call_tail_quantile"] = 1.0 - 10.0 / n
    sizes["edge_couplings"] = len(EDGE_CLASSES) * max(1, round(n * EDGE_SHARE / len(EDGE_CLASSES)))
    return sizes


@dataclass
class Coupling:
    label: str
    input_class: str
    greek: gpi1d.GreekParams


@dataclass
class Inputs:
    sizes: dict
    lattice_couplings: list[Coupling]
    cli_coupling: Coupling
    table_coupling: gpi1d.GreekParams
    kernel_points: np.ndarray          # rows (x, x', Re k, Im k)
    loop: gpi1d.ParameterLoop
    couplings: list[Coupling]
    sweep_k: np.ndarray                # (couplings, SWEEP_WAVENUMBERS)
    sweep_points: np.ndarray           # (couplings, SWEEP_KERNEL_POINTS, 4)


def _bulk_greek(rng: np.random.Generator) -> gpi1d.GreekParams:
    # the acceptance samplers' box, beta = 0 included, decoupled points excluded
    while True:
        alpha = float(rng.uniform(-3.0, 3.0))
        beta = 0.0 if rng.uniform() < 0.125 else float(rng.uniform(-3.0, 3.0))
        gamma = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        g = gpi1d.GreekParams(alpha, beta, gamma)
        if abs(g.det - 4.0) >= 1e-2 or abs(gamma.imag) >= 1e-2:
            return g


def input_class(g: gpi1d.GreekParams) -> str:
    """The chart edge a coupling lies near, judged from its coefficients, or "bulk".

    "Near" is closer than EDGE_NEAR, the distance the acceptance samplers
    keep from beta = 0; beta = 0 itself is the regular delta family, no edge.
    """
    if 0.0 < abs(g.beta) < EDGE_NEAR:
        return "edge:beta"
    if abs(g.alpha) < EDGE_NEAR:
        return "edge:alpha"
    if abs(g.det - 4.0) < EDGE_NEAR:
        return "edge:c" if abs(g.gamma.imag) < EDGE_NEAR else "edge:det"
    return "bulk"


def _edge_greek(rng: np.random.Generator, edge: str, eps: float) -> gpi1d.GreekParams:
    while True:
        g = _bulk_greek(rng)
        if abs(g.beta) >= 0.05:
            break
    if edge == "edge:beta":
        return gpi1d.GreekParams(g.alpha, eps, g.gamma)
    if edge == "edge:alpha":
        return gpi1d.GreekParams(eps, g.beta, g.gamma)
    if edge == "edge:det":
        # det = alpha beta + |gamma|^2 = 4 + eps, Im gamma kept away from 0
        return gpi1d.GreekParams((4.0 + eps - abs(g.gamma) ** 2) / g.beta, g.beta, g.gamma)
    # edge:c -- det -> 4 and Im gamma -> 0 together, so |c| ~ eps / |beta|
    gamma = complex(g.gamma.real, eps / 4.0)
    return gpi1d.GreekParams((4.0 + eps - abs(gamma) ** 2) / g.beta, g.beta, gamma)


def sweep_couplings(rng: np.random.Generator, n: int) -> list[Coupling]:
    per_edge = max(1, round(n * EDGE_SHARE / len(EDGE_CLASSES)))
    lo, hi = EDGE_LOG_RANGE
    out = []
    for edge in EDGE_CLASSES:
        for j in range(per_edge):
            u = lo + (hi - lo) * (j + rng.uniform()) / per_edge
            eps = (1.0 if rng.uniform() < 0.5 else -1.0) * 10.0 ** float(u)
            g = _edge_greek(rng, edge, eps)
            out.append(Coupling(f"{edge}[{j}]", input_class(g), g))
    while len(out) < n:
        g = _bulk_greek(rng)
        out.append(Coupling(f"bulk[{len(out)}]", input_class(g), g))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def _regime_coupling(rng: np.random.Generator, base, jitter: float) -> Coupling:
    label, alpha, beta, g_re, g_im, seeded = base
    if seeded:
        f = 1.0 + jitter * rng.uniform(-1.0, 1.0, 4)
        alpha, beta, g_re, g_im = (float(v) for v in (alpha * f[0], beta * f[1],
                                                     g_re * f[2], g_im * f[3]))
    greek = gpi1d.GreekParams(alpha, beta, complex(g_re, g_im))
    spec = lattice.LatticeSpec(gpi1d.CouplingScheme.from_greek(greek), ELL)
    return Coupling(label, lattice.classify_regime(spec).value, greek)


def build_inputs(workload: str, seed: int, smoke: bool = False) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = sizes_for(workload, smoke)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if sizes["lattice"] == "regimes":
        lattice_couplings = [_regime_coupling(rng, base, REGIME_JITTER) for base in REGIME_BASES]
        cli_coupling = lattice_couplings[-1]
    else:
        lattice_couplings = [_regime_coupling(rng, PROBE_COUPLING, 0.0)]
        cli_coupling = lattice_couplings[0]

    while True:
        table = gpi1d.GreekParams(float(rng.uniform(-2.0, -1.0)), float(rng.uniform(0.5, 1.5)),
                                  complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
        if abs(table.det - 4.0) > 0.1:
            break
    n_kernel = sizes["kernel_points"]
    # Re k >= 0.1 keeps every point off the imaginary axis, where the poles are
    kernel_points = np.column_stack([
        _signed(rng, n_kernel, 0.05, 3.0), _signed(rng, n_kernel, 0.05, 3.0),
        rng.uniform(0.1, 3.0, n_kernel), rng.uniform(0.05, 3.0, n_kernel)])
    loop = gpi1d.ParameterLoop(a=-float(rng.uniform(1.5, 2.5)), c_mod=float(rng.uniform(0.3, 1.0)),
                               samples=sizes["berry_samples"])

    n = sizes["couplings"]
    couplings = sweep_couplings(rng, n)
    sweep_k = 10.0 ** rng.uniform(-2.0, 2.0, (n, SWEEP_WAVENUMBERS))
    m = n * SWEEP_KERNEL_POINTS
    sweep_points = np.column_stack([
        _signed(rng, m, 0.05, 3.0), _signed(rng, m, 0.05, 3.0),
        rng.uniform(0.1, 3.0, m), rng.uniform(0.05, 3.0, m)]).reshape(n, SWEEP_KERNEL_POINTS, 4)
    return Inputs(sizes, lattice_couplings, cli_coupling, table, kernel_points, loop,
                  couplings, sweep_k, sweep_points)


def _signed(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    return rng.uniform(lo, hi, n) * rng.choice([-1.0, 1.0], n)


def _greek_argv(g: gpi1d.GreekParams) -> list[str]:
    return ["--scheme", "greek", f"--alpha={g.alpha!r}", f"--beta={g.beta!r}",
            f"--gamma-re={g.gamma.real!r}", f"--gamma-im={g.gamma.imag!r}"]


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------

_FORWARD = (("h", "greek_to_halfline", "g"), ("i", "greek_to_inverse", "g"),
            ("t", "greek_to_transfer", "g"))
_BACKWARD = (("h.g", "halfline_to_greek", "h"), ("h.i", "halfline_to_inverse", "h"),
             ("h.t", "halfline_to_transfer", "h"), ("i.g", "inverse_to_greek", "i"),
             ("i.h", "inverse_to_halfline", "i"), ("t.g", "transfer_to_greek", "t"),
             ("t.h", "transfer_to_halfline", "t"))


@dataclass
class ChainResult:
    charts: dict
    scheme: object = None
    points: list = field(default_factory=list)
    amplitudes: list = field(default_factory=list)
    kernel: list = field(default_factory=list)
    asymptotics: object = None
    raised: list = field(default_factory=list)


def _guarded(res: ChainResult, step: str, fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # an op boundary: record the failure and go on
        res.raised.append((step, type(exc).__name__))
        return None


def coupling_chain(g: gpi1d.GreekParams, ks: np.ndarray, pts: np.ndarray) -> ChainResult:
    """Scheme construction, every chart conversion and the scalar spectral calls of one coupling."""
    res = ChainResult(charts={"g": g})
    for key, name, src in _FORWARD + _BACKWARD:
        if src in res.charts:
            try:
                res.charts[key] = getattr(params, name)(res.charts[src])
            except DegenerateParametrization:
                pass  # a chart edge: the expected outcome
            except Exception as exc:
                res.raised.append((name, type(exc).__name__))
    scheme = _guarded(res, "from_greek", params.CouplingScheme.from_greek, g)
    if scheme is None:
        return res
    res.scheme = scheme
    _guarded(res, "classify_symmetries", params.classify_symmetries, scheme)
    _guarded(res, "is_decoupled", params.is_decoupled, scheme)
    res.points = _guarded(res, "point_spectrum", spectral.point_spectrum, scheme) or []
    for k in ks:
        res.amplitudes.append(_guarded(res, "s_matrix", spectral.s_matrix, scheme, float(k)))
    for x, xp, kr, ki in pts:
        res.kernel.append(_guarded(res, "green_kernel", spectral.green_kernel,
                                   scheme, float(x), float(xp), complex(kr, ki)))
    res.asymptotics = _guarded(res, "scattering_asymptotics",
                               spectral.scattering_asymptotics, scheme)
    h = scheme.halfline
    if h is not None:
        _guarded(res, "binding_regime", spectral.binding_regime, h)
    return res


@dataclass
class PassResult:
    wall: float               # whole pass, probes included (traced passes have none)
    times: dict               # op name -> seconds of each run of the op in the pass
    host: dict                # op name -> probe seconds beside each run (empty without probe)
    call_latency: np.ndarray  # seconds per sweep coupling, in input order
    call_host: np.ndarray     # probe seconds beside each coupling's chunk (empty without probe)
    outputs: dict
    output_bytes: int


def band_op(m: int, label: str) -> str:
    return f"bands_m{m}[{label}]"


def run_pass(inp: Inputs, repeat_short: bool = True, probe=None) -> PassResult:
    """The workload's fixed call list, each op timed; outputs are kept for the checks.

    With `repeat_short`, an op shorter than SHORT_OP_S runs again, up to
    SHORT_OP_REPEATS times in all or until SHORT_OP_S have passed; every run
    is a sample.  Traced passes run each op once, so that their call counts
    are those of one pass.  With a `probe` (`hostspeed.Probe`), a probe runs
    between any two timed runs and between chunks of SWEEP_CHUNK sweep
    couplings, and each sample is paired with the mean of the probes on either
    side of it (see `hostspeed`).

    The cyclic garbage collector is off during the pass, as in `timeit`: the
    pass keeps every output for the checks, so a full collection would scan
    that growing heap, and it would land on the same coupling of every pass,
    making the sweep's tail a measure of the harness's heap.
    """
    gc.collect()
    gc.disable()
    try:
        return _run_pass(inp, repeat_short, probe)
    finally:
        gc.enable()


def _run_pass(inp: Inputs, repeat_short: bool, probe) -> PassResult:
    clock = time.perf_counter
    times: dict = {}
    host: dict = {}
    outputs: dict = {}
    last_probe = probe.sample() if probe is not None else None
    t_pass = clock()

    def beside() -> float:
        # mean of the probe before the sample just taken and a new one after it
        nonlocal last_probe
        before, last_probe = last_probe, probe.sample()
        return 0.5 * (before + last_probe)

    def timed(op, fn, *args):
        runs, beside_runs = [], []
        while len(runs) < (SHORT_OP_REPEATS if repeat_short else 1) and (
                not runs or sum(runs) < SHORT_OP_S):
            t0 = clock()
            try:
                out = fn(*args)
            except Exception as exc:  # an op boundary: the checks report it
                out = exc
            runs.append(clock() - t0)
            if probe is not None:
                beside_runs.append(beside())
            if len(runs) == 1:
                outputs[op] = out
        times[op], host[op] = runs, beside_runs

    for c in inp.lattice_couplings:
        spec = lattice.LatticeSpec(params.CouplingScheme.from_greek(c.greek), ELL)
        for m in inp.sizes["m_max"]:
            timed(band_op(m, c.label), lattice.band_structure, spec, m)
    timed("bands_cli", _run_cli, ["bands", *_greek_argv(inp.cli_coupling.greek),
                                  f"--ell={ELL!r}", f"--mmax={inp.sizes['m_max'][0]}",
                                  "--format=json"])
    g = inp.table_coupling
    lo, hi = SCATTER_K_RANGE
    timed("scatter_table", _run_cli, ["scatter", *_greek_argv(g), f"--kmin={lo!r}",
                                      f"--kmax={hi!r}", f"--steps={inp.sizes['scatter_steps']}",
                                      "--format=json"])
    timed("kernel_table", _kernel_table, g, inp.kernel_points)
    timed("berry_loop", berry.berry_phase_discrete, inp.loop)
    timed("riemann_sum", berry.connection_riemann_sum, inp.loop, inp.loop.samples)

    n = len(inp.couplings)
    latency = np.empty(n)
    call_host = np.empty(n if probe is not None else 0)
    chains = []
    for start in range(0, n, SWEEP_CHUNK):
        for j in range(start, min(n, start + SWEEP_CHUNK)):
            c = inp.couplings[j]
            t0 = clock()
            chains.append(coupling_chain(c.greek, inp.sweep_k[j], inp.sweep_points[j]))
            latency[j] = clock() - t0
        if probe is not None:
            call_host[start:start + SWEEP_CHUNK] = beside()
    outputs["chains"] = chains
    wall = clock() - t_pass

    output_bytes = sum(len(outputs[op][1]) for op in ("bands_cli", "scatter_table")
                       if isinstance(outputs[op], tuple))
    return PassResult(wall, times, host, latency, call_host, outputs, output_bytes)


# The benchmark's own code that runs between library calls, traced as the
# `bench` layer so that the layers' self times add up to the pass time.
HARNESS_SPANS = (("coupling_chain", "bench.coupling_chain"), ("_run_cli", "bench.run_cli"),
                 ("_kernel_table", "bench.kernel_table"))


def _kernel_table(g: gpi1d.GreekParams, points: np.ndarray) -> list[complex]:
    scheme = params.CouplingScheme.from_greek(g)
    return [spectral.green_kernel(scheme, x, xp, complex(kr, ki))
            for x, xp, kr, ki in points.tolist()]


# ---------------------------------------------------------------------------
# Checks of one pass's outputs
# ---------------------------------------------------------------------------

def ops_per_pass(inp: Inputs) -> int:
    return len(inp.lattice_couplings) * len(inp.sizes["m_max"]) + 5 + len(inp.couplings)


def check_pass(inp: Inputs, res: PassResult, chk: checks.Checker) -> None:
    """Run every output check of one pass; failures land in `chk`."""
    classes = {band_op(m, c.label): c.input_class
               for c in inp.lattice_couplings for m in inp.sizes["m_max"]}
    classes["bands_cli"] = inp.cli_coupling.input_class
    out = {}
    for op, val in res.outputs.items():
        if isinstance(val, Exception):
            chk.fail(op, f"raised:{type(val).__name__}", classes.get(op, "bulk"))
        elif isinstance(val, tuple) and isinstance(val[0], int) and val[0] != 0:
            chk.fail(op, f"exit:{val[0]}", classes.get(op, "bulk"))
        else:
            out[op] = val

    for c in inp.lattice_couplings:
        spec = lattice.LatticeSpec(params.CouplingScheme.from_greek(c.greek), ELL)
        for m in inp.sizes["m_max"]:
            if band_op(m, c.label) in out:
                _check_bands(band_op(m, c.label), c, spec, m, out[band_op(m, c.label)], chk)
    if "bands_cli" in out:
        _check_bands_cli(inp, out["bands_cli"][1], out.get(
            band_op(inp.sizes["m_max"][0], inp.cli_coupling.label)), chk)
    if "scatter_table" in out:
        _check_scatter(inp, out["scatter_table"][1], chk)

    g = inp.table_coupling
    if "kernel_table" in out:
        h = params.greek_to_halfline(g)
        worst = 0.0
        for (x, xp, kr, ki), v in zip(inp.kernel_points.tolist(), out["kernel_table"]):
            k = complex(kr, ki)
            worst = max(worst, checks.relative_gap(v, spectral.green_kernel_greek(g, x, xp, k)),
                        checks.relative_gap(v, spectral.green_kernel_halfline(h, x, xp, k)))
        chk.measure("kernel_table", "kernel_form", "bulk", worst, checks.KERNEL_FORM_TOL)
    if "berry_loop" in out:
        chk.measure("berry_loop", "berry_phase", "bulk",
                    abs(out["berry_loop"].phase - math.pi), checks.BERRY_PHASE_TOL)
    if "riemann_sum" in out:
        chk.measure("riemann_sum", "riemann_order", "bulk",
                    checks.riemann_lead_gap(out["riemann_sum"], inp.loop.samples),
                    checks.RIEMANN_LEAD_TOL)

    for j, (c, chain) in enumerate(zip(inp.couplings, res.outputs["chains"])):
        _check_chain(f"sweep[{j}]", c, inp.sweep_points[j], chain, chk)


def _check_bands(op, c, spec, m_max, result, chk) -> None:
    bands, _gaps = result
    ms = [b.m for b in bands]
    bad_steps = sum(m1 != m0 + 1 for m0, m1 in zip(ms, ms[1:])) + int(not ms or ms[-1] != m_max)
    chk.measure(op, "band_index", c.input_class, float(bad_steps), 0.0)
    overlaps = sum(b0.e_hi > b1.e_lo for b0, b1 in zip(bands, bands[1:]))
    chk.measure(op, "band_overlap", c.input_class, float(overlaps), 0.0)
    g = c.greek
    edge_res = 0.0
    bloch_res = 0.0
    for b in bands:
        for e in (b.e_lo, b.e_hi):
            if not math.isfinite(e):
                continue
            edge_res = max(edge_res, abs(abs(lattice.trace_at_energy(spec, e)) - 2.0))
            if e > 0:
                k = math.sqrt(e)
                theta = checks.edge_theta(g, lattice.band_condition_rhs(spec, k))
                det = lattice.bloch_determinant(spec, k, theta)
                bloch_res = max(bloch_res, checks.bloch_residual(g, k, det))
    chk.measure(op, "edge_residual", c.input_class, edge_res, checks.EDGE_RESIDUAL_TOL)
    chk.measure(op, "bloch_residual", c.input_class, bloch_res, checks.BLOCH_RESIDUAL_TOL)


def _check_bands_cli(inp, text, direct, chk) -> None:
    c = inp.cli_coupling
    op, cls = "bands_cli", c.input_class
    payload = json.loads(text)
    rows = [r for r in payload["rows"] if r[0] == "band"]
    same = direct is not None and [(r[1], r[2], r[3]) for r in rows] == [
        (b.m, b.e_lo, b.e_hi) for b in direct[0]]
    chk.measure(op, "cli_matches_library", cls, 0.0 if same else 1.0, 0.0)
    spec = lattice.LatticeSpec(params.CouplingScheme.from_greek(c.greek), ELL)
    summary = payload["summary"]
    ok = (summary.get("regime") == lattice.classify_regime(spec).value
          and math.isfinite(summary.get("relative_error", math.nan)))
    chk.measure(op, "regime_report", cls, 0.0 if ok else 1.0, 0.0)


def _check_scatter(inp, text, chk) -> None:
    rows = json.loads(text)["rows"]
    chk.measure("scatter_table", "row_count", "bulk",
                float(abs(len(rows) - inp.sizes["scatter_steps"])), 0.0)
    worst = 0.0
    for _k, r_re, r_im, t_re, t_im, unit in rows:
        worst = max(worst, abs(unit - 1.0),
                    checks.unitarity_defect(complex(r_re, r_im), complex(t_re, t_im)))
    chk.measure("scatter_table", "unitarity", "bulk", worst, checks.UNITARITY_TOL)


def _check_chain(op, c, pts, chain: ChainResult, chk) -> None:
    cls = c.input_class
    for step, exc_name in chain.raised:
        chk.fail(op, f"raised:{step}:{exc_name}", cls)
    ch = chain.charts
    gap = 0.0
    for route, direct in (("h.g", "g"), ("i.g", "g"), ("t.g", "g"), ("i.h", "h"),
                          ("t.h", "h"), ("h.i", "i"), ("h.t", "t")):
        if route in ch and direct in ch:
            gap = max(gap, checks.record_gap(ch[route], ch[direct]))
    chk.measure(op, "round_trip", cls, gap, checks.ROUND_TRIP_TOL)
    unit = max([checks.unitarity_defect(a.r, a.t) for a in chain.amplitudes if a is not None]
               + [0.0])
    asym = chain.asymptotics
    if asym is not None:
        unit = max(unit, checks.unitarity_defect(asym.low.r_limit, asym.low.t_limit),
                   checks.unitarity_defect(asym.high.r_limit, asym.high.t_limit))
    chk.measure(op, "unitarity", cls, unit, checks.UNITARITY_TOL)
    scheme = chain.scheme
    if scheme is None or scheme.is_separated:
        return
    g = scheme.greek
    h = ch.get("h")
    kgap = 0.0
    for (x, xp, kr, ki), v in zip(pts.tolist(), chain.kernel):
        if v is None:
            continue
        k = complex(kr, ki)
        try:
            kgap = max(kgap, checks.relative_gap(v, spectral.green_kernel_greek(g, x, xp, k)))
            if h is not None:
                kgap = max(kgap, checks.relative_gap(
                    v, spectral.green_kernel_halfline(h, x, xp, k)))
        except GpiError as exc:
            chk.fail(op, f"kernel_oracle_raised:{type(exc).__name__}", cls)
    chk.measure(op, "kernel_form", cls, kgap, checks.KERNEL_FORM_TOL)
    chk.measure(op, "root_error", cls, checks.root_error(g, [p.kappa for p in chain.points]),
                checks.ROOT_TOL)


def digest(res: PassResult) -> str:
    """Text that identifies a pass's outputs; equal digests mean equal check results."""
    out = []
    for op, val in res.outputs.items():
        if op == "chains":
            for chain in val:
                out.extend(p.kappa for p in chain.points)
                out.extend(a.r for a in chain.amplitudes if a is not None)
                out.extend(v for v in chain.kernel if v is not None)
                out.append((tuple(chain.raised), tuple(sorted(chain.charts))))
        elif isinstance(val, tuple) and len(val) == 2 and isinstance(val[0], list):
            out.extend((b.m, b.e_lo, b.e_hi) for b in val[0])   # band_structure
        elif isinstance(val, gpi1d.PhaseResult):
            out.append(val.phase)
        else:  # CLI (exit code, text), kernel table, Riemann sum, exceptions
            out.append(val)
    return repr(out)
