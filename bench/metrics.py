"""Reductions of measured passes and spans to the benchmark's metrics."""

from __future__ import annotations

import re
import statistics

import numpy as np

import hostspeed

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "fail_frac": "ratio",
    "bands_m60_s": "s", "bands_m200_s": "s", "bands_cli_s": "s",
    "scatter_table_s": "s", "kernel_table_s": "s", "berry_loop_s": "s",
    "call_p50_us": "us", "call_tail_us": "us",
}
PER_LAYER = {
    "import.total_s": "s", "import.scipy_s": "s", "import.numpy_s": "s",
    "params.calls": "count", "params.self_s": "s", "params.greek_to_halfline.calls": "count",
    "params.round_trip_gap_max": "rel",
    "spectral.calls": "count", "spectral.self_s": "s",
    "spectral.s_matrix.p50_us": "us", "spectral.green_kernel.p50_us": "us",
    "spectral.point_spectrum.p50_us": "us",
    "spectral.unitarity_defect_max": "rel", "spectral.kernel_form_gap_max": "rel",
    "spectral.root_error_max": "rel",
    "berry.self_s": "s", "berry.overlap.calls": "count", "berry.eigenstate_at.calls": "count",
    "berry.phase_err": "rad",
    "lattice.self_s": "s", "lattice.band_structure.calls": "count",
    "lattice.band_structure.self_s": "s", "lattice.trace_at_energy.calls": "count",
    "lattice.scheme_to_transfer.calls": "count", "lattice.scheme_to_transfer.self_s": "s",
    "lattice.scheme_to_transfer.total_s": "s", "lattice.point_spectrum.calls": "count",
    "lattice.edge_residual_max": "rel", "lattice.bloch_det_residual_max": "rel",
    "cli.main.self_s": "s", "cli.output_bytes": "bytes", "bench.self_s": "s",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
}


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(text: str) -> dict:
    """Seconds for `import gpi1d` in total and for the numpy and scipy modules it pulls in.

    `text` is the stderr of `python -X importtime -c "import gpi1d"`.  numpy
    and scipy count the cumulative time of their outermost entries, so modules
    they import themselves are included; a numpy module first imported by
    scipy counts for scipy.
    """
    entries = []
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2)) * 1e-6))
    out = {"total": 0.0, "numpy": 0.0, "scipy": 0.0}
    # importtime prints children before their parent; walk backwards with a stack
    stack: list[tuple[int, str]] = []
    for depth, name, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".", 1)[0]
        if name == "gpi1d":
            out["total"] = cum
        if top in ("numpy", "scipy") and not any(s[1] in ("numpy", "scipy") for s in stack):
            out[top] += cum
        stack.append((depth, top))
    return out


def _median(values) -> float:
    return float(statistics.median(values))


def typical_times(passes, scaled: bool) -> tuple[dict, np.ndarray]:
    """Each op's median time over its samples in the passes, and each sweep coupling's.

    With `scaled`, every sample is first put at the nominal host speed by the
    probes beside it (`hostspeed.at_nominal_speed`); without, the raw seconds
    are used.  A coupling has one sample per pass.
    """
    def norm(seconds, probes):
        return hostspeed.at_nominal_speed(np.asarray(seconds), np.asarray(probes)) \
            if scaled else np.asarray(seconds)

    ops = {}
    for op in passes[0].times:
        samples = np.concatenate([norm(p.times[op], p.host[op]) for p in passes])
        ops[op] = float(np.median(samples))
    latency = np.median([norm(p.call_latency, p.call_host) for p in passes], axis=0)
    return ops, latency


def pass_time(passes, scaled: bool = False) -> float:
    """Time of one pass, each op and coupling counted at its median time."""
    ops, latency = typical_times(passes, scaled)
    return sum(ops.values()) + float(latency.sum())


def end_to_end_metrics(band_op, inp, passes, setups, failed, attempted, scaled) -> dict:
    """The end-to-end metrics, at the nominal host speed if `scaled` (see `hostspeed`).

    `setups` holds (seconds, probe seconds beside them) per fresh interpreter.
    """
    ops, latency = typical_times(passes, scaled)
    m_lo, m_hi = inp.sizes["m_max"]

    def band_sum(m):
        return sum(ops[band_op(m, c.label)] for c in inp.lattice_couplings)

    setup = [hostspeed.at_nominal_speed(t, h) if scaled else t for t, h in setups]
    ranked = np.sort(latency)
    return {
        "setup_s": _median(setup),
        "wall_s": pass_time(passes, scaled),
        "fail_frac": failed / attempted,
        "bands_m60_s": band_sum(m_lo),
        "bands_m200_s": band_sum(m_hi),
        "bands_cli_s": ops["bands_cli"],
        "scatter_table_s": ops["scatter_table"],
        "kernel_table_s": ops["kernel_table"],
        "berry_loop_s": ops["berry_loop"],
        "call_p50_us": float(np.median(ranked)) * 1e6,
        # the highest order statistic with at least ten couplings above it
        "call_tail_us": float(ranked[max(0, len(ranked) - 11)]) * 1e6,
    }


def layer_figures(summary: dict, traced_pass) -> dict:
    """Per-layer figures of one traced pass (`tracing.summarize` output)."""
    per_name, per_layer = summary["per_name"], summary["per_layer"]

    def nested(name):
        return per_name[name]["nested_calls"] if name in per_name else 0

    def p50_us(name):
        d = per_name.get(name, {}).get("durations")
        return float(statistics.median(d)) * 1e6 if d is not None and len(d) else 0.0

    def under_lattice(name, what):
        rec = per_name.get(name)
        if rec is None:
            return 0.0
        sel = rec["parent_layer"] == "lattice"
        if what == "calls":
            return float(sel.sum())
        if what == "self":
            return float(rec["self"][sel].sum())
        return float(rec["durations"][sel].sum())

    return {
        "params.calls": per_layer["params"]["nested_calls"],
        "params.self_s": per_layer["params"]["self_s"],
        "params.greek_to_halfline.calls": nested("params.greek_to_halfline"),
        "spectral.calls": per_layer["spectral"]["nested_calls"],
        "spectral.self_s": per_layer["spectral"]["self_s"],
        "spectral.s_matrix.p50_us": p50_us("spectral.s_matrix"),
        "spectral.green_kernel.p50_us": p50_us("spectral.green_kernel"),
        "spectral.point_spectrum.p50_us": p50_us("spectral.point_spectrum"),
        "berry.self_s": per_layer["berry"]["self_s"],
        "berry.overlap.calls": nested("berry.overlap"),
        "berry.eigenstate_at.calls": nested("berry.eigenstate_at"),
        "lattice.self_s": per_layer["lattice"]["self_s"],
        "lattice.band_structure.calls": nested("lattice.band_structure"),
        "lattice.band_structure.self_s":
            per_name.get("lattice.band_structure", {}).get("self_s", 0.0),
        "lattice.trace_at_energy.calls": nested("lattice.trace_at_energy"),
        "lattice.scheme_to_transfer.calls": under_lattice("params.scheme_to_transfer", "calls"),
        "lattice.scheme_to_transfer.self_s": under_lattice("params.scheme_to_transfer", "self"),
        "lattice.scheme_to_transfer.total_s": under_lattice("params.scheme_to_transfer", "total"),
        "lattice.point_spectrum.calls": under_lattice("spectral.point_spectrum", "calls"),
        "cli.main.self_s": per_name.get("cli.main", {}).get("self_s", 0.0),
        "bench.self_s": per_layer["bench"]["self_s"],
        "trace.unattributed_s": traced_pass.wall - summary["self_sum_s"],
    }


def per_layer_metrics(passes, traced, figures, imports, chk) -> dict:
    out = {
        "import.total_s": _median([i["total"] for i in imports]),
        "import.scipy_s": _median([i["scipy"] for i in imports]),
        "import.numpy_s": _median([i["numpy"] for i in imports]),
    }
    for key in figures[0]:
        out[key] = _median([f[key] for f in figures])
    w = chk.worst
    out.update({
        "params.round_trip_gap_max": w["round_trip"],
        "spectral.unitarity_defect_max": w["unitarity"],
        "spectral.kernel_form_gap_max": w["kernel_form"],
        "spectral.root_error_max": w["root_error"],
        "berry.phase_err": w["berry_phase"],
        "lattice.edge_residual_max": w["edge_residual"],
        "lattice.bloch_det_residual_max": w["bloch_residual"],
        "cli.output_bytes": float(passes[0].output_bytes),
        "trace.overhead_s": pass_time(traced) - pass_time(passes),
    })
    return {k: out[k] for k in PER_LAYER}
