"""gpi1d benchmark: end-to-end and per-layer timings on two workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload bands --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55 --trace 1
    python3 bench/run.py --workload tables --seed 1 --seconds 1 --trace 0 --smoke

`--trace 0` measures the end-to-end metrics without tracing.  `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics, the
tracing overhead (traced minus untraced pass time) and the traced pass time
no span covers.  `--smoke` shrinks every size so that a run takes seconds;
the benchmark's tests use it.  Every metric is printed by name and unit on a
`#` line, with the versions, thread settings, seed and sizes; the last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.

The benchmark imports gpi1d from `src/` of the checkout, runs in one process
and pins BLAS threads to 1.  It repeats passes over the workload's fixed call
list until `--seconds` have passed and reports each op at its median time
over the run (see `metrics.typical_times`); `setup_s` is the median time of
several fresh interpreters that import gpi1d and build the workload's inputs,
interleaved with the passes.  Every end-to-end time is put at a nominal host
speed by the reference probes run beside each sample (see `hostspeed`); the
raw medians are printed on the `#` lines.  `attempted` and `failed` count the
ops of one pass: every pass makes the same calls, and a pass whose outputs
differ from the first pass's counts as one more failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_STARTS = 7          # fresh interpreters timed per run for setup_s ...
SETUPS_PER_ROUND = 2      # ... at most this many before each pass
IMPORT_PROBES = 2         # `python -X importtime` runs per traced run
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _parse_args(argv):
    p = argparse.ArgumentParser(description="gpi1d benchmark")
    p.add_argument("--workload", required=True, choices=("bands", "tables", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _timed_child(cmd: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"child {cmd[1:3]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return elapsed, proc.stderr


def _setup_start(args, workload: str, probe) -> tuple[float, float]:
    """Seconds of one fresh interpreter's set-up, and the mean probe time beside it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"] + (["--smoke"] if args.smoke else [])
    before = probe.sample()
    took = _timed_child(cmd)[0]
    return took, 0.5 * (before + probe.sample())


def _import_times(metrics) -> dict:
    _, err = _timed_child([sys.executable, "-X", "importtime", "-c", "import gpi1d"])
    return metrics.parse_importtime(err)


def run_workload(args, workload, bench) -> dict:
    """Measure one workload; returns the result record (metrics, counts, failures)."""
    workloads, metrics = bench.workloads, bench.metrics
    inp = workloads.build_inputs(workload, args.seed, args.smoke)
    workloads.run_pass(workloads.build_inputs(workload, args.seed, smoke=True))  # warm-up
    min_setups = 1 if args.smoke else SETUP_STARTS

    chk = bench.checks.Checker()
    probe = bench.hostspeed.Probe()
    tracer = bench.tracing.Tracer()
    harness = [(workloads, attr, name) for attr, name in workloads.HARNESS_SPANS]
    passes, traced, setups, figures = [], [], [], []
    reference = None
    nondeterministic = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        t_round = time.perf_counter()
        for _ in range(SETUPS_PER_ROUND):
            if not args.trace and len(setups) < min_setups:
                setups.append(_setup_start(args, workload, probe))
        for traced_run in ((False, True) if args.trace else (False,)):
            if traced_run:
                tracer.reset()
                tracer.install(harness)
                try:
                    res = workloads.run_pass(inp, repeat_short=False)
                finally:
                    tracer.uninstall()
                figures.append(metrics.layer_figures(bench.tracing.summarize(tracer), res))
                tracer.reset()
                traced.append(res)
            else:
                res = workloads.run_pass(inp, probe=probe)
                passes.append(res)
            digest = workloads.digest(res)
            if reference is None:
                reference = digest
                workloads.check_pass(inp, res, chk)
            elif digest != reference:
                nondeterministic += 1
            res.outputs = None
        # stop when another round would end past the deadline
        now = time.perf_counter()
        if now + (now - t_round) > deadline and len(setups) >= (0 if args.trace else min_setups):
            break

    attempted = workloads.ops_per_pass(inp)
    failed = min(attempted, len({f.op for f in chk.failures}) + nondeterministic)
    raw: dict = {}
    if args.trace:
        imports = [_import_times(metrics) for _ in range(1 if args.smoke else IMPORT_PROBES)]
        values = metrics.per_layer_metrics(passes, traced, figures, imports, chk)
        units = metrics.PER_LAYER
    else:
        values, raw = (metrics.end_to_end_metrics(workloads.band_op, inp, passes, setups,
                                                  failed, attempted, scaled)
                       for scaled in (True, False))
        units = metrics.END_TO_END
    return {
        "workload": workload, "inputs": inp, "metrics": values, "units": units,
        "attempted": attempted, "failed": failed, "nondeterministic": nondeterministic,
        "correct": all(f.known for f in chk.failures) and nondeterministic == 0,
        "failures": chk.failures, "passes": len(passes), "traced_passes": len(traced),
        "setup_starts": len(setups), "raw": raw,
        "probe": None if args.trace else (min(probe.times), statistics.median(probe.times),
                                          len(probe.times)),
    }


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "machine": platform.machine()}


def _report(rec: dict, args, checks, hostspeed) -> None:
    inp = rec["inputs"]
    sizes = dict(inp.sizes)
    sizes["lattice_couplings"] = [c.label for c in inp.lattice_couplings]
    print(f"# workload {rec['workload']} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}{' smoke' if args.smoke else ''}")
    print(f"# sizes {json.dumps(sizes)}")
    print(f"# passes {rec['passes']} traced {rec['traced_passes']} "
          f"setup_starts {rec['setup_starts']} attempted {rec['attempted']} "
          f"failed {rec['failed']} nondeterministic {rec['nondeterministic']} "
          f"correct {rec['correct']}")
    causes: dict = {}
    for f in rec["failures"]:
        n, worst = causes.get((f.input_class, f.check), (0, f.value))
        causes[(f.input_class, f.check)] = (n + 1, max(worst, f.value))
    for (cls, check), (n, worst) in sorted(causes.items()):
        why = checks.KNOWN_DEFECTS.get((cls, check), "NOT A KNOWN DEFECT")
        print(f"# failing check {check} on {cls}: {n} per pass, worst {worst:.3g} ({why})")
    if rec["probe"]:
        fastest, median, n = rec["probe"]
        print(f"# host-speed probes: {n}, fastest {fastest * 1e3:.4g} ms, median "
              f"{median * 1e3:.4g} ms, nominal {hostspeed.NOMINAL_PROBE_S * 1e3:.4g} ms; "
              f"times are at the nominal speed (raw medians in brackets)")
    for name, value in rec["metrics"].items():
        raw = f" [{rec['raw'][name]:.6g}]" if name in rec["raw"] else ""
        print(f"# {name:36s} {value:.6g} {rec['units'][name]}{raw}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported, here and in every child
        os.environ[var] = "1"
    if not (SRC / "gpi1d" / "__init__.py").is_file():
        print(f"error: no gpi1d package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import checks
        import hostspeed
        import metrics
        import tracing
        import workloads
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.setup_probe:
        workloads.build_inputs(args.workload, args.seed, args.smoke)
        return 0
    bench = argparse.Namespace(checks=checks, hostspeed=hostspeed, metrics=metrics,
                               tracing=tracing, workloads=workloads)
    print(f"# env {json.dumps(_versions())}")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            rec = run_workload(args, name, bench)
            _report(rec, args, checks, hostspeed)
            records.append(rec)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prefix = len(records) > 1
    out = {}
    for rec in records:
        for name, value in rec["metrics"].items():
            out[f"{rec['workload']}/{name}" if prefix else name] = {
                "value": value, "unit": rec["units"][name]}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
