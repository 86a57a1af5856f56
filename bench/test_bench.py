"""Tests of the benchmark itself; run with `python3 -m pytest bench -q`.

The smoke runs use `--smoke`, which shrinks every size, and check that each
workload emits exactly the metrics that BENCHMARK.json names, with their units.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable if c == "python3" else c for c in BENCH["command"]]
    return subprocess.run(cmd + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    if trace:
        # the gpi1d bands task calls band_structure twice: once itself, once for the fit
        assert result["metrics"]["lattice.band_structure.calls"]["value"] == 2


def test_counts_do_not_depend_on_run_length():
    # attempted and failed count one pass, so a longer run reports the same counts
    counts = []
    for seconds in ("0.2", "3"):
        proc = _run(ROOT, "--workload", WORKLOADS[0], "--seed", "4", "--seconds", seconds,
                    "--trace", "0", "--smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.append((result["attempted"], result["failed"]))
    assert counts[0] == counts[1]


def test_times_are_put_at_the_nominal_host_speed():
    import hostspeed

    nominal = hostspeed.NOMINAL_PROBE_S
    assert hostspeed.at_nominal_speed(0.3, nominal) == pytest.approx(0.3)
    # a sample taken while the probes ran twice as slow counts half
    assert hostspeed.at_nominal_speed(0.3, 2.0 * nominal) == pytest.approx(0.15)
    probe = hostspeed.Probe()
    took = probe.sample()
    assert probe.times == [took] and took > 0.0


def test_inputs_follow_the_seed():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    def fingerprint(seed):
        inp = workloads.build_inputs("tables", seed, smoke=True)
        return (repr([c.greek for c in inp.couplings]), inp.sweep_k.tobytes(),
                inp.kernel_points.tobytes(), repr(inp.loop), repr(inp.table_coupling))

    assert fingerprint(5) == fingerprint(5)
    assert fingerprint(5) != fingerprint(6)


def test_beta_edge_defect_is_counted_as_known():
    # at beta = 1e-10 the S-matrix is unitary only to ~1e-10 (tolerance 1e-12)
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import gpi1d
    import numpy as np
    import workloads

    c = workloads.Coupling("edge", "edge:beta", gpi1d.GreekParams(-1.3, 1e-10, 0.4 + 0.2j))
    ks = np.array([0.3, 1.7, 9.0])
    pts = np.array([[0.7, -1.1, 0.8, 0.4], [1.3, 0.5, 2.0, 0.3]])
    chk = checks.Checker()
    workloads._check_chain("sweep[0]", c, pts, workloads.coupling_chain(c.greek, ks, pts), chk)
    failed = {f.check for f in chk.failures}
    assert "unitarity" in failed
    assert all(f.known for f in chk.failures)

    bulk = workloads.Coupling("bulk", "bulk", gpi1d.GreekParams(-1.3, 0.7, 0.4 + 0.2j))
    chk = checks.Checker()
    chain = workloads.coupling_chain(bulk.greek, ks, pts)
    workloads._check_chain("sweep[1]", bulk, pts, chain, chk)
    assert chk.failures == []


def test_tracer_restores_the_library():
    sys.path.insert(0, str(ROOT / "src"))
    import gpi1d
    import tracing
    from gpi1d import cli, lattice, params

    before = (lattice.scheme_to_transfer, cli.greek_to_halfline, gpi1d.s_matrix,
              params.CouplingScheme.__dict__["from_greek"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lattice.scheme_to_transfer is not before[0]
        assert cli.greek_to_halfline is not before[1]
        scheme = gpi1d.CouplingScheme.from_greek(gpi1d.GreekParams(-1.0, 0.5, 0.3j))
        gpi1d.s_matrix(scheme, 1.0)
    finally:
        tracer.uninstall()
    after = (lattice.scheme_to_transfer, cli.greek_to_halfline, gpi1d.s_matrix,
             params.CouplingScheme.__dict__["from_greek"])
    assert all(a is b for a, b in zip(before, after))
    summary = tracing.summarize(tracer)
    assert summary["per_name"]["params.CouplingScheme.from_greek"]["calls"] == 1
    assert summary["per_name"]["spectral.s_matrix"]["calls"] == 1
    # s_matrix reads scheme.halfline, which converts through greek_to_halfline
    assert summary["per_name"]["params.greek_to_halfline"]["nested_calls"] >= 1


def test_parse_importtime():
    import metrics

    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        20 |         20 |         numpy.linalg",
        "import time:        30 |         50 |       scipy._lib",
        "import time:        10 |         60 |     scipy.optimize",
        "import time:         5 |        215 |   gpi1d.lattice",
        "import time:         1 |        216 | gpi1d",
    ])
    assert metrics.parse_importtime(text) == pytest.approx(
        {"total": 216e-6, "numpy": 150e-6, "scipy": 60e-6})


def test_fails_without_the_library():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-bare-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
