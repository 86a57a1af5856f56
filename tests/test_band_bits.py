"""The band solve's outputs, pinned bit for bit.

`band_structure` on a seeded set of lattices, at m_max in {1, 2, 5, 60, 200},
is written out as `float.hex` edges, the gaps' `closed` flags and any refusal,
and compared with `band_bits.json`.  The set covers one coupling per
high-energy regime and per coupling kind (beta != 0 with gamma = 0 or
complex, beta = 0 with gamma = 0 or Re gamma != 0), bound-state bands on wide
cells, cells of width 1e-4 whose edge brackets are wide in z, an exactly
closed gap, the free coupling and random couplings on cells from ell = 1e-2
to 10^2.5.  A rewrite of the solver must reproduce every bit.

At m_max = 1e4, on the benchmark's four regime couplings at ell = 1, the
edges are pinned by the sha256 of their float64 bytes, with the indices of
the closed gaps.  The regime fit, `asymptotic_regime`, is pinned at the fit
windows (1, 6) and (39, 59), by the sha256 of its report written out with
`float.hex`, on every lattice above, on the regime couplings not among them
and on one delta-like lattice whose anchor offsets turn on the last bit of
a square.

The trace and the Pruefer phase go through numpy's `sin`, `cos`, `tanh`,
`exp` and `arctan2`, whose SIMD loops are chosen per CPU at import and may
round differently on another CPU or numpy version, so the test skips where
the numpy version, the machine or the enabled dispatch targets differ from
those recorded.  To record the file again, run this file as a script with
the implementation to record on the path:

    PYTHONPATH=src python tests/test_band_bits.py
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from gpi1d import (CouplingScheme, GpiError, GreekParams, LatticeSpec, asymptotic_regime,
                   band_structure)

FIXTURE = Path(__file__).with_name("band_bits.json")
M_MAX = (1, 2, 5, 60, 200)
M_MAX_LARGE = 10_000
FIT_WINDOWS = ((1, 6), (39, 59))

# label: ((alpha, beta, gamma), ell)
NAMED = {
    "delta_prime": ((0.0, 1.0, 0.0), 1.0),
    "delta": ((-2.0, 0.0, 0.0), 1.0),
    "generic": ((-1.0, 0.5, 0.3 + 0.4j), 1.0),
    "intermediate": ((-1.0, 0.0, 0.5 + 0.3j), 1.0),
    "delta_repulsive": ((3.0, 0.0, 0.0), 0.7),
    "bound_bands": ((-22.95, -0.2334, -0.891 - 0.667j), 47.63),
    "bound_bands_wide": ((-2.3, -0.7, 0.2 - 0.9j), 80.0),
    "narrow_delta": ((6.374638238166747, 0.0, -1.410102540438015j), 1.656958599666053e-4),
    "narrow_delta_prime": ((4.363699631480355, -1.1158415309265318e-05, -0.3460478967885976j),
                           5.292428886414487e-4),
    "closed_gap": ((-1.0, 1.0, 0.0), 8.497482742767767),
    "free": ((0.0, 0.0, 0.0), 1.0),
}


def _seeded(count: int = 12, seed: int = 2027) -> dict:
    # the four coupling kinds in turn, on cells from ell = 1e-2 to 10^2.5
    rng = np.random.default_rng(seed)
    out = {}
    while len(out) < count:
        kind = len(out) % 4
        alpha = float(rng.uniform(-5.0, 5.0))
        beta = float(rng.uniform(-3.0, 3.0)) if kind in (0, 2) else 0.0
        gamma = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if kind < 2:
            gamma = 0j
        ell = float(10.0 ** rng.uniform(-2.0, 2.5))
        g = GreekParams(alpha, beta, gamma)
        if abs(g.det - 4.0) < 1e-2 and abs(gamma.imag) < 1e-2:  # near decoupled
            continue
        out[f"seeded{len(out)}"] = ((alpha, beta, gamma), ell)
    return out


CASES = {**NAMED, **_seeded()}

# the benchmark's lattice couplings, one per high-energy regime, without
# their seeded jitter (REGIME_BASES in bench/workloads.py); the fit pins
# take those not among CASES
REGIMES = {
    "delta_prime": ((0.0, 1.0, 0.0), 1.0),
    "delta": ((-2.0, 0.0, 0.0), 1.0),
    "intermediate": ((1.0, 0.0, 1.0 + 0.0j), 1.0),
    "generic": ((-1.0, 0.5, 0.3 + 0.4j), 1.0),
}
REPORT_CASES = {**CASES, **{f"regime_{label}": case for label, case in REGIMES.items()
                             if case not in CASES.values()},
                # gap 50 ends on (50 pi / ell)^2, a square that libm's pow
                # rounds one bit away from x * x
                "delta_anchor": ((-2.0, 0.0, 0.0), 1.025)}


def _host() -> dict:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {"numpy": np.__version__, "machine": platform.machine(),
            "dispatch": [t for t in getattr(umath, "__cpu_dispatch__", ())
                         if umath.__cpu_features__.get(t)]}


def snapshot(greek: tuple, ell: float, m_max: int) -> dict | str:
    """The edges, as `float.hex`, and the closed flags of one solve, or its refusal."""
    spec = LatticeSpec(CouplingScheme.from_greek(GreekParams(*greek)), ell)
    try:
        bands, gaps = band_structure(spec, m_max)
    except (GpiError, ValueError) as exc:  # the refusal is part of the output
        return f"raise {type(exc).__name__}: {exc}"
    # the records' structure, which the recorded text leaves out
    assert [b.m for b in bands] == list(range(1, len(bands) + 1))
    assert [gp.m for gp in gaps] == list(range(1, len(gaps) + 1))
    assert all(gp.e_lo.hex() == lo.e_hi.hex() and gp.e_hi.hex() == hi.e_lo.hex()
               for gp, lo, hi in zip(gaps, bands, bands[1:]))
    return {"edges": " ".join(f"{b.e_lo.hex()} {b.e_hi.hex()}" for b in bands),
            "closed": "".join("1" if gp.closed else "0" for gp in gaps)}


def _spec(greek: tuple, ell: float) -> LatticeSpec:
    return LatticeSpec(CouplingScheme.from_greek(GreekParams(*greek)), ell)


def large_digest(greek: tuple, ell: float) -> dict:
    """The sha256 of the edges' float64 bytes at m_max = 1e4, and the closed gaps."""
    bands, gaps = band_structure(_spec(greek, ell), M_MAX_LARGE)
    assert len(bands) == M_MAX_LARGE and len(gaps) == M_MAX_LARGE - 1
    edges = np.array([(b.e_lo, b.e_hi) for b in bands], dtype=np.float64)
    return {"edges_sha256": hashlib.sha256(edges.tobytes()).hexdigest(),
            "closed": [gp.m for gp in gaps if gp.closed]}


def _exact(value):
    # the report's values as text that keeps every bit and every type
    if type(value) is float:
        return value.hex()
    if type(value) in (int, bool, str) or value is None:
        return value
    if type(value) is list:
        return [_exact(v) for v in value]
    if type(value) is dict:
        return {k: _exact(v) for k, v in value.items()}
    raise TypeError(f"unexpected {type(value).__name__} in a regime report")


def report_digest(greek: tuple, ell: float, m_range: tuple[int, int]) -> str:
    """The sha256 of one regime report, written out exactly, or its refusal."""
    try:
        rep = asymptotic_regime(_spec(greek, ell), m_range)
    except (GpiError, ValueError) as exc:
        return f"raise {type(exc).__name__}: {exc}"
    text = json.dumps([rep.regime.value, _exact(rep.predicted), _exact(rep.measured),
                       _exact(rep.relative_error), _exact(rep.details)])
    return hashlib.sha256(text.encode()).hexdigest()


def _record() -> dict:
    return {"host": _host(),
            "cases": {label: {str(m): snapshot(*case, m) for m in M_MAX}
                      for label, case in CASES.items()},
            "large": {label: large_digest(*case) for label, case in REGIMES.items()},
            "reports": {label: {f"{lo}:{hi}": report_digest(*case, (lo, hi))
                                for lo, hi in FIT_WINDOWS}
                        for label, case in REPORT_CASES.items()}}


def _recorded(part: str = "cases") -> dict:
    recorded = json.loads(FIXTURE.read_text())
    host = _host()
    for key, value in recorded["host"].items():
        if host[key] != value:
            pytest.skip(f"recorded with {key} {value}, running with {host[key]}:"
                        " numpy's SIMD loops may round differently")
    return recorded[part]


@pytest.mark.parametrize("label", list(CASES))
def test_band_structure_keeps_its_bits(label):
    want = _recorded()[label]
    assert list(want) == [str(m) for m in M_MAX]
    for m_max in M_MAX:
        got = snapshot(*CASES[label], m_max)
        assert got == want[str(m_max)], (label, m_max)


@pytest.mark.parametrize("label", list(REGIMES))
def test_band_structure_keeps_its_bits_at_m_max_1e4(label):
    want = _recorded("large")[label]
    assert large_digest(*REGIMES[label]) == want, label


@pytest.mark.parametrize("label", list(REPORT_CASES))
def test_asymptotic_regime_keeps_its_bits(label):
    want = _recorded("reports")[label]
    assert list(want) == [f"{lo}:{hi}" for lo, hi in FIT_WINDOWS]
    for lo, hi in FIT_WINDOWS:
        assert report_digest(*REPORT_CASES[label], (lo, hi)) == want[f"{lo}:{hi}"], (label, lo, hi)


def test_the_pinned_lattices_reach_every_case():
    recorded = json.loads(FIXTURE.read_text())["cases"]
    assert list(recorded) == list(CASES)
    # every solve came back, narrow cells and m_max = 200 included
    assert all(isinstance(v, dict) for case in recorded.values() for v in case.values())
    assert recorded["closed_gap"]["5"]["closed"] == "0010"
    assert recorded["free"]["200"] == {"edges": "0x0.0p+0 inf", "closed": ""}
    # bound-state bands: edges below zero
    assert recorded["bound_bands"]["5"]["edges"].startswith("-")
    fixture = json.loads(FIXTURE.read_text())
    assert list(fixture["large"]) == list(REGIMES)
    assert list(fixture["reports"]) == list(REPORT_CASES)
    # every fit came back but the free coupling's, which has one band
    assert [label for label, fits in fixture["reports"].items()
            if any(d.startswith("raise") for d in fits.values())] == ["free"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_record(), indent=1) + "\n")
