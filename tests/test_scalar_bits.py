"""The scalar call path's outputs, pinned bit for bit.

Every chart conversion, the scheme construction, the symmetry flags, the
point spectrum, the S-matrix, the resolvent kernel in its four forms, the
kernel residue at each root, the kernel at each bound-state pole, the
scattering asymptotics and the binding regime of a few couplings at and near
the chart edges are written as `float.hex` strings and compared with
`scalar_bits.json`.  The file holds the outputs of the straightforward
implementation that the scalar fast paths replaced, so a rewrite of those
paths must reproduce its bits, its refusals and its messages exactly.  That
includes the beta-edge S-matrix, whose digits the halfline route loses.
`snapshot` is the one list of scalar calls: the numpy-free check in
`test_cli.py` runs it on every pinned coupling.

`cmath.exp` and `abs(complex)` come from the C library, and another platform
may round them differently, so the file records the host facts its values
depend on (the machine, the Python implementation and the C library) and the
test skips, naming the first fact that differs, where this host has another.
To record the file again, run this file as a script with the implementation
to record on the path:

    PYTHONPATH=src python tests/test_scalar_bits.py
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import pytest

from conftest import bits, host, outcome, skip_off_host
from gpi1d import (CouplingScheme, GreekParams, PointKind, classify_symmetries, green_kernel,
                   green_kernel_dx, green_kernel_greek, green_kernel_halfline, is_decoupled,
                   kernel_residue, params, point_spectrum, s_matrix, scattering_asymptotics)
from gpi1d.spectral import binding_regime

FIXTURE = Path(__file__).with_name("scalar_bits.json")

# (alpha, beta, gamma): the bulk, the delta family, the chart edges, a quasifree
# coupling and three separated pairs
COUPLINGS = {
    "bulk": (-1.3, 0.7, 0.4 + 0.2j),
    "beta=0": (-1.5, 0.0, 0.3 + 0.4j),
    "beta=1e-10": (-1.3, 1e-10, 0.4 + 0.2j),
    "alpha=1e-12": (1e-12, 0.8, -0.5 + 0.6j),
    "det=4+1e-9": ((4.0 + 1e-9 - abs(0.3 + 0.7j) ** 2) / 0.9, 0.9, 0.3 + 0.7j),
    "c->0": ((4.0 + 1e-9 - abs(0.6 + 2.5e-10j) ** 2) / -1.1, -1.1, 0.6 + 2.5e-10j),
    "quasifree": (0.0, 0.0, 0.5j),
    "separated:robin": (-3.0, -1.0, 1.0 + 0.0j),
    "separated:neumann": (0.0, 1.0, -2.0 + 0.0j),
    "separated:dirichlet": (2.0, 0.0, 2.0 + 0.0j),
}
WAVENUMBERS = (0.3, 1.7, 9.0)
# (x, x', k, x_side): one point per quadrant and one at x = 0 from the left
KERNEL_POINTS = ((0.7, 1.1, 0.8 + 0.4j, 0), (-1.3, -0.5, 2.0 + 0.3j, 0),
                 (0.7, -1.1, 0.8 + 0.4j, 0), (-1.3, 0.5, 2.0 + 0.3j, 0),
                 (0.0, 0.6, 1.1 + 0.2j, -1))
CONVERSIONS = (("h", "greek_to_halfline", "g"), ("i", "greek_to_inverse", "g"),
               ("t", "greek_to_transfer", "g"), ("h.g", "halfline_to_greek", "h"),
               ("h.i", "halfline_to_inverse", "h"), ("h.t", "halfline_to_transfer", "h"),
               ("i.g", "inverse_to_greek", "i"), ("i.h", "inverse_to_halfline", "i"),
               ("t.g", "transfer_to_greek", "t"), ("t.h", "transfer_to_halfline", "t"))


def snapshot(alpha: float, beta: float, gamma: complex) -> dict:
    """Every scalar output of one coupling, as text."""
    out = {}
    charts = {"g": GreekParams(alpha, beta, gamma)}
    for key, name, src in CONVERSIONS:
        if src in charts:
            out[name + "<" + src] = outcome(lambda chart: bits(charts.setdefault(key, chart)),
                                            getattr(params, name), charts[src])
    scheme = CouplingScheme.from_greek(charts["g"])
    out["from_greek"] = bits(scheme.separated if scheme.is_separated else scheme.greek)
    out["is_decoupled"] = outcome(bits, is_decoupled, scheme)
    out["classify_symmetries"] = outcome(bits, classify_symmetries, scheme)
    out["point_spectrum"] = outcome(bits, point_spectrum, scheme)
    for k in WAVENUMBERS:
        out[f"s_matrix({k!r})"] = outcome(bits, s_matrix, scheme, k)
    h = scheme.halfline
    kernels = [(green_kernel, scheme), (green_kernel_dx, scheme), (green_kernel_greek, charts["g"])]
    if h is not None:
        kernels.append((green_kernel_halfline, h))
    for kernel, coupling in kernels:
        for x, xp, k, side in KERNEL_POINTS:
            out[f"{kernel.__name__}({x!r}, {xp!r}, {k!r}, {side})"] = outcome(
                bits, kernel, coupling, x, xp, k, x_side=side)
    for diag_side in (1, -1):
        out[f"green_kernel_dx(0.7, 0.7, (0.8+0.4j), diag_side={diag_side})"] = outcome(
            bits, green_kernel_dx, scheme, 0.7, 0.7, 0.8 + 0.4j, diag_side=diag_side)
    out["scattering_asymptotics"] = outcome(bits, scattering_asymptotics, scheme)
    if h is not None:
        regime = binding_regime(h)
        out["binding_regime"] = " ".join(
            [bits(regime.kind)] + [f"{key}={bits(v)}" for key, v in sorted(regime.detail.items())])
    # the residue at each root, and the kernel at each bound-state pole, which
    # the side that carries the pole refuses
    roots = [] if out["point_spectrum"].startswith("raise ") else point_spectrum(scheme)
    for i, p in enumerate(roots):
        out[f"kernel_residue(root {i}, 0.8, -1.1)"] = outcome(
            bits, kernel_residue, scheme, p.kappa, 0.8, -1.1)
        if p.kind is PointKind.BOUND:
            for x in (0.5, -0.5):
                out[f"green_kernel({x!r}, {2 * x!r}, i kappa of root {i})"] = outcome(
                    bits, green_kernel, scheme, x, 2 * x, 1j * p.kappa)
    return out


HOST = ("machine", "python", "libc")


def _record() -> dict:
    return {"host": host(*HOST),
            **{label: snapshot(*coupling) for label, coupling in COUPLINGS.items()}}


@pytest.mark.parametrize("label", list(COUPLINGS))
def test_scalar_outputs_keep_their_bits(label):
    recorded = json.loads(FIXTURE.read_text())
    skip_off_host(recorded["host"])
    want = recorded[label]
    got = snapshot(*COUPLINGS[label])
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key


def test_the_pinned_couplings_reach_every_branch():
    recorded = json.loads(FIXTURE.read_text())
    assert list(recorded) == ["host", *COUPLINGS] and list(recorded["host"]) == list(HOST)
    schemes = {label: CouplingScheme.from_greek(GreekParams(*c)) for label, c in COUPLINGS.items()}
    assert [label for label, s in schemes.items() if s.is_separated] == [
        "separated:robin", "separated:neumann", "separated:dirichlet"]
    # the halfline route of s_matrix at beta = 1e-10, the delta-family route at beta = 0
    assert schemes["beta=1e-10"].halfline is not None and schemes["beta=0"].halfline is None
    asym = {label: scattering_asymptotics(s) for label, s in schemes.items()}
    assert asym["alpha=1e-12"].low.branch == "alpha_zero"
    assert asym["beta=0"].high.branch == "beta_zero"
    assert (asym["quasifree"].low.branch, asym["quasifree"].high.branch) == ("alpha_zero", "beta_zero")
    assert classify_symmetries(schemes["quasifree"]).quasifree
    assert asym["bulk"].low.branch == "alpha_nonzero" and asym["bulk"].high.branch == "beta_nonzero"
    assert any(v.startswith("raise DegenerateParametrization")
               for v in recorded["beta=0"].values())
    # each bound state's pole refused on the side that carries it
    assert recorded["separated:robin"]["green_kernel(0.5, 1.0, i kappa of root 0)"].startswith(
        "raise PoleEvaluation: side denominator")


def test_a_pin_skips_where_a_recorded_host_fact_differs(monkeypatch):
    stamp = host(*HOST)
    skip_off_host(stamp)
    monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("musl", "1.2.4"))
    with pytest.raises(pytest.skip.Exception) as info:
        skip_off_host(stamp)
    assert info.value.msg.startswith(f"recorded with libc {stamp['libc']!r}, running with 'musl'")


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_record(), indent=1) + "\n")
