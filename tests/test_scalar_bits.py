"""The scalar call path's outputs, pinned bit for bit.

Every chart conversion, the scheme construction, the symmetry flags, the
point spectrum, the S-matrix, the resolvent kernel, the scattering
asymptotics and the binding regime of a few couplings at and near the chart
edges are written as `float.hex` strings and compared with
`scalar_bits.json`.  The file holds the outputs of the straightforward
implementation that the scalar fast paths replaced, so a rewrite of those
paths must reproduce its bits, its refusals and its messages exactly.  That
includes the beta-edge S-matrix, whose digits the halfline route loses.

The values are those of CPython on x86_64 with glibc: `cmath.exp` and
`abs(complex)` come from the C library, and another platform may round them
differently.  To record them again, run this file as a script with the
implementation to record on the path:

    PYTHONPATH=src python tests/test_scalar_bits.py
"""

from __future__ import annotations

import enum
import json
import platform
from pathlib import Path

import pytest

from gpi1d import (CouplingScheme, GreekParams, classify_symmetries, green_kernel,
                   is_decoupled, params, point_spectrum, s_matrix,
                   scattering_asymptotics)
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


def _bits(value) -> str:
    if isinstance(value, enum.Enum):
        return repr(value.value)
    if isinstance(value, (bool, int, str)) or value is None:
        return repr(value)
    if isinstance(value, complex):
        return f"{value.real.hex()},{value.imag.hex()}"
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return "[" + " ".join(map(_bits, value)) + "]"
    fields = getattr(value, "__dataclass_fields__", None) or getattr(value, "_fields", None)
    if fields:
        return "(" + " ".join(_bits(getattr(value, f)) for f in fields) + ")"
    raise TypeError(f"no bit pattern for {value!r}")


def _call(fn, *args, **kwargs) -> str:
    try:
        return _bits(fn(*args, **kwargs))
    except Exception as exc:  # the refusal is part of the output
        return f"raise {type(exc).__name__}: {exc}"


def snapshot(alpha: float, beta: float, gamma: complex) -> dict:
    """Every scalar output of one coupling, as text."""
    out = {}
    charts = {"g": GreekParams(alpha, beta, gamma)}
    for key, name, src in CONVERSIONS:
        if src in charts:
            try:
                charts[key] = getattr(params, name)(charts[src])
            except Exception as exc:
                out[name + "<" + src] = f"raise {type(exc).__name__}: {exc}"
                continue
            out[name + "<" + src] = _bits(charts[key])
    scheme = CouplingScheme.from_greek(charts["g"])
    out["from_greek"] = _bits(scheme.separated if scheme.is_separated else scheme.greek)
    out["is_decoupled"] = _call(is_decoupled, scheme)
    out["classify_symmetries"] = _call(classify_symmetries, scheme)
    out["point_spectrum"] = _call(point_spectrum, scheme)
    for k in WAVENUMBERS:
        out[f"s_matrix({k!r})"] = _call(s_matrix, scheme, k)
    for x, xp, k, side in KERNEL_POINTS:
        out[f"green_kernel({x!r}, {xp!r}, {k!r}, {side})"] = _call(
            green_kernel, scheme, x, xp, k, x_side=side)
    out["scattering_asymptotics"] = _call(scattering_asymptotics, scheme)
    h = scheme.halfline
    if h is not None:
        regime = binding_regime(h)
        out["binding_regime"] = " ".join(
            [_bits(regime.kind)] + [f"{key}={_bits(v)}" for key, v in sorted(regime.detail.items())])
    return out


def _record() -> dict:
    return {label: snapshot(*coupling) for label, coupling in COUPLINGS.items()}


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the pinned bits are x86_64 values")
@pytest.mark.parametrize("label", list(COUPLINGS))
def test_scalar_outputs_keep_their_bits(label):
    want = json.loads(FIXTURE.read_text())[label]
    got = snapshot(*COUPLINGS[label])
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key


def test_the_pinned_couplings_reach_every_branch():
    recorded = json.loads(FIXTURE.read_text())
    assert set(recorded) == set(COUPLINGS)
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


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_record(), indent=1) + "\n")
