"""Output checks behind `fail_frac`, and the catalogue of known defects.

Every check uses the acceptance suite's pinned tolerance where one exists and
is never looser.  Each failed check is a `Failure` naming the op, the check,
the input class and the measured value.  A failure whose (input class, check)
pair is listed in `KNOWN_DEFECTS` still counts in `failed` and `fail_frac`;
any other failure makes the run's `correct` false.
"""

from __future__ import annotations

import cmath
import decimal
import math
from dataclasses import dataclass

import numpy as np

# Pinned acceptance tolerances (tests/test_acceptance.py).
UNITARITY_TOL = 1e-12        # criterion 5
KERNEL_FORM_TOL = 1e-10      # criterion 4
ROUND_TRIP_TOL = 1e-10       # criterion 1
ROOT_TOL = 1e-12             # criterion 3: roots to 1e-12 of an independent oracle
BERRY_PHASE_TOL = 1e-5       # criterion 7
# No acceptance criterion pins these; they sit two or more decades above the
# worst value measured on the anchors and regime couplings at m_max <= 200.
EDGE_RESIDUAL_TOL = 1e-8     # ||tr(E)| - 2| at a refined edge (worst seen 5e-11)
BLOCH_RESIDUAL_TOL = 1e-10   # |det| / Hadamard bound of the 4x4 cell system (worst seen 8e-14)
RIEMANN_LEAD_TOL = 0.05      # pi - S(n) against its leading term (2 pi)^3 / (12 n^2)

# (input class, check) pairs that fail at this commit, with their cause.  The
# chart-edge classes are sweep couplings closer than 0.05 to a chart edge
# (workloads.input_class); the lattice classes are the regimes.
KNOWN_DEFECTS = {
    ("edge:beta", "unitarity"):
        "s_matrix routes through the halfline form, which divides by beta",
    ("edge:beta", "kernel_form"):
        "green_kernel halfline and matrix forms drift apart as beta -> 0",
    ("edge:beta", "kernel_oracle_raised:PoleEvaluation"):
        "green_kernel_greek tests F(k) = 2 beta^2 D(k) for a pole, which underflows as beta -> 0",
    ("edge:beta", "root_error"):
        "roots come from the halfline quadratic, ill-conditioned as beta -> 0",
    ("edge:beta", "round_trip"):
        "the halfline/transfer charts lose digits near beta = 0 instead of raising",
    ("edge:beta", "raised:greek_to_transfer:ValueError"):
        "greek_to_transfer builds a TransferParams whose det misses 1 by more than 1e-12",
    ("edge:alpha", "round_trip"):
        "the inverse chart loses digits near alpha = 0 instead of raising",
    ("edge:alpha", "root_error"):
        "the small root loses digits through ab - |c|^2 as alpha -> 0",
    ("delta_like", "band_index"):
        "nearest-(pi m / ell)^2 labels skip index 1 after the bound-state band",
}


@dataclass(frozen=True)
class Failure:
    op: str
    check: str
    input_class: str
    value: float
    tol: float

    @property
    def known(self) -> bool:
        return (self.input_class, self.check) in KNOWN_DEFECTS


class Checker:
    """Collects failures and the worst residual seen per quantity."""

    def __init__(self):
        self.failures: list[Failure] = []
        self.worst = {"unitarity": 0.0, "kernel_form": 0.0, "root_error": 0.0,
                      "round_trip": 0.0, "edge_residual": 0.0, "bloch_residual": 0.0,
                      "berry_phase": 0.0}

    def measure(self, op: str, check: str, input_class: str, value: float, tol: float) -> bool:
        """Record `value` against `tol`; a NaN value fails."""
        if check in self.worst and math.isfinite(value):
            self.worst[check] = max(self.worst[check], value)
        if not value <= tol:
            self.failures.append(Failure(op, check, input_class, float(value), tol))

    def fail(self, op: str, check: str, input_class: str) -> None:
        self.failures.append(Failure(op, check, input_class, math.nan, 0.0))


def unitarity_defect(r: complex, t: complex) -> float:
    return abs(abs(r) ** 2 + abs(t) ** 2 - 1.0)


def relative_gap(v1: complex, v2: complex) -> float:
    """Kernel-form disagreement as measured by acceptance criterion 4."""
    return abs(v1 - v2) / max(1.0, abs(v1))


def record_gap(a, b) -> float:
    """Largest field difference of two parameter records, over the larger record scale."""
    fields = a.__dataclass_fields__
    diff = max(abs(complex(getattr(a, f)) - complex(getattr(b, f))) for f in fields)
    scale = max([1.0] + [abs(complex(getattr(x, f))) for x in (a, b) for f in fields])
    return diff / scale


def root_error(g, kappas) -> float:
    """Worst distance of computed roots from the exact ones, over max(1, |root|).

    The oracle solves the beta-regular form 2 beta k^2 + (4 + det) k + 2 alpha
    = 0 of the spectral denominator on the imaginary axis in 60-digit decimal
    arithmetic from the exact binary coefficients, so it is independent of
    the library's halfline route and holds for every beta, zero included.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        al, be = decimal.Decimal(g.alpha), decimal.Decimal(g.beta)
        gr, gi = decimal.Decimal(g.gamma.real), decimal.Decimal(g.gamma.imag)
        b = 4 + al * be + gr * gr + gi * gi
        if be == 0:
            exact = [-2 * al / b]
        else:
            disc = max(b * b - 16 * al * be, decimal.Decimal(0)).sqrt()
            exact = [(-b + disc) / (4 * be), (-b - disc) / (4 * be)]
        worst = 0.0
        for kappa in kappas:
            worst = max(worst, min(float(abs(decimal.Decimal(kappa) - r) / max(1, abs(r)))
                                   for r in exact))
    return worst


def edge_theta(g, rhs: float) -> float:
    """Bloch phase at a band edge: Re(w e^{i theta}) = +-|w| with w = (4 - det) + 4i Im gamma."""
    w = complex(4.0 - g.det, 4.0 * g.gamma.imag)
    return -cmath.phase(w) if rhs > 0 else math.pi - cmath.phase(w)


def bloch_residual(g, k: float, det: complex) -> float:
    """|det| of the 4x4 cell system over the product of its row norms (Hadamard's bound)."""
    al, be, gm = g.alpha, g.beta, g.gamma
    gb = gm.conjugate()
    ik = 1j * k
    row0 = np.abs([-ik - al / 2 - gm / 2 * ik, ik - al / 2 + gm / 2 * ik,
                   ik - al / 2 - gm / 2 * ik, -ik - al / 2 + gm / 2 * ik])
    row1 = np.abs([-1 + gb / 2 - be / 2 * ik, -1 + gb / 2 + be / 2 * ik,
                   1 + gb / 2 - be / 2 * ik, 1 + gb / 2 + be / 2 * ik])
    bound = float(np.linalg.norm(row0) * np.linalg.norm(row1) * 2.0 * (2.0 * k))
    return abs(det) / bound


def riemann_lead_gap(total: float, n: int) -> float:
    """Relative distance of pi - S(n) from (2 pi)^3 / (12 n^2), the second-order leading term."""
    lead = (2.0 * math.pi) ** 3 / (12.0 * n * n)
    return abs((math.pi - total) / lead - 1.0)
