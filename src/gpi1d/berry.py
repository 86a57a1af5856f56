"""Geometric phase of a bound state carried around a coupling-parameter loop.

The loop lives in the mirror-symmetric family a = b with c = |c| e^{i xi}: as
xi winds once through [0, 2*pi) at fixed |c|, the two bound-state branches
kappa_{+-} = -a -+ |c| stay put while the eigenfunction

    f(x) = sqrt(kappa) ( e^{-kappa x} [x>0] - e^{-i xi} e^{kappa x} [x<0] )

rotates its left-halfline phase.  The Berry connection i <f, df/dxi> equals
1/2 exactly, so the loop integral is pi, independent of |c| and of the branch.
The discrete (Wilson-loop) phase -Im log prod_j <f_j, f_{j+1}> is manifestly
gauge invariant and uses only the closed-form overlaps
<f(xi1), f(xi2)> = (1 + e^{i (xi1 - xi2)}) / 2.

`berry_phase_discrete` and `connection_riemann_sum` evaluate the whole loop
as numpy arrays: the N overlaps come from the `eigenstate_at` formulas in one
broadcast, the Wilson-loop phase is the argument of the product of their unit
phases, and the Riemann sum is numpy's pairwise sum.  `wilson_loop_phase`
reduces an explicit list of states the same way.  The overlaps stay an
array inside `PhaseResult`; the tuple of Python complex that
`per_step_overlaps` returns is built on its first read, so a caller that
reads only the phase never boxes the N overlaps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DegenerateOverlap, NoBoundState
from .params import DEGENERACY_TOL

BRANCH_PLUS = "plus"
BRANCH_MINUS = "minus"


@dataclass(frozen=True)
class ParameterLoop:
    """One full xi-loop in the a = b family at fixed |c| = c_mod > 0.

    `branch` selects the bound-state branch: "plus" follows kappa = -a - c_mod,
    "minus" follows kappa = -a + c_mod.  `samples` is the number of loop points
    used by the discrete phase.
    """

    a: float
    c_mod: float
    samples: int
    branch: str = BRANCH_PLUS

    def __post_init__(self):
        if not (self.c_mod > 0 and math.isfinite(self.c_mod) and math.isfinite(self.a)):
            raise ValueError("need finite a and c_mod > 0 (crossings are excluded)")
        if self.samples < 3:
            raise ValueError("a loop needs at least 3 samples")
        if self.samples % 1 != 0:  # np.arange would close the chain with a short step
            raise ValueError(f"a loop needs a whole number of samples, got {self.samples!r}")
        if self.branch not in (BRANCH_PLUS, BRANCH_MINUS):
            raise ValueError(f"unknown branch {self.branch!r}")

    @property
    def kappa(self) -> float:
        if self.branch == BRANCH_PLUS:
            return -self.a - self.c_mod
        return -self.a + self.c_mod


@dataclass(frozen=True)
class Eigenstate:
    """Bound-state coefficients (mu, nu) at decay rate kappa; unit norm with weights 1/2, 1/2."""

    mu: complex
    nu: complex
    kappa: float


@dataclass(frozen=True, eq=False, repr=False)
class PhaseResult:
    """Wilson-loop phase in (-pi, pi] (pi is the canonical representative) and the step overlaps.

    The overlaps are held as a read-only complex array, `_overlaps`;
    `per_step_overlaps` is the same values as a tuple of Python complex, built
    on first read and kept.  Equality, hashing and repr read the phase and
    that tuple.
    """

    phase: float

    def __init__(self, phase: float, per_step_overlaps):
        import numpy as np

        # a view, so that marking it read-only leaves a caller's own array writeable
        w = np.asarray(per_step_overlaps, dtype=complex).view()
        w.flags.writeable = False
        self.__dict__.update(phase=phase, _overlaps=w)

    @cached_property
    def per_step_overlaps(self) -> tuple[complex, ...]:
        return tuple(self._overlaps.tolist())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.phase, self.per_step_overlaps) == (other.phase, other.per_step_overlaps)

    def __hash__(self):
        return hash((self.phase, self.per_step_overlaps))

    def __repr__(self):
        return f"PhaseResult(phase={self.phase!r}, per_step_overlaps={self.per_step_overlaps!r})"

    def __reduce__(self):  # copies and unpickled results hold a read-only array too
        return PhaseResult, (self.phase, self._overlaps)


def eigenstate_at(loop: ParameterLoop, xi: float) -> Eigenstate:
    """Bound state at loop angle xi: mu = sqrt(kappa), nu = -e^{-i xi} sqrt(kappa)."""
    kappa = loop.kappa
    if kappa <= 0:
        raise NoBoundState(
            f"branch {loop.branch!r} has kappa = {kappa!r} <= 0 at a = {loop.a}, |c| = {loop.c_mod}")
    amp = math.sqrt(kappa)
    return Eigenstate(complex(amp), -cmath.exp(-1j * xi) * amp, kappa)


def overlap(state1: Eigenstate, state2: Eigenstate) -> complex:
    """L2 inner product <f1, f2> = (conj(mu1) mu2 + conj(nu1) nu2) / (2 kappa).

    For two loop states this is (1 + e^{i (xi1 - xi2)}) / 2 in closed form.
    Both states must sit on the same kappa branch.
    """
    if not math.isclose(state1.kappa, state2.kappa, rel_tol=DEGENERACY_TOL, abs_tol=0.0):
        raise ValueError("overlap requires states on the same kappa branch")
    return (state1.mu.conjugate() * state2.mu
            + state1.nu.conjugate() * state2.nu) / (2.0 * state1.kappa)


def _phase_of_overlaps(w) -> PhaseResult:
    # -arg prod(w_j / |w_j|) of a complex array of step overlaps; only the
    # argument matters, and renormalizing each factor dodges underflow on long chains
    import numpy as np

    mod = np.abs(w)
    small = np.flatnonzero(mod < DEGENERACY_TOL)
    if small.size:
        j = int(small[0])
        raise DegenerateOverlap(f"step {j} overlap {complex(w[j])!r} is numerically zero")
    # -arg lies in [-pi, pi]; into (-pi, pi] with pi the canonical representative,
    # so values within rounding noise of the -pi cut report as +pi
    phase = -cmath.phase(complex(np.prod(w / mod)))
    if phase <= -math.pi + 1e-9:
        phase += 2.0 * math.pi
    return PhaseResult(phase, w)


def _loop_overlaps(loop: ParameterLoop, n: int):
    # w_j = <f(xi_j), f(xi_{j+1})> on xi_j = 2 pi j / n, closed, as one complex
    # array: the eigenstate_at formulas with nu_j = -e^{-i xi_j} sqrt(kappa).
    # Written in place, with the operations and operand order of
    # (conj(mu) mu + conj(nu_j) nu_{j+1}) / (2 kappa), so each overlap is the
    # same double as that expression's.
    import numpy as np

    st = eigenstate_at(loop, 0.0)
    nu = np.exp(-1j * (2.0 * math.pi * np.arange(n) / n))
    np.negative(nu, out=nu)
    nu *= st.mu.real
    w = nu.conj()
    w[:-1] *= nu[1:]
    w[-1] *= nu[0]
    w += st.mu.conjugate() * st.mu
    w /= 2.0 * st.kappa
    return w


def wilson_loop_phase(states: list[Eigenstate]) -> PhaseResult:
    """-Im log of the overlap product around a closed chain of states.

    Gauge invariant: multiplying each state by an arbitrary unit phase leaves
    the product's argument unchanged (the phases telescope around the loop).
    """
    import numpy as np

    n = len(states)
    w = np.array([overlap(states[j], states[(j + 1) % n]) for j in range(n)], dtype=complex)
    return _phase_of_overlaps(w)


def berry_phase_discrete(loop: ParameterLoop) -> PhaseResult:
    """Discrete Berry phase over xi_j = 2 pi j / N, j = 0..N-1 (closed chain).

    Converges to pi (and for this family is exact at every N up to rounding),
    independent of |c| and of the branch.  The N overlaps are built as one
    array from the closed-form states, with no per-sample Python work.
    """
    return _phase_of_overlaps(_loop_overlaps(loop, loop.samples))


def berry_connection_analytic(loop: ParameterLoop, xi: float) -> float:
    """The connection i <f, df/dxi> of the loop family: exactly 1/2 (loop integral pi)."""
    if loop.kappa <= 0:
        raise NoBoundState(f"branch {loop.branch!r} has kappa <= 0")
    return 0.5


def connection_riemann_sum(loop: ParameterLoop, n: int) -> float:
    """Riemann-sum discretization sum_j Im(1 - <f_j, f_{j+1}>) of the connection integral.

    Tends to pi with error (2 pi)^3 / (12 n^2) + O(n^-4); used to measure the
    second-order convergence of the discretization (the Wilson-loop phase
    itself is exact at every n for this family).  The terms are summed
    pairwise (numpy's sum), so rounding stays far below the n^-2 term.
    """
    import numpy as np

    if n < 3:
        raise ValueError("need at least 3 samples")
    if n % 1 != 0:
        raise ValueError(f"need a whole number of samples, got {n!r}")
    return float(-np.sum(_loop_overlaps(loop, n).imag))
