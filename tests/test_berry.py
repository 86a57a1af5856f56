"""Berry phase of the bound state over mirror-symmetric coupling loops."""

from __future__ import annotations

import cmath
import math
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from gpi1d import (DegenerateOverlap, Eigenstate, NoBoundState, ParameterLoop,
                   berry, berry_connection_analytic, berry_phase_discrete,
                   connection_riemann_sum, eigenstate_at, overlap,
                   wilson_loop_phase)

PI = math.pi


def _phase_dist(a: float, b: float) -> float:
    return abs(cmath.exp(1j * a) - cmath.exp(1j * b))


# ---------------------------------------------------------------------------
# eigenstates and overlaps
# ---------------------------------------------------------------------------

def test_eigenstate_plus_branch_anchor():
    loop = ParameterLoop(a=-2.0, c_mod=1.0, samples=8, branch="plus")
    st = eigenstate_at(loop, 0.0)
    assert st.kappa == 1.0
    assert abs(st.mu - 1.0) < 1e-15
    assert abs(st.nu + 1.0) < 1e-15


def test_eigenstate_phase_convention_at_pi():
    loop = ParameterLoop(a=-2.0, c_mod=1.0, samples=8)
    st = eigenstate_at(loop, PI)
    # nu = -e^{-i pi} sqrt(kappa) = +sqrt(kappa)
    assert abs(st.nu - 1.0) < 1e-12


def test_no_bound_state_raises():
    loop = ParameterLoop(a=-2.0, c_mod=3.0, samples=8, branch="plus")
    with pytest.raises(NoBoundState):
        eigenstate_at(loop, 0.3)
    with pytest.raises(NoBoundState):
        berry_connection_analytic(loop, 0.0)


def test_overlap_closed_form():
    loop = ParameterLoop(a=-2.0, c_mod=1.0, samples=8)
    s0 = eigenstate_at(loop, 0.0)
    assert abs(overlap(s0, s0) - 1.0) < 1e-15
    s_pi = eigenstate_at(loop, PI)
    assert abs(overlap(s0, s_pi)) < 1e-15
    s_half = eigenstate_at(loop, PI / 2)
    assert abs(overlap(s0, s_half) - 0.5 * (1 - 1j)) < 1e-15
    assert abs(abs(overlap(s0, s_half)) - math.sqrt(2) / 2) < 1e-15


def _gauss_legendre(f, lo: float, hi: float):
    # the 200-node Gauss-Legendre rule for the integral of f over [lo, hi]
    x, w = np.polynomial.legendre.leggauss(200)
    half = 0.5 * (hi - lo)
    return half * np.dot(w, f(lo + half * (x + 1.0)))


def test_overlap_against_quadrature_oracle():
    # numerical integral of conj(f1) f2 over the line, one rule per half-line
    loop = ParameterLoop(a=-1.5, c_mod=0.4, samples=8)
    xi1, xi2 = 0.7, 2.9
    st1, st2 = eigenstate_at(loop, xi1), eigenstate_at(loop, xi2)
    decay = st1.kappa + st2.kappa
    ref = sum(_gauss_legendre(lambda x: np.conj(amp1) * amp2 * np.exp(-decay * x), 0.0, 30.0)
              for amp1, amp2 in ((st1.mu, st2.mu), (st1.nu, st2.nu)))
    assert abs(overlap(st1, st2) - ref) < 1e-9
    assert abs(overlap(st1, st2) - 0.5 * (1 + cmath.exp(1j * (xi1 - xi2)))) < 1e-14


def test_overlap_rejects_mismatched_branches():
    a, c = -2.0, 0.5
    s_plus = eigenstate_at(ParameterLoop(a, c, 8, "plus"), 0.0)
    s_minus = eigenstate_at(ParameterLoop(a, c, 8, "minus"), 0.0)
    with pytest.raises(ValueError):
        overlap(s_plus, s_minus)


# ---------------------------------------------------------------------------
# discrete phase
# ---------------------------------------------------------------------------

def test_phase_exact_at_n_4():
    res = berry_phase_discrete(ParameterLoop(a=-2.0, c_mod=1.0, samples=4))
    assert _phase_dist(res.phase, PI) < 1e-14
    # each step contributes argument -pi/4
    for w in res.per_step_overlaps:
        assert abs(cmath.phase(w) + PI / 4) < 1e-14


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("n", [3, 4, 101, 10_000])
def test_array_loop_matches_the_wilson_loop_of_its_states(n, branch):
    loop = ParameterLoop(-3.0, 0.5, n, branch)
    states = [eigenstate_at(loop, 2 * PI * j / n) for j in range(n)]
    ref = wilson_loop_phase(states)
    res = berry_phase_discrete(loop)
    assert _phase_dist(res.phase, ref.phase) <= 1e-14
    assert len(res.per_step_overlaps) == n
    assert all(type(w) is complex for w in res.per_step_overlaps)
    assert max(abs(w - v) for w, v in zip(res.per_step_overlaps, ref.per_step_overlaps)) <= 1e-15
    # the in-place kernel against the out-of-place expression it replaces, bit for bit
    st = eigenstate_at(loop, 0.0)
    nu = -np.exp(-1j * (2.0 * PI * np.arange(n) / n)) * st.mu.real
    w = (st.mu.conjugate() * st.mu + nu.conj() * np.roll(nu, -1)) / (2.0 * st.kappa)
    assert np.array_equal(res._overlaps.view(np.uint64), w.view(np.uint64))
    assert res.per_step_overlaps == tuple(w.tolist())
    assert repr(res.phase) == repr(berry._phase_of_overlaps(w).phase)
    assert repr(connection_riemann_sum(loop, n)) == repr(float(-np.sum(w.imag)))


def test_phase_result_builds_its_overlap_tuple_once_from_a_read_only_array():
    loop = ParameterLoop(-2.0, 0.6, 64, "minus")
    res = berry_phase_discrete(loop)
    assert not res._overlaps.flags.writeable
    with pytest.raises(ValueError):
        res._overlaps[0] = 0.0
    with pytest.raises(FrozenInstanceError):
        res.phase = 0.0
    steps = res.per_step_overlaps
    assert type(steps) is tuple and all(type(w) is complex for w in steps)
    assert res.per_step_overlaps is steps
    again = berry_phase_discrete(loop)
    assert again == res and hash(again) == hash(res)
    copied = pickle.loads(pickle.dumps(res))
    assert copied == res and not copied._overlaps.flags.writeable
    assert again != berry_phase_discrete(ParameterLoop(-2.0, 0.6, 65, "minus"))
    states = [eigenstate_at(loop, 2 * PI * j / loop.samples) for j in range(loop.samples)]
    assert _phase_dist(wilson_loop_phase(states).phase, res.phase) <= 1e-14


def test_phase_result_repr_and_equality_with_another_type():
    res = berry.PhaseResult(0.25, np.array([1.0 + 0.0j, 0.5j]))
    assert repr(res) == "PhaseResult(phase=0.25, per_step_overlaps=((1+0j), 0.5j))"
    # equal only to a PhaseResult: not to the tuple its equality reads
    assert res.__eq__((0.25, (1.0 + 0.0j, 0.5j))) is NotImplemented
    assert res != (0.25, (1.0 + 0.0j, 0.5j)) and not res == 0.25
    assert res == berry.PhaseResult(0.25, [1.0, 0.5j])


def test_array_loop_keeps_the_bound_state_check():
    with pytest.raises(NoBoundState):
        berry_phase_discrete(ParameterLoop(-2.0, 3.0, 8, "plus"))
    with pytest.raises(NoBoundState):
        connection_riemann_sum(ParameterLoop(-2.0, 3.0, 8, "plus"), 8)


def test_phase_independent_of_coupling_modulus():
    # a = -3 keeps the plus-branch bound state alive across the whole set
    phases = [berry_phase_discrete(ParameterLoop(-3.0, c, 2000)).phase
              for c in (0.1, 0.5, 1.0, 2.0)]
    for p in phases:
        assert _phase_dist(p, phases[0]) < 1e-8
        assert _phase_dist(p, PI) < 1e-8


def test_phase_independent_of_branch():
    p_plus = berry_phase_discrete(ParameterLoop(-3.0, 0.5, 500, "plus")).phase
    p_minus = berry_phase_discrete(ParameterLoop(-3.0, 0.5, 500, "minus")).phase
    assert _phase_dist(p_plus, p_minus) < 1e-10
    assert _phase_dist(p_plus, PI) < 1e-10


def test_phase_gauge_invariance(rng):
    loop = ParameterLoop(-2.0, 0.7, 64)
    states = [eigenstate_at(loop, 2 * PI * j / loop.samples) for j in range(loop.samples)]
    base = wilson_loop_phase(states).phase
    phases = rng.uniform(0, 2 * PI, loop.samples)
    gauged = [Eigenstate(s.mu * cmath.exp(1j * p), s.nu * cmath.exp(1j * p), s.kappa)
              for s, p in zip(states, phases)]
    assert _phase_dist(wilson_loop_phase(gauged).phase, base) < 1e-12


def test_loop_reversal_gives_same_canonical_phase():
    loop = ParameterLoop(-2.0, 1.0, 101)
    states = [eigenstate_at(loop, 2 * PI * j / loop.samples) for j in range(loop.samples)]
    fwd = wilson_loop_phase(states).phase
    rev = wilson_loop_phase(states[::-1]).phase
    # -pi and +pi are the same point of the circle; both report pi
    assert _phase_dist(fwd, rev) < 1e-12
    assert _phase_dist(fwd, PI) < 1e-12


def test_degenerate_overlap_raises():
    loop = ParameterLoop(-2.0, 1.0, 8)
    s0 = eigenstate_at(loop, 0.0)
    s1 = eigenstate_at(loop, PI)  # orthogonal to s0
    with pytest.raises(DegenerateOverlap, match="step 0"):
        wilson_loop_phase([s0, s1])


def test_loop_validation():
    with pytest.raises(ValueError):
        ParameterLoop(-2.0, 0.0, 8)
    for samples in (2, 3.5, math.nan):
        with pytest.raises(ValueError):
            ParameterLoop(-2.0, 1.0, samples)
    # 3.5 samples would be 4 points at 2 pi j / 3.5, the closing step half the others
    with pytest.raises(ValueError, match="whole number of samples, got 3.5"):
        connection_riemann_sum(ParameterLoop(-2.0, 1.0, 8), 3.5)
    with pytest.raises(ValueError, match="^need at least 3 samples$"):
        connection_riemann_sum(ParameterLoop(-2.0, 1.0, 8), 2)
    assert ParameterLoop(-2.0, 1.0, 8.0).samples == 8.0
    with pytest.raises(ValueError):
        ParameterLoop(-2.0, 1.0, 8, "sideways")


# ---------------------------------------------------------------------------
# analytic connection and convergence order
# ---------------------------------------------------------------------------

def test_connection_value_and_integral():
    loop = ParameterLoop(-2.0, 1.0, 8)
    for xi in (0.0, 1.0, 4.4):
        assert berry_connection_analytic(loop, xi) == 0.5
    integral = _gauss_legendre(
        lambda xis: np.array([berry_connection_analytic(loop, xi) for xi in xis]), 0.0, 2 * PI)
    assert abs(integral - PI) < 1e-10


def test_riemann_sum_second_order_convergence():
    loop = ParameterLoop(-2.0, 1.0, 8)
    errs = {n: abs(PI - connection_riemann_sum(loop, n)) for n in (100, 200)}
    order = math.log2(errs[100] / errs[200])
    assert abs(order - 2.0) < 0.05
    # the error constant matches (2 pi)^3 / 12 n^2 up to its own O(n^-4) term
    assert abs(errs[100] - (2 * PI) ** 3 / (12 * 100 ** 2)) < 1e-6


def test_riemann_sum_holds_its_lead_term_at_large_n():
    # pairwise summation keeps rounding far below the (2 pi)^3 / (12 n^2) ~ 2e-9
    # lead term; a sequential sum of 1e5 terms misses it by about 2e-3 relative
    n = 100_000
    lead = (2 * PI) ** 3 / (12 * n ** 2)
    for loop in (ParameterLoop(-2.0, 1.0, 8), ParameterLoop(-3.0, 0.5, 8, "minus")):
        assert abs((PI - connection_riemann_sum(loop, n)) / lead - 1.0) <= 1e-4
