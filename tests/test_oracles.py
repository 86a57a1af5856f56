"""The shared reference formulas of `conftest.py` against closed forms: every test
that compares the library with them trusts them, so they are checked here once."""

from __future__ import annotations

import math

import pytest

from gpi1d import (CouplingScheme, GreekParams, HalflineParams, LatticeSpec, greek_to_halfline,
                   trace_at_energy)
from conftest import exact_roots, exact_trace, random_greek, reference_free


@pytest.mark.parametrize("p, want", [
    (GreekParams(-2.0, 0.0, 0.0), [1.0]),                  # delta(-2): one root
    (GreekParams(0.0, -2.0, 0.0), [0.0, 1.0]),             # delta'(-2): 0 and the bound state
    (GreekParams(0.0, 2.0, 0.0), [0.0, -1.0]),             # delta'(2): 0 and the antibound state
    (HalflineParams(-3.0, -1.0, 0.5), [2.0 - math.sqrt(1.25), 2.0 + math.sqrt(1.25)]),
    (HalflineParams(1.0, 2.0, 0.0), [-1.0, -2.0]),         # decoupled: -a and -b
])
def test_exact_roots_closed_forms(p, want):
    got = [float(r) for r in exact_roots(p)]
    assert len(got) == len(want)
    for r, w in zip(got, want):
        assert abs(r - w) <= 1e-15 * max(1.0, abs(w)), (p, got)


def test_exact_roots_agree_across_forms(rng):
    # both forms of one coupling share its point spectrum, so their quadratics' roots
    for _ in range(200):
        g = random_greek(rng)
        rg = sorted(map(float, exact_roots(g)))
        rh = sorted(map(float, exact_roots(greek_to_halfline(g))))
        assert len(rg) == len(rh) == 2
        for a, b in zip(rg, rh):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), (g, rg, rh)


@pytest.mark.parametrize("k", [0.7 + 0.9j, -1.3 + 0.4j, 2.1 + 1.5j])
@pytest.mark.parametrize("s", [1, -1])
def test_reference_free_is_the_dirichlet_green_function(s, k):
    q = 1.0 / k.imag  # min(|x|, |x'|) where the written-out form switches branch
    assert reference_free(s, s, 0.0, s * 0.8, k) == 0  # the Dirichlet wall
    for x in (0.3, q * (1 - 1e-9), q * (1 + 1e-9), 2.5):
        x, xp = s * x, s * (x + 1.0)
        # d/dx jumps by -1 across x = x'
        jump = reference_free(s, s, x, x, k, 1) - reference_free(s, s, x, x, k, -1)
        assert abs(jump + 1.0) <= 1e-12, (x, jump)
        # d/dx is the derivative of the kernel off the diagonal
        h = 1e-5
        fd = (reference_free(s, s, x + h, xp, k) - reference_free(s, s, x - h, xp, k)) / (2 * h)
        dx = reference_free(s, s, x, xp, k, 1)
        assert abs(fd - dx) <= 1e-8 * max(1.0, abs(dx)), (x, fd, dx)
    # the two branches are one function: no step where they meet
    below, above = (reference_free(s, s, s * q * f, s * (q + 1.0), k) for f in (1 - 1e-9, 1 + 1e-9))
    assert abs(below - above) <= 1e-8 * abs(below), (below, above)


def test_exact_trace_is_the_floquet_trace(rng):
    # sign included, below zero, at zero and above, on couplings of both signs of beta
    for _ in range(40):
        g = random_greek(rng, allow_beta_zero=True)
        ell = float(rng.uniform(0.5, 2.0))
        spec = LatticeSpec(CouplingScheme.from_greek(g), ell)
        s, c, b = spec._trace_coeffs
        for e in [0.0, *-rng.uniform(0.01, 25.0, 3), *rng.uniform(0.01, 400.0, 3)]:
            q = math.sqrt(abs(e))
            # the size of the float trace's terms: s cos + (c/k - b k) sin above
            # zero, s cosh + (c/q + b q) sinh below, s + c ell at zero
            scale = (abs(s) + abs(c / q - b * q) if e > 0 else
                     abs(s) * math.cosh(q * ell) + abs(c / q + b * q) * math.sinh(q * ell) if e < 0
                     else abs(s) + abs(c) * ell)
            got, want = float(exact_trace(g, ell, e)), trace_at_energy(spec, e)
            assert abs(got - want) <= 1e-12 * max(1.0, scale), (g, ell, e, got, want)
