"""Shared samplers for randomized property tests (seeded, reproducible), the
reference formulas that more than one test file checks against, the
in-process CLI fixture and the fresh-interpreter runner."""

from __future__ import annotations

import cmath
import decimal
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gpi1d import CouplingScheme, GreekParams, HalflineParams
from gpi1d.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def random_greek(rng: np.random.Generator, allow_beta_zero: bool = False) -> GreekParams:
    """A generic coupled matrix-form sample away from degeneracies.

    Rejects decoupled points and (unless allowed) |beta| < 0.05, so that every
    conversion denominator stays above ~1e-2.
    """
    while True:
        alpha = rng.uniform(-3.0, 3.0)
        if allow_beta_zero and rng.uniform() < 0.25:
            beta = 0.0
        else:
            beta = rng.uniform(-3.0, 3.0)
            if abs(beta) < 0.05:
                continue
        gamma = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        g = GreekParams(alpha, beta, gamma)
        if abs(g.det - 4.0) < 1e-2 and abs(gamma.imag) < 1e-2:
            continue
        return g


def random_halfline(rng: np.random.Generator) -> HalflineParams:
    """Coupled halfline sample with all conversion denominators at least 1e-2."""
    while True:
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(-3.0, 3.0)
        c = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        h = HalflineParams(a, b, c)
        if abs(c) < 1e-2:
            continue
        if abs(a + b - 2 * c.real) < 1e-2:
            continue
        if abs(a * b - abs(c) ** 2) < 1e-2:
            continue
        return h


def random_scheme(rng: np.random.Generator, allow_beta_zero: bool = False) -> CouplingScheme:
    return CouplingScheme.from_greek(random_greek(rng, allow_beta_zero=allow_beta_zero))


# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------

def close(x, y, tol=1e-12) -> bool:
    """|x - y| within tol relative to max(1, |x|, |y|)."""
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def exact_roots(p: GreekParams | HalflineParams) -> list[decimal.Decimal]:
    """Roots kappa of either form's spectral quadratic to 60 digits, small root first.

    GreekParams: 2 beta kappa^2 + (4 + det) kappa + 2 alpha = 0, one root at beta = 0.
    HalflineParams: kappa^2 + (a + b) kappa + ab - |c|^2 = 0.
    The coefficients are formed from the binary inputs in 60-digit arithmetic;
    both discriminants are sums of squares, so the roots are real.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        if isinstance(p, GreekParams):
            al, be = decimal.Decimal(p.alpha), decimal.Decimal(p.beta)
            gr, gi = decimal.Decimal(p.gamma.real), decimal.Decimal(p.gamma.imag)
            c2, c1, c0 = 2 * be, 4 + al * be + gr * gr + gi * gi, 2 * al
        else:
            a, b = decimal.Decimal(p.a), decimal.Decimal(p.b)
            cr, ci = decimal.Decimal(p.c.real), decimal.Decimal(p.c.imag)
            c2, c1, c0 = decimal.Decimal(1), a + b, a * b - cr * cr - ci * ci
        if c2 == 0:
            return [-c0 / c1]
        sq = (c1 * c1 - 4 * c2 * c0).sqrt()
        roots = [(-c1 + sq) / (2 * c2), (-c1 - sq) / (2 * c2)]
        return sorted(roots, key=abs)


def reference_free(sx, sxp, x, xp, k, diag_side=None):
    """The Dirichlet pair kernel, or its d/dx where diag_side is given, written out
    in the library's operations and order (so a match is bit for bit)."""
    if sx != sxp:
        return 0.0 + 0.0j
    p, q = abs(x), abs(xp)
    far = diag_side is not None and (p > q or (p == q and diag_side * sx > 0))
    if p < q:
        p, q = q, p
    if diag_side is None:
        if k.imag * q <= 1.0:
            return cmath.exp(1j * k * p) * cmath.sin(k * q) / k
        return cmath.exp(1j * k * (p - q)) * (cmath.exp(2j * k * q) - 1.0) / (2j * k)
    if k.imag * q <= 1.0:
        return sx * cmath.exp(1j * k * p) * (1j * cmath.sin(k * q) if far else cmath.cos(k * q))
    e = cmath.exp(2j * k * q)
    return 0.5 * sx * cmath.exp(1j * k * (p - q)) * (e - 1.0 if far else e + 1.0)


# ---------------------------------------------------------------------------
# fixtures and runners
# ---------------------------------------------------------------------------

@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


@pytest.fixture
def run(capsys):
    """main(argv) in this process: (exit code, stdout, stderr)."""
    def _run(*argv: str):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


def fresh_run(*args: str) -> tuple[int, str, str]:
    """`python *args` in a fresh interpreter with src/ on PYTHONPATH and, as in
    the tier-1 command, RuntimeWarning an error: (exit code, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args], env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr
