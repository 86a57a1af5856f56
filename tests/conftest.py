"""Shared samplers for randomized property tests (seeded, reproducible), the
reference formulas that more than one test file checks against, the text and
host rule of the bit fixtures, the in-process CLI fixture and the
fresh-interpreter runner.

numpy is imported only where the `rng` fixture or a host fact needs it, so the
scalar bit fixture, which imports this module, runs without numpy."""

from __future__ import annotations

import cmath
import decimal
import enum
import functools
import importlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import pytest

from gpi1d import CouplingScheme, GpiError, GreekParams, HalflineParams
from gpi1d.cli import main

if TYPE_CHECKING:
    import numpy as np

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


@functools.cache
def _half_pi() -> decimal.Decimal:
    # the decimal module documentation's recipe for pi, at 72 digits
    with decimal.localcontext() as ctx:
        ctx.prec = 72
        lasts, t, s, n, na, d, da = 0, decimal.Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
        return s / 2


def _cos_sin(x: decimal.Decimal) -> tuple[decimal.Decimal, decimal.Decimal]:
    # x = j pi/2 + r with |r| <= pi/4, and the Taylor series of cos r and sin r
    # summed term by term together, to the context precision
    j = (x / _half_pi()).to_integral_value()
    r = x - j * _half_pi()
    cos, sin, term, n = decimal.Decimal(0), decimal.Decimal(0), decimal.Decimal(1), 0
    while True:
        last = cos, sin
        cos += term
        term = term * r / (n + 1)
        sin += term
        term = -term * r / (n + 2)
        n += 2
        if (cos, sin) == last:
            return ((cos, sin), (-sin, cos), (-cos, -sin), (sin, -cos))[int(j) % 4]


def exact_trace(greek: GreekParams, ell: float, energy: float) -> decimal.Decimal:
    """The Floquet trace of the lattice at a float energy to 60 digits.

    tr = sgn 2 RHS / |w| from the band condition (the lattice module docstring),
    with k = i q below zero and sgn = -1 for beta < 0, else +1, the sign of the
    transfer factor that greek_to_transfer builds.  The inputs are the binary
    floats, read exactly.
    """
    dec = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 70
        alpha, beta, cell = dec(greek.alpha), dec(greek.beta), dec(ell)
        re, im = dec(greek.gamma.real), dec(greek.gamma.imag)
        det = alpha * beta + re * re + im * im
        e = dec(energy)
        if e > 0:  # cos(k ell) and sin(k ell) / k
            k = e.sqrt()
            even, odd = _cos_sin(k * cell)
            odd /= k
        elif e < 0:  # cosh(q ell) and sinh(q ell) / q
            q = (-e).sqrt()
            grow = (q * cell).exp()
            even, odd = (grow + 1 / grow) / 2, (grow - 1 / grow) / (2 * q)
        else:
            even, odd = dec(1), cell
        rhs = (4 + det) * even + 2 * (alpha - beta * e) * odd
        trace = 2 * rhs / ((4 - det) ** 2 + 16 * im * im).sqrt()
        return -trace if greek.beta < 0 else trace


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
# bit fixtures: a call's outcome as text, and the host facts its bits hold on
# ---------------------------------------------------------------------------

def bits(value) -> str:
    """A scalar output as text that keeps every bit: floats by `float.hex`,
    complex numbers as 're,im', lists and records field by field."""
    if isinstance(value, enum.Enum):
        return repr(value.value)
    if isinstance(value, (bool, int, str)) or value is None:
        return repr(value)
    if isinstance(value, complex):
        return f"{value.real.hex()},{value.imag.hex()}"
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return "[" + " ".join(map(bits, value)) + "]"
    fields = getattr(value, "__dataclass_fields__", None) or getattr(value, "_fields", None)
    if fields:
        return "(" + " ".join(bits(getattr(value, f)) for f in fields) + ")"
    raise TypeError(f"no bit pattern for {value!r}")


def outcome(text, fn, *args, **kwargs):
    """text(fn(*args, **kwargs)), or the call's refusal as 'raise <type>: <message>':
    a refusal is part of a call's output, any other exception fails the test."""
    try:
        value = fn(*args, **kwargs)
    except (GpiError, ValueError) as exc:
        return f"raise {type(exc).__name__}: {exc}"
    return text(value)


def _dispatch() -> list[str]:
    # numpy's SIMD targets that this CPU enables
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [t for t in getattr(umath, "__cpu_dispatch__", ()) if umath.__cpu_features__.get(t)]


# the host facts a fixture's bits may depend on: libm's rounding comes with the
# C library, numpy's SIMD loops with its version and the enabled targets
HOST_FACTS = {
    "machine": platform.machine,
    "python": platform.python_implementation,
    "libc": lambda: platform.libc_ver()[0],
    "numpy": lambda: importlib.import_module("numpy").__version__,
    "dispatch": _dispatch,
}


def host(*facts: str) -> dict:
    """The named facts of this host, for a fixture's host stamp."""
    return {fact: HOST_FACTS[fact]() for fact in facts}


def skip_off_host(recorded: dict) -> None:
    """Skip the calling test unless this host has every fact of the stamp
    `recorded`; the reason names the first fact that differs."""
    for fact, value in recorded.items():
        here = HOST_FACTS[fact]()
        if here != value:
            pytest.skip(f"recorded with {fact} {value!r}, running with {here!r}:"
                        " the pinned bits may round differently here")


# ---------------------------------------------------------------------------
# fixtures and runners
# ---------------------------------------------------------------------------

@pytest.fixture
def rng() -> np.random.Generator:
    import numpy as np
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
