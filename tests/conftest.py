"""Shared samplers for randomized property tests (seeded, reproducible), the
in-process CLI fixture and the fresh-interpreter runner."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gpi1d import CouplingScheme, GreekParams, HalflineParams
from gpi1d.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def random_greek(rng: np.random.Generator, beta_min: float = 0.05,
                 allow_beta_zero: bool = False) -> GreekParams:
    """A generic coupled matrix-form sample away from degeneracies.

    Rejects decoupled points and (unless allowed) small beta, so that every
    conversion denominator stays above ~1e-2.
    """
    while True:
        alpha = rng.uniform(-3.0, 3.0)
        if allow_beta_zero and rng.uniform() < 0.25:
            beta = 0.0
        else:
            beta = rng.uniform(-3.0, 3.0)
            if abs(beta) < beta_min:
                continue
        gamma = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        g = GreekParams(alpha, beta, gamma)
        if abs(g.det - 4.0) < 1e-2 and abs(gamma.imag) < 1e-2:
            continue
        return g


def random_halfline(rng: np.random.Generator, den_min: float = 1e-2) -> HalflineParams:
    """Coupled halfline sample with all conversion denominators bounded below."""
    while True:
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(-3.0, 3.0)
        c = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        h = HalflineParams(a, b, c)
        if abs(c) < den_min:
            continue
        if abs(a + b - 2 * c.real) < den_min:
            continue
        if abs(a * b - abs(c) ** 2) < den_min:
            continue
        return h


def random_scheme(rng: np.random.Generator, allow_beta_zero: bool = False) -> CouplingScheme:
    return CouplingScheme.from_greek(random_greek(rng, allow_beta_zero=allow_beta_zero))


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
