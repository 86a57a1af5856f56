"""Semantic exception hierarchy for gpi1d."""

from __future__ import annotations

import math


class GpiError(Exception):
    """Base class for all gpi1d errors."""


class DegenerateParametrization(GpiError):
    """A conversion denominator is (numerically) zero.

    The offending denominator is named so callers can route through an
    alternative parametrization (e.g. the inverse form when beta = 0).
    """

    def __init__(self, denominator: str, magnitude: float | None = None):
        self.denominator = denominator
        self.magnitude = magnitude
        msg = f"degenerate parametrization: denominator {denominator!r} vanishes"
        if magnitude is not None:
            if not math.isfinite(magnitude):
                msg = f"degenerate parametrization: {denominator!r} is not finite"
            msg += f" (|value| = {magnitude:.3e})"
        super().__init__(msg)


class InvalidSheet(GpiError):
    """Wavenumber off the physical sheet (Im k <= 0) where Im k > 0 is required."""


class PoleEvaluation(GpiError):
    """Resolvent kernel evaluated at (or too close to) a pole."""


class InvalidWavenumber(GpiError):
    """Scattering requested at a non-positive or non-finite wavenumber."""


class NoBoundState(GpiError):
    """The requested eigenstate branch carries no bound state (kappa <= 0)."""


class DegenerateOverlap(GpiError):
    """A step overlap in a discrete phase product is numerically zero."""


class GridTooCoarse(GpiError):
    """Band-edge bracketing was inconsistent; the sampling grid missed features."""


class InsufficientBands(GpiError):
    """Asymptotic fit requested over too short a band-index range."""
