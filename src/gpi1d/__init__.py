"""One-dimensional generalized point interactions.

Coupling parametrizations and exact conversions, resolvent kernel, point
spectrum with bound/resonance/antibound classification, on-shell scattering
with low/high-energy asymptotics, bound-state Berry phase over coupling loops,
and the generalized Kronig-Penney band structure with its three high-energy
regimes.

The lattice names load `gpi1d.lattice`, and with it numpy, on first access,
so the tasks that never touch a lattice do not import numpy.
"""

from .berry import (BRANCH_MINUS, BRANCH_PLUS, Eigenstate, ParameterLoop,
                    PhaseResult, berry_connection_analytic, berry_phase_discrete,
                    connection_riemann_sum, eigenstate_at, overlap,
                    wilson_loop_phase)
from .errors import (DegenerateOverlap, DegenerateParametrization, GpiError,
                     GridTooCoarse, InsufficientBands, InvalidSheet,
                     InvalidWavenumber, NoBoundState, PoleEvaluation)
from .params import (DEGENERACY_TOL, CarreauParams, ChernoffHughesParams,
                     CouplingScheme, GreekParams, HalflineBoundary,
                     HalflineParams, InverseParams, SebaParams,
                     SeparatedHalflineBC, SymmetryFlags, TransferParams,
                     carreau_to_halfline, chernoff_hughes_to_greek,
                     chernoff_hughes_to_inverse, classify_symmetries,
                     gauge_transform, greek_to_halfline, greek_to_inverse,
                     greek_to_transfer, halfline_to_greek, halfline_to_inverse,
                     halfline_to_transfer, inverse_to_greek,
                     inverse_to_halfline, is_decoupled, scheme_to_transfer,
                     seba_to_halfline, transfer_to_greek, transfer_to_halfline)
from .spectral import (AsymptoticExpansion, BindingKind, BindingRegime,
                       PointKind, ScatteringAmplitudes, ScatteringAsymptotics,
                       SpectralPoint, binding_regime, denominator_D,
                       denominator_F, green_kernel, green_kernel_dx,
                       green_kernel_greek, green_kernel_halfline,
                       kernel_derivative_jump, kernel_residue, point_spectrum,
                       s_matrix, s_matrix_array, scattering_asymptotics)

__version__ = "0.1.0"

__all__ = [
    "BRANCH_MINUS", "BRANCH_PLUS", "AsymptoticExpansion", "BandInterval",
    "BindingKind", "BindingRegime", "CarreauParams", "ChernoffHughesParams",
    "CouplingScheme", "DEGENERACY_TOL", "DegenerateOverlap",
    "DegenerateParametrization", "Eigenstate", "GapInterval", "GpiError",
    "GreekParams", "GridTooCoarse", "HalflineBoundary", "HalflineParams",
    "InsufficientBands", "InvalidSheet", "InvalidWavenumber", "InverseParams",
    "LatticeSpec", "NoBoundState", "ParameterLoop", "PhaseResult",
    "PointKind", "PoleEvaluation", "Regime", "RegimeReport",
    "ScatteringAmplitudes", "ScatteringAsymptotics", "SebaParams",
    "SeparatedHalflineBC", "SpectralPoint", "SymmetryFlags", "TransferParams",
    "asymptotic_regime", "band_condition_lhs_bound", "band_condition_rhs",
    "band_structure", "berry_connection_analytic", "berry_phase_discrete",
    "binding_regime", "bloch_determinant", "carreau_to_halfline",
    "chernoff_hughes_to_greek", "chernoff_hughes_to_inverse",
    "classify_regime", "classify_symmetries", "connection_riemann_sum",
    "denominator_D", "denominator_F", "dispersion", "eigenstate_at",
    "gauge_transform", "greek_to_halfline", "greek_to_inverse",
    "greek_to_transfer", "green_kernel", "green_kernel_dx",
    "green_kernel_greek", "green_kernel_halfline", "halfline_to_greek",
    "halfline_to_inverse", "halfline_to_transfer", "inverse_to_greek",
    "inverse_to_halfline", "is_decoupled", "kernel_derivative_jump",
    "kernel_residue", "monodromy_trace", "overlap", "point_spectrum",
    "s_matrix", "s_matrix_array", "scattering_asymptotics", "scheme_to_transfer",
    "seba_to_halfline", "trace_at_energy", "transfer_to_greek",
    "transfer_to_halfline", "wilson_loop_phase",
]

_LATTICE_NAMES = frozenset((
    "BandInterval", "GapInterval", "LatticeSpec", "Regime", "RegimeReport",
    "asymptotic_regime", "band_condition_lhs_bound", "band_condition_rhs",
    "band_structure", "bloch_determinant", "classify_regime", "dispersion",
    "monodromy_trace", "trace_at_energy",
))


def __getattr__(name):
    # looked up on every access and never stored here, so a wrapper installed
    # on gpi1d.lattice is seen while installed and gone once removed
    if name in _LATTICE_NAMES:
        from . import lattice
        return getattr(lattice, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _LATTICE_NAMES)
