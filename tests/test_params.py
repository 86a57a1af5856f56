"""Parametrization records, exact conversions, and classification."""

from __future__ import annotations

import ast
import cmath
import dataclasses
import inspect
import math
import pathlib
import tokenize
from fractions import Fraction

import numpy as np
import pytest

import gpi1d.params as params_module
import gpi1d.spectral as spectral_module
from gpi1d import (AsymptoticExpansion, CarreauParams, ChernoffHughesParams, CouplingScheme,
                   DegenerateParametrization, GreekParams, HalflineBoundary,
                   HalflineParams, InverseParams, PointKind, ScatteringAmplitudes,
                   ScatteringAsymptotics, SebaParams, SpectralPoint, SymmetryFlags,
                   TransferParams,
                   carreau_to_halfline, chernoff_hughes_to_greek,
                   chernoff_hughes_to_inverse, classify_symmetries,
                   gauge_transform, greek_to_halfline, greek_to_inverse,
                   greek_to_transfer, halfline_to_greek, halfline_to_inverse,
                   halfline_to_transfer, inverse_to_greek, inverse_to_halfline,
                   is_decoupled, scheme_to_transfer, seba_to_halfline,
                   transfer_to_greek, transfer_to_halfline)
from conftest import close, exact_roots, random_greek, random_halfline


# ---------------------------------------------------------------------------
# matrix <-> halfline
# ---------------------------------------------------------------------------

def test_greek_to_halfline_direct_substitution():
    h = greek_to_halfline(GreekParams(4.0, 4.0, -2.0))
    assert close(h.a, 1.0) and close(h.b, 2.0) and close(h.c, 1.0)


def test_greek_to_halfline_delta_prime_anchor():
    # delta' of strength beta has a = b = -c = 1/beta
    for beta in (-2.0, 0.7, 3.0):
        h = greek_to_halfline(GreekParams(0.0, beta, 0.0))
        assert close(h.a, 1 / beta) and close(h.b, 1 / beta) and close(h.c, -1 / beta)


def test_greek_to_halfline_decoupled_point_gives_c_zero():
    h = greek_to_halfline(GreekParams(0.0, 1.0, 2.0))  # det = 4, Im gamma = 0
    assert abs(h.c) < 1e-14


def test_greek_to_halfline_requires_beta():
    with pytest.raises(DegenerateParametrization):
        greek_to_halfline(GreekParams(1.0, 0.0, 0.0))


def test_halfline_to_greek_direct():
    g = halfline_to_greek(HalflineParams(1.0, 2.0, 1.0))
    assert close(g.alpha, 4.0) and close(g.beta, 4.0) and close(g.gamma, -2.0)


def test_halfline_to_greek_delta_prime():
    g = halfline_to_greek(HalflineParams(0.5, 0.5, -0.5))  # 1/beta = 0.5
    assert close(g.alpha, 0.0) and close(g.beta, 2.0) and close(g.gamma, 0.0)


def test_halfline_to_greek_requires_denominator():
    with pytest.raises(DegenerateParametrization):
        halfline_to_greek(HalflineParams(1.0, 1.0, 1.0))


def test_c_zero_round_trips_to_decoupling_locus(rng):
    for _ in range(50):
        a, b = rng.uniform(-3, 3, 2)
        if abs(a + b) < 1e-2:
            continue
        g = halfline_to_greek(HalflineParams(a, b, 0.0))
        assert close(g.det, 4.0, 1e-10)
        assert abs(g.gamma.imag) < 1e-12


# ---------------------------------------------------------------------------
# halfline <-> inverse
# ---------------------------------------------------------------------------

def test_halfline_to_inverse_values():
    # exact inversion of the boundary map: (A,B,C) = (b, a, -c)/(ab - |c|^2)
    i = halfline_to_inverse(HalflineParams(1.0, 2.0, 1.0))
    assert close(i.A, 2.0) and close(i.B, 1.0) and close(i.C, -1.0)


def test_inverse_preserves_spectral_condition(rng):
    # defining property: (1 + kappa A)(1 + kappa B) - kappa^2 |C|^2 and
    # (a + kappa)(b + kappa) - |c|^2 must share their roots
    for _ in range(200):
        h = random_halfline(rng)
        i = halfline_to_inverse(h)
        for kappa in map(float, exact_roots(h)):
            val = (1 + kappa * i.A) * (1 + kappa * i.B) - kappa ** 2 * abs(i.C) ** 2
            assert abs(val) < 1e-9


def test_delta_anchor_inverse_form():
    # the delta interaction of strength alpha is A = B = C = 1/alpha
    for alpha in (-2.0, 1.5):
        g = inverse_to_greek(InverseParams(1 / alpha, 1 / alpha, 1 / alpha))
        assert close(g.alpha, alpha) and close(g.beta, 0.0) and close(g.gamma, 0.0)
        i = greek_to_inverse(GreekParams(alpha, 0.0, 0.0))
        assert close(i.A, 1 / alpha) and close(i.B, 1 / alpha) and close(i.C, 1 / alpha)


def test_inverse_decoupling_criterion(rng):
    for _ in range(50):
        a, b = rng.uniform(-3, 3, 2)
        if abs(a * b) < 1e-2:
            continue
        i = halfline_to_inverse(HalflineParams(a, b, 0.0))
        assert abs(i.C) < 1e-14


def test_inverse_degeneracies():
    # delta' has no inverse form (ab = |c|^2); delta has no halfline form (AB = |C|^2)
    with pytest.raises(DegenerateParametrization):
        halfline_to_inverse(HalflineParams(0.5, 0.5, -0.5))
    with pytest.raises(DegenerateParametrization):
        inverse_to_halfline(InverseParams(0.5, 0.5, 0.5))


def test_overflowing_det_is_degenerate():
    # alpha beta overflows det to inf, and an infinite det would scale the
    # decoupling tolerance to inf: Im gamma = 0.5 would count as decoupled
    with pytest.raises(DegenerateParametrization) as info:
        CouplingScheme.from_greek(GreekParams(1e155, 1e155, 0.5 + 0.5j))
    assert info.value.denominator == "det"
    assert "not finite" in str(info.value)


# ---------------------------------------------------------------------------
# transfer form
# ---------------------------------------------------------------------------

def test_transfer_delta_routes():
    t = TransferParams(1.0, 1.0, 0.0, -2.0, 1.0)  # delta, alpha = tc = -2
    with pytest.raises(DegenerateParametrization):
        transfer_to_halfline(t)
    g = transfer_to_greek(t)
    assert close(g.alpha, -2.0) and close(g.beta, 0.0) and close(g.gamma, 0.0)


def test_transfer_delta_prime():
    t = TransferParams(1.0, 1.0, -2.0, 0.0, 1.0)  # delta', beta = tb = -2
    g = transfer_to_greek(t)
    assert close(g.alpha, 0.0) and close(g.beta, -2.0) and close(g.gamma, 0.0)


def test_transfer_identity_is_free():
    g = transfer_to_greek(TransferParams(1.0, 1.0, 0.0, 0.0, 1.0))
    assert close(g.alpha, 0.0) and close(g.beta, 0.0) and close(g.gamma, 0.0)


def test_separated_scheme_has_no_transfer_form():
    scheme = CouplingScheme.from_separated(HalflineBoundary.robin(1.0), HalflineBoundary.dirichlet())
    with pytest.raises(DegenerateParametrization) as info:
        scheme_to_transfer(scheme)
    assert info.value.denominator == "c (separated scheme has no transfer form)"
    assert info.value.magnitude is None
    coupled = CouplingScheme.from_greek(GreekParams(-1.0, 0.5, 0.3 + 0.4j))
    assert scheme_to_transfer(coupled) == greek_to_transfer(coupled.greek)


def test_transfer_invariants_enforced():
    with pytest.raises(ValueError):
        TransferParams(1.0, 1.0, 1.0, 1.0, 1.0)  # det 0
    with pytest.raises(ValueError):
        TransferParams(2.0, 1.0, 0.0, 0.0, 1.0)  # |omega| != 1
    with pytest.raises(ValueError, match="1j"):
        TransferParams(1.0, 1.0 + 1j, 0.0, 0.0, 1.0)  # complex in a real field
    with pytest.raises(ValueError, match="nan"):
        TransferParams(complex(math.nan, 0.0), 1.0, 0.0, 0.0, 1.0)


def test_transfer_round_trip_consistency(rng):
    # both images of a transfer record describe the same operator
    for _ in range(1000):
        h = random_halfline(rng)
        t = halfline_to_transfer(h)
        h2 = transfer_to_halfline(t)
        assert close(h2.a, h.a, 1e-10) and close(h2.b, h.b, 1e-10) and close(h2.c, h.c, 1e-10)
        g2 = transfer_to_greek(t)
        g = halfline_to_greek(h)
        assert close(g2.alpha, g.alpha, 1e-10) and close(g2.beta, g.beta, 1e-10)
        assert close(g2.gamma, g.gamma, 1e-10)


def test_transfer_matrix_reproduces_boundary_conditions(rng):
    # (f(0+), f'(0+)) = omega * M (f(0-), f'(0-)) must solve the halfline conditions
    for _ in range(200):
        h = random_halfline(rng)
        t = halfline_to_transfer(h)
        f0, d0 = (complex(*rng.uniform(-2, 2, 2)) for _ in range(2))
        vec = t.omega * (t.matrix @ np.array([f0, d0]))
        fp, dp = vec
        assert abs(dp - (h.a * fp + h.c * f0)) < 1e-10
        assert abs(-d0 - (np.conj(h.c) * fp + h.b * f0)) < 1e-10


def test_greek_to_transfer_beta_zero(rng):
    # beta = 0 couplings get a tb = 0 transfer form satisfying the matrix conditions
    for _ in range(100):
        alpha = rng.uniform(-3, 3)
        gamma = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        g = GreekParams(alpha, 0.0, gamma)
        if abs(g.det - 4) < 1e-2 and abs(gamma.imag) < 1e-2:
            continue
        t = greek_to_transfer(g)
        assert t.tb == 0.0
        f0, d0 = complex(0.3, -0.8), complex(1.1, 0.4)
        fp, dp = t.omega * (t.matrix @ np.array([f0, d0]))
        gb = np.conj(g.gamma)
        r1 = dp - d0 - (g.alpha / 2) * (fp + f0) - (g.gamma / 2) * (dp + d0)
        r2 = fp - f0 + (gb / 2) * (fp + f0)
        assert abs(r1) < 1e-9 and abs(r2) < 1e-9


# ---------------------------------------------------------------------------
# literature forms
# ---------------------------------------------------------------------------

def test_carreau_examples():
    h = carreau_to_halfline(CarreauParams(1.0, 2.0, 1.0, math.pi))
    assert close(h.a, 3.0) and close(h.b, 2.0) and close(h.c, 1.0, 1e-12)
    # rho_c alone is delta' with beta = 1/rho_c
    h = carreau_to_halfline(CarreauParams(0.0, 0.0, 2.5, 0.0))
    g = halfline_to_greek(h)
    assert close(g.alpha, 0.0) and close(g.beta, 1 / 2.5) and close(g.gamma, 0.0)
    # rho_c = 0 decouples
    h = carreau_to_halfline(CarreauParams(1.0, -0.5, 0.0, 0.0))
    assert h.c == 0


def test_carreau_matrix_image_closed_form(rng):
    # the matrix image has the closed form with common denominator
    # alpha_c + beta_c + 4 rho_c cos^2(theta_c/2)
    for _ in range(200):
        p = CarreauParams(rng.uniform(-2, 2), rng.uniform(-2, 2),
                          rng.uniform(0, 2), rng.uniform(0, 2 * math.pi))
        den = p.alpha_c + p.beta_c + 4 * p.rho_c * math.cos(p.theta_c / 2) ** 2
        if abs(den) < 1e-2:
            continue
        g = halfline_to_greek(carreau_to_halfline(p))
        assert close(g.alpha, 4 * (p.alpha_c * p.beta_c
                                   + p.rho_c * (p.alpha_c + p.beta_c)) / den, 1e-10)
        assert close(g.beta, 4 / den, 1e-10)
        assert close(g.gamma, 2 * (p.beta_c - p.alpha_c
                                   - 2j * p.rho_c * math.sin(p.theta_c)) / den, 1e-10)


_REAL = "ValueError: parameters must be finite real numbers, got "
_COMPLEX = "ValueError: parameters must be finite complex numbers, got "


@pytest.mark.parametrize("make, refusal", [
    (lambda: GreekParams(1 + 2j, 0.5, 0.3j), _REAL + "(1+2j)"),   # det would be complex
    (lambda: GreekParams(1.0, np.complex128(0.5), 0.3j), _REAL + repr(np.complex128(0.5))),
    (lambda: GreekParams("1.5", 0.5, 0.3j), _REAL + "'1.5'"),      # would store a string
    (lambda: GreekParams(1.0, math.inf, 0.3j), _REAL + "inf"),
    (lambda: GreekParams(1.0, 0.5, complex(0.3, math.nan)), _COMPLEX + "(0.3+nanj)"),
    (lambda: GreekParams(1.0, 0.5, "0.3"), _COMPLEX + "'0.3'"),
    (lambda: HalflineParams(1.0, 2j, 0.5), _REAL + "2j"),
    (lambda: InverseParams(math.nan, 1.0, 0.5), _REAL + "nan"),
    (lambda: ChernoffHughesParams(1j, 0.5), _REAL + "1j"),
    (lambda: ChernoffHughesParams(1.0, complex(math.inf, 0.0)), _COMPLEX + "(inf+0j)"),
    (lambda: SebaParams(-1.0, 0.0, -1.0, 1.0 + 0j), _REAL + "(1+0j)"),
    (lambda: HalflineBoundary.robin(-1j), _REAL + "(-0-1j)"),
    (lambda: CarreauParams(0.5j, 0.0, 1.0, 0.0), _REAL + "0.5j"),
    (lambda: CarreauParams(0.0, 0.0, -1.0, 0.0), "ValueError: rho_c must be nonnegative"),
    (lambda: CarreauParams(0.0, 0.0, 1.0, 7.0), "ValueError: theta_c must lie in [0, 2*pi)"),
    (lambda: SebaParams(-1.0, 0.0, -0.5, 1.0), "ValueError: alpha_s + gamma_s must equal -2"),
    (lambda: SebaParams(-1.0, 1.0, -1.0, 1.0),
     "ValueError: alpha_s*gamma_s - beta_s*delta_s must equal 1"),
    (lambda: seba_to_halfline(SebaParams(-1.0, 0.0, -1.0, 0.0)), "DegenerateParametrization: "
     "degenerate parametrization: denominator 'delta_s' vanishes (|value| = 0.000e+00)"),
    (lambda: HalflineBoundary("foo"), "ValueError: unknown boundary kind 'foo'"),
    (lambda: CouplingScheme(), "ValueError: exactly one of greek/separated must be given"),
    (lambda: CouplingScheme.from_halfline(HalflineParams(1.0, 1.0, 1.0)), "DegenerateParametrization: "
     "degenerate parametrization: denominator 'a+b-2Re(c)' vanishes (|value| = 0.000e+00)"),
], ids=["greek-complex-alpha", "greek-numpy-complex-beta", "greek-string-alpha",
        "greek-inf-beta", "greek-nan-gamma", "greek-string-gamma", "halfline-complex-b",
        "inverse-nan-A", "chernoff-complex-r", "chernoff-inf-z", "seba-complex-delta",
        "robin-complex-slope", "carreau-complex-alpha", "carreau-rho", "carreau-theta",
        "seba-sum", "seba-det", "seba-delta", "kind", "scheme", "scheme-no-matrix-form"])
def test_records_refuse_bad_fields(make, refusal):
    with pytest.raises(Exception) as info:
        make()
    assert f"{type(info.value).__name__}: {info.value}" == refusal


# The four chart records accept exact floats and an exact complex in one test
# and send everything else through the full check; both paths must keep the
# same contract.  A record's fields, as (record, valid fields, index of the
# complex field); a transfer record keeps |omega| = 1 and det = 1 when its
# real fields take the values 1 (ta, td) or 0 (tb, tc) in any numeric type.
_CHART_RECORDS = {
    "greek": (GreekParams, (1.5, -0.5, 0.25 + 0.75j), 2),
    "halfline": (HalflineParams, (1.5, -0.5, 0.25 + 0.75j), 2),
    "inverse": (InverseParams, (1.5, -0.5, 0.25 + 0.75j), 2),
    "transfer": (TransferParams, (1 + 0j, 1.0, 0.0, 0.0, 1.0), 0),
}


def _accepted(name: str, index: int) -> list:
    _, base, cplx = _CHART_RECORDS[name]
    if name == "transfer":
        if index == cplx:  # omega, on the unit circle
            return [1.0, 1, True, np.float64(1.0), Fraction(1), np.complex128(1.0), -1j]
        one = int(base[index])  # 1 for ta and td, 0 for tb and tc
        return [float(one), one, bool(one), np.float64(one), Fraction(one)]
    if index == cplx:
        return [2.0, 3, True, np.float64(2.5), Fraction(1, 3), 0.5j, np.complex128(0.5 + 1j)]
    return [2.0, 3, True, np.float64(2.5), Fraction(1, 3), -0.0]


_CHART_FIELDS = [(name, i) for name, (_, base, _) in _CHART_RECORDS.items()
                 for i in range(len(base))]


@pytest.mark.parametrize("name,index", _CHART_FIELDS)
def test_chart_records_store_every_accepted_field_as_given(name, index):
    cls, base, cplx = _CHART_RECORDS[name]
    for value in _accepted(name, index):
        args = list(base)
        args[index] = value
        rec = cls(*args)
        stored = getattr(rec, dataclasses.fields(cls)[index].name)
        if index == cplx:  # the complex field is stored as a Python complex
            assert type(stored) is complex and stored == complex(value), (value, stored)
        else:  # a real field keeps its value and its type: ints stay ints
            assert type(stored) is type(value) and stored == value, (value, stored)
        assert rec == cls(*args) and hash(rec) == hash(cls(*args))
        for i, field in enumerate(dataclasses.fields(cls)):
            if i != index:
                assert getattr(rec, field.name) == base[i]


@pytest.mark.parametrize("name,index", _CHART_FIELDS)
def test_chart_records_refuse_every_bad_field_with_its_message(name, index):
    cls, base, cplx = _CHART_RECORDS[name]
    if index == cplx:
        bad = [math.nan, math.inf, complex(0.5, math.nan), complex(-math.inf, 0.0), "1j"]
        kind = "complex"
    else:
        bad = [math.nan, math.inf, -math.inf, 1 + 0j, np.complex128(0.5), "1.0"]
        kind = "real"
    for value in bad:
        args = list(base)
        args[index] = value
        with pytest.raises(ValueError) as info:
            cls(*args)
        assert str(info.value) == f"parameters must be finite {kind} numbers, got {value!r}"


def test_transfer_record_checks_its_invariants_on_exact_floats():
    with pytest.raises(ValueError, match=r"^\|omega\| must be 1, got 2.0$"):
        TransferParams(2 + 0j, 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"^ta\*td - tb\*tc must be 1, got 0.0$"):
        TransferParams(1 + 0j, 1.0, 1.0, 1.0, 1.0)


# The records that validate write their own __init__, so their field list
# lives in the annotations, the signature and the instance-dict update; one
# valid set of arguments for each keeps the three in step.
def _own_init_examples() -> dict:
    return {
        GreekParams: (1.0, 2.0, 0.5j),
        HalflineParams: (1.0, 2.0, 0.5j),
        InverseParams: (1.0, 2.0, 0.5j),
        TransferParams: (1 + 0j, 2.0, 1.0, 1.0, 1.0),
        CouplingScheme: (GreekParams(1.0, 2.0, 0.5j), None),
    }


def test_hand_written_record_inits_match_their_fields():
    examples = _own_init_examples()
    # the scheme also stores the two forms its spectral paths read
    g = examples[CouplingScheme][0]
    derived = {CouplingScheme: {"_matrix": params_module._matrix_constants(g),
                                "halfline": greek_to_halfline(g)}}
    own = {obj for mod in (params_module, spectral_module) for obj in vars(mod).values()
           if isinstance(obj, type) and dataclasses.is_dataclass(obj)
           and obj.__module__ == mod.__name__
           and obj.__init__.__code__.co_filename != "<string>"}  # not generated
    assert own == set(examples)
    for cls, args in examples.items():
        fields = dataclasses.fields(cls)
        names = [f.name for f in fields]
        parameters = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in parameters] == names, cls
        for p, f in zip(parameters, fields):
            missing = p.default is inspect.Parameter.empty
            assert missing == (f.default is dataclasses.MISSING), (cls, f.name)
            assert missing or p.default == f.default, (cls, f.name)
        rec = cls(*args)
        assert vars(rec) == {**dict(zip(names, args)), **derived.get(cls, {})}, cls
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, names[0], args[0])


def test_result_records_are_immutable_hashable_tuples():
    low = AsymptoticExpansion("low", "alpha_zero", 1, 0.5 + 0j, 0.5j, 1j, -1j)
    high = AsymptoticExpansion("high", "beta_nonzero", -1, 1.0, 0j, -1j, 2j)
    examples = {
        SymmetryFlags: (("time_reversal", "space_reflection", "quasifree"), (True, False, True)),
        SpectralPoint: (("kappa", "energy", "kind", "mu", "nu"),
                        (1.0, -1.0, PointKind.BOUND, 1 + 0j, 0.5j)),
        ScatteringAmplitudes: (("k", "r", "t"), (2.0, 0.6j, 0.8 + 0j)),
        AsymptoticExpansion: (("regime", "branch", "order", "r_limit", "t_limit", "r_coeff",
                               "t_coeff"), tuple(low)),
        ScatteringAsymptotics: (("low", "high"), (low, high)),
    }
    for cls, (names, args) in examples.items():
        assert issubclass(cls, tuple) and cls._fields == names, cls
        rec = cls(*args)
        assert tuple(rec) == args and rec == cls(**dict(zip(names, args))), cls
        assert hash(rec) == hash(cls(*args)) and len({rec, cls(*args)}) == 1, cls
        with pytest.raises(AttributeError):
            setattr(rec, names[0], args[0])
        *_, last = rec
        assert last is args[-1] and getattr(rec, names[-1]) is args[-1], cls
    assert SpectralPoint._field_defaults == {"mu": None, "nu": None}
    assert SpectralPoint(-0.5, -0.25, PointKind.ANTIBOUND)[3:] == (None, None)
    assert all(not cls._field_defaults for cls in examples if cls is not SpectralPoint)
    assert ScatteringAmplitudes(2.0, 0.6j, 0.8 + 0j).unitarity == 1.0


def test_overflowing_conversions_refuse_as_before():
    # det = alpha beta overflows to inf: the inverse and transfer forms name
    # det; the halfline form is refused first on its beta denominator
    g = GreekParams(1e300, 1e10, 0j)
    for convert in (greek_to_inverse, greek_to_transfer):
        with pytest.raises(DegenerateParametrization) as info:
            convert(g)
        assert info.value.denominator == "det" and info.value.magnitude == math.inf
        assert "not finite" in str(info.value)
    with pytest.raises(DegenerateParametrization) as info:
        greek_to_halfline(g)
    assert info.value.denominator == "beta" and info.value.magnitude == 1e10


@pytest.mark.parametrize("call, name", [
    (lambda: CouplingScheme.from_greek(GreekParams(1.0, 1.0, 1e200j)), "det"),
    (lambda: CouplingScheme(GreekParams(1.0, 1.0, 1e200j))._matrix, "det"),
    (lambda: greek_to_transfer(GreekParams(1.0, 1.0, 1e200j)), "det"),
    (lambda: greek_to_halfline(GreekParams(1e190, 1e190, 1e200j)), "det"),
    (lambda: greek_to_inverse(GreekParams(1e190, 1e190, 1e200j)), "det"),
    (lambda: halfline_to_inverse(HalflineParams(1.0, 1.0, 1e200 + 0j)), "a*b-|c|^2"),
    (lambda: inverse_to_halfline(InverseParams(1.0, 1.0, 1e200 + 0j)), "A*B-|C|^2"),
    (lambda: halfline_to_greek(HalflineParams(1.0, 1.0, 1e200 + 0j)), "a*b-|c|^2"),
    (lambda: CouplingScheme.from_halfline(HalflineParams(1.0, 1.0, 1e200 + 0j)), "a*b-|c|^2"),
    (lambda: inverse_to_greek(InverseParams(1.0, 1.0, 1e200 + 0j)), "A*B-|C|^2"),
    # a product of two finite fields overflows: alpha beta, a b or A B
    (lambda: greek_to_halfline(GreekParams(1e200, 1e200, 0.5 + 0j)), "det"),
    (lambda: greek_to_inverse(GreekParams(1e200, 1e200, 0.5 + 0j)), "det"),
    (lambda: halfline_to_greek(HalflineParams(1e200, 1e200, 0.5 + 0j)), "a*b-|c|^2"),
    (lambda: inverse_to_greek(InverseParams(1e200, 1e200, 0.5 + 0j)), "A*B-|C|^2"),
    (lambda: halfline_to_transfer(HalflineParams(1e200, 1e200, 1e190 + 0j)), "a*b-|c|^2"),
])
def test_squares_past_the_float_range_are_degenerate(call, name):
    # a magnitude past about 1.34e154 squares out of the float range, or a
    # product of two fields leaves it: the conversion names the quantity
    # that is not finite
    with pytest.raises(DegenerateParametrization) as info:
        call()
    assert info.value.denominator == name and info.value.magnitude == math.inf
    assert "not finite" in str(info.value)


@pytest.mark.parametrize("call, name", [
    (lambda: halfline_to_inverse(HalflineParams(1e200, 1.0, 1.0 + 0j)), "a*b-|c|^2"),
    (lambda: inverse_to_halfline(InverseParams(1e200, 1.0, 1.0 + 0j)), "A*B-|C|^2"),
])
def test_minor_small_against_an_overflowing_squared_scale_is_degenerate(call, name):
    # scale^2 = 1e400 leaves the float range, the minor 1e200 does not: the
    # minor is 1e-200 of scale^2, so the involution refuses it by its name
    with pytest.raises(DegenerateParametrization) as info:
        call()
    assert info.value.denominator == name and info.value.magnitude == 1e200
    assert "vanishes" in str(info.value)


def test_involution_keeps_records_whose_squared_scale_alone_overflows():
    # scale^2 = 4e308 overflows, the minor ab = 2e304 and the results do not
    for convert, record in ((halfline_to_inverse, HalflineParams),
                            (inverse_to_halfline, InverseParams)):
        out = tuple(vars(convert(record(2e154, 1e150, 0j))).values())
        assert out == (5e-155, 1e-150, -0j), convert


def test_halfline_and_inverse_to_greek_reach_representable_large_results():
    # 4 (ab - |c|^2) = 4e308 overflows, (ab - |c|^2) / (den / 4) = 2e154 does not
    assert halfline_to_greek(HalflineParams(1e154, 1e154, 1.0 + 0j)) == GreekParams(2e154, 2e-154, 0j)
    assert inverse_to_greek(InverseParams(1e154, 1e154, 1.0 + 0j)) == GreekParams(2e-154, 2e154, 0j)


def test_greek_to_transfer_refuses_a_record_that_misses_det_one():
    # near the decoupled point (beta = 0, |gamma| ~ 2) ta and td cancel, and
    # ta td - tb tc rounds 1.08e-12 away from 1: refused by name, not built
    with pytest.raises(DegenerateParametrization) as info:
        greek_to_transfer(GreekParams(3.715587397906834, 0.0,
                                      1.990990659703986 + 0.02903491371520401j))
    assert str(info.value) == "degenerate parametrization: 'ta*td-tb*tc' misses 1 by 1.080e-12"
    assert info.value.denominator == "ta*td-tb*tc"
    assert 1.07e-12 < info.value.magnitude < 1.09e-12


@pytest.mark.parametrize("greek", [
    GreekParams(-1.0, 0.5, 0.3 + 0.4j),     # coupled, beta != 0
    GreekParams(-1.5, 0.0, 0.3 + 0.4j),     # coupled, beta = 0
    GreekParams(-1.5, 1e-13, 0.3 + 0.4j),   # |beta| below the tolerance: no halfline form
    GreekParams(-3.0, -1.0, 1.0 + 0j),      # decoupled: separated
])
def test_scheme_forms_are_the_conversions_bit_for_bit(greek):
    scheme = CouplingScheme.from_greek(greek)
    if scheme.is_separated:
        assert scheme._matrix is None and scheme.halfline is None
        return
    # repr tells every float apart, signed zeros included
    assert repr(scheme._matrix) == repr(params_module._matrix_constants(greek))
    if abs(greek.beta) <= params_module.DEGENERACY_TOL * greek.scale:
        assert scheme.halfline is None
    else:
        assert repr(scheme.halfline) == repr(greek_to_halfline(greek))
    assert scheme == CouplingScheme(greek) and hash(scheme) == hash(CouplingScheme(greek))
    assert repr(scheme) == f"CouplingScheme(greek={greek!r}, separated=None)"


def test_det_is_inf_where_gamma_squared_overflows():
    assert GreekParams(1.0, 1.0, 1e200j).det == math.inf
    assert GreekParams(1e200, 1e200, 0j).det == math.inf


def test_seba_examples():
    h = seba_to_halfline(SebaParams(-1.0, 0.0, -1.0, 1.0))
    assert close(h.a, -1.0) and close(h.b, -1.0) and close(h.c, 1.0)
    # gamma_s = -1, delta_s = -beta is delta' of strength beta
    beta = 1.7
    h = seba_to_halfline(SebaParams(-1.0, 0.0, -1.0, -beta))
    g = halfline_to_greek(h)
    assert close(g.alpha, 0.0) and close(g.beta, beta) and close(g.gamma, 0.0)


def test_seba_images_are_time_reversal_invariant(rng):
    # c = 1/delta_s is real, so the matrix image always has Im gamma = 0
    for _ in range(100):
        gs = rng.uniform(-4, 2)
        ds = rng.uniform(-3, 3)
        if abs(ds) < 1e-2:
            continue
        als = -2.0 - gs
        bs = (als * gs - 1.0) / ds
        h = seba_to_halfline(SebaParams(als, bs, gs, ds))
        assert h.c.imag == 0.0
        if abs(h.a + h.b - 2 * h.c.real) > 1e-2:
            # matrix image closed form: alpha = (gamma_s+1)^2/delta_s,
            # beta = -delta_s, gamma = gamma_s + 1 (real)
            g = halfline_to_greek(h)
            assert abs(g.gamma.imag) < 1e-12
            assert close(g.alpha, (gs + 1.0) ** 2 / ds, 1e-9)
            assert close(g.gamma, gs + 1.0, 1e-9)
            assert close(g.beta, -ds, 1e-9)


def test_chernoff_hughes_examples():
    # r = 0, z real: off-diagonal coupling alpha = beta = 0, gamma real
    g = chernoff_hughes_to_greek(ChernoffHughesParams(0.0, math.log(3.0)))
    assert close(g.alpha, 0.0) and close(g.beta, 0.0)
    assert abs(g.gamma.imag) < 1e-14 and close(g.gamma.real, 2 * (3 - 1) / (3 + 1))
    # z = 0 is free
    g = chernoff_hughes_to_greek(ChernoffHughesParams(1.0, 0.0))
    assert close(g.alpha, 0.0) and close(g.gamma, 0.0)
    # r = 1, z = log 2
    g = chernoff_hughes_to_greek(ChernoffHughesParams(1.0, math.log(2.0)))
    assert close(g.alpha, 4.0 / 3.0) and close(g.beta, 0.0) and close(g.gamma, 2.0 / 3.0)


def test_chernoff_hughes_beta_always_zero(rng):
    for _ in range(100):
        p = ChernoffHughesParams(rng.uniform(-2, 2),
                                 complex(rng.uniform(-1, 1), rng.uniform(-2, 2)))
        if abs(1 + cmath.exp(p.z)) < 1e-2:
            continue
        assert chernoff_hughes_to_greek(p).beta == 0.0


def test_chernoff_hughes_inverse_route_agrees(rng):
    # the inverse-form record must describe the same operator as the matrix form
    for _ in range(100):
        p = ChernoffHughesParams(rng.uniform(0.1, 2), complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        if abs(p.r * (math.exp(2 * p.z.real) - 1)) < 1e-2:
            continue
        g_direct = chernoff_hughes_to_greek(p)
        g_via_inverse = inverse_to_greek(chernoff_hughes_to_inverse(p))
        assert close(g_via_inverse.alpha, g_direct.alpha, 1e-9)
        assert close(g_via_inverse.beta, g_direct.beta, 1e-9)
        assert close(g_via_inverse.gamma, g_direct.gamma, 1e-9)


def test_chernoff_hughes_rejects_exp_z_minus_one():
    with pytest.raises(DegenerateParametrization):
        chernoff_hughes_to_greek(ChernoffHughesParams(1.0, 1j * math.pi))


@pytest.mark.parametrize("z", [400.0 + 0j, 800.0 + 1j])
def test_chernoff_hughes_past_the_exponential_range(z):
    # e^{2 Re z} overflows; divided by it, alpha = 4r, gamma = 2 and
    # (A, B, C) = (0, 1/r, 0) to rounding
    p = ChernoffHughesParams(1.0, z)
    g = chernoff_hughes_to_greek(p)
    assert close(g.alpha, 4.0, 1e-15) and g.beta == 0.0 and close(g.gamma, 2.0, 1e-15)
    inv = chernoff_hughes_to_inverse(p)
    assert abs(inv.A) <= 1e-300 and close(inv.B, 1.0, 1e-15) and abs(inv.C) <= 1e-170


def test_chernoff_hughes_is_continuous_where_e_to_the_2x_overflows():
    # e^{2x} leaves the float range at x ~ 354.9; on both sides alpha = 4r,
    # gamma = 2, A e^{2x} = B = 1/r and C e^z = 1/r to rounding
    r = 1.5
    with pytest.raises(OverflowError):
        math.exp(2.0 * 355.0)
    for j in range(80):
        z = complex(354.5 + 0.01 * j, 0.3)
        p = ChernoffHughesParams(r, z)
        g = chernoff_hughes_to_greek(p)
        assert close(g.alpha, 4.0 * r, 1e-15) and close(g.gamma, 2.0, 1e-15), z
        inv = chernoff_hughes_to_inverse(p)
        assert close(math.log(inv.A) + 2.0 * z.real, -math.log(r)), z
        assert close(inv.B, 1.0 / r, 1e-15), z
        assert close(cmath.log(inv.C) + z, -math.log(r)), z


# ---------------------------------------------------------------------------
# decoupling, symmetries, gauge
# ---------------------------------------------------------------------------

def test_is_decoupled_examples():
    assert is_decoupled(CouplingScheme.from_greek(GreekParams(0.0, 1.0, 2.0)))
    assert not is_decoupled(CouplingScheme.from_greek(GreekParams(-2.0, 0.0, 0.0)))
    assert is_decoupled(CouplingScheme.from_halfline(HalflineParams(1.0, -2.0, 0.0)))


def test_decoupled_greek_canonicalizes_to_robin_pair():
    s = CouplingScheme.from_greek(GreekParams(1.5, 2.0, 1.0))  # det = 4, gamma = 1
    assert s.is_separated
    assert s.separated.right == HalflineBoundary.robin((2 + 1) / 2)
    assert s.separated.left == HalflineBoundary.robin((2 - 1) / 2)


def test_decoupled_greek_beta_zero_gives_dirichlet_side():
    s = CouplingScheme.from_greek(GreekParams(4.0, 0.0, 2.0))
    assert s.is_separated
    assert s.separated.right.kind == "dirichlet"
    assert s.separated.left == HalflineBoundary.robin(1.0)  # alpha/4
    s = CouplingScheme.from_greek(GreekParams(4.0, 0.0, -2.0))
    assert s.separated.left.kind == "dirichlet"
    assert s.separated.right == HalflineBoundary.robin(1.0)


def test_robin_zero_is_neumann():
    assert HalflineBoundary.robin(0.0).kind == "neumann"


def test_classify_symmetries_examples():
    flags = classify_symmetries(CouplingScheme.from_greek(GreekParams(0.0, -2.0, 0.0)))
    assert (flags.time_reversal, flags.space_reflection, flags.quasifree) == (True, True, False)
    flags = classify_symmetries(CouplingScheme.from_halfline(HalflineParams(1.0, 2.0, 1j)))
    assert (flags.time_reversal, flags.space_reflection, flags.quasifree) == (False, False, False)
    flags = classify_symmetries(CouplingScheme.from_greek(GreekParams(0.0, 0.0, 0.0)))
    assert (flags.time_reversal, flags.space_reflection, flags.quasifree) == (True, True, True)
    # phase-equivalent ("quasifree") family: gamma purely imaginary
    flags = classify_symmetries(CouplingScheme.from_greek(GreekParams(0.0, 0.0, 0.7j)))
    assert flags.quasifree and not flags.time_reversal


def test_space_reflection_implies_time_reversal(rng):
    for _ in range(300):
        g = random_greek(rng, allow_beta_zero=True)
        flags = classify_symmetries(CouplingScheme.from_greek(g))
        assert (not flags.space_reflection) or flags.time_reversal


def test_gauge_transform():
    h = gauge_transform(HalflineParams(-3.0, -1.0, 0.5), math.pi / 2)
    assert close(h.a, -3.0) and close(h.b, -1.0) and close(h.c, 0.5j)
    h0 = HalflineParams(1.0, 2.0, 0.3 - 0.4j)
    assert gauge_transform(h0, 0.0) == h0
    assert abs(abs(gauge_transform(h0, 2.1).c) - abs(h0.c)) < 1e-15


def test_each_tolerance_literal_is_one_named_constant():
    # 1e-12 is written once per meaning: DEGENERACY_TOL (zero tests, record
    # constraints, Berry overlaps) and lattice's root-solver stop _EDGE_XTOL;
    # every other site reads one of the names.  Comments and docstrings are
    # not NUMBER tokens, so they may still say 1e-12.  spectral's pole rule and
    # its residue window are DEGENERACY_TOL too, so spectral writes no 1e-9.
    sites, windows = [], []
    for path in sorted(pathlib.Path(params_module.__file__).parent.glob("*.py")):
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type != tokenize.NUMBER:
                    continue
                value = ast.literal_eval(tok.string)
                if value == 1e-12:
                    sites.append((path.name, tok.line.split("=")[0].strip()))
                elif value == 1e-9 and path.name == "spectral.py":
                    windows.append(tok.line.strip())
    assert sorted(sites) == [("lattice.py", "_EDGE_XTOL"), ("params.py", "DEGENERACY_TOL")]
    assert windows == []
