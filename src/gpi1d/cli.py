"""Command-line interface: conversions, spectra, scattering, Berry phase, bands.

Every task prints a machine-readable table to stdout (JSON by default, CSV on
request) and diagnostics to stderr.  A plain key = value config file can seed
any option; explicit flags override the file.  Exit codes: 0 success,
2 invalid configuration, 3 degenerate parametrization.

The argument parser is built once per process, on the first `main` call, and
reused by every later call.  Its tasks share two option parents: --format and
--config (every task), and --scheme with the flags of every scheme's fields,
read from `_SCHEMES` (every task but berry), so each option is registered once.

Complex values serialize as two-element [re, im] arrays in JSON and as paired
*_re / *_im columns in CSV; CSV carries the summary as leading '# key = value'
comment lines so both formats encode identical values.

Each task hands its table to `_emit` as columns, one list of cells per
column, and `_emit` renders each column's cells once: a column of finite floats
or of ints by `repr`, a column of `str` by the JSON string encoder, any other
column (non-finite floats, complex or nested values, mixed types) cell by cell
through the JSON encoder; it then joins each row's cells, one row per line,
so the bytes are those of `json.dumps` of each row.  CSV rows are written by
`csv.writer`.

The JSON object holds "summary", "columns" and "rows", with summary and
columns indented by two spaces and one table row per line:

    {
      "summary": {
        "task": "scatter",
        ...
      },
      "columns": [
        "k",
        ...
      ],
      "rows": [
        [0.05, -0.99, 0.065, -0.023, 0.088, 1.0],
        ...
      ]
    }
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from json.encoder import encode_basestring_ascii

from . import berry as berry_mod
from . import spectral
from .errors import DegenerateParametrization, GpiError
from .params import (CarreauParams, ChernoffHughesParams, CouplingScheme,
                     GreekParams, HalflineParams, InverseParams, SebaParams,
                     TransferParams, carreau_to_halfline,
                     chernoff_hughes_to_greek, classify_symmetries,
                     greek_to_halfline, greek_to_inverse, greek_to_transfer,
                     inverse_to_greek, is_decoupled, seba_to_halfline,
                     transfer_to_greek, transfer_to_halfline)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return out


def _merge_config(args: argparse.Namespace, config: dict[str, str]) -> None:
    # flags override the file: fill only options the command line left at None
    for key, raw in config.items():
        if key in ("task", "command"):
            continue
        if not hasattr(args, key):
            raise ConfigError(f"unknown config key {key!r}")
        if getattr(args, key) is None:
            setattr(args, key, raw)


def _as_float(name: str, value) -> float:
    if value is None:
        raise ConfigError(f"missing required numeric option {name!r}")
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"option {name!r}: not a number: {value!r}") from exc
    if not math.isfinite(out):
        raise ConfigError(f"option {name!r} must be finite, got {out!r}")
    return out


def _as_int(name: str, value) -> int:
    out = _as_float(name, value)
    if out != int(out):
        raise ConfigError(f"option {name!r} must be an integer, got {value!r}")
    return int(out)


def _transfer_scheme(omega_re, omega_im, ta, tb, tc, td) -> CouplingScheme:
    # a transfer record with no matrix form is read through its halfline form
    t = TransferParams(complex(omega_re, omega_im), ta, tb, tc, td)
    try:
        return CouplingScheme.from_greek(transfer_to_greek(t))
    except DegenerateParametrization:
        return CouplingScheme.from_halfline(transfer_to_halfline(t))


# each --scheme's options, in the order its builder takes their float values
_SCHEMES = {
    "greek": (("alpha", "beta", "gamma_re", "gamma_im"), lambda al, be, re, im:
              CouplingScheme.from_greek(GreekParams(al, be, complex(re, im)))),
    "halfline": (("a", "b", "c_re", "c_im"), lambda a, b, re, im:
                 CouplingScheme.from_halfline(HalflineParams(a, b, complex(re, im)))),
    "inverse": (("inv_a", "inv_b", "inv_c_re", "inv_c_im"), lambda a, b, re, im:
                CouplingScheme.from_greek(inverse_to_greek(InverseParams(a, b, complex(re, im))))),
    "transfer": (("omega_re", "omega_im", "ta", "tb", "tc", "td"), _transfer_scheme),
    "carreau": (("alpha_c", "beta_c", "rho_c", "theta_c"), lambda *v:
                CouplingScheme.from_halfline(carreau_to_halfline(CarreauParams(*v)))),
    "seba": (("alpha_s", "beta_s", "gamma_s", "delta_s"), lambda *v:
             CouplingScheme.from_halfline(seba_to_halfline(SebaParams(*v)))),
    "chernoff-hughes": (("r", "z_re", "z_im"), lambda r, re, im: CouplingScheme.from_greek(
        chernoff_hughes_to_greek(ChernoffHughesParams(r, complex(re, im))))),
}


def _build_scheme(args: argparse.Namespace) -> CouplingScheme:
    kind = args.scheme
    if kind is None:
        raise ConfigError("no parametrization given (use --scheme)")
    if kind not in _SCHEMES:
        raise ConfigError(f"unknown scheme {kind!r}; choose from {sorted(_SCHEMES)}")
    names, build = _SCHEMES[kind]
    values = [_as_float(name, getattr(args, name)) for name in names]
    try:
        return build(*values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _c(value: complex) -> list[float]:
    value = complex(value)
    return [value.real, value.imag]


# ---------------------------------------------------------------------------
# Tasks: each returns (summary: dict, header: list[str], columns: list[list]),
# one column of cells per header entry
# ---------------------------------------------------------------------------

def _task_convert(scheme: CouplingScheme, args) -> tuple[dict, list, list]:
    flags = classify_symmetries(scheme)
    summary: dict = {
        "task": "convert",
        "decoupled": is_decoupled(scheme),
        "time_reversal": flags.time_reversal,
        "space_reflection": flags.space_reflection,
        "quasifree": flags.quasifree,
    }
    header = ["form", "field", "value_re", "value_im"]
    columns: list[list] = [[] for _ in header]
    forms, fields, re_parts, im_parts = columns
    if scheme.is_separated:
        sep = scheme.separated
        summary["right"] = f"{sep.right.kind}({sep.right.slope:g})"
        summary["left"] = f"{sep.left.kind}({sep.left.slope:g})"
        return summary, header, columns
    g = scheme.greek
    summary["det"] = g.det
    # a record's instance dict holds its fields, in order, and nothing else
    for form, conv in (("greek", lambda g: g), ("halfline", greek_to_halfline),
                       ("inverse", greek_to_inverse), ("transfer", greek_to_transfer)):
        try:
            rec = conv(g)
        except DegenerateParametrization as exc:
            print(f"note: {form} form not available: {exc}", file=sys.stderr)
            continue
        for name, val in vars(rec).items():
            val = complex(val)
            forms.append(form)
            fields.append(name)
            re_parts.append(val.real)
            im_parts.append(val.imag)
    return summary, header, columns


def _task_bound_states(scheme: CouplingScheme, args) -> tuple[dict, list, list]:
    points = spectral.point_spectrum(scheme)
    summary = {"task": "bound-states",
               "n_bound": sum(p.kind is spectral.PointKind.BOUND for p in points)}
    mu = [0.0j if p.mu is None else p.mu for p in points]
    nu = [0.0j if p.nu is None else p.nu for p in points]
    columns = [[p.kind.value for p in points], [p.kappa for p in points],
               [p.energy for p in points], [v.real for v in mu], [v.imag for v in mu],
               [v.real for v in nu], [v.imag for v in nu]]
    return summary, ["kind", "kappa", "energy", "mu_re", "mu_im", "nu_re", "nu_im"], columns


def _task_scatter(scheme: CouplingScheme, args) -> tuple[dict, list, list]:
    import numpy as np

    kmin = _as_float("kmin", args.kmin)
    kmax = _as_float("kmax", args.kmax)
    steps = _as_int("steps", args.steps)
    if not (0 < kmin <= kmax) or steps < 1:
        raise ConfigError("need 0 < kmin <= kmax and steps >= 1")
    k = kmin + (kmax - kmin) * np.arange(steps) / (steps - 1) if steps > 1 else np.full(1, kmin)
    r, t = spectral.s_matrix_array(scheme, k)
    unitarity = np.abs(r) ** 2 + np.abs(t) ** 2
    columns = [col.tolist() for col in (k, r.real, r.imag, t.real, t.imag, unitarity)]
    summary = {"task": "scatter", "kmin": kmin, "kmax": kmax, "steps": steps}
    return summary, ["k", "r_re", "r_im", "t_re", "t_im", "unitarity"], columns


def _task_berry(args) -> tuple[dict, list, list]:
    import numpy as np

    try:  # ConfigError from a field passes through
        loop = berry_mod.ParameterLoop(
            a=_as_float("a", args.a),
            c_mod=_as_float("cmod", args.cmod),
            samples=_as_int("samples", args.samples),
            branch=args.branch or "plus")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    result = berry_mod.berry_phase_discrete(loop)
    summary = {"task": "berry", "phase": result.phase, "samples": loop.samples,
               "branch": loop.branch, "kappa": loop.kappa}
    n = loop.samples
    w = result._overlaps
    xi = 2.0 * math.pi * np.arange(n) / n
    columns = [list(range(n)), xi.tolist(), w.real.tolist(), w.imag.tolist()]
    return summary, ["step", "xi", "overlap_re", "overlap_im"], columns


def _task_bands(scheme: CouplingScheme, args) -> tuple[dict, list, list]:
    from . import lattice as lattice_mod

    ell = _as_float("ell", args.ell)
    m_max = _as_int("mmax", args.mmax)
    if m_max < 1:
        raise ConfigError("need mmax >= 1")
    try:
        spec = lattice_mod.LatticeSpec(scheme, ell)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    bands, gaps = lattice_mod.band_structure(spec, m_max)
    intervals = [*bands, *gaps]
    columns = [["band"] * len(bands) + ["gap"] * len(gaps), [iv.m for iv in intervals],
               [iv.e_lo for iv in intervals], [iv.e_hi for iv in intervals],
               [iv.width for iv in intervals]]
    summary: dict = {"task": "bands", "ell": ell, "m_max": m_max,
                     "n_bands": len(bands), "n_gaps": len(gaps)}
    fit, m_range = args.fit_range, None
    if fit is not None:
        try:
            lo_s, hi_s = str(fit).replace(",", ":").split(":")
            m_range = (int(lo_s), int(hi_s))
        except ValueError as exc:
            raise ConfigError(f"--fit-range must be 'lo:hi', got {fit!r}") from exc
    elif len(bands) >= 6:
        hi = bands[-1].m - 1
        m_range = (max(bands[0].m, hi - 20), hi)
    if m_range is not None:
        report = lattice_mod.asymptotic_regime(spec, m_range)
        summary.update({
            "regime": report.regime.value,
            "fit_range": list(m_range),
            "relative_error": report.relative_error,
        })
        for key, val in sorted(report.predicted.items()):
            summary[f"predicted_{key}"] = val
        for key, val in sorted(report.measured.items()):
            summary[f"measured_{key}"] = val
    return summary, ["type", "m", "e_lo", "e_hi", "width"], columns


_SCHEME_TASKS = {"convert": _task_convert, "bound-states": _task_bound_states,
                 "scatter": _task_scatter, "bands": _task_bands}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _emit(summary: dict, header: list, columns: list, fmt: str) -> str:
    """The task's output text; `columns` holds one list of cells per header entry."""
    if fmt == "json":
        head = json.dumps({"summary": summary, "columns": header}, indent=2,
                          default=_json_default)
        rows = list(map(", ".join, zip(*map(_json_cells, columns))))
        body = "[\n    [" + "],\n    [".join(rows) + "]\n  ]" if rows else "[]"
        return f'{head[:-2]},\n  "rows": {body}\n}}\n'
    buf = io.StringIO()
    for key, val in summary.items():
        buf.write(f"# {key} = {_scalar_str(val)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return buf.getvalue()


def _json_cells(column: list) -> list[str]:
    # each cell as json.dumps writes it inside a row
    kinds = set(map(type, column))
    # a nan or an infinity makes the sum one too (so may an overflow, which only
    # sends a finite column down the general path)
    if kinds == {int} or kinds == {float} and math.isfinite(sum(column)):
        return list(map(repr, column))
    if kinds == {str}:
        return list(map(encode_basestring_ascii, column))
    return list(map(_encode_cell, column))


def _scalar_str(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _json_default(v):
    if isinstance(v, complex):
        return _c(v)
    raise TypeError(f"not serializable: {v!r}")


_encode_cell = json.JSONEncoder(default=_json_default).encode


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call and reused: parsing keeps no state in the
    # parser, and every default is None, so no run sees another's values
    io_opts = argparse.ArgumentParser(add_help=False)
    io_opts.add_argument("--format", choices=("json", "csv"), default=None)
    io_opts.add_argument("--config", default=None, help="key = value file; flags override")
    scheme_opts = argparse.ArgumentParser(add_help=False)
    scheme_opts.add_argument("--scheme", choices=sorted(_SCHEMES), default=None,
                             help="input parametrization")
    for names, _ in _SCHEMES.values():
        for name in names:
            scheme_opts.add_argument("--" + name.replace("_", "-"), default=None)
    coupled = [io_opts, scheme_opts]

    parser = argparse.ArgumentParser(
        prog="gpi1d",
        description="Point couplings on the line: conversions, spectra, scattering, "
                    "Berry phase, Kronig-Penney bands.")
    sub = parser.add_subparsers(dest="task", required=True)
    sub.add_parser("convert", parents=coupled, help="all representable parametrizations")
    sub.add_parser("bound-states", parents=coupled, help="roots of the spectral denominator")
    p = sub.add_parser("scatter", parents=coupled,
                       help="reflection/transmission over a k grid")
    p.add_argument("--kmin", default=None)
    p.add_argument("--kmax", default=None)
    p.add_argument("--steps", default=None)
    p = sub.add_parser("berry", parents=[io_opts],
                       help="discrete Berry phase of a coupling loop")
    p.add_argument("--a", default=None)
    p.add_argument("--cmod", default=None)
    p.add_argument("--samples", default=None)
    p.add_argument("--branch", choices=("plus", "minus"), default=None)
    p = sub.add_parser("bands", parents=coupled, help="band/gap intervals and regime report")
    p.add_argument("--ell", default=None)
    p.add_argument("--mmax", default=None)
    p.add_argument("--fit-range", dest="fit_range", default=None,
                   help="band index range 'lo:hi' for the asymptotic fit")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            _merge_config(args, _load_config(args.config))
        fmt = args.format or "json"
        if fmt not in ("json", "csv"):
            raise ConfigError(f"unknown format {fmt!r}")
        if args.task == "berry":
            summary, header, columns = _task_berry(args)
        else:
            summary, header, columns = _SCHEME_TASKS[args.task](_build_scheme(args), args)
        sys.stdout.write(_emit(summary, header, columns, fmt))
        return EXIT_OK
    except (ConfigError, GpiError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE if isinstance(exc, DegenerateParametrization) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
