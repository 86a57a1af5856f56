"""Command-line interface: tasks, formats, config merging, exit codes; the
numpy-free scalar path and the demos in fresh interpreters."""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math

import pytest

from gpi1d import (CarreauParams, ChernoffHughesParams, CouplingScheme,
                   DegenerateParametrization, GreekParams, HalflineParams, InverseParams,
                   ParameterLoop, SebaParams, TransferParams, berry_phase_discrete,
                   carreau_to_halfline, chernoff_hughes_to_greek, classify_symmetries, cli,
                   inverse_to_greek, s_matrix, seba_to_halfline, transfer_to_greek,
                   transfer_to_halfline)
from gpi1d.cli import main
from conftest import SRC, fresh_run


def _parse_csv(text: str) -> tuple[dict, list[dict]]:
    summary: dict[str, str] = {}
    table_lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            summary[key.strip()] = val.strip()
        else:
            table_lines.append(line)
    reader = csv.DictReader(io.StringIO("\n".join(table_lines)))
    return summary, list(reader)


def test_convert_delta_prime_lists_halfline(run):
    code, out, _ = run("convert", "--scheme", "greek", "--alpha", "0",
                       "--beta", "-2", "--gamma-re", "0", "--gamma-im", "0")
    assert code == 0
    payload = json.loads(out)
    rows = {(r[0], r[1]): complex(r[2], r[3]) for r in payload["rows"]}
    assert abs(rows[("halfline", "a")] - (-0.5)) < 1e-14
    assert abs(rows[("halfline", "b")] - (-0.5)) < 1e-14
    assert abs(rows[("halfline", "c")] - 0.5) < 1e-14
    assert payload["summary"]["time_reversal"] is True
    assert payload["summary"]["decoupled"] is False


def test_convert_decoupled_scheme(run):
    code, out, _ = run("convert", "--scheme", "halfline", "--a", "1",
                       "--b", "-2", "--c-re", "0", "--c-im", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["decoupled"] is True
    assert payload["summary"]["right"] == "robin(1)"
    assert payload["summary"]["left"] == "robin(-2)"


def test_bound_states_task(run):
    code, out, _ = run("bound-states", "--scheme", "greek", "--alpha", "-2",
                       "--beta", "0", "--gamma-re", "0", "--gamma-im", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["n_bound"] == 1
    kind, kappa, energy = payload["rows"][0][:3]
    assert kind == "bound" and abs(kappa - 1.0) < 1e-12 and abs(energy + 1.0) < 1e-12


def test_scatter_unitarity_column(run):
    code, out, _ = run("scatter", "--scheme", "greek", "--alpha", "-2", "--beta", "0",
                       "--gamma-re", "0", "--gamma-im", "0",
                       "--kmin", "1", "--kmax", "1", "--steps", "1")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert abs(row[5] - 1.0) < 1e-12
    assert abs(complex(row[1], row[2]) - (-0.5 + 0.5j)) < 1e-12


def test_berry_task(run):
    code, out, _ = run("berry", "--a", "-2", "--cmod", "1", "--samples", "1000")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["summary"]["phase"] - math.pi) < 1e-5
    assert len(payload["rows"]) == 1000
    steps = [row[0] for row in payload["rows"]]
    assert steps == list(range(1000)) and all(type(j) is int for j in steps)
    overlaps = berry_phase_discrete(ParameterLoop(-2.0, 1.0, 1000)).per_step_overlaps
    assert tuple(complex(row[2], row[3]) for row in payload["rows"]) == overlaps


def test_bands_task(run):
    code, out, _ = run("bands", "--scheme", "greek", "--alpha", "0", "--beta", "1",
                       "--gamma-re", "0", "--gamma-im", "0",
                       "--ell", "1", "--mmax", "12", "--fit-range", "6:11")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["regime"] == "delta_prime_like"
    kinds = {r[0] for r in payload["rows"]}
    assert kinds == {"band", "gap"}


def test_csv_and_json_encode_identical_values(run):
    args = ("scatter", "--scheme", "halfline", "--a", "-1", "--b", "2",
            "--c-re", "0.4", "--c-im", "0.3", "--kmin", "0.5", "--kmax", "2.5",
            "--steps", "7")
    code_j, out_j, _ = run(*args, "--format", "json")
    code_c, out_c, _ = run(*args, "--format", "csv")
    assert code_j == 0 and code_c == 0
    payload = json.loads(out_j)
    summary_c, rows_c = _parse_csv(out_c)
    assert len(rows_c) == len(payload["rows"])
    for row_j, row_c in zip(payload["rows"], rows_c):
        for name, val in zip(payload["columns"], row_j):
            assert float(row_c[name]) == pytest.approx(val, abs=0.0)
    for key in payload["summary"]:
        assert key in summary_c


def test_output_is_deterministic(run):
    args = ("bound-states", "--scheme", "halfline", "--a", "-3", "--b", "-1",
            "--c-re", "0.5", "--c-im", "0")
    _, out1, _ = run(*args)
    _, out2, _ = run(*args)
    assert out1 == out2


def test_config_file_and_flag_override(run, tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(
        "scheme = greek\nalpha = -2\nbeta = 0\ngamma-re = 0\ngamma-im = 0\n"
        "kmin = 1\nkmax = 2\nsteps = 2\nformat = json\n")
    code, out, _ = run("scatter", "--config", str(cfg))
    assert code == 0
    assert len(json.loads(out)["rows"]) == 2
    # flag overrides the file
    code, out, _ = run("scatter", "--config", str(cfg), "--steps", "5")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 5


@pytest.mark.parametrize("text, message", [
    ("\n# blank, comment and task lines are skipped\ntask = x\nnonsense = 42\n",
     "unknown config key 'nonsense'"),
    ("alpha 1\n", "{cfg}:1: expected key = value"),
    ("format = xml\n", "unknown format 'xml'"),
    ("scheme = foo\n", f"unknown scheme 'foo'; choose from {sorted(cli._SCHEMES)}"),
    (None, "cannot read config file: [Errno 2] No such file or directory: '{cfg}'"),
], ids=["unknown_key", "no_equals", "format", "scheme", "missing_file"])
def test_bad_config_file_exits_2(run, tmp_path, text, message):
    cfg = tmp_path / "bad.cfg"
    if text is not None:
        cfg.write_text(text)
    code, out, err = run("bound-states", "--config", str(cfg))
    assert (code, out, err) == (2, "", f"error: {message.format(cfg=cfg)}\n")


def test_degenerate_parametrization_exits_3(run):
    # the halfline family a + b = 2 Re c has no matrix form
    code, _, err = run("bound-states", "--scheme", "halfline", "--a", "1",
                       "--b", "1", "--c-re", "1", "--c-im", "0")
    assert code == 3 and "degenerate" in err.lower()
    # seba with delta_s = 0 is degenerate as well
    code, _, err = run("convert", "--scheme", "seba", "--alpha-s", "-1",
                       "--beta-s", "0", "--gamma-s", "-1", "--delta-s", "0")
    assert code == 3
    # |gamma|^2 = 1e400 leaves the float range: one error line, no traceback
    code, out, err = run("convert", "--scheme", "greek", "--alpha", "1", "--beta", "1",
                         "--gamma-re", "0", "--gamma-im", "1e200")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "'det'" in err


def test_scatter_past_the_float_range_exits_3(run):
    # the halfline form's |c|^2 leaves the float range: one error line, no traceback
    code, out, err = run("scatter", "--scheme", "greek", "--alpha=-3.2201753949266605e-205",
                         "--beta=-1.795297460710003e+138", "--gamma-re=2.7846321312815223e+146",
                         "--gamma-im=-2.42813073191864e+146", "--kmin", "0.5", "--kmax", "2",
                         "--steps", "4")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "'|c|^2'" in err


def test_cli_runs_as_module():
    code, out, _ = fresh_run("-m", "gpi1d.cli", "berry", "--a", "-2", "--cmod", "0.3",
                             "--samples", "64")
    assert code == 0
    assert abs(json.loads(out)["summary"]["phase"] - math.pi) < 1e-9


@pytest.mark.parametrize("task", [["convert"], ["bands", "--ell", "1", "--mmax", "10"]])
def test_near_beta_zero_coupling_has_a_transfer_form(run, task):
    # |beta| = 1e-12 sits just above the beta = 0 chart edge; the transfer form
    # (and the band structure built on it) must exist there
    code, out, _ = run(*task, "--scheme", "greek", "--alpha=-2.681821950849469",
                       "--beta=1e-12", "--gamma-re=0.26487946756737557",
                       "--gamma-im=-0.978265951835119")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["task"] == task[0]
    assert payload["rows"]


def test_bands_task_keeps_the_narrow_gaps_of_a_weak_coupling(run):
    # every (pi m)^2 anchor carries a gap with |tr| - 2 of 1e-4 or less
    code, out, _ = run("bands", "--scheme", "greek", "--alpha=-0.05", "--beta=1e-5",
                       "--gamma-re", "0", "--gamma-im", "0.1", "--ell", "1", "--mmax", "12")
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["n_bands"] == 12 and summary["n_gaps"] == 11


_GENERIC = ("--scheme", "greek", "--alpha", "-1.5", "--beta", "1",
            "--gamma-re", "0.3", "--gamma-im", "0.4")
_TASK_ARGV = {
    "convert": _GENERIC,
    "bound-states": _GENERIC,
    "scatter": _GENERIC + ("--kmin", "0.05", "--kmax", "20", "--steps", "50"),
    "berry": ("--a", "-2", "--cmod", "0.6", "--samples", "50"),
    "bands": _GENERIC + ("--ell", "1", "--mmax", "12"),
}


@pytest.mark.parametrize("task", sorted(_TASK_ARGV))
def test_json_parses_like_the_indented_encoding(run, monkeypatch, task):
    seen = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda *a: seen.append(a) or emit(*a))
    code, out, _ = run(task, *_TASK_ARGV[task])
    assert code == 0
    summary, header, rows, _fmt = seen[0]
    payload = {"summary": summary, "columns": header, "rows": rows}
    assert json.loads(out) == json.loads(json.dumps(payload, indent=2,
                                                    default=cli._json_default))
    # one row per line
    lines = out.splitlines()
    start = lines.index('  "rows": [')
    assert lines[start + 1 + len(rows):] == ["  ]", "}"]
    assert [json.loads(line.strip().rstrip(",")) for line in lines[start + 1:-2]] == \
        json.loads(out)["rows"]


@pytest.mark.parametrize("rows", [
    [[0.05, -0.99, 0.065], [0.1, -0.98, 0.07]],
    [["band", 1, 2.0, 3.0, 1.0], ["gap", 1, 3.0, 4.0, 1.0]],
    [["a], [b", 1.0], ["c", 2.0]],           # a row boundary inside a string
    [[1.0, 2j, 3 - 1j], [4.0, 5j, 6j]],      # complex values encode as nested lists
    [[1, [2, [3]]], [[4]]], [[], []], [[7.0]], [],
])
def test_json_rows_are_the_per_row_encodings_one_per_line(rows):
    text = cli._emit({"task": "x"}, ["c"], rows, "json")
    body = text[text.index('"rows": ') + len('"rows": '):-len("\n}\n")]
    encoded = [json.dumps(row, default=cli._json_default) for row in rows]
    assert body == ("[\n    " + ",\n    ".join(encoded) + "\n  ]" if rows else "[]")


def test_scatter_table_matches_scalar_calls(run):
    kmin, kmax, steps = 0.05, 20.0, 10_000
    code, out, _ = run("scatter", *_GENERIC, "--kmin", str(kmin), "--kmax", str(kmax),
                       "--steps", str(steps))
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == steps
    scheme = CouplingScheme.from_greek(GreekParams(-1.5, 1.0, 0.3 + 0.4j))
    worst = 0.0
    for j, row in enumerate(rows):
        k = kmin + (kmax - kmin) * j / (steps - 1)
        amp = s_matrix(scheme, k)
        want = [k, amp.r.real, amp.r.imag, amp.t.real, amp.t.imag, amp.unitarity]
        worst = max(worst, max(abs(a - b) for a, b in zip(row, want)))
    assert worst <= 1e-15


def test_scatter_table_and_berry_loop_at_1e5_points(run):
    code, out, _ = run("scatter", *_GENERIC, "--kmin", "0.05", "--kmax", "20",
                       "--steps", "100000")
    assert code == 0
    scatter = json.loads(out)
    code, out, _ = run("berry", "--a", "-2", "--cmod", "0.6", "--samples", "100000")
    assert code == 0
    berry = json.loads(out)
    assert len(scatter["rows"]) == 100000, len(scatter["rows"])
    defect = max(abs(row[5] - 1.0) for row in scatter["rows"])
    assert defect <= 1e-12, defect
    n = len(berry["rows"])
    assert n == 100000, n
    steps = [row[0] for row in berry["rows"]]
    assert steps == list(range(n)) and all(type(j) is int for j in steps)
    # every step of the loop has the closed-form overlap (1 + e^{-2 pi i / n}) / 2
    closed = (1 + cmath.exp(-2j * math.pi / n)) / 2
    overlap_err = max(abs(complex(row[2], row[3]) - closed) for row in berry["rows"])
    assert overlap_err <= 4e-15, overlap_err
    phase_err = abs(berry["summary"]["phase"] - math.pi)
    assert phase_err <= 1e-5, phase_err


def test_csv_rows_write_floats_as_repr():
    text = cli._emit({"task": "x", "flag": True}, ["a", "b", "c", "d", "e"],
                     [[math.inf, math.nan, -0.0, 0.1 + 0.2, 7]], "csv")
    assert text.splitlines() == ["# task = x", "# flag = true", "a,b,c,d,e",
                                 "inf,nan,-0.0,0.30000000000000004,7"]


def _csv_writer_text(summary: dict, header: list, rows: list) -> str:
    buf = io.StringIO()
    for key, val in summary.items():
        buf.write(f"# {key} = {cli._scalar_str(val)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def test_csv_tables_are_what_csv_writer_writes(run, monkeypatch):
    # numeric tables are joined without csv.writer, tables with a str cell go through
    # it; either way the bytes are csv.writer's
    tables = []
    emit = cli._emit

    def recording(summary, header, rows, fmt):
        tables.append((summary, header, rows))
        return emit(summary, header, rows, fmt)

    monkeypatch.setattr(cli, "_emit", recording)
    coupling = ("--scheme", "greek", "--alpha=-1", "--beta=0.5", "--gamma-re=0.3",
                "--gamma-im=0.4")
    for argv in (("berry", "--a=-2", "--cmod", "0.6", "--samples", "64"),
                 ("scatter", *coupling, "--kmin", "0.05", "--kmax", "20", "--steps", "50"),
                 ("bound-states", *coupling), ("bands", *coupling, "--ell", "1", "--mmax", "12"),
                 ("convert", *coupling)):
        code, out, _ = run(*argv, "--format", "csv")
        assert code == 0
        assert out == _csv_writer_text(*tables[-1]), argv[0]
    numbers = [[-0.0, 1e-300, 5e-324, 10 ** 40, -(2 ** 63), 0, 1.7976931348623157e308],
               [math.inf, -math.inf, math.nan, 0.1 + 0.2, -7, 1e16, 123456789.0]]
    quoted = [[1.0, "a,b", True], [2, 'say "hi"', 3.5], [-0.0, "", 7]]
    mixed = [[1.0, "x", None], [3 + 4j, -0.0, 1e-300]]
    for rows in (numbers, quoted, mixed, [], [[]], [[1.5]]):
        assert cli._emit({"task": "x"}, ["a", "b"], rows, "csv") == _csv_writer_text(
            {"task": "x"}, ["a", "b"], rows)


def test_shared_parser_carries_nothing_between_runs(run, tmp_path):
    # one parser serves every main() call of a process: a run must print what
    # the same argv prints in a fresh interpreter, whatever ran before it
    assert cli._build_parser() is cli._build_parser()
    cfg = tmp_path / "bands.cfg"
    cfg.write_text("scheme = greek\nalpha = -2\nbeta = 0.5\ngamma-re = 0.3\n"
                   "gamma-im = 0.4\nell = 1\nmmax = 8\nfit-range = 2:6\nformat = csv\n")
    runs = [("bands", "--config", str(cfg)),
            ("scatter", *_TASK_ARGV["scatter"]),
            ("convert", "--scheme", "greek", "--alpha", "0.7", "--beta", "0",
             "--gamma-re", "1", "--gamma-im", "0")]
    for argv in runs:
        code, out, _ = run(*argv)
        assert code == 0
        assert (code, out) == fresh_run("-m", "gpi1d.cli", *argv)[:2], argv
    assert run("bands", "--config", str(cfg))[1].startswith("# task = bands\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 42\n")
    code, _, err = run("scatter", "--config", str(bad))
    assert code == 2 and "nonsense" in err


_SCHEME_FLAGS = {"--" + name.replace("_", "-")
                 for names, _ in cli._SCHEMES.values() for name in names}
_OWN_FLAGS = {
    "convert": set(),
    "bound-states": set(),
    "scatter": {"--kmin", "--kmax", "--steps"},
    "berry": {"--a", "--cmod", "--samples", "--branch"},
    "bands": {"--ell", "--mmax", "--fit-range"},
}


@pytest.mark.parametrize("task", sorted(_OWN_FLAGS))
def test_each_task_accepts_exactly_its_options(task):
    parser = cli._build_parser()
    tasks = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(tasks.choices) == set(_OWN_FLAGS)
    strings = [s for action in tasks.choices[task]._actions for s in action.option_strings]
    want = {"-h", "--help", "--format", "--config"} | _OWN_FLAGS[task]
    if task != "berry":
        want |= {"--scheme"} | _SCHEME_FLAGS
    # a dropped parent loses its options; one passed twice fails the build on
    # its conflicting flags
    assert sorted(strings) == sorted(want)
    for argv in ([task, "--help"], ["--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0, argv


_OMEGA_RE, _OMEGA_IM = math.cos(0.3), math.sin(0.3)
# transfer_to_greek refuses this record (ta + td + 2 Re omega = 0), so the
# CLI reads it through its halfline form, a separated pair
_NO_MATRIX_TRANSFER = TransferParams(-1.0 + 0.0j, 0.5, 1e13, -2.5e-14, 1.5)
# per --scheme: each option's value, all distinct, and the library chain that
# builds the same coupling
_CHART_CASES = {
    "greek": [({"alpha": 1.5, "beta": -0.7, "gamma_re": 0.3, "gamma_im": 0.4},
               lambda: CouplingScheme.from_greek(GreekParams(1.5, -0.7, 0.3 + 0.4j)))],
    "halfline": [({"a": 1.0, "b": 2.0, "c_re": 0.5, "c_im": -0.3},
                  lambda: CouplingScheme.from_halfline(HalflineParams(1.0, 2.0, 0.5 - 0.3j)))],
    "inverse": [({"inv_a": 0.5, "inv_b": 1.2, "inv_c_re": 0.3, "inv_c_im": 0.1},
                 lambda: CouplingScheme.from_greek(
                     inverse_to_greek(InverseParams(0.5, 1.2, 0.3 + 0.1j))))],
    "transfer": [
        ({"omega_re": _OMEGA_RE, "omega_im": _OMEGA_IM, "ta": 2.0, "tb": 0.5, "tc": 3.0,
          "td": 1.25},
         lambda: CouplingScheme.from_greek(transfer_to_greek(
             TransferParams(complex(_OMEGA_RE, _OMEGA_IM), 2.0, 0.5, 3.0, 1.25)))),
        ({"omega_re": -1.0, "omega_im": 0.0, "ta": 0.5, "tb": 1e13, "tc": -2.5e-14, "td": 1.5},
         lambda: CouplingScheme.from_halfline(transfer_to_halfline(_NO_MATRIX_TRANSFER)))],
    "carreau": [({"alpha_c": 1.0, "beta_c": 2.0, "rho_c": 0.5, "theta_c": 1.25},
                 lambda: CouplingScheme.from_halfline(
                     carreau_to_halfline(CarreauParams(1.0, 2.0, 0.5, 1.25))))],
    "seba": [({"alpha_s": -0.5, "beta_s": 0.25, "gamma_s": -1.5, "delta_s": -1.0},
              lambda: CouplingScheme.from_halfline(
                  seba_to_halfline(SebaParams(-0.5, 0.25, -1.5, -1.0))))],
    "chernoff-hughes": [({"r": 0.7, "z_re": 0.2, "z_im": 0.5},
                         lambda: CouplingScheme.from_greek(
                             chernoff_hughes_to_greek(ChernoffHughesParams(0.7, 0.2 + 0.5j))))],
}


@pytest.mark.parametrize("kind", sorted(cli._SCHEMES))
def test_each_input_chart_builds_its_library_coupling(run, kind):
    if kind == "transfer":  # its second case takes the halfline route
        with pytest.raises(DegenerateParametrization):
            transfer_to_greek(_NO_MATRIX_TRANSFER)
    for values, chain in _CHART_CASES[kind]:
        assert set(values) == set(cli._SCHEMES[kind][0])
        code, out, _ = run("convert", "--scheme", kind,
                           *(f"--{name.replace('_', '-')}={v!r}" for name, v in values.items()))
        assert code == 0
        payload = json.loads(out)
        want = chain()
        flags = classify_symmetries(want)
        summary = payload["summary"]
        assert (summary["decoupled"], summary["time_reversal"], summary["space_reflection"],
                summary["quasifree"]) == (want.is_separated, *flags)
        if want.is_separated:
            right, left = want.separated.right, want.separated.left
            assert (summary["right"], summary["left"]) == (f"{right.kind}({right.slope:g})",
                                                           f"{left.kind}({left.slope:g})")
            assert payload["rows"] == []
            continue
        g = want.greek
        assert summary["det"] == g.det
        assert payload["rows"][:3] == [["greek", "alpha", g.alpha, 0.0],
                                       ["greek", "beta", g.beta, 0.0],
                                       ["greek", "gamma", g.gamma.real, g.gamma.imag]]


def test_readme_lists_each_schemes_options():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    rows = [line for line in readme.splitlines() if line.startswith("| `")]
    assert rows[0] == "| `--scheme` | options |"
    assert rows[1:] == ["| `%s` | %s |" % (kind, " ".join(f"`--{name.replace('_', '-')}`"
                                                          for name in names))
                        for kind, (names, _) in cli._SCHEMES.items()]


@pytest.mark.parametrize("argv, message", [
    (("scatter", "--scheme", "greek", "--alpha", "nope", "--beta", "0", "--gamma-re", "0",
      "--gamma-im", "0", "--kmin", "1", "--kmax", "2", "--steps", "3"),
     "option 'alpha': not a number: 'nope'"),
    (("scatter", "--scheme", "greek", "--alpha", "1", "--beta", "0", "--gamma-re", "0",
      "--gamma-im", "0", "--kmin", "-1", "--kmax", "2", "--steps", "3"),
     "need 0 < kmin <= kmax and steps >= 1"),
    (("bound-states",), "no parametrization given (use --scheme)"),
    (("bands", *_GENERIC, "--ell=-1", "--mmax", "12"), "ell must be positive and finite"),
    (("bands", *_GENERIC, "--ell", "1", "--mmax", "0"), "need mmax >= 1"),
    (("bands", "--scheme", "greek", "--alpha=-3", "--beta=-1", "--gamma-re", "1",
      "--gamma-im", "0", "--ell", "1", "--mmax", "12"),  # decoupled: no lattice
     "lattice requires a coupled (non-separating) scheme"),
    (("berry", "--a", "-2", "--cmod", "0.6", "--samples", "2"), "a loop needs at least 3 samples"),
    (("berry", "--a", "-2", "--cmod=-0.5", "--samples", "50"),
     "need finite a and c_mod > 0 (crossings are excluded)"),
    (("bands", "--scheme", "greek", "--alpha=-5", "--beta", "0", "--gamma-re", "0.5",
      "--gamma-im", "0.2", "--ell", "3", "--mmax", "8"),  # intermediate fit with band 1 below 0
     "band 1 of range (1, 7) lies below zero (e_hi = -5.41574): no k*ell width to fit"),
    (("bands", *_GENERIC, "--mmax", "12"), "missing required numeric option 'ell'"),
    (("bands", *_GENERIC, "--ell", "inf", "--mmax", "12"), "option 'ell' must be finite, got inf"),
    (("bands", *_GENERIC, "--ell", "1", "--mmax", "2.5"),
     "option 'mmax' must be an integer, got '2.5'"),
    (("bands", *_GENERIC, "--ell", "1", "--mmax", "12", "--fit-range", "3"),
     "--fit-range must be 'lo:hi', got '3'"),
    (("convert", "--scheme", "carreau", "--alpha-c", "1", "--beta-c", "1", "--rho-c=-1",
      "--theta-c", "0"), "rho_c must be nonnegative"),
])
def test_invalid_options_exit_2(run, argv, message):
    assert run(*argv) == (2, "", f"error: {message}\n")


def test_attractive_delta_prime_bands(run):
    # alpha = 0, beta < 0: both gap points of gap 1 sit at E = 0 where beta = -ell
    code, out, _ = run("bands", "--scheme", "greek", "--alpha", "0", "--beta=-1", "--gamma-re",
                       "0", "--gamma-im", "0", "--ell", "1", "--mmax", "6")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0][:2] == ["band", 1] and rows[0][3] == 0.0 and rows[1][2] == 0.0
    assert rows[6] == ["gap", 1, 0.0, 0.0, 0.0]


_NO_TRANSFER = ("--scheme", "greek", "--alpha", "3.715587397906834", "--beta", "0",
                "--gamma-re", "1.990990659703986", "--gamma-im", "0.02903491371520401")


def test_coupling_without_a_transfer_record_is_named(run):
    # its transfer record would miss ta td - tb tc = 1 by 1.08e-12
    code, out, err = run("convert", *_NO_TRANSFER)
    assert code == 0 and "note: transfer form not available" in err
    assert {row[0] for row in json.loads(out)["rows"]} == {"greek", "inverse"}
    code, out, err = run("bands", *_NO_TRANSFER, "--ell", "0.0056007541257996245",
                         "--mmax", "12")
    assert code == 3 and out == "" and "|4-det+4i*Im(gamma)|" in err


# convert, bound-states and every scalar call of three couplings, in a fresh
# interpreter: none of them may need numpy
_SCALAR_CHAIN = """\
import cmath
import sys
import gpi1d
from gpi1d.cli import main
coupling = ["--scheme", "greek", "--alpha=-1", "--beta=0.5", "--gamma-re=0.3", "--gamma-im=0.4"]
assert main(["convert", *coupling]) == 0
assert main(["bound-states", *coupling]) == 0
# every scalar call of one coupling: the charts, the scheme, its spectrum,
# S-matrix, kernel and asymptotics; coupled, delta-family and separated
for alpha, beta, gamma in ((-1.0, 0.5, 0.3 + 0.4j), (-1.5, 0.0, 0.3 + 0.4j), (-3.0, -1.0, 1 + 0j)):
    g = gpi1d.GreekParams(alpha, beta, gamma)
    charts = {"g": g}
    for key, name, src in (("h", "greek_to_halfline", "g"), ("i", "greek_to_inverse", "g"),
                           ("t", "greek_to_transfer", "g"), ("hg", "halfline_to_greek", "h"),
                           ("hi", "halfline_to_inverse", "h"), ("ht", "halfline_to_transfer", "h"),
                           ("ig", "inverse_to_greek", "i"), ("ih", "inverse_to_halfline", "i"),
                           ("tg", "transfer_to_greek", "t"), ("th", "transfer_to_halfline", "t")):
        if src in charts:
            try:
                charts[key] = getattr(gpi1d, name)(charts[src])
            except gpi1d.DegenerateParametrization:
                pass
    scheme = gpi1d.CouplingScheme.from_greek(g)
    gpi1d.classify_symmetries(scheme), gpi1d.is_decoupled(scheme), gpi1d.point_spectrum(scheme)
    for k in (0.3, 1.7, 9.0):
        gpi1d.s_matrix(scheme, k)
    gpi1d.green_kernel(scheme, 0.7, -1.1, 0.8 + 0.4j), gpi1d.green_kernel(scheme, 1.3, 0.5, 2 + 0.3j)
    gpi1d.scattering_asymptotics(scheme)
    if scheme.halfline is not None:
        gpi1d.binding_regime(scheme.halfline)
        gpi1d.green_kernel_halfline(scheme.halfline, 0.7, -1.1, 0.8 + 0.4j)
    if not scheme.is_separated:
        gpi1d.green_kernel_dx(scheme, 0.7, 0.7, 0.8 + 0.4j, diag_side=1)
        gpi1d.green_kernel_greek(g, 1.3, 0.5, 2 + 0.3j)
        for p in gpi1d.point_spectrum(scheme):
            gpi1d.kernel_residue(scheme, p.kappa, 0.8, -1.1)
assert len(charts) > 1 and scheme.is_separated
# the separated scheme refuses each bound-state pole on the side that carries it
bound = [p.kappa for p in gpi1d.point_spectrum(scheme) if p.kind is gpi1d.PointKind.BOUND]
refused = 0
for kappa in bound:
    for x in (0.5, -0.5):
        try:
            gpi1d.green_kernel(scheme, x, 2 * x, 1j * kappa)
        except gpi1d.PoleEvaluation:
            refused += 1
assert bound and refused == len(bound), (bound, refused)
# a Delta(k) past the float range is refused by name; off the roots of Delta
# a coupled residue is 0
coupled = gpi1d.CouplingScheme.from_greek(gpi1d.GreekParams(-1.0, 0.5, 0.3 + 0.4j))
try:
    gpi1d.green_kernel(coupled, 0.5, -0.7, 1e160j)
    raise AssertionError("green_kernel at k = 1e160j returned a value")
except gpi1d.DegenerateParametrization as exc:
    assert exc.denominator == "Delta(k)", exc
assert gpi1d.kernel_residue(coupled, 0.2, 0.8, -1.1) == 0j
# the scalar Berry calls on one loop; berry reads its tolerance from params
loop = gpi1d.ParameterLoop(a=-2.0, c_mod=0.6, samples=8)
f0, f1 = gpi1d.eigenstate_at(loop, 0.0), gpi1d.eigenstate_at(loop, 0.5)
assert abs(gpi1d.overlap(f0, f1) - (1 + cmath.exp(-0.5j)) / 2) < 1e-15
assert gpi1d.berry_connection_analytic(loop, 0.5) == 0.5
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy"))[:5]
"""


def test_convert_bound_states_and_the_scalar_chain_load_neither_numpy_nor_scipy():
    code, out, err = fresh_run("-c", _SCALAR_CHAIN + "print(sorted(m for m in sys.modules "
                               "if m.partition('.')[0] in ('numpy', 'scipy')))\n")
    assert code == 0, err
    assert out.splitlines()[-1] == "[]"


_DEMOS = SRC.parent / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in _DEMOS.glob("*.py")))
def test_demo_runs(demo):
    code, _, err = fresh_run(str(_DEMOS / demo))
    assert code == 0, err
