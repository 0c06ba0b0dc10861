import csv
import io
import json
import math
import re
import tempfile
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from o2hopf import (ModelParams, O2HopfError, ReducedSystem, branches,
                    classify_regime, coeffs, onset, turing_check, validate)
from o2hopf.cli import _write_csv, build_parser, dispatch
from o2hopf.params import onset_terms


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_onset_subcommand(capsys):
    code, out, _ = run(capsys, "onset", "--alpha", "2", "--mu", "0")
    assert code == 0
    rec = json.loads(out)
    assert rec["params"]["beta"] == 7.0
    assert rec["verdict"] == "hopf_onset"
    assert rec["beta1"] == 7.0
    assert abs(rec["omega"] - math.sqrt(3.0)) < 1e-12
    assert rec["critical_modes"] == [-1, 1]
    mode1 = [m for m in rec["modes"] if m["n"] == 1][0]
    assert abs(mode1["re1"]) < 1e-10


def test_onset_defaults_beta_to_critical(capsys):
    code, out, _ = run(capsys, "onset", "--alpha", "2")
    assert code == 0
    assert json.loads(out)["params"]["beta"] == 7.0


def test_coeffs_full_report(capsys):
    code, out, _ = run(capsys, "coeffs", "--alpha", "2", "--d1", "1", "--d2", "1")
    assert code == 0
    rec = json.loads(out)
    closed = rec["routes"]["closed_form"]
    assert abs(closed["b"]["re"] + 2.125) < 1e-12
    assert rec["consistent"]["b:projection|direct"]
    assert not rec["consistent"]["b:projection|closed_form"]
    assert rec["mean_zero_obstruction"]["verdict"] == "present"
    assert "mu" not in rec and rec["params"]["beta"] == rec["beta1"] == 7.0


def test_coeffs_single_route(capsys):
    code, out, _ = run(capsys, "coeffs", "--alpha", "2", "--route", "projection")
    assert code == 0
    rec = json.loads(out)
    assert rec["route"] == "projection"
    assert abs(rec["b"]["re"] + 11.0 / 24.0) < 1e-12


def test_classify_and_branch(capsys):
    code, out, _ = run(capsys, "classify", "--alpha", "2", "--mu", "0.1")
    assert code == 0
    rec = json.loads(out)
    assert rec["regime"]["stable_families"] == ["rotating_wave"]
    kinds = {b["kind"]: b for b in rec["branches"]}
    assert kinds["rotating_wave_1"]["stability"] == "stable"
    assert abs(kinds["rotating_wave_1"]["r1"]
               - math.sqrt(0.05 * 24.0 / 11.0)) < 1e-10


def test_negative_flag_value_in_exponent_form(capsys):
    code, out, _ = run(capsys, "classify", "--alpha", "2", "--mu", "-1e-3")
    assert code == 0
    assert json.loads(out)["mu"] == -0.001


def test_validation_errors_exit_1(capsys):
    assert run(capsys, "coeffs")[0] == 1                      # missing alpha
    assert run(capsys, "coeffs", "--alpha", "-2")[0] == 1     # nonpositive
    assert run(capsys, "coeffs", "--alpha", "1")[0] == 1      # omega^2 = 0
    assert run(capsys, "onset", "--alpha", "2", "--bogus", "1")[0] == 1
    assert run(capsys, "frobnicate")[0] == 1                  # unknown command
    assert run(capsys)[0] == 1                                # no command


@pytest.mark.parametrize("argv, name", [
    (("onset", "--alpha", "2", "--d2", "0"), "delta2"),
    (("coeffs", "--alpha", "2", "--d1", "-1"), "delta1"),
])
def test_nonpositive_parameter_with_default_beta(capsys, argv, name):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert f"parameter '{name}' must be strictly positive" in err


def test_config_file_and_out(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 2.0\ndelta1 = 1.0\n")
    out_path = tmp_path / "onset.json"
    code, _, _ = run(capsys, "onset", "--config", str(cfg),
                     "--out", str(out_path))
    assert code == 0
    rec = json.loads(out_path.read_text())
    assert rec["beta1"] == 7.0

    manifest = json.loads((tmp_path / "onset.json.manifest.json").read_text())
    assert manifest["command"] == "onset"
    assert str(out_path) in manifest["outputs"][0]


@pytest.mark.parametrize("argv, flag", [
    (("onset", "--alpha", "2"), "--csv"),
    (("coeffs", "--alpha", "2"), "--csv"),
    (("simulate", "--alpha", "2", "--mu", "0.05", "--tmax", "1"), "--series"),
])
def test_file_output_without_out_gets_a_manifest(capsys, tmp_path, argv, flag):
    # the record goes to stdout; the manifest goes next to the one file written
    table = tmp_path / "table.csv"
    code, out, _ = run(capsys, *argv, flag, str(table))
    assert code == 0 and json.loads(out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv", "table.csv.manifest.json"]
    manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
    assert manifest["command"] == argv[0]
    assert manifest["outputs"] == [str(table)]


def test_round_trip_identity(capsys, tmp_path):
    out_path = tmp_path / "coeffs.json"
    code, _, _ = run(capsys, "coeffs", "--alpha", "2", "--out", str(out_path))
    assert code == 0
    code, stdout, _ = run(capsys, "coeffs", "--alpha", "2")
    assert json.loads(out_path.read_text()) == json.loads(stdout)


_VERIFY_QUICK_ROWS = ["beta1", "omega", "N_r", "N_i", "B_r", "B_i", "C_2r", "C_2i", "P2_0",
                      "Q_r", "Q_i", "re_b_closed_form", "re_c_closed_form", "re_a_half",
                      "route_agreement_a", "route_agreement_b", "route_agreement_c",
                      "psi_residuals", "mean_zero_obstruction", "hopf_onset", "no_turing"]


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == 0
    *rows, last = out.strip().splitlines()
    assert last == "all checks passed"
    assert [re.match(r"^\[PASS\] (\w+)(  \(.*\))?$", row)[1] for row in rows] == \
        _VERIFY_QUICK_ROWS


def test_sweep_matches_coeffs(capsys, tmp_path):
    out_csv = tmp_path / "one.csv"
    code, _, _ = run(capsys, "sweep", "--grid", "alpha=2:2:1",
                     "--mu", "0.1", "--out", str(out_csv))
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert len(rows) == 1
    assert abs(float(rows[0]["re_b_projection"]) + 11.0 / 24.0) < 1e-10
    assert rows[0]["error"] == ""


def test_sweep_admissibility_boundary(capsys, tmp_path):
    out_csv = tmp_path / "bound.csv"
    # delta2 sweep crosses the omega^2 > 0 boundary for alpha = 2, delta1 = 1
    code, _, _ = run(capsys, "sweep", "--grid", "delta2=0.5:2.5:5",
                     "--out", str(out_csv))
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    flags = [r["admissible"] for r in rows]
    assert "True" in flags and "False" in flags
    for r in rows:
        if r["admissible"] == "False":
            assert r["re_b_projection"] == ""


def test_sweep_overflowing_constants_are_inadmissible_without_warnings(capsys, tmp_path):
    out_csv = tmp_path / "tiny.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "sweep", "--half-length", "1e-200",
                           "--grid", "alpha=1:3:2", "--grid", "delta2=1:1e200:2",
                           "--out", str(out_csv))
    assert code == 0 and err == ""
    rows = list(csv.DictReader(out_csv.open()))
    assert [(r["admissible"], r["beta1"], r["error"]) for r in rows] == [
        ("False", "inf", "")] * 4


def test_sweep_overflowing_coefficients_are_inadmissible_without_warnings(capsys, tmp_path):
    # admissible points whose closed-form constants, or also their projection
    # coefficients, overflow get the error of the single-point route
    for hi, route in (("1e200", "closed_form"), ("1e300", "projection")):
        out_csv = tmp_path / f"far{hi}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "sweep", "--grid", f"delta1=1e7:{hi}:3",
                               "--out", str(out_csv))
        assert code == 0 and err == ""
        rows = list(csv.DictReader(out_csv.open()))
        assert [(r["admissible"], r["error"]) for r in rows] == [("True", "")] + [
            ("True", f"InadmissibleRegime: O(2)-Hopf analysis does not apply: the {route} "
                     "route overflows at these constants")] * 2
        assert float(rows[0]["re_b_projection"]) < 0.0 and rows[1]["re_b_closed_form"] == ""
        # the projection values outlive an overflow of the published constants alone
        assert (rows[1]["re_b_projection"] == "") == (route == "projection")


_FAR_CORNER = ("--alpha", "4.4e26", "--d1", "1.2e32", "--d2", "10.9", "--half-length", "6.5")


def test_sweep_far_corner_rows_carry_the_coeffs_values(capsys, tmp_path):
    # m = alpha^2 / (1 + d1' + d2') is about 7e21 here, and beta1 holds 1 + d1' + d2'
    # to about 1e-22 only: the rows are solved, with the values of the single point
    out_csv = tmp_path / "corner.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "sweep", *_FAR_CORNER, "--grid", "mu=-0.1:0.1:2",
                           "--out", str(out_csv))
    assert code == 0 and err == ""
    rows = list(csv.DictReader(out_csv.open()))
    assert len(rows) == 2
    for row in rows:
        assert row["error"] == ""
        params = ModelParams(beta=1.0, **{k: float(row[k]) for k in
                                          ("alpha", "delta1", "delta2", "half_length")})
        proj, closed = coeffs(params, "projection"), coeffs(params, "closed_form")
        want = {"a": proj.a, "b_projection": proj.b, "c_projection": proj.c,
                "b_closed_form": closed.b, "c_closed_form": closed.c}
        for key, v in want.items():
            assert (row[f"re_{key}"], row[f"im_{key}"]) == (str(v.real), str(v.imag)), key


_POINT = ("alpha", "delta1", "delta2", "half_length", "mu")
_KEPT = ("re_a", "im_a", "re_b_projection", "im_b_projection", "re_c_projection",
         "im_c_projection", "tw_exists", "sw_exists", "stable_families", "error")
_CLOSED = ("re_b_closed_form", "im_b_closed_form", "re_c_closed_form", "im_c_closed_form")


def test_sweep_row_keeps_projection_values_past_closed_form_overflow(capsys, tmp_path):
    # at delta1 = 5e199 and 1e200 only the published constants overflow: the
    # rows keep a, the projection b and c and the regime, as classify computes them
    out_csv = tmp_path / "far.csv"
    assert run(capsys, "sweep", "--grid", "delta1=1e7:1e200:3", "--out", str(out_csv))[0] == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert [r["error"] != "" for r in rows] == [False, True, True]
    for row in rows:
        want = _reference_row({k: float(row[k]) for k in _POINT})
        assert {k: row[k] for k in _KEPT} == {k: str(want[k]) for k in _KEPT}
        assert [row[k] for k in _CLOSED] == [str(want.get(k, "")) for k in _CLOSED]


def _csv_writer_bytes(header, rows) -> bytes:
    """The reference: what csv.writer writes for the header and rows."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


_CELLS = st.one_of(
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5]),
    st.integers(), st.booleans(), st.booleans().map(np.bool_), st.none(),
    st.text(), st.sampled_from(["", ",", '"', "\r", "\n", 'a,"b"\r\nc', "é,ü"]))


@st.composite
def _tables(draw):
    """A header and rows of mixed cells, two to five columns wide."""
    width = draw(st.integers(2, 5))
    header = draw(st.lists(st.text(), min_size=width, max_size=width))
    rows = draw(st.lists(st.lists(_CELLS, min_size=width, max_size=width), max_size=8))
    return header, rows


@settings(max_examples=200, deadline=None, database=None)
@given(_tables())
def test_csv_columns_are_written_as_csv_writer_writes_rows(table):
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        assert _write_csv(str(path), header, [[row[j] for row in rows]
                                              for j in range(len(header))]) == [str(path)]
        assert path.read_bytes() == _csv_writer_bytes(header, rows)


def test_sweep_error_cells_are_quoted_as_by_csv_writer(capsys, tmp_path):
    out_csv = tmp_path / "err.csv"
    assert run(capsys, "sweep", "--grid", "alpha=-1:3:5", "--grid", "delta1=0:1e300:4",
               "--out", str(out_csv))[0] == 0
    with out_csv.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    errors = [r[header.index("error")] for r in rows]
    assert sum(1 for e in errors if "," in e) == 11
    assert out_csv.read_bytes() == _csv_writer_bytes(header, rows)


def test_sweep_tw_existence_flips_at_zero(capsys, tmp_path):
    out_csv = tmp_path / "mu.csv"
    code, _, _ = run(capsys, "sweep", "--grid", "mu=-0.1:0.1:5",
                     "--out", str(out_csv))
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    by_mu = {float(r["mu"]): r["tw_exists"] for r in rows}
    for mu, exists in by_mu.items():
        assert exists == ("True" if mu > 0 else "False")


def test_simulate_short_run(capsys, tmp_path):
    out_path = tmp_path / "sim.json"
    code, _, _ = run(capsys, "simulate", "--alpha", "2", "--mu", "0.05",
                     "--dt", "0.01", "--tmax", "2", "--n-grid", "64",
                     "--perturb", "1:1e-3", "--out", str(out_path))
    assert code == 0
    rec = json.loads(out_path.read_text())
    assert rec["final_time"] > 1.9
    series = list(csv.DictReader((tmp_path / "sim.json.series.csv").open()))
    assert len(series) > 10
    assert "re_mode1" in series[0]


def test_simulate_flags_an_unsettled_tail(capsys):
    # the random start decays by orders of magnitude inside the tail window,
    # so its tail maximum is no saturated amplitude
    code, out, _ = run(capsys, "simulate", "--alpha", "2", "--mu", "0.05",
                       "--tmax", "30", "--perturb", "random:1e-3", "--dt", "0.01",
                       "--n-grid", "64")
    assert code == 0
    rec = json.loads(out)
    assert rec["settled"] is False
    assert rec["saturated_amplitude"] > 1e3 * math.hypot(rec["mode1_final"]["re"],
                                                         rec["mode1_final"]["im"])


def test_simulate_one_sample_is_not_settled(capsys):
    # one sample interval: a tail of one sample has no envelope to compare
    code, out, _ = run(capsys, "simulate", "--alpha", "2", "--mu", "0.05",
                       "--tmax", "0.1", "--dt", "0.01", "--n-grid", "16")
    assert code == 0
    assert json.loads(out)["settled"] is False


def test_simulate_flags_a_saturated_wave_settled(capsys):
    code, out, _ = run(capsys, "simulate", "--alpha", "2", "--mu", "0.1",
                       "--tmax", "150", "--pin-mean", "--perturb", "1:1e-2",
                       "--dt", "0.05", "--n-grid", "16")
    assert code == 0
    assert json.loads(out)["settled"] is True


def test_simulate_records_the_beta_it_runs(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 2.0\n")
    out_path = tmp_path / "sim.json"
    code, _, _ = run(capsys, "simulate", "--config", str(cfg), "--mu", "0.05",
                     "--dt", "0.05", "--tmax", "1", "--n-grid", "16",
                     "--out", str(out_path))
    assert code == 0
    rec = json.loads(out_path.read_text())
    assert rec["params"]["beta"] == rec["beta"] == 7.0 + 0.05
    assert rec["mu"] == (7.0 + 0.05) - 7.0


def test_onset_of_an_overflowing_bound_is_strict_json(capsys):
    """The library's +inf certificate margin is written as null, not as Infinity."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    code, out, err = run(capsys, "onset", "--alpha", "1e100", "--d1", "1e10", "--d2", "1e-200")
    assert code == 0 and err == ""
    rec = json.loads(out, parse_constant=refuse)
    assert rec["certificate_margin"] is None
    assert rec["verdict"] == "hopf_onset"


def test_onset_csv_is_at_the_scan_beta(capsys, tmp_path):
    # the record and the curve are both at beta = beta1 + mu
    out_csv = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "onset", "--alpha", "2", "--mu", "0.5",
                       "--n-max", "3", "--csv", str(out_csv))
    assert code == 0
    rec = json.loads(out)
    assert rec["params"]["beta"] == 7.5 and rec["beta1"] == 7.0
    mode1 = [m for m in rec["modes"] if m["n"] == 1][0]
    curve = {int(r["n"]): r for r in csv.DictReader(out_csv.open())}
    assert abs(mode1["re1"] - 0.25) < 1e-12
    assert float(curve[1]["re_lambda_max"]) == max(mode1["re1"], mode1["re2"])
    # at beta1 = 7 mode 1 sits on the imaginary axis at +-i sqrt(3), k = 1
    assert run(capsys, "onset", "--alpha", "2", "--n-max", "8", "--csv", str(out_csv))[0] == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert [int(r["n"]) for r in rows] == list(range(9))
    assert abs(float(rows[1]["k"]) - 1.0) < 1e-14
    assert abs(float(rows[1]["re_lambda_max"])) < 1e-12
    assert abs(abs(float(rows[1]["im_lambda"])) - math.sqrt(3.0)) < 1e-12


def test_sweep_reads_config_and_flags_override_it(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 3.0\ndelta1 = 2.0\n")
    out_csv = tmp_path / "cfg.csv"
    code, _, _ = run(capsys, "sweep", "--config", str(cfg), "--d1", "1.5",
                     "--grid", "mu=0.1:0.2:2", "--out", str(out_csv))
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert [(r["alpha"], r["delta1"], r["delta2"], r["mu"]) for r in rows] == [
        ("3.0", "1.5", "1.0", "0.1"), ("3.0", "1.5", "1.0", "0.2")]
    # beta = beta1 + mu at every point
    assert {r["beta1"] for r in rows} == {str(1.0 + 9.0 + 1.5 + 1.0)}
    assert all(r["error"] == "" for r in rows)


def test_sweep_rejects_beta(capsys, tmp_path):
    out_csv = tmp_path / "beta.csv"
    code, _, err = run(capsys, "sweep", "--beta", "99", "--grid", "mu=0.1:0.2:2",
                       "--out", str(out_csv))
    assert code == 1
    assert err == "unrecognized arguments: --beta 99\n"
    assert not out_csv.exists()


_MU_DEFAULTS = {"onset": 0.0, "coeffs": None, "classify": 0.1, "simulate": 0.0,
                "sweep": 0.1, "verify": None}


def test_mu_is_the_one_control_input():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(_MU_DEFAULTS)
    for name, sub in subparsers.items():
        options = sub._option_string_actions
        assert "--beta" not in options and "--scan-beta" not in options, name
        assert (options["--mu"].default if "--mu" in options else None) == _MU_DEFAULTS[name]


@pytest.mark.parametrize("command", ["onset", "coeffs", "classify", "simulate", "sweep"])
@pytest.mark.parametrize("flag", ["--beta", "--scan-beta"])
def test_beta_flags_are_unrecognised(capsys, tmp_path, command, flag):
    grid = ("--grid", "mu=0:1:2") if command == "sweep" else ()
    code, _, err = run(capsys, command, "--alpha", "2", flag, "7", *grid,
                       "--out", str(tmp_path / "out"))
    assert code == 1
    assert err == f"unrecognized arguments: {flag} 7\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["onset", "coeffs", "classify", "simulate", "sweep"])
def test_config_beta_is_refused(capsys, tmp_path, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 2.0\nbeta = 7.0\n")
    grid = ("--grid", "mu=0:1:2") if command == "sweep" else ()
    code, _, err = run(capsys, command, "--config", str(cfg), *grid,
                       "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.strip().splitlines() == [
        f"{cfg}: beta is set as beta1 + mu on the command line; give --mu"]
    assert not (tmp_path / "out").exists()


def test_bad_config_value_names_its_line(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# constants\nalpha = two\n")
    code, _, err = run(capsys, "onset", "--config", str(cfg))
    assert code == 1
    assert err.strip().splitlines() == [
        f"validation error: {cfg}:2: alpha must be a number, got 'two'"]


def test_branch_below_onset_lists_only_the_trivial_branch(capsys):
    code, out, _ = run(capsys, "classify", "--alpha", "2", "--mu", "-0.5")
    assert code == 0
    rec = json.loads(out)
    assert rec["params"]["beta"] == 6.5 and rec["mu"] == -0.5
    assert [(b["kind"], b["stability"]) for b in rec["branches"]] == [("trivial", "stable")]


@pytest.mark.parametrize("alpha, mu", [("2", "1e-11"), ("2", "1e-300"), ("3", "1e308"),
                                       ("3", "-1e-300"), ("2", "-1e-11")])
def test_wave_verdict_does_not_depend_on_the_scale_of_mu(capsys, alpha, mu):
    def verdict(mu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "classify", "--alpha", alpha, "--mu", mu)
            assert code == 0 and err == ""
        rec = json.loads(out)
        return (rec["regime"]["stable_families"],
                [(b["kind"], b["stability"]) for b in rec["branches"]])

    families, kinds = verdict(mu)
    assert (families, kinds) == verdict("0.1" if float(mu) > 0.0 else "-0.1")
    assert all(stability != "degenerate" for _, stability in kinds)
    if float(mu) > 0.0:
        assert families == ["rotating_wave"]


@pytest.mark.parametrize("d1", ["1e10", "1e12", "1e150"])
def test_wave_verdict_holds_at_large_diffusion(capsys, tmp_path, d1):
    # |b| and |c| grow with delta1, while the radial eigenvalues at the unit
    # offset are Re a times ratios of them: no branch turns degenerate
    code, out, _ = run(capsys, "classify", "--alpha", "2", "--d1", d1)
    assert code == 0
    rec = json.loads(out)
    assert not rec["regime"]["degenerate"]
    assert rec["regime"]["stable_families"] == ["rotating_wave"]
    assert [(b["kind"], b["stability"]) for b in rec["branches"]] == [
        ("trivial", "unstable"), ("rotating_wave_1", "stable"),
        ("rotating_wave_2", "stable"), ("standing_wave", "unstable")]
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--alpha", "2", "--grid", f"delta1={d1}:{d1}:1",
                     "--out", str(out_csv))
    assert code == 0
    (row,) = csv.DictReader(out_csv.open())
    assert (row["tw_exists"], row["sw_exists"], row["stable_families"]) == (
        "True", "True", "rotating_wave")


def test_verify_runs_every_check(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "all checks passed"
    assert all(line.startswith("[PASS] ") for line in lines[:-1])
    assert any(line.startswith("[PASS] pde_linear_rate  (measured ") for line in lines)


def test_verify_exits_3_on_a_failed_check(capsys, monkeypatch):
    report = turing_check(validate({"alpha": 2.0, "beta": 7.0}))
    monkeypatch.setattr("o2hopf.cli.turing_check",
                        lambda params: replace(report, both_positive_real_part=False))
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == 3
    assert "[FAIL] no_turing" in out.splitlines()
    assert out.strip().splitlines()[-1] == "1 check(s) failed"


_SIMULATE = ("simulate", "--alpha", "2", "--mu", "0.05", "--tmax", "1")


@pytest.mark.parametrize("argv, message", [
    (_SIMULATE + ("--dt", "0"), "dt must be finite and > 0"),
    (_SIMULATE + ("--dt", "-0.01"), "dt must be finite and > 0"),
    (_SIMULATE + ("--n-grid", "0"), "n_grid must be at least 2"),
    (_SIMULATE + ("--n-grid", "4"), "cannot resolve the tracked mode 3"),
    (_SIMULATE + ("--tmax", "0.05"), "shorter than one sample interval"),
    (_SIMULATE + ("--tmax", "inf"), "t_max must be finite"),
    (_SIMULATE + ("--perturb", "200:1e-3", "--n-grid", "64"),
     "perturbed mode 200 lies above the 2/3 cutoff (mode 21)"),
    (_SIMULATE + ("--perturb", "1:nan"), "eps must be finite"),
    (("onset", "--config", "{tmp}/missing.cfg"), "No such file"),
    (("sweep", "--mu", "nan", "--grid", "alpha=1:3:2", "--out", "{tmp}/nan.csv"),
     "--mu must be finite, got nan"),
    # beta = beta1 + mu, and beta1 = 7 here
    (("onset", "--alpha", "2", "--mu", "-7"),
     "parameter 'beta' must be strictly positive, got 0.0"),
    (("onset", "--alpha", "2", "--mu", "-10"),
     "parameter 'beta' must be strictly positive, got -3.0"),
    (("onset", "--alpha", "2", "--mu", "nan"), "--mu must be finite, got nan"),
    (("classify", "--alpha", "2", "--mu", "nan"), "--mu must be finite, got nan"),
    (("classify", "--alpha", "2", "--mu", "inf"), "--mu must be finite, got inf"),
    (("sweep", "--grid", "alpha=1:3:0", "--out", "{tmp}/zero.csv"),
     "--grid alpha: count must be at least 1, got 0"),
    (("sweep", "--grid", "alpha=1:3:-1", "--out", "{tmp}/neg.csv"),
     "--grid alpha: count must be at least 1, got -1"),
    (("sweep", "--grid", "alpha=1:2:2", "--grid", "alpha=3:4:2", "--out", "{tmp}/twice.csv"),
     "--grid alpha is given more than once"),
    (_SIMULATE + ("--perturb", "x:1e-3"), "--perturb expects 'K:EPS' or 'random:EPS'"),
    (_SIMULATE + ("--perturb", "1:abc"), "got '1:abc'"),
    (_SIMULATE + ("--perturb", "1e-3"), "--perturb expects 'K:EPS' or 'random:EPS'"),
    (("sweep", "--grid", "alpha=a:2:3", "--out", "{tmp}/a.csv"),
     "--grid expects name=lo:hi:count"),
    (("sweep", "--grid", "alpha=1:2:2.5", "--out", "{tmp}/frac.csv"), "got 'alpha=1:2:2.5'"),
    (("sweep", "--grid", "beta=1:2:3", "--out", "{tmp}/beta.csv"),
     "--grid expects name=lo:hi:count with name in {alpha, delta1, delta2, mu}"),
    (_SIMULATE + ("--seed", "-1", "--perturb", "random:1e-3"),
     "seed must be a non-negative integer, got -1"),
    # k1^2 = (pi/half_length)^2 overflows: inadmissible, not an OverflowError, and
    # the default beta (inf) is not blamed
    (("coeffs", "--alpha", "2", "--half-length", "1e-200"),
     "O(2)-Hopf analysis does not apply: omega^2 = nan, beta1 = inf"),
    (("onset", "--alpha", "2", "--half-length", "1e-200"),
     "O(2)-Hopf analysis does not apply: omega^2 = nan, beta1 = inf"),
    (("classify", "--alpha", "2", "--half-length", "1e-170"),
     "O(2)-Hopf analysis does not apply: omega^2 = nan, beta1 = inf"),
    (("classify", "--alpha", "2", "--half-length", "1e-100"),
     "O(2)-Hopf analysis does not apply: omega^2 = -inf"),
    (_SIMULATE + ("--half-length", "1e-200"),
     "O(2)-Hopf analysis does not apply: omega^2 = nan, beta1 = inf"),
    (("coeffs", "--alpha", "1e200"), "O(2)-Hopf analysis does not apply"),
    # admissible, but a route's coefficients or constants overflow
    (("coeffs", "--alpha", "2", "--d1", "1e300"),
     "O(2)-Hopf analysis does not apply: the projection route overflows"),
    (("coeffs", "--alpha", "2", "--d1", "1e150", "--route", "closed_form"),
     "O(2)-Hopf analysis does not apply: the closed_form route overflows"),
    (("coeffs", "--alpha", "2", "--d1", "1e160", "--route", "closed_form"),
     "O(2)-Hopf analysis does not apply: the closed_form route overflows"),
    (("coeffs", "--alpha", "2", "--d1", "1e250", "--route", "direct"),
     "O(2)-Hopf analysis does not apply: the direct route overflows"),
    (("sweep", "--grid", "alpha=1:inf:2", "--out", "{tmp}/inf.csv"),
     "--grid expects name=lo:hi:count"),
    # omega^2 overflows to inf: inadmissible, and the scan's bound warns nowhere
    (("onset", "--alpha", "1e100", "--d1", "1e200"),
     "O(2)-Hopf analysis does not apply: omega^2 = inf, beta1 = 2e+200, bound = inf"),
    # m = alpha^2 / (1 + d1' + d2') = 1e130: the projection route solves, the direct one overflows
    (("coeffs", "--alpha", "1e100", "--d1", "1e70", "--route", "direct"),
     "O(2)-Hopf analysis does not apply: the direct route overflows"),
    (("sweep", "--grid", "delta1=-inf:1:3", "--out", "{tmp}/ninf.csv"),
     "lo and hi finite numbers and count an integer, got 'delta1=-inf:1:3'"),
    (("sweep", "--grid", "mu=nan:0.1:3", "--out", "{tmp}/nanlo.csv"),
     "--grid expects name=lo:hi:count"),
    (("simulate", "--alpha", "2", "--mu", "-7.5"),
     "parameter 'beta' must be strictly positive, got -0.5"),
    (("classify", "--alpha", "2", "--mu", "-1e300"),
     "parameter 'beta' must be strictly positive, got -1e+300"),
    # argparse's own errors: the message alone, without the usage line
    (("onset", "--alpha", "2", "--bogus", "1"), "unrecognized arguments: --bogus 1"),
    (("coeffs", "--alpha", "two"), "argument --alpha: invalid float value: 'two'"),
    (("coeffs", "--alpha", "2", "--route", "nope"), "argument --route: invalid choice: 'nope'"),
    (("sweep", "--out", "{tmp}/nogrid.csv"), "the following arguments are required: --grid"),
    (("branch", "--alpha", "2"), "argument command: invalid choice: 'branch'"),
])
def test_bad_invocation_fails_in_one_line(capsys, tmp_path, argv, message):
    code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (("onset", "--alpha", "2", "--n-max", "100000000"),
     "validation error: n_max must be at least 2 and at most 100000, got 100000000"),
    (_SIMULATE + ("--n-grid", "1000000000"),
     "validation error: n_grid must be at least 2 and at most 1048576, got 1000000000"),
    (_SIMULATE + ("--tmax", "1e11", "--dt", "1"),
     "validation error: tmax = 1e+11 gives 100000000000 samples; a run records at most 100000"),
    (("sweep", "--grid", "alpha=1:2:100000", "--grid", "delta1=1:2:100000"),
     "--grid gives 10000000000 points; a sweep holds at most 100000"),
    (("sweep", "--grid", "mu=0:1:1000000000000"),
     "--grid gives 1000000000000 points; a sweep holds at most 100000"),
    # round(tmax/dt) is beyond the int64 range that step counts are held in
    (_SIMULATE + ("--dt", "1e-300"), "validation error: t_max/dt = 1e+300 steps is beyond int64"),
])
def test_sizes_that_would_exhaust_memory_are_refused_at_once(capsys, tmp_path, argv, message):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (1, message + "\n")
    assert list(tmp_path.iterdir()) == []


def test_blowup_exits_2_in_one_line(capsys):
    code, _, err = run(capsys, "simulate", "--alpha", "2", "--mu", "3", "--dt", "0.5",
                       "--tmax", "50", "--n-grid", "16")
    assert code == 2
    assert err.strip().splitlines() == [
        "numerical failure: field norm exceeded 1e+06 at t = 13"]


def test_huge_beta_start_exits_2_in_one_line(capsys):
    code, _, err = run(capsys, "simulate", "--alpha", "2", "--mu", "1e300", "--n-grid", "8",
                       "--tmax", "1", "--dt", "0.01")
    assert code == 2
    assert err.strip().splitlines() == [
        "numerical failure: no finite traveling start at beta = 1e+300"]


def test_negative_perturb_mode_is_a_value(capsys):
    # argparse read "-1:1e-4" as a flag: "expected one argument", exit 1
    assert build_parser().parse_args(["simulate", "--perturb", "-1:1e-4"]).perturb == "-1:1e-4"
    args = ("simulate", "--alpha", "2", "--mu", "0.05", "--tmax", "1", "--dt", "0.01",
            "--n-grid", "16")
    spaced, joined = (run(capsys, *args, *perturb)
                      for perturb in (("--perturb", "-1:1e-4"), ("--perturb=-1:1e-4",)))
    assert spaced == joined and spaced[0] == 0
    assert json.loads(spaced[1])["config"]["perturb_mode"] == -1


def test_sweep_nonpositive_axes_are_point_errors(capsys, tmp_path):
    cases = [("delta1=-1:1:3", "delta1", [-1.0, 0.0]),
             ("delta2=0:1:3", "delta2", [0.0]),
             ("alpha=0:2:3", "alpha", [0.0])]
    for grid, name, bad in cases:
        out_csv = tmp_path / f"{name}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "sweep", "--grid", grid, "--out", str(out_csv))
        assert code == 0 and err == ""
        rows = list(csv.DictReader(out_csv.open()))
        errors = [r["error"] for r in rows if r["error"]]
        assert errors == [f"NonPositiveParameter: parameter '{name}' must be strictly "
                          f"positive, got {v!r}" for v in bad]
        assert rows[-1]["error"] == "" and rows[-1]["admissible"] == "True"


def _reference_row(values):
    """One sweep point through the single-point APIs."""
    row = {"error": ""}
    try:
        probe = ModelParams(beta=1.0, **{k: values[k] for k in
                                         ("alpha", "delta1", "delta2", "half_length")})
        _, _, beta1, omega_sq, admissible = onset_terms(
            probe.alpha, probe.delta1, probe.delta2, probe.half_length)
        row.update(admissible=str(admissible), beta1=beta1, omega=math.sqrt(max(omega_sq, 0.0)))
        if not admissible:
            return row
        params = probe.with_beta(onset(probe).beta1 + values["mu"])
        nf = coeffs(params, "projection")
        sys_ = ReducedSystem.from_coeffs(nf, values["mu"])
        kinds = {b.kind for b in branches(sys_) if b.stability != "degenerate"}
        row["tw_exists"] = str("rotating_wave_1" in kinds)
        row["sw_exists"] = str("standing_wave" in kinds)
        row["stable_families"] = "|".join(classify_regime(sys_)["stable_families"])
        for name, v in (("a", nf.a), ("b_projection", nf.b), ("c_projection", nf.c)):
            row[f"re_{name}"], row[f"im_{name}"] = v.real, v.imag
        cf = coeffs(params, "closed_form")   # its overflow blanks only its own columns
        for name, v in (("b_closed_form", cf.b), ("c_closed_form", cf.c)):
            row[f"re_{name}"], row[f"im_{name}"] = v.real, v.imag
    except O2HopfError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def test_sweep_matches_single_point_apis(capsys, tmp_path):
    rng = np.random.default_rng(11)
    exact = ("admissible", "tw_exists", "sw_exists", "stable_families", "error")
    seen = set()
    for length in ("3.141592653589793", "1.5707963267948966", "2", "5"):
        lo = rng.uniform([0.4, 0.15, 0.08], [1.2, 0.8, 0.5])
        hi = rng.uniform([2.0, 1.2, 0.9], [3.5, 2.5, 1.8])
        out_csv = tmp_path / f"grid{length}.csv"
        argv = ["sweep", "--half-length", length, "--grid", "mu=-0.2:0.2:5",
                "--out", str(out_csv)]
        for name, a, b in zip(("alpha", "delta1", "delta2"), lo, hi):
            argv += ["--grid", f"{name}={float(a)!r}:{float(b)!r}:4"]
        assert run(capsys, *argv)[0] == 0
        rows = list(csv.DictReader(out_csv.open()))
        assert len(rows) == 320
        for i, row in enumerate(rows):
            assert row["index"] == str(i)
            values = {k: float(row[k]) for k in
                      ("alpha", "delta1", "delta2", "half_length", "mu")}
            want = _reference_row(values)
            for key in exact:
                assert row[key] == want.get(key, ""), (i, key)
            for key, ref in want.items():
                if key not in exact:
                    assert abs(float(row[key]) - ref) <= 1e-12 * (1.0 + abs(ref)), (i, key)
            seen.add((row["admissible"], row["tw_exists"], row["sw_exists"],
                      row["stable_families"]))
    # the grids reach both admissibility outcomes and both sides of mu = 0
    assert ("False", "", "", "") in seen
    assert ("True", "False", "False", "") in seen
    assert any(s[1] == "True" and s[3] for s in seen)
