import csv
import json
import math
import warnings

import numpy as np
import pytest

from o2hopf import (ModelParams, O2HopfError, ReducedSystem, branches,
                    classify_regime, closed_form_constants, coeffs, onset,
                    validate)
from o2hopf.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_onset_subcommand(capsys):
    code, out, _ = run(capsys, "onset", "--alpha", "2", "--beta", "7")
    assert code == 0
    rec = json.loads(out)
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


def test_coeffs_single_route(capsys):
    code, out, _ = run(capsys, "coeffs", "--alpha", "2", "--route", "projection")
    assert code == 0
    rec = json.loads(out)
    assert rec["route"] == "projection"
    assert abs(rec["b"]["re"] + 11.0 / 24.0) < 1e-12


def test_classify_and_branch(capsys):
    code, out, _ = run(capsys, "classify", "--alpha", "2", "--mu", "0.1")
    assert code == 0
    assert json.loads(out)["regime"]["stable_families"] == ["rotating_wave"]

    code, out, _ = run(capsys, "branch", "--alpha", "2", "--mu", "0.1")
    assert code == 0
    kinds = {b["kind"]: b for b in json.loads(out)["branches"]}
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
    assert run(capsys, "coeffs", "--alpha", "1", "--beta", "1")[0] == 1
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
    cfg.write_text("alpha = 2.0\nbeta = 7.0\n")
    out_path = tmp_path / "onset.json"
    code, _, _ = run(capsys, "onset", "--config", str(cfg),
                     "--out", str(out_path))
    assert code == 0
    rec = json.loads(out_path.read_text())
    assert rec["beta1"] == 7.0

    manifest = json.loads((tmp_path / "onset.json.manifest.json").read_text())
    assert manifest["command"] == "onset"
    assert str(out_path) in manifest["outputs"][0]


def test_round_trip_identity(capsys, tmp_path):
    out_path = tmp_path / "coeffs.json"
    code, _, _ = run(capsys, "coeffs", "--alpha", "2", "--out", str(out_path))
    assert code == 0
    code, stdout, _ = run(capsys, "coeffs", "--alpha", "2")
    assert json.loads(out_path.read_text()) == json.loads(stdout)


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == 0
    assert "all checks passed" in out
    assert "[FAIL]" not in out


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
        assert float(rows[0]["re_b_projection"]) < 0.0 and rows[1]["re_b_projection"] == ""


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
    cfg.write_text("alpha = 2.0\nbeta = 99.0\n")
    out_path = tmp_path / "sim.json"
    code, _, _ = run(capsys, "simulate", "--config", str(cfg), "--mu", "0.05",
                     "--dt", "0.05", "--tmax", "1", "--n-grid", "16",
                     "--out", str(out_path))
    assert code == 0
    rec = json.loads(out_path.read_text())
    assert rec["params"]["beta"] == rec["beta"] == 7.0 + 0.05


def test_onset_csv_is_at_the_scan_beta(capsys, tmp_path):
    out_csv = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "onset", "--alpha", "2", "--scan-beta", "7.5",
                       "--n-max", "3", "--csv", str(out_csv))
    assert code == 0
    rec = json.loads(out)
    assert rec["params"]["beta"] == 7.0
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
    cfg.write_text("alpha = 3.0\nbeta = 99.0\ndelta1 = 2.0\n")
    out_csv = tmp_path / "cfg.csv"
    code, _, _ = run(capsys, "sweep", "--config", str(cfg), "--d1", "1.5",
                     "--grid", "mu=0.1:0.2:2", "--out", str(out_csv))
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert [(r["alpha"], r["delta1"], r["delta2"], r["mu"]) for r in rows] == [
        ("3.0", "1.5", "1.0", "0.1"), ("3.0", "1.5", "1.0", "0.2")]
    # beta = beta1 + mu at every point; the file's beta is not used
    assert {r["beta1"] for r in rows} == {str(1.0 + 9.0 + 1.5 + 1.0)}
    assert all(r["error"] == "" for r in rows)


def test_sweep_rejects_beta(capsys, tmp_path):
    out_csv = tmp_path / "beta.csv"
    code, _, err = run(capsys, "sweep", "--beta", "99", "--grid", "mu=0.1:0.2:2",
                       "--out", str(out_csv))
    assert code == 1
    assert err.strip().splitlines() == [
        "sweep sets beta = beta1 + mu at each point; give --mu or a mu grid "
        "instead of --beta"]
    assert not out_csv.exists()


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
    (_SIMULATE + ("--beta", "99"), "give --beta or --mu, not both"),
    (("onset", "--alpha", "2", "--scan-beta", "0"),
     "parameter 'beta' must be strictly positive, got 0.0"),
    (("onset", "--alpha", "2", "--scan-beta", "-3"),
     "parameter 'beta' must be strictly positive, got -3.0"),
    (("onset", "--alpha", "2", "--scan-beta", "nan"),
     "parameter 'beta' must be strictly positive, got nan"),
    (("classify", "--alpha", "2", "--mu", "nan"), "--mu must be finite, got nan"),
    (("branch", "--alpha", "2", "--mu", "inf"), "--mu must be finite, got inf"),
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
    (("onset", "--alpha", "2", "--beta", "7", "--half-length", "1e-200"),
     "O(2)-Hopf analysis does not apply: omega^2 = nan, beta1 = inf"),
    (("classify", "--alpha", "2", "--half-length", "1e-170"),
     "O(2)-Hopf analysis does not apply: omega^2 = nan, beta1 = inf"),
    (("branch", "--alpha", "2", "--half-length", "1e-100"),
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
    (("onset", "--alpha", "2", "--scan-beta", "-1e-3"),
     "parameter 'beta' must be strictly positive, got -0.001"),
])
def test_bad_invocation_fails_in_one_line(capsys, tmp_path, argv, message):
    code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert message in err


def test_blowup_exits_2_in_one_line(capsys):
    code, _, err = run(capsys, "simulate", "--alpha", "2", "--mu", "3", "--dt", "0.5",
                       "--tmax", "50", "--n-grid", "16")
    assert code == 2
    assert err.strip().splitlines() == [
        "numerical failure: field norm exceeded 1e+06 at t = 13"]


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
        data = onset(probe)
        row.update(admissible=str(data.admissible), beta1=data.beta1, omega=data.omega)
        if not data.admissible:
            return row
        params = validate(probe.with_beta(data.beta1 + values["mu"]))
        nf = coeffs(params, "projection")
        cf = closed_form_constants(params)
        for name, v in (("a", nf.a), ("b_projection", nf.b), ("c_projection", nf.c),
                        ("b_closed_form", cf["b"]), ("c_closed_form", cf["c"])):
            row[f"re_{name}"], row[f"im_{name}"] = v.real, v.imag
        sys_ = ReducedSystem.from_coeffs(nf, values["mu"])
        kinds = {b.kind for b in branches(sys_) if b.stability != "degenerate"}
        row["tw_exists"] = str("rotating_wave_1" in kinds)
        row["sw_exists"] = str("standing_wave" in kinds)
        row["stable_families"] = "|".join(classify_regime(sys_)["stable_families"])
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
