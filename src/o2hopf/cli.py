"""Command-line front end: onset | coeffs | classify | branch | simulate | sweep | verify.

Single-record reports are JSON (complex numbers as {re, im} pairs, keys
snake_case); sweeps are CSV with one row per grid point.  Every file output
is referenced by a run manifest written next to it.  Exit codes: 0 success,
1 validation/usage error, 2 numerical failure, 3 self-verification failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .errors import (InadmissibleRegime, InvalidConfig, NonPositiveParameter,
                     NoSaturation, NumericalBlowup, O2HopfError, SingularSystem)
from .normalform import (ROUTES, closed_form_constants, coeffs, coeffs_batch,
                         coeffs_report)
from .params import (ModelParams, is_positive, onset, onset_terms, read_config,
                     validate)
from .pdesim import SimConfig, Simulator, initialize, sampling_steps, tail_fit
from .reduced import ReducedSystem, branches, classify_regime, regime_batch
from .spectral import onset_scan, turing_check


class BadFlag(O2HopfError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent, so "--mu -1e-3" read -1e-3 as a flag
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise BadFlag(f"{message}\n{self.format_usage()}")


def _jsonify(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _jsonify(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return obj


def _emit(ns, record, outputs=()):
    """Print the JSON record, or write it to --out with a manifest of it and outputs."""
    text = json.dumps(_jsonify(record), indent=2, sort_keys=True)
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text + "\n")
        _write_manifest(ns, ns.out, [ns.out, *outputs])
    else:
        print(text)


def _write_manifest(ns, path, outputs):
    """Write path.manifest.json: the command, its config hash and the output files."""
    manifest = {
        "command": ns.command,
        "config_hash": _digest(ns),
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "outputs": [os.path.abspath(p) for p in outputs],
    }
    with open(os.path.abspath(path) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _write_csv(path, header, rows) -> list:
    """Write the header and rows to path; returns [path], or [] when path is empty."""
    if not path:
        return []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return [path]


def _digest(ns) -> str:
    payload = json.dumps({k: v for k, v in sorted(vars(ns).items())
                          if k != "func"}, default=str, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _add_param_flags(p):
    p.add_argument("--config", help="key = value parameter file")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--d1", "--delta1", dest="delta1", type=float)
    p.add_argument("--d2", "--delta2", dest="delta2", type=float)
    p.add_argument("--half-length", dest="half_length", type=float)
    p.add_argument("--out", help="write the JSON report here instead of stdout")


_PARAM_FIELDS = ("alpha", "beta", "delta1", "delta2", "half_length")


def _raw_params(ns) -> dict:
    """Constants from --config, overridden by the flags given; unvalidated."""
    raw = read_config(ns.config) if ns.config else {}
    raw.update({k: getattr(ns, k) for k in _PARAM_FIELDS if getattr(ns, k) is not None})
    return raw


def _params_from(ns) -> ModelParams:
    """Validated parameters; beta defaults to the beta1 of the validated constants."""
    raw = _raw_params(ns)
    if "alpha" not in raw:
        raise BadFlag("--alpha (or --config) is required")
    if "beta" not in raw:
        raw["beta"] = onset(validate(ModelParams(beta=1.0, **raw))).beta1
    return validate(raw)


def cmd_onset(ns) -> int:
    params = _params_from(ns)
    scanned = params if ns.scan_beta is None else params.with_beta(ns.scan_beta)
    scan = onset_scan(scanned, n_max=ns.n_max)
    record = {
        "params": params,
        "beta1": onset(params).beta1,
        "omega": onset(params).omega,
        "modes": [{"n": r.n, "re1": r.roots[0].real, "im1": r.roots[0].imag,
                   "re2": r.roots[1].real, "im2": r.roots[1].imag}
                  for r in scan.records],
        "critical_modes": scan.critical_modes,
        "certificate_margin": scan.certificate_margin,
        "verdict": scan.verdict,
        "turing": turing_check(params),
    }
    # dispersion-curve rows; the leading root has the largest Re, then the largest Im
    curve = [(r.n, r.k, r.max_real_part, max(r.roots, key=lambda z: (z.real, z.imag)).imag)
             for r in scan.records]
    _emit(ns, record, _write_csv(ns.csv, ["n", "k", "re_lambda_max", "im_lambda"], curve))
    return 0


def cmd_coeffs(ns) -> int:
    params = _params_from(ns)
    if ns.route:
        record = coeffs(params, ns.route)
        routes = {ns.route: {"a": record.a, "b": record.b, "c": record.c}}
    else:
        record = coeffs_report(params)
        routes = record["routes"]
    header = ["alpha", "delta1", "delta2", "route",
              "re_a", "im_a", "re_b", "im_b", "re_c", "im_c"]
    rows = [[params.alpha, params.delta1, params.delta2, route,
             *(part for name in "abc" for part in (v[name].real, v[name].imag))]
            for route, v in routes.items()]
    _emit(ns, record, _write_csv(ns.csv, header, rows))
    return 0


def _reduced_system(params: ModelParams, route: str, mu: float) -> ReducedSystem:
    if not math.isfinite(mu):
        raise BadFlag(f"--mu must be finite, got {mu!r}")
    return ReducedSystem.from_coeffs(coeffs(params, route), mu)


def cmd_classify(ns) -> int:
    params = _params_from(ns)
    sys_ = _reduced_system(params, ns.route, ns.mu)
    record = {"params": params, "mu": ns.mu, "route": ns.route,
              "coefficients": {"a": sys_.a, "b": sys_.b, "c": sys_.c},
              "regime": classify_regime(sys_)}
    _emit(ns, record)
    return 0


def cmd_branch(ns) -> int:
    params = _params_from(ns)
    sys_ = _reduced_system(params, ns.route, ns.mu)
    record = {"params": params, "mu": ns.mu, "route": ns.route,
              "branches": branches(sys_)}
    _emit(ns, record)
    return 0


def _parse_perturb(spec: str):
    """'K:EPS' -> ("traveling", K, EPS); 'random:EPS' -> ("random", 1, EPS)."""
    kind, _, eps = spec.partition(":")
    try:
        if kind == "random":
            return "random", 1, float(eps)
        return "traveling", int(kind), float(eps)
    except ValueError:
        raise BadFlag("--perturb expects 'K:EPS' or 'random:EPS' with K an integer "
                      f"and EPS a number, got {spec!r}") from None


def cmd_simulate(ns) -> int:
    if ns.mu is not None and ns.beta is not None:
        raise BadFlag("simulate runs at beta = beta1 + mu; give --beta or --mu, not both")
    params = _params_from(ns)
    base = onset(params)
    if ns.mu is not None:   # the beta that runs, also in the record
        params = validate(params.with_beta(base.beta1 + ns.mu))
    kind, mode, eps = _parse_perturb(ns.perturb)
    config = SimConfig(n_grid=ns.n_grid, dt=ns.dt, t_max=ns.tmax, seed=ns.seed,
                       perturb_kind=kind, perturb_mode=mode, eps=eps,
                       pin_mean=ns.pin_mean)
    tracked = [0, 1, 2, 3]
    if config.n_grid // 2 < tracked[-1]:
        raise InvalidConfig(f"n_grid = {config.n_grid} cannot resolve the tracked mode "
                            f"{tracked[-1]}; need n_grid >= {2 * tracked[-1]}")
    sample_every = sampling_steps(config.dt)
    n_steps = round(config.t_max / config.dt)
    if n_steps < sample_every:
        raise InvalidConfig(f"tmax = {config.t_max:g} is shorter than one sample "
                            f"interval ({sample_every * config.dt:g})")
    times = config.dt * np.arange(sample_every, n_steps + 1, sample_every)
    samples = []   # modes 0-3 of u1, then the means: the k = 0 coefficients

    def observe(_i, _members, spectrum):
        samples.append(spectrum[0, 0, tracked].tolist() + spectrum[0, :, 0].real.tolist())

    Simulator(params, config).advance(initialize(params, config)[None], [params.beta],
                                      [n_steps], sample_every=sample_every, observe=observe)

    header = ["t", *(f"{part}_mode{k}" for k in tracked for part in ("re", "im")),
              "mean_u1", "mean_u2"]
    rows = ([t, *(part for z in row[:len(tracked)] for part in (z.real, z.imag)),
             *row[len(tracked):]] for t, row in zip(times, samples))
    outputs = _write_csv(ns.series or (ns.out + ".series.csv" if ns.out else None),
                         header, rows)

    mode1 = np.array([row[1] for row in samples])
    amplitude, frequency, note, settled = tail_fit(times, mode1)
    summary = {
        "params": params, "beta": params.beta, "mu": params.beta - base.beta1,
        "config": config, "final_time": n_steps * config.dt,
        "saturated_amplitude": amplitude, "settled": settled,
        "frequency": frequency, "mode1_final": samples[-1][1],
    }
    if note:
        summary["frequency_note"] = note
    _emit(ns, summary, outputs)
    return 0


def _parse_grid(spec: str):
    """'name=lo:hi:count' -> (name, values)."""
    name, _, rng = spec.partition("=")
    form = ("--grid expects name=lo:hi:count with name in {alpha, delta1, delta2, mu}, "
            f"lo and hi numbers and count an integer, got {spec!r}")
    if name not in ("alpha", "delta1", "delta2", "mu"):
        raise BadFlag(form)
    try:
        lo, hi, count = rng.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise BadFlag(form) from None
    if count < 1:
        raise BadFlag(f"--grid {name}: count must be at least 1, got {count}")
    return name, np.linspace(lo, hi, count)


_SWEEP_FIELDS = [
    "index", "alpha", "delta1", "delta2", "half_length", "mu", "admissible",
    "beta1", "omega",
    "re_a", "im_a",
    "re_b_projection", "im_b_projection", "re_c_projection", "im_c_projection",
    "re_b_closed_form", "im_b_closed_form", "re_c_closed_form", "im_c_closed_form",
    "tw_exists", "sw_exists", "stable_families", "error",
]


_GRID_FIELDS = ("alpha", "delta1", "delta2", "half_length", "mu")


def _grid_columns(fixed: dict, axes) -> dict:
    """Field -> (P,) float array over the grid; the first axis varies fastest."""
    cols = {k: np.array([float(fixed[k])]) for k in _GRID_FIELDS}
    for name, vals in axes:
        size = len(cols[name])
        cols = {k: np.tile(v, len(vals)) for k, v in cols.items()}
        cols[name] = np.repeat(vals, size)
    return cols


def _error_text(exc: O2HopfError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _sweep_columns(cols: dict) -> dict:
    """Every CSV column of the sweep, computed for the whole grid at once.

    Each point meets the checks of the single-point pipeline in its order
    and stops at the first that fails: a constant that is not finite and
    positive, inadmissibility (no error), beta = beta1 + mu not finite and
    positive, projection overflow, a singular resolvent system, P_2(0) = 0,
    then closed-form overflow.  The error column gets the failure as
    "<ErrorType>: <message>"; cells a point never reaches stay blank.
    """
    n = len(cols["alpha"])
    out = {name: [""] * n for name in _SWEEP_FIELDS}
    out["index"] = list(range(n))
    for name in _GRID_FIELDS:
        out[name] = cols[name].tolist()

    def put(name, points, values):
        for i, v in zip(points.tolist(), values):
            out[name][i] = v

    def fail(points, errors):
        put("error", points, [_error_text(exc) for exc in errors])

    live = np.arange(n)
    for name in ("alpha", "delta1", "delta2", "half_length"):
        bad = ~is_positive(cols[name][live])
        fail(live[bad], [NonPositiveParameter(name, v) for v in cols[name][live[bad]].tolist()])
        live = live[~bad]

    alpha, delta1, delta2, length, mu = (cols[k][live] for k in _GRID_FIELDS)
    d1e, d2e, beta1, omega_sq, admissible = onset_terms(alpha, delta1, delta2, length)
    put("beta1", live, beta1.tolist())
    put("omega", live, np.sqrt(np.where(omega_sq > 0.0, omega_sq, 0.0)).tolist())
    put("admissible", live, admissible.tolist())
    beta = beta1 + mu
    bad = admissible & ~is_positive(beta)
    fail(live[bad], [NonPositiveParameter("beta", v) for v in beta[bad].tolist()])
    keep = admissible & ~bad
    live, mu = live[keep], mu[keep]

    values, errors = coeffs_batch(alpha[keep], d1e[keep], d2e[keep], length[keep])
    bad = np.array([e is not None for e in errors], dtype=bool)
    fail(live[bad], [e for e in errors if e is not None])
    live, mu = live[~bad], mu[~bad]
    values = {k: v[~bad] for k, v in values.items()}
    for name, v in values.items():
        put(f"re_{name}", live, v.real.tolist())
        put(f"im_{name}", live, v.imag.tolist())

    regime = regime_batch(values["a"], values["b_projection"], values["c_projection"], mu)
    put("tw_exists", live, regime["rotating_exists"].tolist())
    put("sw_exists", live, regime["standing_exists"].tolist())
    put("stable_families", live, [
        "|".join(family for family, stable in (("rotating_wave", rw), ("standing_wave", sw))
                 if stable)
        for rw, sw in zip(regime["rotating_stable"].tolist(),
                          regime["standing_stable"].tolist())])
    return out


_SWEEP_DEFAULTS = {"alpha": 2.0, "delta1": 1.0, "delta2": 1.0, "half_length": math.pi}


def cmd_sweep(ns) -> int:
    """Grid CSV; fixed constants from --config, overridden by flags, else defaults.

    Every point sets beta = beta1 + mu, so --beta is rejected and a beta in
    the config file is not used.  The constants are not validated here: a
    nonpositive one becomes a per-point error.
    """
    if ns.beta is not None:
        raise BadFlag("sweep sets beta = beta1 + mu at each point; "
                      "give --mu or a mu grid instead of --beta")
    raw = _raw_params(ns)
    fixed = {**{k: raw.get(k, v) for k, v in _SWEEP_DEFAULTS.items()}, "mu": ns.mu}
    axes = [_parse_grid(spec) for spec in ns.grid]
    names = [name for name, _ in axes]
    for name in names:
        if names.count(name) > 1:
            raise BadFlag(f"--grid {name} is given more than once; give each axis one range")
    columns = _sweep_columns(_grid_columns(fixed, axes))

    out = ns.out or "sweep.csv"
    _write_manifest(ns, out, _write_csv(out, _SWEEP_FIELDS,
                                        zip(*(columns[name] for name in _SWEEP_FIELDS))))
    n_err = sum(1 for e in columns["error"] if e)
    print(f"wrote {len(columns['index'])} rows to {out} ({n_err} with per-point errors)")
    return 0


def _verify_checks(quick: bool):
    """Golden self-checks; yields (name, passed, detail)."""
    canonical = validate({"alpha": 2.0, "beta": 7.0})
    data = onset(canonical)
    cf = closed_form_constants(canonical)
    rt3 = math.sqrt(3.0)

    def close(x, y, tol=1e-12):
        return abs(x - y) <= tol * (1.0 + abs(y))

    yield ("beta1", close(data.beta1, 7.0), f"{data.beta1}")
    yield ("omega", close(data.omega, rt3), f"{data.omega}")
    golden = {"N_r": 66.0, "N_i": 12.0, "B_r": 18.0, "B_i": -33.0,
              "C_2r": -192.0, "C_2i": 72.0 * rt3, "P2_0": 12.0,
              "Q_r": 42.0, "Q_i": -20.0 * rt3}
    for key, want in golden.items():
        yield (key, close(cf[key], want), f"{cf[key]} vs {want}")
    yield ("re_b_closed_form", close(cf["b"].real, -17.0 / 8.0), f"{cf['b'].real}")
    yield ("re_c_closed_form", close(cf["c"].real, 11.0 / 4.0), f"{cf['c'].real}")

    report = coeffs_report(canonical)
    proj, direct = report["routes"]["projection"], report["routes"]["direct"]
    yield ("re_a_half", proj["a"].real == 0.5, f"{proj['a']}")
    for name in ("a", "b", "c"):
        gap = abs(proj[name] - direct[name])
        yield (f"route_agreement_{name}",
               gap <= 1e-10 * (1.0 + abs(direct[name])), f"gap {gap:.3e}")
    yield ("psi_residuals",
           max(report["psi_residuals"].values()) <= 1e-12,
           f"max {max(report['psi_residuals'].values()):.3e}")
    yield ("mean_zero_obstruction",
           report["mean_zero_obstruction"]["verdict"] == "present",
           report["mean_zero_obstruction"]["verdict"])

    scan = onset_scan(canonical, n_max=16)
    yield ("hopf_onset", scan.verdict == "hopf_onset" and scan.critical_modes == [-1, 1],
           scan.verdict)
    yield ("no_turing", turing_check(canonical).both_positive_real_part, "")

    if not quick:
        from .pdesim import measure_growth_rate
        rate, predicted = measure_growth_rate(canonical, 7.05, 1)
        yield ("pde_linear_rate",
               abs(rate - predicted) <= 0.05 * abs(predicted),
               f"measured {rate:.5f} vs {predicted:.5f}")


def cmd_verify(ns) -> int:
    failed = 0
    for name, ok, detail in _verify_checks(ns.quick):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
        if not ok:
            failed += 1
    if failed:
        print(f"{failed} check(s) failed")
        return 3
    print("all checks passed")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="o2hopf",
                     description="O(2)-Hopf analysis of the diffusive Brusselator")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("onset", help="dispersion scan and onset verdict")
    _add_param_flags(p)
    p.add_argument("--scan-beta", type=float, help="scan at this beta instead")
    p.add_argument("--n-max", type=int, default=64)
    p.add_argument("--csv", help="also write the dispersion curve as CSV")
    p.set_defaults(func=cmd_onset)

    p = sub.add_parser("coeffs", help="normal-form coefficient report")
    _add_param_flags(p)
    p.add_argument("--route", choices=ROUTES, help="emit a single route only")
    p.add_argument("--csv", help="also write a one-row-per-route CSV")
    p.set_defaults(func=cmd_coeffs)

    for name, func in (("classify", cmd_classify), ("branch", cmd_branch)):
        p = sub.add_parser(name)
        _add_param_flags(p)
        p.add_argument("--mu", type=float, default=0.1)
        p.add_argument("--route", choices=ROUTES, default="projection")
        p.set_defaults(func=func)

    p = sub.add_parser("simulate", help="pseudospectral PDE run")
    _add_param_flags(p)
    p.add_argument("--mu", type=float, help="beta = beta1 + mu")
    p.add_argument("--n-grid", type=int, default=128)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--tmax", type=float, default=200.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--perturb", default="1:1e-4", help="'K:EPS' or 'random:EPS'")
    p.add_argument("--pin-mean", action="store_true",
                   help="hold the spatial means at the uniform state, "
                        "suppressing the unstable k=0 oscillation")
    p.add_argument("--series", help="CSV path for the time series")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="parameter-grid CSV of onset/coefficients")
    _add_param_flags(p)
    p.add_argument("--mu", type=float, default=0.1)
    p.add_argument("--grid", action="append", required=True,
                   help="name=lo:hi:count (repeatable)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the golden self-check suite")
    p.add_argument("--quick", action="store_true", help="skip the PDE checks")
    p.set_defaults(func=cmd_verify)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if not getattr(ns, "command", None):
            parser.print_usage()
            return 1
        return ns.func(ns)
    except BadFlag as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (NonPositiveParameter, InadmissibleRegime, InvalidConfig, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:   # an unreadable --config or unwritable --out
        print(f"file error: {exc}", file=sys.stderr)
        return 1
    except (NumericalBlowup, SingularSystem, NoSaturation) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
