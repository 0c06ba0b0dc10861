"""Command-line front end: onset | coeffs | classify | simulate | sweep | verify.

Single-record reports are JSON (complex numbers as {re, im} pairs, keys
snake_case); sweeps are CSV with one row per grid point.  Every file output
is referenced by a run manifest written next to it.  Exit codes: 0 success,
1 validation/usage error, 2 numerical failure, 3 self-verification failure.
"""

from __future__ import annotations

import argparse
import functools
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
                     NoSaturation, NumericalBlowup, O2HopfError)
from .normalform import (ROUTES, closed_form_constants, coeffs, coeffs_batch,
                         coeffs_report)
from .params import ModelParams, is_positive, onset, onset_terms, read_config
from .pdesim import SimConfig, Simulator, initialize, tail_fit
from .reduced import ReducedSystem, branches, classify_regime, regime_batch
from .spectral import onset_scan, turing_check


class BadFlag(O2HopfError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern read the values of "--mu -1e-3" and "--perturb -1:1e-4" as flags
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?(:.*)?$")

    def error(self, message):
        raise BadFlag(message)


def _jsonify(obj):
    """obj as strict JSON data: complex numbers as {re, im}, a non-finite float as None."""
    if isinstance(obj, complex):
        return {"re": _jsonify(obj.real), "im": _jsonify(obj.imag)}
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonify(obj.item())
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
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
    """Print the JSON record or write it to --out; a manifest goes next to the first file."""
    text = json.dumps(_jsonify(record), indent=2, sort_keys=True, allow_nan=False)
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text + "\n")
        outputs = [ns.out, *outputs]
    else:
        print(text)
    if outputs:
        _write_manifest(ns, outputs[0], outputs)


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


def _csv_cells(values: list) -> list:
    """One column's cells as csv.writer writes them.

    Each value becomes str(value) and None "" (a column that is all text
    is taken as it stands); a cell holding , " CR or LF is quoted, with its
    " doubled.
    """
    try:
        text = "".join(values)
    except TypeError:
        values = ["" if v is None else str(v) for v in values]
        text = "".join(values)
    if _needs_quotes(text):
        values = ['"' + c.replace('"', '""') + '"' if _needs_quotes(c) else c for c in values]
    return values


def _needs_quotes(text: str) -> bool:
    return any(ch in text for ch in ',"\r\n')


def _write_csv(path, header, columns) -> list:
    """Write a CSV of the named columns to path; returns [path], or [] when
    path is empty.

    The bytes are those csv.writer writes in its default dialect: CRLF
    line ends, minimal quoting and floats as repr, for two or more columns
    (a row of one empty cell, which csv.writer writes as "", never occurs).
    Each column is formatted once (_csv_cells), and the rows are joined
    from its text and streamed to the file.
    """
    if not path:
        return []
    cells = [_csv_cells([name, *column]) for name, column in zip(header, columns, strict=True)]
    cells[-1] = [c + "\r\n" for c in cells[-1]]
    with open(path, "w", newline="") as fh:
        fh.writelines(map(",".join, zip(*cells)))
    return [path]


def _digest(ns) -> str:
    payload = json.dumps({k: v for k, v in sorted(vars(ns).items())
                          if k != "func"}, default=str, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _add_param_flags(p, mu=None):
    """The model constants, --config and --out; --mu (beta = beta1 + mu) with its default."""
    p.add_argument("--config", help="key = value parameter file")
    p.add_argument("--alpha", type=float)
    p.add_argument("--d1", "--delta1", dest="delta1", type=float)
    p.add_argument("--d2", "--delta2", dest="delta2", type=float)
    p.add_argument("--half-length", dest="half_length", type=float)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    if mu is not None:
        p.add_argument("--mu", type=float, default=mu, help="beta = beta1 + mu")


_CONSTANTS = ("alpha", "delta1", "delta2", "half_length")
# a simulate sample takes about 1.4 kB, most of it the CSV's text: 140 MB at this bound
_MAX_SAMPLES = 100_000


def _raw_params(ns) -> dict:
    """Constants from --config, overridden by the flags given; unvalidated.

    beta is always beta1 + mu, so a config file that sets it is refused, and
    so is a --mu that is not finite.
    """
    raw = read_config(ns.config) if ns.config else {}
    if "beta" in raw:
        raise BadFlag(f"{ns.config}: beta is set as beta1 + mu on the command line; give --mu")
    if not math.isfinite(getattr(ns, "mu", 0.0)):
        raise BadFlag(f"--mu must be finite, got {ns.mu!r}")
    raw.update({k: getattr(ns, k) for k in _CONSTANTS if getattr(ns, k) is not None})
    return raw


def _params_from(ns) -> ModelParams:
    """The validated constants at beta = beta1 + mu; mu is 0 where there is no --mu."""
    raw = _raw_params(ns)
    if "alpha" not in raw:
        raise BadFlag("--alpha (or --config) is required")
    params = ModelParams(beta=1.0, **raw)
    return params.with_beta(onset(params).beta1 + getattr(ns, "mu", 0.0))


def cmd_onset(ns) -> int:
    params = _params_from(ns)
    scan = onset_scan(params, n_max=ns.n_max)
    data = onset(params)
    record = {
        "params": params,
        "beta1": data.beta1,
        "omega": data.omega,
        "modes": [{"n": r.n, "re1": r.roots[0].real, "im1": r.roots[0].imag,
                   "re2": r.roots[1].real, "im2": r.roots[1].imag}
                  for r in scan.records],
        "critical_modes": scan.critical_modes,
        "certificate_margin": scan.certificate_margin,
        "verdict": scan.verdict,
        "turing": turing_check(params),
    }
    curve = [(r.n, r.k, r.max_real_part, r.leading.imag) for r in scan.records]
    _emit(ns, record, _write_csv(ns.csv, ["n", "k", "re_lambda_max", "im_lambda"], zip(*curve)))
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
    _emit(ns, record, _write_csv(ns.csv, header, zip(*rows)))
    return 0


def cmd_classify(ns) -> int:
    params = _params_from(ns)
    sys_ = ReducedSystem.from_coeffs(coeffs(params, ns.route), ns.mu)
    record = {"params": params, "mu": ns.mu, "route": ns.route,
              "coefficients": {"a": sys_.a, "b": sys_.b, "c": sys_.c},
              "regime": classify_regime(sys_), "branches": branches(sys_)}
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
    params = _params_from(ns)
    kind, mode, eps = _parse_perturb(ns.perturb)
    config = SimConfig(n_grid=ns.n_grid, dt=ns.dt, t_max=ns.tmax, seed=ns.seed,
                       perturb_kind=kind, perturb_mode=mode, eps=eps,
                       pin_mean=ns.pin_mean)
    tracked = [0, 1, 2, 3]
    if config.n_grid // 2 < tracked[-1]:
        raise InvalidConfig(f"n_grid = {config.n_grid} cannot resolve the tracked mode "
                            f"{tracked[-1]}; need n_grid >= {2 * tracked[-1]}")
    if (count := config.n_steps // config.sample_every) > _MAX_SAMPLES:
        raise InvalidConfig(f"tmax = {config.t_max:g} gives {count} samples; "
                            f"a run records at most {_MAX_SAMPLES}")
    times = config.sample_times()
    # modes 0-3 of u1, then the mean of u2; the means are the k = 0 columns
    _, (series,) = Simulator(params, config).advance(
        initialize(params, config)[None], [params.beta], config.n_steps,
        sample_every=config.sample_every, modes=[(0, k) for k in tracked] + [(1, 0)])

    header = ["t", *(f"{part}_mode{k}" for k in tracked for part in ("re", "im")),
              "mean_u1", "mean_u2"]
    columns = [times, *(part for z in series[:, :len(tracked)].T for part in (z.real, z.imag)),
               series[:, 0].real, series[:, -1].real]
    outputs = _write_csv(ns.series or (ns.out + ".series.csv" if ns.out else None),
                         header, [c.tolist() for c in columns])

    amplitude, frequency, note, settled = tail_fit(times, series[:, 1])
    summary = {
        "params": params, "beta": params.beta, "mu": onset(params).mu,
        "config": config, "final_time": config.n_steps * config.dt,
        "saturated_amplitude": amplitude, "settled": settled,
        "frequency": frequency, "mode1_final": series[-1, 1],
    }
    if note:
        summary["frequency_note"] = note
    _emit(ns, summary, outputs)
    return 0


def _parse_grid(spec: str):
    """'name=lo:hi:count' -> (name, (lo, hi, count))."""
    name, _, rng = spec.partition("=")
    form = ("--grid expects name=lo:hi:count with name in {alpha, delta1, delta2, mu}, "
            f"lo and hi finite numbers and count an integer, got {spec!r}")
    if name not in ("alpha", "delta1", "delta2", "mu"):
        raise BadFlag(form)
    try:
        lo, hi, count = rng.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise BadFlag(form) from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise BadFlag(form)
    if count < 1:
        raise BadFlag(f"--grid {name}: count must be at least 1, got {count}")
    return name, (lo, hi, count)


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
    """Field -> (P,) array over the grid; the first axis varies fastest.

    fixed holds each field's value off the axes and axes the (field, values)
    of each axis: floats, or their text.
    """
    cols = {k: np.array([fixed[k]]) for k in _GRID_FIELDS}
    for name, vals in axes:
        size = len(cols[name])
        cols = {k: np.tile(v, len(vals)) for k, v in cols.items()}
        cols[name] = np.repeat(vals, size)
    return cols


def _error_text(exc: O2HopfError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _sweep_columns(fixed: dict, axes) -> dict:
    """Every CSV column of the sweep as text, computed for the whole grid at once.

    The grid is that of _grid_columns; each grid value is formatted once and
    its text tiled with it, and each computed cell is formatted once.

    Each point meets the checks of the single-point pipeline in its order
    and stops at the first that fails: a constant that is not finite and
    positive, inadmissibility (no error), beta = beta1 + mu not finite and
    positive, then projection overflow.  The error column gets the failure
    as "<ErrorType>: <message>"; cells a point never reaches stay blank.
    Closed-form overflow comes last and blanks only the closed-form columns.
    """
    cols = _grid_columns(fixed, axes)
    text = _grid_columns({k: str(v) for k, v in fixed.items()},
                         [(name, np.array(list(map(str, vals.tolist())))) for name, vals in axes])
    n = len(cols["alpha"])
    out = {name: [""] * n for name in _SWEEP_FIELDS}
    out["index"] = list(map(str, range(n)))
    for name in _GRID_FIELDS:
        out[name] = text[name].tolist()

    def put(name, points, values):
        for i, v in zip(points.tolist(), map(str, values)):
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
    omega = np.sqrt(np.where(omega_sq > 0.0, omega_sq, 0.0))
    put("omega", live, omega.tolist())
    put("admissible", live, admissible.tolist())
    beta = beta1 + mu
    bad = admissible & ~is_positive(beta)
    fail(live[bad], [NonPositiveParameter("beta", v) for v in beta[bad].tolist()])
    keep = admissible & ~bad
    live, mu, omega = live[keep], mu[keep], omega[keep]

    values, errors = coeffs_batch(alpha[keep], d1e[keep], d2e[keep])
    bad = np.array([e is not None for e in errors], dtype=bool)
    fail(live[bad], [e for e in errors if e is not None])
    for name, v in values.items():   # NaN from the point's first failure on
        ok = np.isfinite(v)
        put(f"re_{name}", live[ok], v.real[ok].tolist())
        put(f"im_{name}", live[ok], v.imag[ok].tolist())
    solved = np.isfinite(values["a"])
    live = live[solved]
    regime = regime_batch(ReducedSystem(
        mu=mu[solved], omega=omega[solved], a=values["a"][solved],
        b=values["b_projection"][solved], c=values["c_projection"][solved]))
    rw, sw = regime["rotating_wave"], regime["standing_wave"]
    for name, family in (("tw_exists", rw), ("sw_exists", sw)):
        put(name, live, (family["exists"] & (family["stability"] != "degenerate")).tolist())
    put("stable_families", live, [
        "|".join(family for family, stable in (("rotating_wave", r), ("standing_wave", s))
                 if stable)
        for r, s in zip(rw["stable"].tolist(), sw["stable"].tolist())])
    return out


_SWEEP_DEFAULTS = {"alpha": 2.0, "delta1": 1.0, "delta2": 1.0, "half_length": math.pi}
_MAX_POINTS = 100_000   # a sweep point takes about 2.4 kB: 240 MB at this bound


def cmd_sweep(ns) -> int:
    """Grid CSV; fixed constants from --config, overridden by flags, else defaults.

    The constants are not validated here: a nonpositive one becomes a
    per-point error.
    """
    raw = _raw_params(ns)
    fixed = {**{k: raw.get(k, v) for k, v in _SWEEP_DEFAULTS.items()}, "mu": ns.mu}
    ranges = [_parse_grid(spec) for spec in ns.grid]
    names = [name for name, _ in ranges]
    for name in names:
        if names.count(name) > 1:
            raise BadFlag(f"--grid {name} is given more than once; give each axis one range")
    if (points := math.prod(count for _, (_, _, count) in ranges)) > _MAX_POINTS:
        raise BadFlag(f"--grid gives {points} points; a sweep holds at most {_MAX_POINTS}")
    columns = _sweep_columns(fixed, [(name, np.linspace(*rng)) for name, rng in ranges])

    out = ns.out or "sweep.csv"
    _write_manifest(ns, out, _write_csv(out, _SWEEP_FIELDS,
                                        [columns[name] for name in _SWEEP_FIELDS]))
    n_err = sum(1 for e in columns["error"] if e)
    print(f"wrote {len(columns['index'])} rows to {out} ({n_err} with per-point errors)")
    return 0


def _verify_checks(quick: bool):
    """Golden self-checks; yields (name, passed, detail)."""
    canonical = ModelParams(alpha=2.0, beta=7.0)
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


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="o2hopf",
                     description="O(2)-Hopf analysis of the diffusive Brusselator")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("onset", help="dispersion scan and onset verdict")
    _add_param_flags(p, mu=0.0)
    p.add_argument("--n-max", type=int, default=64)
    p.add_argument("--csv", help="also write the dispersion curve as CSV")
    p.set_defaults(func=cmd_onset)

    p = sub.add_parser("coeffs", help="normal-form coefficient report")
    _add_param_flags(p)
    p.add_argument("--route", choices=ROUTES, help="emit a single route only")
    p.add_argument("--csv", help="also write a one-row-per-route CSV")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("classify", help="wave-family regime and branches")
    _add_param_flags(p, mu=0.1)
    p.add_argument("--route", choices=ROUTES, default="projection")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("simulate", help="pseudospectral PDE run")
    _add_param_flags(p, mu=0.0)
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
    _add_param_flags(p, mu=0.1)
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
    except (NumericalBlowup, NoSaturation) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
