"""The two benchmark workloads: inputs from a seed, a timed body, checks.

Each workload is a ``Workload`` of three functions:

* ``make(seed, size, tmpdir)`` builds the inputs.  Only the inputs depend
  on the seed; the amount of work (points, member-steps) does not.
* ``body(inputs)`` is the timed part.  It calls the program through module
  attributes (``cli.dispatch``, ``pdesim.amplitude_scaling_experiment``)
  so that the traced run sees every call.
* ``check(inputs, output)`` compares the output with the paper's
  invariants at the acceptance suite's tolerances and returns
  ``(attempted, failed, notes)``.

``size="full"`` is the benchmark; ``size="tiny"`` is the smoke size used by
the benchmark's own tests.
"""

from __future__ import annotations

import csv
import math
import os
from typing import Callable, NamedTuple

import numpy as np

RT3 = math.sqrt(3.0)


class Workload(NamedTuple):
    make: Callable
    body: Callable
    check: Callable


def _close(x, y, tol):
    return abs(x - y) <= tol * (1.0 + abs(y))


def admissible(alpha, delta1, delta2, half_length=math.pi):
    """The closed-form O(2)-Hopf admissibility test: omega^2 > 0, beta1 < bound."""
    s = (math.pi / half_length) ** 2
    d1e, d2e = delta1 * s, delta2 * s
    beta1 = 1.0 + alpha ** 2 + d1e + d2e
    omega_sq = alpha ** 2 * (1.0 + d1e - d2e) - d2e ** 2
    bound = (1.0 + alpha * math.sqrt(delta1 / delta2)) ** 2
    return omega_sq > 0.0 and beta1 < bound


def leading_rate(alpha, delta1, delta2, half_length, k, beta):
    """Largest real part of the eigenvalues of the mode-k matrix."""
    k2 = (k * math.pi / half_length) ** 2
    tr = (-k2 * delta1 + beta - 1.0) + (-k2 * delta2 - alpha ** 2)
    det = (-k2 * delta1 + beta - 1.0) * (-k2 * delta2 - alpha ** 2) + beta * alpha ** 2
    disc = tr * tr / 4.0 - det
    return tr / 2.0 + math.sqrt(disc) if disc > 0.0 else tr / 2.0


# -- sweep -------------------------------------------------------------------

SWEEP_AXES = (("alpha", 1.0, 3.0), ("delta1", 0.3, 2.0), ("delta2", 0.2, 1.5))
SWEEP_JITTER = 0.03      # relative jitter of each grid bound
SWEEP_MU = 0.1
SWEEP_SPOT_CHECKS = 20


def make_sweep(seed, size, tmpdir):
    rng = np.random.default_rng([seed, 1])
    count = 10 if size == "full" else 3
    out = os.path.join(tmpdir, "sweep.csv")
    argv = ["sweep", "--mu", repr(SWEEP_MU), "--out", out]
    for name, lo, hi in SWEEP_AXES:
        lo *= 1.0 + rng.uniform(-SWEEP_JITTER, SWEEP_JITTER)
        hi *= 1.0 + rng.uniform(-SWEEP_JITTER, SWEEP_JITTER)
        argv += ["--grid", f"{name}={lo!r}:{hi!r}:{count}"]
    return {"argv": argv, "csv": out, "points": count ** 3,
            "spot_rng_seed": [seed, 2], "work": count ** 3}


def body_sweep(inp):
    from o2hopf import cli
    code = cli.dispatch(inp["argv"])
    if code != 0:
        raise RuntimeError(f"sweep exited with code {code}")
    return inp["csv"]


def check_sweep(inp, csv_path):
    from o2hopf import normalform, params
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    bad = set()
    notes = []
    if len(rows) != inp["points"]:
        notes.append(f"{len(rows)} rows, expected {inp['points']}")
    for i, row in enumerate(rows):
        want = admissible(float(row["alpha"]), float(row["delta1"]),
                          float(row["delta2"]), float(row["half_length"]))
        if row["error"] or (row["admissible"] == "True") != want:
            bad.add(i)
    n_adm = sum(1 for r in rows if r["admissible"] == "True")
    notes.append(f"{n_adm} admissible of {len(rows)}")

    rng = np.random.default_rng(inp["spot_rng_seed"])
    candidates = [i for i, r in enumerate(rows) if r["admissible"] == "True"]
    picks = rng.choice(len(candidates), size=min(SWEEP_SPOT_CHECKS, len(candidates)),
                       replace=False)
    for j in picks:
        i = candidates[int(j)]
        row = rows[i]
        p = params.validate({k: float(row[k]) for k in
                             ("alpha", "delta1", "delta2", "half_length")}
                            | {"beta": float(row["beta1"]) + float(row["mu"])})
        ref = normalform.coeffs(p, "direct")
        got = {"a": complex(float(row["re_a"]), float(row["im_a"])),
               "b": complex(float(row["re_b_projection"]), float(row["im_b_projection"])),
               "c": complex(float(row["re_c_projection"]), float(row["im_c_projection"]))}
        if not all(_close(got[k], getattr(ref, k), 1e-10) for k in "abc"):
            bad.add(i)
            notes.append(f"row {i}: projection differs from direct")
    attempted = max(len(rows), inp["points"])
    failed = len(bad) + max(inp["points"] - len(rows), 0)
    return attempted, failed, notes


# -- checks: the square-root amplitude law ------------------------------------

SATURATION_DT = 0.02
# (mu range, horizon, grid size, number of mu) per size; the smoke size
# saturates within its shorter horizon because its mu are larger
SATURATION_SIZES = {"full": ((0.04, 0.10), 400.0, 128, 3),
                    "tiny": ((0.20, 0.30), 100.0, 32, 2)}


def make_saturation(seed, size):
    """Inputs of amplitude_scaling_experiment, the long-run part of checks."""
    from o2hopf import params, pdesim
    rng = np.random.default_rng([seed, 3])
    (lo, hi), t_end, n_grid, n_mu = SATURATION_SIZES[size]
    # one mu per equal slice of the range, so the log-log fit is well spread
    edges = np.linspace(lo, hi, n_mu + 1)
    mus = [float(rng.uniform(a, b)) for a, b in zip(edges[:-1], edges[1:])]
    # For the full size this equals the program's default (horizon 400 at
    # dt = 0.02 for every mu >= 0.04); passing it makes the step count a
    # property of the inputs.
    config = pdesim.SimConfig(n_grid=n_grid, dt=SATURATION_DT, t_max=t_end,
                              eps=1e-2, perturb_kind="traveling", perturb_mode=1,
                              pin_mean=True)
    return {"params": params.validate({"alpha": 2.0, "beta": 7.0}), "mus": mus,
            "config": config, "steps": n_mu * round(t_end / SATURATION_DT)}


# -- checks ------------------------------------------------------------------

CHECK_LENGTHS = (math.pi, math.pi / 2, 2.0, 5.0)
GROWTH_CASES = ((7.05, 1), (6.95, 1), (7.0, 2), (7.0, 3))
GROWTH_DT = 2e-3
EQUIVARIANCE_DT = 1e-3
EQUIVARIANCE_T_END = 1.0
ORDER_DT, ORDER_T_END, ORDER_N = 0.02, 1.0, 64
TRAJECTORY_MU, TRAJECTORY_T_END = 0.1, 300.0


def random_admissible(rng, model_params):
    """Rejection-sample an admissible set at beta = beta1, varied domain length."""
    while True:
        alpha = float(rng.uniform(0.5, 3.0))
        d1, d2 = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.1, 1.5))
        length = float(rng.choice(CHECK_LENGTHS))
        if admissible(alpha, d1, d2, length):
            beta1 = 1.0 + alpha ** 2 + (d1 + d2) * (math.pi / length) ** 2
            return model_params(alpha=alpha, beta=beta1, delta1=d1, delta2=d2,
                                half_length=length)


def growth_t_end(lead):
    """The growth-rate window measure_growth_rate picks by default."""
    return min(10.0, max(2.0, 3.0 / max(abs(lead), 0.3)))


def make_checks(seed, size, tmpdir):
    from o2hopf import params, pdesim
    rng = np.random.default_rng([seed, 4])
    canon = params.validate({"alpha": 2.0, "beta": 7.0})
    n_sets = 100 if size == "full" else 3
    sets = [random_admissible(rng, params.ModelParams) for _ in range(n_sets)]
    cases = GROWTH_CASES if size == "full" else GROWTH_CASES[2:3]
    growth = []
    for beta, k in cases:
        lead = leading_rate(canon.alpha, canon.delta1, canon.delta2, canon.half_length,
                            k, beta)
        growth.append({"beta": beta, "k": k, "lead": lead, "t_end": growth_t_end(lead)})
    eq_config = pdesim.SimConfig(n_grid=128 if size == "full" else 32,
                                 dt=EQUIVARIANCE_DT, perturb_kind="random", eps=1e-2,
                                 seed=int(rng.integers(0, 2 ** 31)))
    saturation = make_saturation(seed, size)
    steps = (sum(round(g["t_end"] / GROWTH_DT) for g in growth)
             + 3 * round(EQUIVARIANCE_T_END / EQUIVARIANCE_DT)
             + sum(round(ORDER_T_END / dt) for dt in (ORDER_DT / 8, ORDER_DT, ORDER_DT / 2))
             + saturation["steps"])
    return {"canon": canon, "sets": sets, "growth": growth,
            "eq_config": eq_config, "phi": float(rng.uniform(0.1, 2.0 * math.pi - 0.1)),
            "z1_offset": float(rng.uniform(0.01, 0.03)),
            "z2_start": float(rng.uniform(0.002, 0.008)),
            "saturation": saturation, "work": steps}


def body_checks(inp):
    from o2hopf import normalform, pdesim, reduced, spectral
    canon = inp["canon"]
    out = {"reports": [], "scans": []}
    for p in inp["sets"]:
        out["reports"].append(normalform.coeffs_report(p))
        out["scans"].append(spectral.onset_scan(p, n_max=64))
    out["growth"] = [pdesim.measure_growth_rate(canon, g["beta"], g["k"], t_end=g["t_end"],
                                                dt=GROWTH_DT, n_grid=128)
                     for g in inp["growth"]]
    out["equivariance"] = pdesim.equivariance_test(canon, inp["eq_config"], phi=inp["phi"],
                                                   t_end=EQUIVARIANCE_T_END)
    out["order"] = pdesim.timestep_convergence_order(
        canon.with_beta(6.8), dt=ORDER_DT, t_end=ORDER_T_END, n_grid=ORDER_N)
    sys_ = reduced.ReducedSystem.from_coeffs(normalform.coeffs(canon, "projection"),
                                             TRAJECTORY_MU)
    r_star = {b.kind: b for b in reduced.branches(sys_)}["rotating_wave_1"].r1
    _, z1, z2 = reduced.integrate_truncated(
        sys_, (r_star + inp["z1_offset"]) + 0j, inp["z2_start"] + 0j,
        t_max=TRAJECTORY_T_END, dt=1.0)
    out["trajectory"] = (r_star, z1[-1], z2[-1])
    sat = inp["saturation"]
    out["saturation"] = pdesim.amplitude_scaling_experiment(sat["params"], sat["mus"],
                                                            sat["config"])
    return out


def check_checks(inp, out):
    results = []   # (name, passed)
    for i, (report, scan) in enumerate(zip(out["reports"], out["scans"])):
        proj, direct = report["routes"]["projection"], report["routes"]["direct"]
        results.append((f"set {i}: projection = direct",
                        all(_close(proj[k], direct[k], 1e-10) for k in "abc")))
        results.append((f"set {i}: psi residuals",
                        max(report["psi_residuals"].values()) <= 1e-12))
        results.append((f"set {i}: hopf_onset", scan.verdict == "hopf_onset"))
    for g, (rate, _predicted) in zip(inp["growth"], out["growth"]):
        results.append((f"growth beta={g['beta']} k={g['k']}",
                        abs(rate - g["lead"]) <= 0.05 * abs(g["lead"])))
    eq = out["equivariance"]
    results.append(("equivariance", max(eq["translation"], eq["reflection"]) <= 1e-8))
    results.append(("order", out["order"] >= 1.8))
    r_star, z1, z2 = out["trajectory"]
    results.append(("trajectory radius", max(abs(abs(z1) - r_star), abs(z2)) <= 1e-6))
    sat = out["saturation"]
    results.append(("amplitude law slope", abs(sat.get("slope", math.nan) - 0.5) <= 0.1))
    results.append(("frequency at zero",
                    abs(sat.get("frequency_at_zero", math.nan) - RT3) <= 0.05 * RT3))
    notes = [f"failed: {name}" for name, ok in results if not ok]
    return len(results), len(notes), notes


WORKLOADS = {
    "sweep": Workload(make_sweep, body_sweep, check_sweep),
    "checks": Workload(make_checks, body_checks, check_checks),
}
