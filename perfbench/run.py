"""Benchmark of the o2hopf pipeline: one workload per run, each child a fresh interpreter.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the children import o2hopf from its
``src`` directory.  With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a run that wraps the package's public functions.  A record of
the machine, the child environment and every repetition goes to
``.perfbench_out/`` in the checkout.  The exit code is 0 when every output
check passed, 1 when one failed and 2 when the benchmark could not run.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata as md
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("sweep", "checks")
# Set-up-only children, half before and half after the measuring child (which
# adds one sample), so the median spans the whole run.
SETUP_CHILDREN = 6
DEADLINE_S = 170.0        # every child is stopped by then
# Removed from the children's environment: the sweep's pool size, and the
# switch that would make every child compile o2hopf from source again.
STRIPPED_ENV = ("O2HOPF_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONPATH")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("work_per_s", "1/s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("pass_frac", "ratio"))

# (metric, unit); "<layer>.<calls|busy_s|self_s|us_per_call>" come from the spans
PER_LAYER = (
    ("import.o2hopf_s", "s"), ("import.scipy_integrate_loaded", "flag"),
    ("cli.dispatch.busy_s", "s"), ("cli.dispatch.self_s", "s"),
    ("params.validate.calls", "count"), ("params.validate.busy_s", "s"),
    ("params.onset.calls", "count"), ("spectral.xi1.calls", "count"),
    ("modes.R20.calls", "count"), ("modes.R30.calls", "count"),
    ("spectral.onset_scan.busy_s", "s"),
    ("normalform.coeffs.calls", "count"), ("normalform.coeffs.busy_s", "s"),
    ("normalform.solve_psi.calls", "count"), ("normalform.solve_psi.busy_s", "s"),
    ("normalform.closed_form_constants.busy_s", "s"),
    ("normalform.coeffs_report.calls", "count"), ("normalform.coeffs_report.busy_s", "s"),
    ("meanzero.zero_mode_content.busy_s", "s"),
    ("reduced.branches.busy_s", "s"), ("reduced.classify_regime.busy_s", "s"),
    ("reduced.integrate_truncated.calls", "count"),
    ("reduced.integrate_truncated.busy_s", "s"),
    ("pdesim.Simulator.step.calls", "count"), ("pdesim.Simulator.step.busy_s", "s"),
    ("pdesim.Simulator.step.us_per_call", "us"), ("pdesim.Simulator.run.self_s", "s"),
    ("pdesim.mode_amplitude.calls", "count"), ("pdesim.mode_amplitude.busy_s", "s"),
    ("pdesim.Simulator.calls", "count"), ("pdesim.initialize.busy_s", "s"),
    ("pdesim.oscillation_frequency.busy_s", "s"),
    ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.top_cover_frac", "ratio"),
    ("trace.spans", "count"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def machine_record(env_removed):
    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            versions[pkg] = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
            "versions": versions,
            "child_env_removed": env_removed,
            "o2hopf_threads": "unset in children"}


def child_env(tmpdir):
    env = dict(os.environ)
    removed = {k: env.pop(k) for k in STRIPPED_ENV if k in env}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = tmpdir
    return env, removed


def spawn(args, env, deadline, mode, tag, extra=()):
    """Run one child to completion; return (spawn time, its result record)."""
    result = os.path.join(args.tmpdir, f"{tag}.json")
    cmd = [sys.executable, CHILD, "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--tmpdir", args.tmpdir, "--result", result, *extra]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{tag} child passed the {DEADLINE_S:.0f} s deadline")
    except BaseException:   # interrupted or terminated: leave no child behind
        proc.kill()
        proc.wait()
        raise
    if code != 0:
        raise BenchError(f"{tag} child exited with code {code}")
    with open(result) as fh:
        return spawned, json.load(fh)


def end_to_end(setups, rec):
    reps = rec["reps"]
    wall = statistics.median(r["wall_s"] for r in reps)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {"setup_s": statistics.median(setups),
            "wall_s": wall,
            "work_per_s": rec["work"] / wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "peak_rss_mb": rec["maxrss_kb"] * 1024 / 1e6,
            "pass_frac": (attempted - failed) / attempted}


def per_layer(rec):
    layers = rec["layers"]
    reps = rec["reps"]
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in plain)
    derived = {
        "import.o2hopf_s": rec["import_s"],
        "import.scipy_integrate_loaded": float(rec["scipy_integrate_loaded"]),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.top_cover_frac": statistics.median(r["top_cover_s"] / r["wall_s"]
                                                  for r in traced),
        "trace.spans": statistics.fmean(r["spans"] for r in traced),
    }
    out = {}
    for name, _unit in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
            continue
        layer, stat = name.rsplit(".", 1)
        row = layers.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        if stat == "us_per_call":
            out[name] = 1e6 * row["busy_s"] / row["calls"] if row["calls"] else 0.0
        else:
            out[name] = row[stat]
    return out


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    env, removed = child_env(args.tmpdir)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(sorted(removed))}

    spawn(args, env, deadline, "setup", "warmup")     # discarded: .pyc and page cache
    setups = []

    def sample_setups(first):
        for i in range(first, first + SETUP_CHILDREN // 2):
            spawned, setup = spawn(args, env, deadline, "setup", f"setup{i}")
            setups.append(setup["ready_monotonic"] - spawned)

    if not args.trace:
        sample_setups(0)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = os.path.join(OUT, f"spans-{tag}.csv.gz")
    spawned, rec = spawn(args, env, deadline, "measure", "measure",
                         ["--seconds", repr(args.seconds), "--trace", str(args.trace),
                          "--spans", spans])
    setups.append(rec["ready_monotonic"] - spawned)
    if not args.trace:
        sample_setups(SETUP_CHILDREN // 2)

    if args.trace:
        metrics = per_layer(rec)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(setups, rec)
        units = dict(END_TO_END)
    attempted = sum(r["attempted"] for r in rec["reps"])
    failed = sum(r["failed"] for r in rec["reps"])
    record.update(setup_samples_s=setups, child=rec, metrics=metrics)
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    for rep in rec["reps"]:
        for note in rep["notes"] if rep["failed"] else ():
            print(f"check failed: {note}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload:>10}  {name:<42} {value:>14.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if failed == 0 else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the measuring child repeats the workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "o2hopf", "__init__.py")):
        print(f"benchmark error: no o2hopf sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    args.tmpdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(args.tmpdir)
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(args.tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
