"""One benchmark child process: set up a workload and, if asked, measure it.

Run by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's ``src``.  ``--mode setup`` imports o2hopf, builds the inputs and
exits; ``--mode measure`` then repeats the workload body for the whole number
of passes that comes nearest to ``--seconds``.  With ``--trace 1`` the
repetitions alternate between untraced and traced.  The result is written as
JSON to ``--result``; stdout is left to the program.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import tracer as tr

# cli is traced at its entry point only: the subcommand handlers, CSV writing
# and the sweep pool's waits all count as cli.dispatch's own time.
TARGETS = ("cli.dispatch", "params", "spectral", "modes", "normalform", "meanzero",
           "reduced", "pdesim", "pdesim.Simulator")
MAX_TRACED_REPS = 3   # bounds the memory the in-memory spans take


def timed(workload, inputs):
    """Time one pass of the body, counting both wall-clock and CPU seconds."""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        output, error = workload.body(inputs), None
    except Exception:   # a failing pass is counted, not fatal to the run
        output, error = None, traceback.format_exc()
    t1, c1 = time.perf_counter(), time.process_time()
    return {"wall_s": t1 - t0, "cpu_s": c1 - c0}, (t0, t1), output, error


def measure(package, workload, inputs, seconds, trace, spans_path):
    """Repeat the body for about seconds; with trace, every other pass is traced."""
    tracer = tr.Tracer()
    reps, layers = [], []
    begin = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        first_span = len(tracer.spans)
        if traced:
            tracer.instrument(package, TARGETS)
        try:
            rep, interval, output, error = timed(workload, inputs)
        finally:
            tracer.restore()
        if error is None:   # checked untraced, outside the timed region
            rep["attempted"], rep["failed"], rep["notes"] = workload.check(inputs, output)
        else:
            rep["attempted"], rep["failed"], rep["notes"] = 1, 1, [error]
        rep["traced"] = traced
        if traced:
            spans = tracer.spans[first_span:]
            rep["spans"] = len(spans)
            rep["top_cover_s"] = tr.top_level_cover(spans, *interval)
            layers.append(tr.aggregate(spans))
        reps.append(rep)
        # the whole number of passes nearest to the time budget
        elapsed = time.perf_counter() - begin
        if len(reps) >= (2 if trace else 1) and (
                elapsed * (len(reps) + 0.5) / len(reps) > seconds
                or sum(r["traced"] for r in reps) >= MAX_TRACED_REPS):
            break
    if trace:
        tr.write_spans(spans_path, tracer.spans)
    return {"reps": reps, "layers": _mean_layers(layers)}


def _mean_layers(per_rep):
    """Average each span name's calls, busy_s and self_s over traced passes."""
    out = {}
    for name in sorted({n for rep in per_rep for n in rep}):
        rows = [rep.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}) for rep in per_rep]
        out[name] = {k: statistics.fmean(r[k] for r in rows)
                     for k in ("calls", "busy_s", "self_s")}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmpdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import o2hopf
    import_s = time.perf_counter() - t0
    scipy_integrate_loaded = "scipy.integrate" in sys.modules
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(o2hopf.__file__).startswith(src + os.sep):
        sys.exit(f"o2hopf was imported from {o2hopf.__file__}, not from {src}")

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    inputs = workload.make(args.seed, "full", args.tmpdir)
    ready = time.monotonic()

    result = {"ready_monotonic": ready, "import_s": import_s,
              "scipy_integrate_loaded": scipy_integrate_loaded,
              "work": inputs["work"]}
    if args.mode == "measure":
        result.update(measure(o2hopf, workload, inputs, args.seconds, bool(args.trace),
                              args.spans))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
