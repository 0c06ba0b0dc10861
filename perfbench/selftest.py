"""Tests of the benchmark itself: span analysis, patching, and tiny workloads.

    python3 -m pytest -q perfbench/selftest.py

The file name does not match pytest's ``test_*.py`` pattern, so the
repository's own ``pytest`` run does not collect it.
"""

import json
import os
import subprocess
import sys
import tempfile
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracer as tr  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children [1, 3] and [2, 6] (overlapping, union 5 s)
    # and [8, 12] (sticks out: only 2 s of it lies inside the root);
    # the child [2, 6] has one grandchild [3, 4].
    spans = [
        (0, tr.NO_PARENT, "root", 0.0, 10.0, 1),
        (1, 0, "a", 1.0, 3.0, 1),
        (2, 0, "b", 2.0, 6.0, 1),
        (3, 2, "c", 3.0, 4.0, 1),
        (4, 0, "d", 8.0, 12.0, 1),
    ]
    selfs = tr.self_times(spans)
    assert selfs == {0: 10.0 - 5.0 - 2.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 4.0}
    assert tr.top_level_cover(spans, -1.0, 11.0) == 10.0


def test_busy_time_counts_recursion_once():
    spans = [
        (0, tr.NO_PARENT, "f", 0.0, 4.0, 1),
        (1, 0, "f", 1.0, 3.0, 1),
        (2, 1, "g", 1.5, 2.0, 1),
        (3, tr.NO_PARENT, "f", 5.0, 6.0, 2),
    ]
    agg = tr.aggregate(spans)
    assert agg["f"]["calls"] == 3
    assert agg["f"]["busy_s"] == 5.0
    assert agg["f"]["self_s"] == pytest.approx(2.0 + 1.5 + 1.0)
    assert agg["g"] == {"calls": 1, "busy_s": 0.5, "self_s": 0.5}


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n"
         "def _private(x):\n    return x\n"
         "class Engine:\n"
         "    def __init__(self, k):\n        self.k = k\n"
         "    def step(self, x):\n        return inner(x) + self.k\n",
         core.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.inner, user.outer = core.inner, core.outer
    pkg.core, pkg.user, pkg.outer = core, user, core.outer
    return pkg, core, user


def test_instrument_wraps_every_reference_and_restores(monkeypatch):
    pkg, core, user = _fake_package()
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    before = {m.__name__: dict(vars(m)) for m in (pkg, core, user)}
    init, step = core.Engine.__init__, core.Engine.step

    tracer = tr.Tracer()
    tracer.instrument(pkg, ["core", "core.Engine"])
    try:
        assert user.outer is pkg.outer is core.outer
        assert user.outer is not before["fakepkg.user"]["outer"]
        assert core._private is before["fakepkg.core"]["_private"]
        assert user.outer(1) == 4
        assert core.Engine(10).step(0) == 11
    finally:
        tracer.restore()
    names = [s[2] for s in tracer.spans]
    assert names == ["core.inner", "core.outer", "core.Engine",
                     "core.inner", "core.Engine.step"]
    by_id = {s[0]: s for s in tracer.spans}
    assert by_id[tracer.spans[0][1]][2] == "core.outer"
    for mod in (pkg, core, user):
        assert dict(vars(mod)) == before[mod.__name__]
    assert core.Engine.__init__ is init and core.Engine.step is step

    tracer = tr.Tracer()
    tracer.instrument(pkg, ["core.outer"])
    try:
        assert user.outer(1) == 4 and core.inner is before["fakepkg.core"]["inner"]
    finally:
        tracer.restore()
    assert [s[2] for s in tracer.spans] == ["core.outer"]
    assert dict(vars(user)) == before["fakepkg.user"]


def test_instrument_restores_the_real_package():
    import o2hopf
    from child import TARGETS
    tracer = tr.Tracer()
    tracer.instrument(o2hopf, TARGETS)
    mods = [m for n, m in sys.modules.items() if n.startswith("o2hopf")]
    from o2hopf import cli, normalform
    assert cli.coeffs is normalform.coeffs and hasattr(cli.coeffs, "__wrapped__")
    assert hasattr(cli.dispatch, "__wrapped__") and not hasattr(cli.cmd_sweep, "__wrapped__")
    tracer.restore()
    for mod in mods:
        for value in vars(mod).values():
            assert not hasattr(value, "__wrapped__"), value
    assert not hasattr(o2hopf.Simulator.step, "__wrapped__")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(name):
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory() as tmp:
        inputs = workload.make(7, "tiny", tmp)
        again = workload.make(7, "tiny", tmp)
        attempted, failed, notes = workload.check(inputs, workload.body(inputs))
    assert repr(inputs) == repr(again)   # same seed, same inputs
    assert inputs["work"] > 0 and attempted > 0
    assert failed == 0, notes


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for fname in ("run.py", "child.py", "workloads.py", "tracer.py"):
        (bench / fname).write_bytes(open(os.path.join(HERE, fname), "rb").read())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_run_prints():
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
