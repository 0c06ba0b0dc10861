import os
import subprocess
import sys
import types

import o2hopf


def test_star_import_brings_in_no_modules():
    namespace = {}
    exec("from o2hopf import *", namespace)
    namespace.pop("__builtins__")
    assert namespace
    assert not [name for name, value in namespace.items()
                if isinstance(value, types.ModuleType)]
    assert set(namespace) == set(o2hopf.__all__)


def test_cli_paths_load_no_scipy(tmp_path):
    # scipy is imported by integrate_truncated alone, on its first call
    code = "\n".join([
        "import sys",
        "import o2hopf",
        "from o2hopf import cli",
        "assert cli.dispatch(['verify', '--quick']) == 0",
        "assert cli.dispatch(['sweep', '--grid', 'alpha=1.5:2.5:3',",
        "                     '--out', sys.argv[1]]) == 0",
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
    ])
    src = os.path.dirname(os.path.dirname(o2hopf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "sweep.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
