import ast
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import o2hopf
from o2hopf import cli
from o2hopf.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_star_import_brings_in_no_modules():
    namespace = {}
    exec("from o2hopf import *", namespace)
    namespace.pop("__builtins__")
    assert namespace
    assert not [name for name, value in namespace.items()
                if isinstance(value, types.ModuleType)]
    assert set(namespace) == set(o2hopf.__all__)


def test_cli_paths_load_no_scipy(tmp_path):
    # nothing in the package imports scipy, the trajectory integrator included
    code = "\n".join([
        "import sys",
        "import o2hopf",
        "from o2hopf import cli",
        "assert cli.dispatch(['verify', '--quick']) == 0",
        "assert cli.dispatch(['sweep', '--grid', 'alpha=1.5:2.5:3',",
        "                     '--out', sys.argv[1]]) == 0",
        "sys_ = o2hopf.ReducedSystem(mu=0.1, omega=1.0, a=0.5, b=-1.0, c=-2.0)",
        "t, z1, _ = o2hopf.integrate_truncated(sys_, 0.1, 0.0, 5.0, 1.0)",
        "assert len(t) == 6 and abs(z1[-1]) > 0.1",
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
    ])
    src = os.path.dirname(os.path.dirname(o2hopf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "sweep.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def _unused_imports(path):
    """Names a module imports but never reads (a dotted import binds its first part)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    # __init__.py re-exports what it imports through __all__
    roots = [Path(o2hopf.__file__).parent, Path(__file__).parent]
    paths = [p for root in roots for p in sorted(root.glob("*.py"))
             if p.name != "__init__.py"]
    assert len(paths) > 10
    assert [name for p in paths for name in _unused_imports(p)] == []


def test_no_private_imports_between_modules():
    # a module reads another module's private helpers only through a public name
    found = []
    for path in sorted(Path(o2hopf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and alias.name != "__version__"]
    assert found == []


def test_every_error_class_is_raised():
    # an exported error class that nothing raises is dead API
    raised = set()
    for path in Path(o2hopf.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None))
    exported = {name for name in o2hopf.__all__
                if isinstance(getattr(o2hopf, name), type)
                and issubclass(getattr(o2hopf, name), o2hopf.O2HopfError)
                and name != "O2HopfError"}
    assert len(exported) > 5
    assert sorted(exported - raised) == []


def test_squares_are_products():
    # a float's ** 2 goes through libm pow, which is not x*x for about 0.08 % of
    # doubles, while numpy squares arrays by products: a point would part from
    # the same point in a batch
    found = []
    for path in sorted(Path(o2hopf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                    and isinstance(node.right, ast.Constant) and node.right.value == 2):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _unused_parameters(path):
    """Parameters of a function or lambda that its body never reads.

    self, cls and _-prefixed names are exempt; a read in a nested function
    counts as a read.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *(a for a in (args.vararg, args.kwarg) if a)]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        unused += [f"{path.name}:{node.lineno} {name}({a.arg})" for a in params
                   if a.arg not in ("self", "cls") and not a.arg.startswith("_")
                   and a.arg not in read]
    return unused


def test_no_unused_parameters():
    paths = sorted(Path(o2hopf.__file__).parent.glob("*.py"))
    assert len(paths) > 5
    assert [name for p in paths for name in _unused_parameters(p)] == []


def _readme_block(section, language):
    """The first fenced code block of that language under a README heading."""
    text = README.read_text().split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", text, re.S).group(1)


def test_readme_examples_run():
    # every command line of the README parses, and the library snippet runs
    block = _readme_block("Command line", "sh").replace("\\\n", " ")
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(lines) > 5
    parser = build_parser()
    for argv in lines:
        assert argv[0] == "o2hopf"
        assert parser.parse_args(argv[1:]).func
    exec(_readme_block("Library", "python"), {})


def test_readme_names_only_existing_flags():
    # a flag the README's command-line section names is an option of some subcommand
    text = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    subparsers = build_parser()._subparsers._group_actions[0].choices.values()
    options = {flag for sub in subparsers for flag in sub._option_string_actions}
    assert len(named) > 10
    assert sorted(named - options) == []


def test_docs_name_only_existing_subcommands():
    # every "o2hopf <command>" of the README and the command list that opens
    # cli's docstring name subcommands of the parser
    commands = set(build_parser()._subparsers._group_actions[0].choices)
    named = set(re.findall(r"(?<!from )\bo2hopf ([a-z][\w-]*)", README.read_text()))
    listed = cli.__doc__.split("\n", 1)[0].partition(": ")[2].rstrip(".").split(" | ")
    assert len(named) > 5
    assert sorted(named - commands) == []
    assert sorted(listed) == sorted(commands)
