"""Module surfaces: each `__all__` names only what its module has, and lists
every public function and class the module defines.  A module without
`__all__` exports every public name, so it has nothing to check.  No
module of the package, the tests or the scripts imports a name it never
uses.  The benchmark's tracer, which wraps the package from outside,
still finds every module and argument it binds.  The package defines
only what its CLI, scripts and benchmark reach, imports no third-party
module it does not declare, and only the CLI and the oracle start a
sweep."""

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fluctuator

MODULES = sorted(m.name for m in pkgutil.iter_modules(fluctuator.__path__))
ROOT = Path(__file__).resolve().parents[1]
# an __init__.py imports to re-export
SOURCES = sorted(
    str(p.relative_to(ROOT))
    for d in ("src/fluctuator", "tests", "scripts")
    for p in (ROOT / d).glob("*.py")
    if p.name != "__init__.py"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_the_public_definitions(name):
    mod = importlib.import_module(f"fluctuator.{name}")
    if not hasattr(mod, "__all__"):
        return
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    public = {
        n for n, obj in vars(mod).items()
        if not n.startswith("_") and callable(obj)
        and getattr(obj, "__module__", None) == mod.__name__
    }
    assert sorted(public - set(mod.__all__)) == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports (outside `from __future__`) that no name,
    attribute chain or `__all__` entry of the module reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse((ROOT / path).read_text(), path)) == []


# one traced invocation of each subcommand the benchmark workloads run, as
# benchmarks/worker.py runs them with --trace 1
_TRACED_RUN = """
import sys
sys.path[:0] = [{benchmarks!r}, {src!r}]
import fluctuator
from fluctuator import cli
from tracer import Tracer

tracer = Tracer()
tracer.install(fluctuator)
for argv in (
    ["verify", "--model", "lazy", "--horizon", "64"],
    ["expand", "tau0", "--model", "skewed", "--horizon", "256"],
    ["expand", "local", "--model", "skewed", "--horizon", "256", "--x-max", "4"],
    ["expand", "taux", "--model", "skewed", "--x-max", "4", "--check-polyharmonic"],
):
    rc = cli.main(argv + ["--out-dir", "."])
    if rc:
        sys.exit(f"{{argv}} exited {{rc}}")
tracer.layer_metrics()
"""


def test_the_benchmark_tracer_wraps_the_package(tmp_path):
    code = _TRACED_RUN.format(benchmarks=str(ROOT / "benchmarks"), src=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr


def _reads(node: ast.AST) -> set[str]:
    """Every name and attribute a node reads."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_src_defines_only_what_the_cli_scripts_or_benchmark_reach():
    # roots: every name cli.py, the scripts and the benchmark read; closed
    # over the names each top-level function, class and constant of the
    # package reads.  A definition only the tests reach belongs with them
    # (tests/oracle_references.py).  The benchmark's files are only read
    roots = set()
    for p in (ROOT / "src/fluctuator/cli.py", *sorted((ROOT / "scripts").glob("*.py")),
              *sorted((ROOT / "benchmarks").glob("*.py"))):
        roots |= _reads(ast.parse(p.read_text(), str(p)))
    defs: dict[str, set[str]] = {}
    where: dict[str, str] = {}
    for p in sorted((ROOT / "src/fluctuator").glob("*.py")):
        for node in ast.parse(p.read_text(), str(p)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names, body = [node.name], node
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name) and not t.id.startswith("__")]
                body = node.value
            else:
                continue
            for name in names:
                defs.setdefault(name, set()).update(_reads(body))
                where[name] = f"{p.stem}.{name}"
    reached, todo = set(), list(roots & defs.keys())
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += defs[name] & defs.keys() - reached
    unreached = sorted(where[n] for n in defs.keys() - reached)
    assert not unreached, f"{len(unreached)} definitions only the tests reach: {unreached}"


def test_declared_dependencies_are_what_src_imports():
    # every third-party module the package imports, function-level imports
    # included, is a declared runtime dependency, and every declared one is
    # imported: a lazy import of a test-only library fails here
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    imported = set()
    for p in sorted((ROOT / "src/fluctuator").glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            if isinstance(node, ast.Import):
                imported |= {a.name.partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"fluctuator"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", d).group() for d in project["dependencies"]}
    assert third_party == declared


def test_the_oracle_imports_no_asymptotics():
    # the ground truth imports no package module but the law type: no
    # fit, tail closure or expansion reaches what the expansions are
    # tested against
    tree = ast.parse((ROOT / "src/fluctuator/oracle.py").read_text())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "fluctuator"
                                                 or node.module.startswith("fluctuator.")):
            module = (node.module or "").removeprefix("fluctuator").lstrip(".")
            package |= {module} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            package |= {a.name.split(".")[1] for a in node.names
                        if a.name.startswith("fluctuator.")}
    assert package == {"walk"}


# the oracle's sweeps and the public readers that run them
_SWEEPS = {"delta_table", "conditioned_table", "tau_tail", "identity_suite", "_sweep_float",
           "_sweep_exact", "_killed_float", "_residue_reads"}


def test_only_the_cli_and_the_oracle_start_a_sweep():
    # the commands sweep the walk and hand its reads down: no library
    # consumer sweeps for itself
    calls = []
    for p in sorted((ROOT / "src/fluctuator").glob("*.py")):
        if p.name in ("cli.py", "oracle.py"):
            continue
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in _SWEEPS:
                    calls.append(f"{p.stem}:{node.lineno} {name}")
    assert calls == []
