"""Packaging: the runtime imports match the declared dependencies."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rnsl"


def third_party_imports() -> set[str]:
    """Top-level names of every absolute, non-stdlib import in the package."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "rnsl"}


def declared(extra: str | None = None) -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    specs = project["dependencies"] if extra is None else project["optional-dependencies"][extra]
    return {re.match(r"[A-Za-z0-9_.-]+", s).group(0).lower().replace("-", "_") for s in specs}


def test_runtime_imports_are_the_declared_dependencies():
    assert third_party_imports() == declared() == {"numpy"}


def test_scipy_is_a_test_dependency_only():
    assert "scipy" in declared("test")
    assert "scipy" not in declared()


def test_jsonschema_is_a_test_dependency_only():
    assert "jsonschema" in declared("test")
    assert "jsonschema" not in declared()


def run_fresh(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300,
    )


def test_loading_a_scenario_imports_no_jsonschema():
    done = run_fresh(
        "import sys\n"
        "import rnsl\n"
        f"rnsl.load_scenario({str(ROOT / 'scenarios' / 'reference.json')!r})\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('jsonschema'))\n"
        "assert not loaded, loaded\n"
    )
    assert done.returncode == 0, done.stderr


def test_reference_run_loads_no_scipy(tmp_path):
    script = (
        "import sys\n"
        "from rnsl import SUITE_NAMES, load_scenario, run_scenario\n"
        f"scn = load_scenario({str(ROOT / 'scenarios' / 'reference.json')!r})\n"
        f"run_scenario(scn, out_dir={str(tmp_path)!r}, suites=list(SUITE_NAMES))\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
        "assert len(SUITE_NAMES) == 14\n"
    )
    done = run_fresh(script)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "report.json").exists()


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never mentions again."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = [
        hit for path in paths if path.name != "__init__.py"  # re-exports
        for hit in unused_imports(path)
    ]
    assert unused == []


# exports that no module of the package calls, each kept for a stated reason
EXPORTS_WITHOUT_CALLER = {
    "op_norm": "perfbench/tracer.py looks up rnsl.rn.op_norm on every traced pass",
    "PowerIterationDiverged": "perfbench/test_smoke.py imports it",
    "level_set": "ROADMAP item 4 decides it with L0Set",
    "expectation": "ROADMAP item 4 decides it with L0Set",
    "lattice": "ROADMAP item 4 decides it with L0Set",
}


def module_bindings(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level: its functions, classes and assigned names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def referenced_names(path: Path) -> set[str]:
    """Every name a module refers to in a way that can reach an export.

    That is the source name of an import, an attribute, or a name that the
    module binds at its top level.  A local variable that only shares an
    export's name, such as a function's own ``lattice``, reaches nothing.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = module_bindings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in top:
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_caller():
    import rnsl

    used = set().union(*(
        referenced_names(path) for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
    ))
    assert sorted(set(rnsl.__all__) - used) == sorted(EXPORTS_WITHOUT_CALLER)
