"""Import hygiene: no unused names, and neither scipy nor mpmath on qflow's import path.

A static check by ``ast``: every name an ``import`` statement binds must be
read somewhere in the same module; ``__init__.py`` re-exports are exempt.

Every route to the results runs on numpy alone, and importing scipy costs
more than most runs, so only :func:`qflow.geomphase.gp_pure` loads it;
mpmath serves only the tests' oracles.  A fresh interpreter checks that
importing qflow, and running each CLI subcommand, leaves both out of
``sys.modules``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for folder in ("src/qflow", "tests", "scripts")
                 for path in (ROOT / folder).glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_detector_flags_an_unused_name():
    source = "import os\nimport os.path as osp\nfrom math import pi, tau\nprint(pi, osp)\n"
    assert unused_imports(source) == ["os (line 1)", "tau (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports qflow from this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


NO_SCIPY = "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded'"
NO_MPMATH = "assert 'mpmath' not in sys.modules, 'mpmath loaded'"


@pytest.mark.parametrize("module", ["qflow", "qflow.cli"])
def test_import_leaves_scipy_unloaded(module):
    run_fresh(f"import sys, {module}\n{NO_SCIPY}\n{NO_MPMATH}")


@pytest.mark.parametrize("argv", [["critical", "--W", "0.6"], ["sweep", "--figure", "fig4"],
                                  ["simulate"], ["flows"], ["gp"]],
                         ids=["critical", "literal-sweep", "simulate", "flows", "gp"])
def test_cli_run_leaves_scipy_unloaded(argv, tmp_path):
    argv = argv + ["--out", str(tmp_path / "out.csv")]
    run_fresh(f"import sys, qflow.cli\nassert qflow.cli.main({argv!r}) == 0\n"
              f"{NO_SCIPY}\n{NO_MPMATH}")
    assert (tmp_path / "out.csv").stat().st_size > 0


def test_gp_pure_loads_quadrature_on_demand():
    run_fresh("import sys, math\n"
              "from qflow.channels import TimeLocalParams\n"
              "from qflow.geomphase import gp_pure\n"
              "from qflow.qstate import InitialStateSpec\n"
              f"{NO_SCIPY}\n"
              "phase = gp_pure(InitialStateSpec(1.0, math.pi / 4, 0.0), TimeLocalParams(0.1, 1.0))\n"
              "assert math.isfinite(phase) and 'scipy.integrate' in sys.modules")
