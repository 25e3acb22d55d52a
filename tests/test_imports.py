"""Every name a module imports is used in that module, the package root
exports exactly the names the README and the benchmark use, and every
name the README's Library paragraph lists exists where it says.  Importing
the CLI leaves ``scipy.optimize`` unloaded.

``__init__.py`` is left out of the first check: its imports are the
package's exports.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "queuedecay"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
EXPORTS = {
    "ConditionedBelow", "Deterministic", "Discipline", "Erlang", "Exponential",
    "FiniteMixture", "QueueModel", "Split", "UniformInterval",
    "decay_report", "fit_decay", "gamma_p", "gamma_p_trunc",
    "gamma_v_srpt", "gamma_w", "gamma_w2", "heavy_traffic", "is_workload_tail",
    "run", "sample_array", "stream", "y_star",
}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_the_scan_flags_an_unused_import():
    source = "import math\nfrom typing import List, Optional\nx: List = [math.pi]\n"
    assert unused_imports(source) == ["Optional (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_package_root_exports_exactly_the_public_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(imported) == sorted(EXPORTS)


def _library_paragraph() -> str:
    text = (ROOT / "README.md").read_text()
    start = text.index("The package root exports")
    return " ".join(text[start:text.index("\n\n", start)].split())


def _names(text: str) -> list:
    # backticked identifiers; patterns such as `*_detail` are not names
    return re.findall(r"`([A-Za-z_]\w*)`", text)


def test_the_readme_lists_exactly_the_package_exports():
    paragraph = _library_paragraph()
    root = paragraph[:paragraph.index("Everything else")]
    assert sorted(_names(root)) == sorted(EXPORTS)


def test_every_name_the_readme_lists_per_module_exists():
    listed = re.findall(r"`queuedecay\.(\w+)` \(([^)]*)\)", _library_paragraph())
    assert [module for module, _ in listed] == ["dist", "ratecalc", "simqueue",
                                                "tailest"]
    missing = []
    for module, names in listed:
        found = importlib.import_module(f"queuedecay.{module}")
        assert _names(names), module
        missing += [f"queuedecay.{module}.{name}" for name in _names(names)
                    if not hasattr(found, name)]
    assert missing == []


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # every root is solved by dist.find_root, so no module needs scipy.optimize,
    # whose import would be paid by every command
    code = "import sys, queuedecay.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
