"""What other code relies on from the package: names and import weight.

The benchmark harness under ``bench/`` wraps the (module, function)
pairs of its ``TRACED`` list and imports names from the package before
its first operation, so a missing name makes every traced run fail.
The package itself must import without scipy, which only the test
oracles use.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import paired_adjust

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(paired_adjust.__file__).resolve().parent.parent


def _module(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _traced() -> tuple[tuple[str, str], ...]:
    for node in _module(ROOT / "bench" / "tracing.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED")


def test_every_traced_function_exists():
    traced = _traced()
    assert traced
    for mod_name, fn_name in traced:
        module = importlib.import_module(f"paired_adjust.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_every_name_the_workloads_import_exists():
    imported = [
        (node.module, alias.name)
        for node in ast.walk(_module(ROOT / "bench" / "workloads.py"))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "paired_adjust"
        for alias in node.names
    ]
    assert imported
    for mod_name, name in imported:
        assert hasattr(importlib.import_module(mod_name), name), f"{mod_name}.{name}"


def test_cli_import_loads_no_scipy():
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = (
        "import sys, paired_adjust.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
