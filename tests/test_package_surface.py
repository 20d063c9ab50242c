"""What other code relies on from the package: names and import weight.

The benchmark harness under ``bench/`` wraps the (module, function)
pairs of its ``TRACED`` list and imports names from the package before
its first operation, so a missing name makes every traced run fail.
Each workload, at its self-test size, must also run and pass its own
check under the harness's tracer. The package itself must import
without scipy, which only the test oracles use, and importing the CLI
must not build its argument parser. No module reaches for another
module's private name, and the kernel module stands on ``errors`` and
``ols_core`` alone, so every other module may import it. The kernel
alone cuts a grid of tables by draws into passes: outside it, its grid
budget ``CHUNK`` sizes only the groups in which a study reads its
signs, and the engine calls ``sign_stats`` outside any loop, on whole
slabs rather than on row slices of them.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import paired_adjust

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(paired_adjust.__file__).resolve().parent
SRC = PACKAGE.parent


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


def _bench_module(name: str, monkeypatch):
    """Load ``bench/<name>.py`` under a private module name, for one test."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_toy_workloads_pass_their_checks_under_the_tracer(tmp_path, monkeypatch, capsys):
    # The harness pins BLAS threads in the environment and puts src/ on
    # sys.path; neither may outlive this test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    with mock.patch.dict(os.environ):
        cli = _bench_module("pkg", monkeypatch).load_cli()
    tracing = _bench_module("tracing", monkeypatch)
    workloads = _bench_module("workloads", monkeypatch)
    assert set(workloads.TOY) == {"pate_study", "sate_study", "enumerate_n16", "analyze_n2000"}
    for name, wl in workloads.TOY.items():
        work = tmp_path / name
        work.mkdir()
        wl.write_inputs(work, 1)
        tracer = tracing.Tracer()
        with tracer:
            code = tracer.op(cli.main, wl.argv(work, 1, workers=1))
        assert code == 0, name
        outputs = {out: (work / out).read_bytes() for out in wl.outputs}
        assert wl.check(work, outputs) == [], name
        metrics = tracing.layer_metrics(tracer)
        assert metrics[f"{tracing.ROOT_SPAN}.calls"] == 1, name
    capsys.readouterr()


def _after_cli_import(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imported the CLI."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, paired_adjust.cli; " + code],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    code = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _after_cli_import(code) == "[]"


def test_cli_import_builds_no_parser():
    code = "print(paired_adjust.cli.build_parser.cache_info().currsize)"
    assert _after_cli_import(code) == "0"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_uses_a_private_name_of_another():
    crossings = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _module(path)
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                source = "." * node.level + (node.module or "")
                crossings += [f"{path.name}: from {source} import {alias.name}"
                              for alias in node.names if _private(alias.name)]
                if node.module is None:
                    modules.update(alias.asname or alias.name for alias in node.names)
        crossings += [
            f"{path.name}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and _private(node.attr)
        ]
    assert crossings == []


def test_kernel_imports_only_errors_and_ols_core_from_the_package():
    imported = set()
    for node in ast.walk(_module(PACKAGE / "kernel.py")):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("paired_adjust"):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.startswith("paired_adjust")}
    assert imported == {"errors", "ols_core"}


def test_importing_the_kernel_loads_neither_engine_nor_estimators():
    # The package's __init__ imports every module, so a bare package
    # object stands in for it: what loads is then what the kernel needs.
    code = (
        "import sys, types; pkg = types.ModuleType('paired_adjust'); "
        f"pkg.__path__ = [{str(PACKAGE)!r}]; sys.modules['paired_adjust'] = pkg; "
        "import paired_adjust.kernel; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('paired_adjust.'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = out.stdout.split()
    assert "paired_adjust.randomization_engine" not in loaded
    assert "paired_adjust.estimators" not in loaded
    assert loaded == ["paired_adjust.errors", "paired_adjust.kernel", "paired_adjust.ols_core"]


def _functions(tree: ast.Module) -> dict[str, ast.AST]:
    """Every function of a module by qualified name (``Class.method`` for a method)."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    found[name] = child
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_only_the_sign_read_group_reads_the_grid_budget_outside_the_kernel():
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "kernel.py":
            continue
        for name, fn in _functions(_module(path)).items():
            for node in ast.walk(fn):
                if (isinstance(node, ast.Attribute) and node.attr == "CHUNK") or (
                    isinstance(node, ast.Name) and node.id == "CHUNK"
                ):
                    readers.add(f"{path.stem}.{name}")
    assert readers == {"randomization_engine._StudyStreams.times"}


def test_engine_calls_the_kernel_once_per_slab_without_row_slices():
    functions = _functions(_module(PACKAGE / "randomization_engine.py"))
    taking_rows = {name for name, fn in functions.items()
                   if "rows" in [a.arg for a in fn.args.args + fn.args.kwonlyargs]}
    # The sign products the kernel asks for, whose signature is kernel.Times.
    assert taking_rows == {"_StudyStreams.times"}
    assert [a.arg for a in functions["_StudyStreams.times"].args.args] == [
        "self", "columns", "rows", "part"
    ]
    callers = []
    loops = (ast.For, ast.While, ast.comprehension)
    for name, fn in functions.items():
        parents = {child: node for node in ast.walk(fn) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sign_stats":
                callers.append(name)
                up = parents.get(node)
                while up is not None:
                    assert not isinstance(up, loops), f"{name} calls sign_stats in a loop"
                    up = parents.get(up)
    assert sorted(callers) == ["_pate_columns", "_sate_columns", "_table_stats"]
