"""CPU time and minor page faults of a command in fresh processes of two source trees.

    python tools/fresh_ops.py TREE_A TREE_B [--runs N] -- ARGS...

Each run starts a new Python process that imports the package from
``TREE/src``, with BLAS held to one thread and the process pinned to
one CPU (the last one this process may use), and calls
``paired_adjust.cli.main(ARGS)`` seven times in it: the first
operation, one to warm up, and five warm operations. ``getrusage``
around each gives its CPU time (user plus system) and its minor page
faults. The first operation pays for what a process does once (lazy
imports, caches, growing the heap), a warm one for what every later
call does, such as faulting in memory that the allocator gave back.
How often a warm operation faults can depend on the allocator's state
that earlier operations left, so each process reports five. Runs
alternate between the trees, A first in even runs and B first in odd
ones, N runs each (default 8). ARGS are passed as given and read
relative to the current directory, and the command's standard output
is discarded. Prints, per tree, the median and quartiles of the first
operations and of all warm operations of its runs; exits 1 if any
operation exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# Runs in the fresh process: argv is [cpu, ops, *ARGS].
_CHILD = """
import contextlib, io, json, os, resource, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
from paired_adjust.cli import main
import numpy
ops = []
for _ in range(int(sys.argv[2])):
    before = resource.getrusage(resource.RUSAGE_SELF)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[3:])
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    ops.append((code, 1000.0 * cpu, after.ru_minflt - before.ru_minflt))
print(json.dumps({"numpy": numpy.__version__, "ops": ops}))
"""
# The operations each process runs: the first, one to warm up, and the warm ones.
_OPS = 7
_BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
METRICS = ("first cpu_ms", "first minflt", "warm cpu_ms", "warm minflt")


def _run(tree: Path, cpu: int, args: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), **_BLAS_ONE_THREAD)
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(cpu), str(_OPS), *args],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"fresh_ops: the process for {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """Median, lower and upper quartile (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args_at = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--runs", type=int, default=8, help="fresh processes per tree")
    opts = parser.parse_args(argv[:args_at])
    command = argv[args_at + 1 :]
    if not command or opts.runs < 1:
        parser.error("give --runs >= 1 and a command after --")
    cpu = max(os.sched_getaffinity(0))
    trees = {"A": opts.tree_a, "B": opts.tree_b}
    # Per tree and metric, the values of every run.
    seen: dict[str, dict[str, list[float]]] = {side: {m: [] for m in METRICS} for side in trees}
    failed = False
    numpy_version = "?"
    for run in range(opts.runs):
        for side in ("A", "B") if run % 2 == 0 else ("B", "A"):
            result = _run(trees[side], cpu, command)
            numpy_version = result["numpy"]
            failed |= any(code for code, _, _ in result["ops"])
            for k, (_, cpu_ms, faults) in enumerate(result["ops"]):
                if k != 1:
                    when = "first" if k == 0 else "warm"
                    seen[side][f"{when} cpu_ms"].append(cpu_ms)
                    seen[side][f"{when} minflt"].append(faults)
    print(f"# {platform.python_version()}, numpy {numpy_version}, {os.cpu_count()} CPUs, "
          f"pinned to CPU {cpu}, BLAS on one thread, {opts.runs} alternating runs per tree")
    print(f"# command: {' '.join(command)}")
    for side, tree in trees.items():
        print(f"{side} = {tree}")
        for name in METRICS:
            med, q1, q3 = _quartiles(seen[side][name])
            print(f"{side} {name:<13} median {med:9.1f}  quartiles [{q1:.1f}, {q3:.1f}]")
    if failed:
        print("fresh_ops: an operation exited non-zero", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
