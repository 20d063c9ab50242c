"""Compare the reports of two source trees on a fixed set of commands.

Runs each command below with the package imported from ``OLD/src`` and
from ``NEW/src``, then prints, per output, whether the exit codes agree
and the worst relative difference over every number in the report
(|a - b| / max(|a|, |b|), zero when both are equal). Pate studies also
run at ``--workers 2``, and their reports must match the one-worker
reports byte for byte.

    python tools/report_drift.py OLD NEW [--work DIR]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TABLES = {
    "table": ["--n", "16", "--setting", "nonparallel", "--seed", "11"],
}
RUNS = {
    "pate_n25": ["simulate", "--mode", "pate-study", "--setting", "nonparallel",
                 "--n", "25", "--S", "2000", "--seed", "7"],
    "pate_n40_pow2_log": ["simulate", "--mode", "pate-study", "--setting", "nonparallel",
                          "--n", "40", "--S", "300", "--f", "power:2", "--g", "log",
                          "--seed", "7"],
    "sate_n100": ["simulate", "--mode", "sate-study", "--setting", "nonparallel",
                  "--n", "100", "--S", "200", "--B", "200", "--seed", "5"],
    "enumerate_identity": ["enumerate", "--input", "{table}"],
    "enumerate_pow2_log": ["enumerate", "--input", "{table}", "--f", "power:2", "--g", "log"],
}
WORKERS = {"pate_n25": ("1", "2"), "pate_n40_pow2_log": ("1", "2"), "sate_n100": ("2", "1")}


def _cli(src: Path, argv: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    code = "import sys; from paired_adjust.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True).returncode


def run_tree(root: Path, work: Path) -> dict[str, tuple[int, Path]]:
    """Every command's exit code and report path for the tree at ``root``."""
    src = root / "src"
    work.mkdir(parents=True, exist_ok=True)
    table = work / "table.csv"
    _cli(src, ["generate", *TABLES["table"], "--out", str(table)])
    out = {}
    for name, argv in RUNS.items():
        argv = [a.format(table=table) for a in argv]
        reports = []
        for workers in WORKERS.get(name, (None,)):
            path = work / f"{name}_w{workers}.json"
            extra = ["--workers", workers] if workers else []
            code = _cli(src, argv + extra + ["--out", str(path)])
            reports.append((code, path))
        if len(reports) == 2 and reports[0][1].read_bytes() != reports[1][1].read_bytes():
            print(f"{root}: {name} differs across worker counts")
        out[name] = reports[0]
    return out


def _numbers(doc) -> list[float]:
    if isinstance(doc, dict):
        return [x for key in sorted(doc) for x in _numbers(doc[key])]
    if isinstance(doc, list):
        return [x for item in doc for x in _numbers(item)]
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return [float(doc)]
    return []


def drift(a: Path, b: Path) -> float:
    xs, ys = _numbers(json.loads(a.read_text())), _numbers(json.loads(b.read_text()))
    if len(xs) != len(ys):
        return math.inf
    worst = 0.0
    for x, y in zip(xs, ys):
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--work", type=Path, default=None)
    args = parser.parse_args()
    work = args.work or Path(tempfile.mkdtemp(prefix="report_drift_"))
    old = run_tree(args.old, work / "old")
    new = run_tree(args.new, work / "new")
    worst_ok = True
    for name in RUNS:
        (c_old, p_old), (c_new, p_new) = old[name], new[name]
        d = drift(p_old, p_new) if c_old == c_new == 0 else 0.0
        worst_ok &= c_old == c_new
        print(f"{name}: exit {c_old} -> {c_new}, worst relative drift {d:.2g}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
