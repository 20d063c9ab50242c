"""Compare the reports of two source trees on a fixed set of commands.

Runs each command below with the package imported from ``OLD/src`` and
from ``NEW/src``, then prints, per output, whether the exit codes agree
and the worst relative difference over every number in the report
(|a - b| / max(|a|, |b|), zero when both are equal or both NaN, inf
when only one is NaN or an infinity meets a different value; "n/a"
unless both commands exit 0). Every study runs at ``--workers`` 1 and
2, and its exit codes and reports must match across the two byte for
byte. The ``analyze`` runs read experiment CSVs written here from the
generated table with a fixed assignment, one of them with x1 in units
1e9 times smaller. A change of exit code is a failure unless
``EXPECTED_EXITS`` lists it.

    python tools/report_drift.py OLD NEW [--work DIR]
"""

from __future__ import annotations

import argparse
import csv
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
    "pate_n25_pow2": ["simulate", "--mode", "pate-study", "--setting", "nonparallel",
                      "--n", "25", "--S", "2000", "--f", "power:2", "--g", "power:2",
                      "--seed", "7"],
    "pate_n30_pow3_pow2": ["simulate", "--mode", "pate-study", "--setting", "nonparallel",
                           "--n", "30", "--S", "50", "--f", "power:3", "--g", "power:2",
                           "--seed", "3"],
    "sate_n100": ["simulate", "--mode", "sate-study", "--setting", "nonparallel",
                  "--n", "100", "--S", "200", "--B", "200", "--seed", "5"],
    "sate_n40_pow2_log": ["simulate", "--mode", "sate-study", "--setting", "nonparallel",
                          "--n", "40", "--S", "60", "--B", "50", "--f", "power:2", "--g", "log",
                          "--seed", "9"],
    "sate_n25_exp_exp": ["simulate", "--mode", "sate-study", "--setting", "nonparallel",
                         "--n", "25", "--S", "50", "--B", "20", "--f", "exp", "--g", "exp",
                         "--seed", "3"],
    "enumerate_identity": ["enumerate", "--input", "{table}"],
    "enumerate_pow2_log": ["enumerate", "--input", "{table}", "--f", "power:2", "--g", "log"],
    "analyze_hc2_pate": ["analyze", "--input", "{experiment}", "--variance", "HC2",
                         "--target", "pate"],
    "analyze_select_x1e9": ["analyze", "--input", "{experiment_x1e9}", "--g", "select:"],
}
# (old, new) exit codes that differ for a known reason. The design check
# of analyze used to decide rank by a test that depends on column units,
# so x1 in units 1e9 times smaller made it exit 3.
EXPECTED_EXITS = {"analyze_select_x1e9": (3, 0)}
# Pair i's first unit is treated when character i is "1".
FIRST_TREATED = "1011001110001101"
WORKERS = {"pate_n25": ("1", "2"), "pate_n40_pow2_log": ("1", "2"), "pate_n25_pow2": ("1", "2"),
           "pate_n30_pow3_pow2": ("1", "2"), "sate_n100": ("2", "1"),
           "sate_n40_pow2_log": ("1", "2"), "sate_n25_exp_exp": ("1", "2")}


def _cli(src: Path, argv: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    code = "import sys; from paired_adjust.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True).returncode


def write_experiment(table: Path, dest: Path, x1_scale: float = 1.0) -> None:
    """An experiment CSV from a science table under the FIRST_TREATED assignment."""
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    xs = [c for c in rows[0] if c.startswith("x")]
    with open(dest, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["pair", "unit", "z", "y", *xs])
        for row in rows:
            pair, unit = int(row["pair"]), int(row["unit"])
            z = int((FIRST_TREATED[pair - 1] == "1") == (unit == 1))
            x = [float(row[c]) for c in xs]
            x[0] *= x1_scale
            out.writerow([pair, unit, z, row["r_t" if z else "r_c"], *map(repr, x)])


def run_tree(root: Path, work: Path) -> dict[str, tuple[int, Path]]:
    """Every command's exit code and report path for the tree at ``root``."""
    src = root / "src"
    work.mkdir(parents=True, exist_ok=True)
    table = work / "table.csv"
    _cli(src, ["generate", *TABLES["table"], "--out", str(table)])
    inputs = {"table": table, "experiment": work / "experiment.csv",
              "experiment_x1e9": work / "experiment_x1e9.csv"}
    write_experiment(table, inputs["experiment"])
    write_experiment(table, inputs["experiment_x1e9"], x1_scale=1e9)
    out = {}
    for name, argv in RUNS.items():
        argv = [a.format(**inputs) for a in argv]
        reports = []
        for workers in WORKERS.get(name, (None,)):
            path = work / f"{name}_w{workers}.json"
            extra = ["--workers", workers] if workers else []
            code = _cli(src, argv + extra + ["--out", str(path)])
            reports.append((code, path))
        if len(reports) == 2:
            (c1, p1), (c2, p2) = reports
            if c1 != c2 or (c1 == 0 and p1.read_bytes() != p2.read_bytes()):
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
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        d = abs(x - y) / max(abs(x), abs(y))
        # NaN against a number, or an infinity against anything else
        worst = max(worst, math.inf if math.isnan(d) else d)
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
        d = f"{drift(p_old, p_new):.2g}" if c_old == c_new == 0 else "n/a"
        expected = c_old != c_new and EXPECTED_EXITS.get(name) == (c_old, c_new)
        worst_ok &= c_old == c_new or expected
        note = " (expected)" if expected else ""
        print(f"{name}: exit {c_old} -> {c_new}{note}, worst relative drift {d}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
