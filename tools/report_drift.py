"""Compare the reports of two source trees on a fixed set of commands.

Runs each command below with the package imported from ``OLD/src`` and
from ``NEW/src``, then prints, per output, whether the exit codes agree
and the worst relative difference over every number in the report
(|a - b| / max(|a|, |b|), zero when both are equal or both NaN, inf
when only one is NaN or an infinity meets a different value; "n/a"
unless both commands exit 0). Every study runs at ``--workers`` 1, 2
and 3, and in the new tree each run's exit code and report must equal
the first run's, byte for byte. The ``analyze`` runs read experiment
CSVs written here from the generated tables with a fixed assignment,
one of them with x1 in units 1e9 times smaller, two with every
covariate in units 1e6 and 1e200 times smaller, and one with its rows
in a fixed shuffled order, so that some pairs list unit 2 first. The
``*_edge_format`` runs read the 16-pair table and experiment rewritten
with a byte-order mark, CRLF endings, blank and whitespace-only lines
and quoted fields, which the input contract accepts; the
``analyze_digit_separator`` run reads the experiment with a ``_``
between two digits of one response, which it refuses, and the
``analyze_huge_response`` run reads it with one response 1e200 times
larger. The 6-pair table is too small for identity transforms on its
four covariates (they need n > 9); the 15-pair table is enumerated
under two other transforms. Two ``enumerate --meta`` runs read the
16-pair table's sidecar as ``generate`` wrote it, and rewritten with a
byte-order mark and CRLF endings. The ``*_crlf`` and ``*_cr_blank``
runs read the experiment rewritten with CRLF endings, and the
experiment and the 16-pair table rewritten with lone-CR endings and a
blank and a whitespace-only line among the rows: the reader cuts lines
at all three endings in one split. Every table and sidecar ``generate``
writes must be byte-identical across the trees. In the new tree every ``analyze`` and
``enumerate`` run is run again with ``PAIRED_ADJUST_SEED=12345`` set,
and its exit code and report must equal the first run's, byte for byte:
those commands draw nothing, so no seed may reach them. A change of
exit code is a failure unless ``EXPECTED_EXITS`` lists it, and so is a
worst relative drift above ``DRIFT_TOL`` (1e-12) unless
``EXPECTED_DRIFT`` lists the run with a larger bound. When both trees
exit with the same nonzero code, their stderr must be the same too. The
exit status is 1 on any failure.

    python tools/report_drift.py OLD NEW [--work DIR]
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

TABLES = {
    "table": ["--n", "16", "--setting", "nonparallel", "--seed", "11"],
    "small_table": ["--n", "6", "--setting", "nonparallel", "--seed", "11"],
    "odd_table": ["--n", "15", "--setting", "nonparallel", "--seed", "11"],
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
    "pate_n25_S1": ["simulate", "--mode", "pate-study", "--setting", "nonparallel",
                    "--n", "25", "--S", "1", "--seed", "7"],
    "pate_n25_seed_wide": ["simulate", "--mode", "pate-study", "--setting", "nonparallel",
                           "--n", "25", "--S", "500", "--seed", "1099511627779"],
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
    # No m columns: R2 is R1, so its R2-to-R1 ratios read exactly 1.
    "sate_n30_empty_m": ["simulate", "--mode", "sate-study", "--setting", "nonparallel",
                         "--n", "30", "--S", "50", "--B", "50", "--g", "select:", "--seed", "5"],
    "sate_n40_seed_wide": ["simulate", "--mode", "sate-study", "--setting", "nonparallel",
                           "--n", "40", "--S", "60", "--B", "50", "--seed", "1099511627779"],
    # Three slabs of 200 tables at one or three workers; four slabs of 150
    # at two.
    "sate_n30_S600": ["simulate", "--mode", "sate-study", "--setting", "nonparallel",
                      "--n", "30", "--S", "600", "--B", "20", "--seed", "13"],
    # B does not divide the grid budget of 4096 draws, which holds 12
    # tables: two slabs of 65 tables at one or two workers, each cut into
    # six kernel passes of 11 tables (the last of 10), and three slabs of
    # 43 or 44 at three workers, each cut into four passes of at most 11.
    "sate_n60_B333": ["simulate", "--mode", "sate-study", "--setting", "nonparallel",
                      "--n", "60", "--S", "130", "--B", "333", "--seed", "17"],
    # B above the grid budget: one table per call, its draws cut into
    # chunks of 4096 and 904.
    "sate_n12_B5000": ["simulate", "--mode", "sate-study", "--setting", "nonparallel",
                       "--n", "12", "--S", "4", "--B", "5000", "--seed", "19"],
    "enumerate_identity": ["enumerate", "--input", "{table}"],
    "enumerate_pow2_log": ["enumerate", "--input", "{table}", "--f", "power:2", "--g", "log"],
    # An odd n: the half tables split the 15 pairs 7/8, and only half of
    # the high half codes are read.
    "enumerate_n15_exp_pow2": ["enumerate", "--input", "{odd_table}", "--f", "exp",
                               "--g", "power:2"],
    "analyze_hc2_pate": ["analyze", "--input", "{experiment}", "--variance", "HC2",
                         "--target", "pate"],
    "analyze_select_x1e9": ["analyze", "--input", "{experiment_x1e9}", "--g", "select:"],
    "analyze_shuffled": ["analyze", "--input", "{experiment_shuffled}"],
    "simulate_n6": ["simulate", "--mode", "sate-study", "--setting", "nonparallel",
                    "--n", "6", "--S", "20", "--B", "20", "--seed", "7"],
    "analyze_n6": ["analyze", "--input", "{small_experiment}"],
    "enumerate_small_default": ["enumerate", "--input", "{small_table}"],
    "enumerate_small_identity": ["enumerate", "--input", "{small_table}",
                                 "--f", "identity", "--g", "identity"],
    "analyze_edge_format": ["analyze", "--input", "{experiment_edge}", "--variance", "HC2",
                            "--target", "pate"],
    "enumerate_edge_format": ["enumerate", "--input", "{table_edge}", "--f", "power:2",
                              "--g", "log"],
    "analyze_digit_separator": ["analyze", "--input", "{experiment_separator}"],
    "analyze_huge_response": ["analyze", "--input", "{experiment_huge}"],
    "pate_n25_exp_exp": ["simulate", "--mode", "pate-study", "--setting", "nonparallel",
                         "--n", "25", "--S", "50", "--f", "exp", "--g", "exp", "--seed", "3"],
    "pate_n200_pow3": ["simulate", "--mode", "pate-study", "--setting", "nonparallel",
                       "--n", "200", "--S", "50", "--f", "power:3", "--g", "power:3",
                       "--seed", "3"],
    "analyze_x1e6": ["analyze", "--input", "{experiment_x1e6}"],
    "analyze_x1e200": ["analyze", "--input", "{experiment_x1e200}"],
    # One-column blocks: numpy sums the pairs of a one-column block pairwise
    # when they lie contiguous, so these are where a pair sum's order can move.
    "pate_n25_one_column_m": ["simulate", "--mode", "pate-study", "--setting", "nonparallel",
                              "--n", "25", "--S", "500", "--f", "select:1,2", "--g", "select:3",
                              "--seed", "7"],
    "sate_n30_one_column_blocks": ["simulate", "--mode", "sate-study", "--setting", "nonparallel",
                                   "--n", "30", "--S", "50", "--B", "50", "--f", "select:2",
                                   "--g", "select:3", "--seed", "5"],
    # The sidecar as generate wrote it, then with a byte-order mark and CRLF endings.
    "enumerate_meta": ["enumerate", "--input", "{table}", "--meta", "{table_meta}"],
    "enumerate_meta_edge": ["enumerate", "--input", "{table}", "--meta", "{table_meta_edge}",
                            "--f", "select:1,2", "--g", "select:3"],
    "analyze_crlf": ["analyze", "--input", "{experiment_crlf}", "--variance", "HC2",
                     "--target", "pate"],
    "analyze_cr_blank": ["analyze", "--input", "{experiment_cr_blank}", "--variance", "HC3"],
    "enumerate_cr_blank": ["enumerate", "--input", "{table_cr_blank}", "--f", "power:2",
                           "--g", "log"],
}
# (old, new) exit codes that differ for a known reason, each with its
# reason in a comment; none at present.
EXPECTED_EXITS: dict[str, tuple[int, int]] = {}
# Worst relative drift a run's report may show when both trees exit 0.
DRIFT_TOL = 1e-12
# Runs allowed a larger drift for a known reason, with their bound; none
# at present.
EXPECTED_DRIFT: dict[str, float] = {}
# Pair i's first unit is treated when character i is "1".
FIRST_TREATED = "1011001110001101"
# Row order of the shuffled experiment; it lists unit 2 first in 8 of 16 pairs.
SHUFFLE_SEED = 3
# Worker counts of each study, in run order; the first run's report is
# the one compared across trees.
WORKERS = {name: ("2", "1", "3") if name == "sate_n100" else ("1", "2", "3")
           for name, argv in RUNS.items() if argv[0] == "simulate"}
# The seed variable set for the second run of each command that draws nothing.
SEED_ENV = {"PAIRED_ADJUST_SEED": "12345"}


def _cli(src: Path, argv: list[str], extra_env: Optional[dict[str, str]] = None
         ) -> tuple[int, bytes]:
    """The exit code and stderr of one command run on the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env.pop("PAIRED_ADJUST_SEED", None)
    env.update(extra_env or {})
    code = "import sys; from paired_adjust.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True)
    return done.returncode, done.stderr


def write_experiment(table: Path, dest: Path, x1_scale: float = 1.0,
                     shuffle: bool = False, x_scale: float = 1.0) -> None:
    """An experiment CSV from a science table under the FIRST_TREATED assignment.

    x1 is multiplied by ``x1_scale`` and every covariate by ``x_scale``.
    With ``shuffle`` the rows come in a fixed permuted order.
    """
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if shuffle:
        random.Random(SHUFFLE_SEED).shuffle(rows)
    xs = [c for c in rows[0] if c.startswith("x")]
    with open(dest, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["pair", "unit", "z", "y", *xs])
        for row in rows:
            pair, unit = int(row["pair"]), int(row["unit"])
            z = int((FIRST_TREATED[pair - 1] == "1") == (unit == 1))
            x = [float(row[c]) * x_scale for c in xs]
            x[0] *= x1_scale
            out.writerow([pair, unit, z, row["r_t" if z else "r_c"], *map(repr, x)])


def write_edge_format(src: Path, dest: Path) -> None:
    """``src`` with a byte-order mark, CRLF endings, blank lines and quoted fields."""
    header, *rows = src.read_text().splitlines()
    lines = ["\ufeff" + header, ""]
    for k, row in enumerate(rows):
        if k % 3 == 1:
            row = ",".join(f'"{field}"' for field in row.split(","))
        lines.append(row)
        if k == len(rows) // 2:
            lines.append(" \t ")
    dest.write_bytes("\r\n".join(lines).encode() + b"\r\n")


def write_bom_crlf(src: Path, dest: Path) -> None:
    """``src`` with a byte-order mark and CRLF endings."""
    dest.write_bytes(b"\xef\xbb\xbf" + src.read_bytes().replace(b"\n", b"\r\n"))


def write_endings(src: Path, dest: Path, ending: str, blanks: bool = False) -> None:
    """``src`` with each line ending in ``ending``.

    With ``blanks``, a blank and a whitespace-only line go among the rows.
    """
    header, *rows = src.read_text().splitlines()
    if blanks:
        k = len(rows) // 3
        rows = [*rows[:k], "", *rows[k : 2 * k], " \t ", *rows[2 * k :]]
    dest.write_bytes("".join(line + ending for line in [header, *rows]).encode())


def write_huge_response(src: Path, dest: Path) -> None:
    """``src`` with its first response multiplied by 1e200."""
    header, first, *rows = src.read_text().splitlines()
    fields = first.split(",")
    fields[3] = repr(float(fields[3]) * 1e200)
    dest.write_text("\n".join([header, ",".join(fields), *rows]) + "\n")


def write_digit_separator(src: Path, dest: Path) -> None:
    """``src`` with a ``_`` between the first two digits of its first response."""
    header, first, *rows = src.read_text().splitlines()
    fields = first.split(",")
    y = fields[3]
    at = next(k for k in range(1, len(y)) if y[k - 1].isdigit() and y[k].isdigit())
    fields[3] = y[:at] + "_" + y[at:]
    dest.write_text("\n".join([header, ",".join(fields), *rows]) + "\n")


def run_tree(root: Path, work: Path, seed_env: bool = False
             ) -> tuple[dict[str, tuple[int, Path, bytes]], list[str]]:
    """Every command's exit code, report path and stderr for the tree at ``root``.

    Each occurrence of ``work`` in a stderr reads ``WORK``, so that the
    two trees' messages compare equal when only the path differs.

    Also returns the studies whose exit codes or reports differ across
    worker counts and, with ``seed_env``, the ``analyze`` and
    ``enumerate`` runs whose exit codes or reports differ with
    ``SEED_ENV`` set.
    """
    src = root / "src"
    work.mkdir(parents=True, exist_ok=True)
    inputs = {name: work / f"{name}.csv" for name in (
        *TABLES, "experiment", "experiment_x1e9", "experiment_shuffled", "small_experiment",
        "experiment_edge", "table_edge", "experiment_separator", "experiment_huge",
        "experiment_x1e6", "experiment_x1e200", "experiment_crlf", "experiment_cr_blank",
        "table_cr_blank")}
    for name, argv in TABLES.items():
        _cli(src, ["generate", *argv, "--out", str(inputs[name])])
    table = inputs["table"]
    inputs["table_meta"] = table.with_suffix(".json")
    inputs["table_meta_edge"] = work / "table_meta_edge.json"
    write_bom_crlf(inputs["table_meta"], inputs["table_meta_edge"])
    write_experiment(table, inputs["experiment"])
    write_experiment(table, inputs["experiment_x1e9"], x1_scale=1e9)
    write_experiment(table, inputs["experiment_shuffled"], shuffle=True)
    write_experiment(table, inputs["experiment_x1e6"], x_scale=1e6)
    write_experiment(table, inputs["experiment_x1e200"], x_scale=1e200)
    write_experiment(inputs["small_table"], inputs["small_experiment"])
    write_edge_format(inputs["experiment"], inputs["experiment_edge"])
    write_edge_format(table, inputs["table_edge"])
    write_digit_separator(inputs["experiment"], inputs["experiment_separator"])
    write_huge_response(inputs["experiment"], inputs["experiment_huge"])
    write_endings(inputs["experiment"], inputs["experiment_crlf"], "\r\n")
    write_endings(inputs["experiment"], inputs["experiment_cr_blank"], "\r", blanks=True)
    write_endings(table, inputs["table_cr_blank"], "\r", blanks=True)
    out, differ = {}, []
    for name, argv in RUNS.items():
        argv = [a.format(**inputs) for a in argv]
        reports = []
        for workers in WORKERS.get(name, (None,)):
            path = work / f"{name}_w{workers}.json"
            extra = ["--workers", workers] if workers else []
            code, err = _cli(src, argv + extra + ["--out", str(path)])
            reports.append((code, path, err.replace(bytes(work), b"WORK")))
        c1, p1, _ = reports[0]
        if any(c != c1 or (c1 == 0 and p.read_bytes() != p1.read_bytes())
               for c, p, _ in reports[1:]):
            print(f"{root}: {name} differs across worker counts")
            differ.append(name)
        if seed_env and argv[0] in ("analyze", "enumerate"):
            path = work / f"{name}_seed_env.json"
            code, _ = _cli(src, argv + ["--out", str(path)], SEED_ENV)
            if code != c1 or (c1 == 0 and path.read_bytes() != p1.read_bytes()):
                print(f"{root}: {name} differs with PAIRED_ADJUST_SEED set")
                differ.append(name)
        out[name] = reports[0]
    return out, differ


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
    old, _ = run_tree(args.old, work / "old")
    new, differ = run_tree(args.new, work / "new", seed_env=True)
    worst_ok = not differ
    for name in TABLES:
        for suffix in (".csv", ".json"):
            old_bytes, new_bytes = ((work / tree / name).with_suffix(suffix).read_bytes()
                                    for tree in ("old", "new"))
            worst_ok &= old_bytes == new_bytes
            print(f"generate {name}{suffix}: "
                  f"{'byte-identical' if old_bytes == new_bytes else 'DIFFERS'}")
    for name in RUNS:
        (c_old, p_old, e_old), (c_new, p_new, e_new) = old[name], new[name]
        expected = c_old != c_new and EXPECTED_EXITS.get(name) == (c_old, c_new)
        worst_ok &= c_old == c_new or expected
        note = " (expected)" if expected else ""
        if c_old == c_new != 0 and e_old != e_new:
            worst_ok = False
            note = ", stderr differs"
        d, drift_note = "n/a", ""
        if c_old == c_new == 0:
            worst = drift(p_old, p_new)
            bound = EXPECTED_DRIFT.get(name, DRIFT_TOL)
            worst_ok &= worst <= bound
            d = f"{worst:.2g}"
            if worst > bound:
                drift_note = f" (over {bound:.0e})"
            elif worst > DRIFT_TOL:
                drift_note = " (expected)"
        print(f"{name}: exit {c_old} -> {c_new}{note}, worst relative drift {d}{drift_note}")
    if not differ:
        print("new tree: every study is byte-identical across worker counts, and every analyze "
              "and enumerate run with PAIRED_ADJUST_SEED set")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
