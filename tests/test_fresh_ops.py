"""``tools/fresh_ops.py``: CPU time and page faults of a command in fresh processes of two trees."""

import contextlib
import io
import re
import subprocess
import sys
from pathlib import Path

from paired_adjust.cli import main

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("first cpu_ms", "first minflt", "warm cpu_ms", "warm minflt")


def test_reports_first_and_warm_operations_of_both_trees(tmp_path):
    table = tmp_path / "table.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--n", "6", "--setting", "nonparallel", "--seed", "3",
                     "--out", str(table)]) == 0
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fresh_ops.py"), str(ROOT), str(ROOT),
         "--runs", "1", "--", "enumerate", "--input", str(table)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for side in "AB":
        assert f"{side} = {ROOT}" in lines
        for metric in METRICS:
            row = [line for line in lines if line.startswith(f"{side} {metric} ")]
            assert len(row) == 1, metric
            numbers = [float(x) for x in re.findall(r"-?\d+\.\d+", row[0])]
            assert len(numbers) == 3 and all(x >= 0 for x in numbers), row
            assert numbers[1] <= numbers[0] <= numbers[2], row
