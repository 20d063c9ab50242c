"""Self-test of the benchmark at toy sizes.

    python3 bench/selftest.py

1. Runs ``bench/run.py`` on every workload at toy sizes, untraced and
   traced, and asserts that the result line names every metric of
   BENCHMARK.json with its unit, reports no failure, and that the traced
   run gives non-zero values for the layers the workload exercises.
2. Shows every output check failing on a deliberately corrupted output.
3. Shows the benchmark exiting non-zero, without a result, in a directory
   that holds only BENCHMARK.json and ``bench/``.

It lives outside ``tests/``, so the package's own test run does not
collect it. Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pkg

BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = pkg.ROOT / ".bench_run"
SEED = 3

# Per-layer metrics each workload must exercise (non-zero in a traced run).
EXERCISES = {
    "pate_study": (
        "ols_core.least_squares.calls", "ols_core.intercept_variance_classical.busy_s",
        "estimators.estimate_r2.self_s", "estimators.superpop_correct.calls",
        "experiment_model.build_design.busy_s", "dgp.generate_sample.calls",
        "rng.substream.calls", "randomization_engine.randomize.busy_s",
        "randomization_engine.reveal.busy_s", "cli.main.self_s",
    ),
    "sate_study": (
        "randomization_engine.run_monte_carlo.calls", "randomization_engine.run_monte_carlo.self_s",
        "randomization_engine.run_study.fanout_speedup", "randomization_engine.useful_draw_frac",
        "dgp.generate_sample.busy_s", "rng.substream.busy_s", "cli.main.self_s",
    ),
    "enumerate_n16": (
        "randomization_engine.enumerate_exact.self_s",
        "randomization_engine.enumerate_exact.peak_alloc_mb",
        "dgp.load_science_table.busy_s", "cli.main.self_s",
    ),
    "analyze_n2000": (
        "ols_core.least_squares.calls", "ols_core.intercept_variance_hc.busy_s",
        "experiment_model.load_experiment_csv.busy_s", "experiment_model.validate_design.busy_s",
        "estimators.estimate_classical.self_s", "cli.main.self_s",
    ),
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_printed_metrics(spec: dict, toy: dict) -> None:
    for name, wl in toy.items():
        for trace in (0, 1):
            proc = run_bench(pkg.ROOT, "--workload", name, "--seed", str(SEED),
                             "--seconds", "0.5", "--trace", str(trace), "--toy")
            label = f"{name} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                expect(False, f"{label}: result line (exit {proc.returncode}) {proc.stderr[-500:]}")
                continue
            expect(proc.returncode == 0, f"{label}: exit code 0")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, {result['failed']} of {result['attempted']} failed")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            printed = result["metrics"]
            expect([m["name"] for m in wanted] == list(printed), f"{label}: every metric printed")
            expect(all(printed.get(m["name"], {}).get("unit") == m["unit"] for m in wanted),
                   f"{label}: units match BENCHMARK.json")
            values = [v.get("value") for v in printed.values()]
            expect(all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                       for v in values), f"{label}: values are finite numbers")
            if trace:
                zero = [m for m in EXERCISES[name] if not printed.get(m, {}).get("value")]
                expect(not zero, f"{label}: exercised layers are non-zero {zero}")
                if name in ("pate_study", "analyze_n2000"):
                    per_op = 4 * getattr(wl, "samples", 1)
                    calls = printed.get("ols_core.least_squares.calls", {}).get("value")
                    expect(calls == per_op, f"{label}: {calls} least_squares calls per operation, want {per_op}")


def corrupt(outputs: dict[str, bytes], edit) -> dict[str, bytes]:
    doc = json.loads(outputs["report.json"])
    edit(doc)
    return {**outputs, "report.json": json.dumps(doc).encode()}


def set_in(path: list, value):
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return edit


def check_corruptions(cli, workloads) -> None:
    from run import Run

    WORK_ROOT.mkdir(exist_ok=True)
    for name, wl in workloads.TOY.items():
        work = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=WORK_ROOT))
        try:
            wl.write_inputs(work, SEED)
            run = Run(cli, wl, work, SEED, toy=True)
            run.op(SEED)
            outputs = {o: (work / o).read_bytes() for o in wl.outputs}
            expect(run.failed == 0 and wl.check(work, outputs) == [], f"{name}: clean output passes")

            bad = {**outputs, "report.json": outputs["report.json"][:-5]}
            expect(bool(wl.check(work, bad)), f"{name}: truncated report fails")
            (work / "report.json").write_bytes(outputs["report.json"].replace(b"1", b"2", 1))
            expect(run.check(0, SEED) == ["outputs differ from the first of the run"],
                   f"{name}: report differing from the first of the run fails")
            expect(bool(run.check(3, SEED)), f"{name}: non-zero exit fails")

            cases = corruption_cases(name, outputs, workloads)
            for what, broken in cases:
                expect(bool(wl.check(work, broken)) or bool(full_windows(name, workloads, broken)),
                       f"{name}: {what} fails")
        finally:
            shutil.rmtree(work)


def full_windows(name: str, workloads, outputs: dict[str, bytes]) -> list[str]:
    full = workloads.WORKLOADS[name]
    return full.check_windows(outputs) if full.criterion_seed is not None else []


def corruption_cases(name: str, outputs: dict[str, bytes], workloads):
    cases = []
    if name in ("pate_study", "sate_study"):
        full = workloads.WORKLOADS[name]
        sate = name == "sate_study"

        def place(values):
            def edit(doc):
                for metric, value in values.items():
                    if sate:
                        doc["metrics"][metric]["median"] = value
                    else:
                        doc["metrics"][metric] = value
            return edit

        middle = {m: (lo + hi) / 2 for m, (lo, hi) in full.windows.items()}
        inside = corrupt(outputs, place(middle))
        expect(full.check_windows(inside) == [], f"{name}: report inside the windows passes")
        for metric, (lo, hi) in full.windows.items():
            outside = dict(middle, **{metric: hi + 0.01 if hi < 1.0 else lo - 0.01})
            cases.append((f"{metric} outside its window", corrupt(outputs, place(outside))))
        cell = ["metrics", "coverage_C"] + (["median"] if sate else [])
        cases.append(("coverage above 1", corrupt(outputs, set_in(cell, 1.5))))
        cases.append(("non-finite metric", corrupt(outputs, set_in(cell, float("nan")))))
        cases.append(("wrong sample count", corrupt(outputs, set_in(["config", "samples"], 1))))
    elif name == "enumerate_n16":
        c = ["summary", "estimators", "C"]
        cases.append(("E[C] off the SATE", corrupt(outputs, set_in(c + ["mean"], lambda v: v + 1e-8))))
        cases.append(("Var(C) off the formula",
                      corrupt(outputs, set_in(c + ["variance"], lambda v: v * (1 + 1e-6)))))
        cases.append(("negative s2_margin", corrupt(outputs, set_in(c + ["s2_margin"], -1e-6))))
        hist = outputs["hist.csv"].decode().splitlines()
        last = hist[-1].rsplit(",", 1)
        hist[-1] = f"{last[0]},{int(last[1]) + 1}"
        cases.append(("histogram count", {**outputs, "hist.csv": ("\n".join(hist) + "\n").encode()}))
    else:
        rows = json.loads(outputs["report.json"])["estimates"]
        for i, row in enumerate(rows):
            tag = f"{row['estimator']}/{row['flavor']}"
            for key in ("tau_hat", "s2"):
                cases.append((f"{tag} {key} off by 1e-6 relative",
                              corrupt(outputs, set_in(["estimates", i, key], lambda v: v * (1 + 1e-6)))))
        cases.append(("missing R2 row", corrupt(outputs, set_in(["estimates"], rows[:2]))))
        cases.append(("r2_interval_uses", corrupt(outputs, set_in(["r2_interval_uses"], "HC2"))))
    return cases


def check_stripped_checkout() -> None:
    WORK_ROOT.mkdir(exist_ok=True)
    stripped = Path(tempfile.mkdtemp(prefix="selftest-stripped-", dir=WORK_ROOT))
    try:
        shutil.copy(pkg.ROOT / "BENCHMARK.json", stripped)
        shutil.copytree(BENCH_DIR, stripped / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(stripped, "--workload", "analyze_n2000", "--seed", str(SEED),
                         "--seconds", "1", "--trace", "0")
        printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
        expect(proc.returncode != 0 and not printed_result,
               f"without src/: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(stripped)


def main() -> int:
    spec = json.loads((pkg.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = pkg.load_cli()
    import workloads

    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the workloads run.py knows")
    check_corruptions(cli, workloads)
    check_printed_metrics(spec, workloads.TOY)
    check_stripped_checkout()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
