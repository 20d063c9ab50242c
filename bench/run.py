"""Benchmark of the paired-adjust command line on one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports the package from its
``src/``. Each operation is one in-process ``paired_adjust.cli.main``
call, checked for correctness. With ``--trace 0`` it prints the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the per-layer
metrics, from spans recorded around the package's public functions.
End-to-end times are rescaled by a host-speed gauge read around each
operation (see ``gauge.py``). The machine description, raw medians and
sample counts go on earlier lines; the last line of standard output is
the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Optional

import pkg  # first: it pins BLAS threads before numpy loads
import gauge

BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = pkg.ROOT / ".bench_run"
WORKLOAD_NAMES = ("pate_study", "sate_study", "enumerate_n16", "analyze_n2000")
# Fresh processes timed per run for setup_s; the median is reported.
SETUP_PROBES = 5


def _cpu_s() -> float:
    """CPU seconds of this process plus every child reaped so far."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Run:
    """The checked operations of one benchmark run and their tallies."""

    def __init__(self, cli, workload, work: Path, seed: int, toy: bool) -> None:
        self.cli = cli
        self.wl = workload
        self.work = work
        self.seed = seed
        self.toy = toy
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._reference: Optional[dict[str, bytes]] = None
        self._reference_problems: list[str] = []

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.extend(problems)

    def op(self, seed: int, workers: Optional[int] = None, tracer=None) -> tuple[float, float]:
        """Run and check one operation; return its wall and CPU seconds."""
        for name in self.wl.outputs:
            (self.work / name).unlink(missing_ok=True)
        argv = self.wl.argv(self.work, seed, workers)
        self.attempted += 1
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            code = tracer.op(self.cli.main, argv) if tracer else self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crashing operation is a failed one; keep measuring
            code = traceback.format_exc(limit=-2)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        problems = self.check(code, seed)
        if problems:
            self._fail(problems)
        return wall, cpu

    def check(self, code: object, seed: int) -> list[str]:
        """Problems with the outputs an operation at ``seed`` left in the work directory."""
        if code != 0:
            return [f"{self.wl.name} operation exited with {code!r}"]
        try:
            outputs = {name: (self.work / name).read_bytes() for name in self.wl.outputs}
        except OSError as exc:
            return [f"missing output: {exc}"]
        if seed == self.seed:
            # The first report of the run is checked in full; every later
            # one must repeat it byte for byte (worker count and tracing
            # must not change it).
            if self._reference is None:
                self._reference = outputs
                self._reference_problems = self.wl.check(self.work, outputs)
            if outputs == self._reference:
                problems = list(self._reference_problems)
            else:
                problems = ["outputs differ from the first of the run"]
        else:
            problems = self.wl.check(self.work, outputs)
        if seed == self.wl.criterion_seed and not self.toy:
            problems += self.wl.check_windows(outputs)
        return problems

    def warm_up(self) -> None:
        """One untimed operation, at the criterion seed when the workload has one."""
        seed = self.wl.criterion_seed
        self.op(self.seed if seed is None else seed)

    def timed(self, seconds: float, workers: Optional[int] = None, tracer=None) -> list[tuple[float, float]]:
        """Operations at the workload seed until ``seconds`` have passed (at least one)."""
        end = time.perf_counter() + seconds
        samples = [self.op(self.seed, workers, tracer)]
        while time.perf_counter() < end:
            samples.append(self.op(self.seed, workers, tracer))
        return samples

    def gauged(self, seconds: float, host: gauge.Gauge) -> list[tuple[float, float]]:
        """Rescaled (wall, CPU) seconds of operations until ``seconds`` have passed.

        The gauge is read before the first operation and after each one;
        each operation is rescaled by the two readings around it.
        """
        end = time.perf_counter() + seconds
        before = host.read()
        samples = []
        while not samples or time.perf_counter() < end:
            wall, cpu = self.op(self.seed)
            after = host.read()
            samples.append((gauge.rescale(wall, before[0], after[0]),
                            gauge.rescale(cpu, before[1], after[1])))
            before = after
        return samples

    def probe(self, op: bool = False) -> tuple[float, str]:
        """Run ``setup_probe.py`` in a fresh process; return its wall seconds and stdout.

        The inputs it writes must match this run's byte for byte, and with
        ``op`` the operation it runs must pass the workload's check.
        """
        probe_dir = Path(tempfile.mkdtemp(prefix="probe-", dir=self.work))
        cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), "--workload", self.wl.name,
               "--seed", str(self.seed), "--dir", str(probe_dir)]
        cmd += (["--toy"] if self.toy else []) + (["--op"] if op else [])
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            self._fail(["set-up probe timed out"])
            shutil.rmtree(probe_dir)
            return time.perf_counter() - t0, ""
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            self._fail([f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}"])
        else:
            differ = [p.name for p in probe_dir.iterdir() if p.name not in self.wl.outputs
                      and p.read_bytes() != (self.work / p.name).read_bytes()]
            problems = [f"set-up probe wrote different inputs: {differ}"] if differ else []
            if op:
                outputs = {name: (probe_dir / name).read_bytes() for name in self.wl.outputs}
                problems += self.wl.check(probe_dir, outputs)
            if problems:
                self._fail(problems)
        shutil.rmtree(probe_dir)
        return wall, proc.stdout


def _p10(samples: list[tuple[float, float]], i: int) -> float:
    """10th percentile of column ``i`` of the samples, never below their minimum.

    On a shared host the median of a run moves by up to 2x with the load
    of other tenants, while the low tail tracks the operation's own cost.
    """
    values = [s[i] for s in samples]
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def _pin() -> None:
    """Keep this process, and the probes it starts, on one CPU.

    The CPUs of a shared host slow down independently of each other, so
    the gauge only tracks an operation that runs on its CPU.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def end_to_end(run: Run, seconds: float) -> tuple[dict[str, float], str]:
    if run.wl.workers == 1:
        _pin()
    host = gauge.Gauge(run.wl.gauge)
    samples = run.gauged(seconds, host)
    if run.wl.workers > 1:
        run.op(run.seed, workers=1)  # the report must not depend on the worker count
    _pin()
    setups = []
    readings = [host.read()[0]]
    for _ in range(SETUP_PROBES):
        wall, _ = run.probe()
        readings.append(host.read()[0])
        setups.append(gauge.rescale(wall, readings[-2], readings[-1]))
    _, rss = run.probe(op=True)
    try:
        peak_rss_mb = float(rss.strip().splitlines()[-1])
    except (IndexError, ValueError):
        peak_rss_mb = 0.0
        run._fail([f"memory probe printed {rss!r}"])
    metrics = {
        "op_s.p50": statistics.median(w for w, _ in samples),
        "cpu_s.p50": statistics.median(c for _, c in samples),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
        "ok_frac": (run.attempted - run.failed) / run.attempted,
    }
    return metrics, (f"{len(samples)} timed operations, {len(setups)} set-up probes; "
                     f"gauge reads {statistics.median(readings):.4f} s against "
                     f"{gauge.NOMINAL_S} s nominal")


def per_layer(run: Run, seconds: float, spans_path: Path) -> tuple[dict[str, float], str]:
    import tracing

    fanout: list[tuple[float, float]] = []
    if run.wl.workers > 1:
        fanout = run.timed(seconds / 3)
        seconds -= seconds / 3
    base = run.timed(seconds / 2, workers=1)
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    with tracer:
        traced = run.timed(seconds / 2, workers=1, tracer=tracer)
    metrics = tracing.layer_metrics(tracer)
    metrics["randomization_engine.run_study.fanout_speedup"] = (
        _p10(base, 0) / _p10(fanout, 0) if fanout else 0.0)
    metrics["trace.overhead_s"] = _p10(traced, 0) - _p10(base, 0)
    tracer.write(spans_path, t0)
    note = (f"{len(traced)} traced and {len(base)} untraced operations at --workers 1"
            + (f", {len(fanout)} at --workers {run.wl.workers}" if fanout else "")
            + f"; {len(tracer.spans)} spans in {spans_path.name}")
    return metrics, note


def machine(cli) -> dict[str, object]:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "blas_threads": pkg.BLAS_THREADS,
        "commit": pkg.git_commit(),
        "package": cli.__version__,
        "platform": platform.platform(),
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="self-test sizes; the acceptance windows are not checked")
    args = parser.parse_args(argv)

    spec = json.loads((pkg.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = pkg.load_cli()
    import workloads

    wl = (workloads.TOY if args.toy else workloads.WORKLOADS)[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_ROOT))
    try:
        wl.write_inputs(work, args.seed)
        run = Run(cli, wl, work, args.seed, args.toy)
        run.warm_up()
        if args.trace:
            values, note = per_layer(run, args.seconds, WORK_ROOT / f"spans-{wl.name}.csv")
        else:
            values, note = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for problem in run.problems:
        print(f"bench: {problem}", file=sys.stderr)
    print("machine " + json.dumps(machine(cli), sort_keys=True))
    print(f"{wl.name} seed {args.seed}: {note}; {run.failed} of {run.attempted} operations failed")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
