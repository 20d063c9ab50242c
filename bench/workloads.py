"""The benchmark's workloads: their inputs, CLI arguments and output checks.

Each operation is one in-process ``paired_adjust.cli.main([...])`` call.
The workload seed reaches the package only as generated inputs (a
``--seed`` flag or files written in set-up). Checks are independent of
that seed and use tolerances, never pinned digests, so a change in the
last digit of a result is not a failure. Import this module only after
``pkg.load_cli()``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from paired_adjust import (
    ROLE_ASSIGN,
    generate_sample,
    randomize,
    reveal,
    substream,
    write_experiment_csv,
)
from paired_adjust.cli import main as cli_main

REPORT = "report.json"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; subclasses fill in the CLI call and the checks.

    Why each workload is in the benchmark is recorded next to its name in
    BENCHMARK.json.
    """

    name: str
    outputs: tuple[str, ...] = (REPORT,)
    # A seed whose report must fall inside fixed acceptance windows; the
    # warm-up operation runs there. None: the warm-up uses the workload seed.
    criterion_seed: Optional[int] = None
    workers: int = 1
    # The gauge load that slows like this workload does (see gauge.py).
    gauge: str = "kernels"

    def write_inputs(self, work: Path, seed: int) -> None:
        """Write the files the CLI reads (none when the CLI generates its data)."""

    def argv(self, work: Path, seed: int, workers: Optional[int] = None) -> list[str]:
        raise NotImplementedError

    def check(self, work: Path, outputs: dict[str, bytes]) -> list[str]:
        """Problems found in one operation's outputs; empty when they are right."""
        raise NotImplementedError

    def check_windows(self, outputs: dict[str, bytes]) -> list[str]:
        """Problems with a report made at ``criterion_seed``."""
        return []


def _load_report(outputs: dict[str, bytes]) -> tuple[Optional[dict], list[str]]:
    try:
        doc = json.loads(outputs[REPORT])
    except (KeyError, ValueError) as exc:
        return None, [f"report unreadable: {exc!r}"]
    if not isinstance(doc, dict):
        return None, ["report is not a JSON object"]
    return doc, []


def _close(got: object, want: float, scale: float, rtol: float) -> bool:
    return (
        isinstance(got, (int, float))
        and math.isfinite(got)
        and abs(got - want) <= rtol * scale
    )


@dataclass(frozen=True)
class Study(Workload):
    """``simulate`` in one study mode; windows come from acceptance criteria 4 and 5."""

    mode: str = "sate-study"
    n: int = 0
    samples: int = 0
    randomizations: int = 1
    windows: dict[str, tuple[float, float]] = field(default_factory=dict)

    def argv(self, work: Path, seed: int, workers: Optional[int] = None) -> list[str]:
        args = [
            "simulate", "--mode", self.mode, "--setting", "nonparallel",
            "--n", str(self.n), "--S", str(self.samples),
        ]
        if self.mode == "sate-study":
            args += ["--B", str(self.randomizations)]
        return args + [
            "--workers", str(workers or self.workers),
            "--seed", str(seed), "--out", str(work / REPORT),
        ]

    def _value(self, cell: object) -> object:
        return cell.get("median") if isinstance(cell, dict) else cell

    def check(self, work: Path, outputs: dict[str, bytes]) -> list[str]:
        doc, problems = _load_report(outputs)
        if doc is None:
            return problems
        conf = doc.get("config", {})
        if (conf.get("n"), conf.get("samples")) != (self.n, self.samples):
            problems.append(f"report config {conf} does not echo n={self.n}, S={self.samples}")
        metrics = doc.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            return problems + ["report has no metrics"]
        for name, cell in metrics.items():
            value = self._value(cell)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"metric {name} is not a finite number: {cell!r}")
            elif name.startswith("coverage_") and not 0.0 <= value <= 1.0:
                problems.append(f"{name}={value} is outside [0, 1]")
        missing = set(self.windows) - set(metrics)
        if missing:
            problems.append(f"report lacks metrics {sorted(missing)}")
        return problems

    def check_windows(self, outputs: dict[str, bytes]) -> list[str]:
        doc, problems = _load_report(outputs)
        if doc is None:
            return problems
        metrics = doc.get("metrics") or {}
        for name, (lo, hi) in self.windows.items():
            value = self._value(metrics.get(name))
            if not isinstance(value, (int, float)) or not lo <= value <= hi:
                problems.append(f"{name}={value!r} outside the window [{lo}, {hi}]")
        return problems


@dataclass(frozen=True)
class Enumerate(Workload):
    """``enumerate --histogram`` over a table made by ``generate`` in set-up."""

    n: int = 16
    outputs: tuple[str, ...] = (REPORT, "hist.csv")
    tol: float = 1e-10

    def write_inputs(self, work: Path, seed: int) -> None:
        args = ["generate", "--n", str(self.n), "--setting", "nonparallel",
                "--seed", str(seed), "--out", str(work / "table.csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(args)
        if code != 0:
            raise RuntimeError(f"generate exited {code}")

    def argv(self, work: Path, seed: int, workers: Optional[int] = None) -> list[str]:
        return ["enumerate", "--input", str(work / "table.csv"),
                "--meta", str(work / "table.json"),
                "--histogram", str(work / "hist.csv"), "--out", str(work / REPORT)]

    def _table(self, work: Path) -> tuple[float, float]:
        """SATE and Var(C) = sum (l1 - l2)^2 / n^2, read from the table file."""
        pairs: dict[str, dict[str, tuple[float, float]]] = {}
        with open(work / "table.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                pairs.setdefault(row["pair"], {})[row["unit"]] = (
                    float(row["r_t"]), float(row["r_c"]))
        r = np.array([[units["1"], units["2"]] for units in pairs.values()])
        level = r.mean(axis=2)              # (n, unit): (r_t + r_c) / 2
        effect = (r[..., 0] - r[..., 1]).mean(axis=1)
        n = r.shape[0]
        return float(effect.mean()), float(((level[:, 0] - level[:, 1]) ** 2).sum() / n**2)

    def check(self, work: Path, outputs: dict[str, bytes]) -> list[str]:
        doc, problems = _load_report(outputs)
        if doc is None:
            return problems
        sate, var_c = self._table(work)
        summary = doc.get("summary", {})
        cells = summary.get("estimators", {})
        c = cells.get("C", {})
        if not _close(c.get("mean"), sate, 1.0, self.tol):
            problems.append(f"E[C]={c.get('mean')!r} differs from the SATE {sate!r}")
        if not _close(c.get("variance"), var_c, 1.0, self.tol):
            problems.append(f"Var(C)={c.get('variance')!r} differs from {var_c!r}")
        margin = c.get("s2_margin")
        if not isinstance(margin, (int, float)) or not margin >= -self.tol:
            problems.append(f"C s2_margin={margin!r} is below -{self.tol}")
        total = 2**self.n
        if summary.get("assignments") != total:
            problems.append(f"assignments={summary.get('assignments')!r}, want {total}")
        counts: dict[str, int] = {}
        try:
            rows = csv.DictReader(io.StringIO(outputs["hist.csv"].decode()))
            for row in rows:
                counts[row["estimator"]] = counts.get(row["estimator"], 0) + int(row["count"])
        except (KeyError, ValueError, TypeError) as exc:
            return problems + [f"histogram unreadable: {exc!r}"]
        if set(counts) != set(cells) or any(v != total for v in counts.values()):
            problems.append(f"histogram counts {counts} do not hold {total} draws per estimator")
        return problems


def _dense_intercept(x: np.ndarray, y: np.ndarray) -> dict[str, object]:
    """Intercept fit of y on [1 | x] through the explicit inverse of X'X."""
    n = y.shape[0]
    design = np.column_stack([np.ones(n), x])
    inv = np.linalg.inv(design.T @ design)
    beta = inv @ (design.T @ y)
    e = y - design @ beta
    h = np.einsum("ij,jk,ik->i", design, inv, design)
    u = design @ inv[:, 0]
    return {
        "tau": float(beta[0]),
        "beta": beta,
        "classical": float(e @ e) / (n - design.shape[1]) * float(inv[0, 0]),
        "HC2": float(np.sum(u**2 * e**2 / (1.0 - h))),
    }


@dataclass(frozen=True)
class Analyze(Workload):
    """``analyze --variance HC2 --target pate`` on an experiment CSV written in set-up."""

    n: int = 2000
    rtol: float = 1e-8

    def write_inputs(self, work: Path, seed: int) -> None:
        sample = generate_sample(self.n, "nonparallel", seed=seed)
        exp, _ = reveal(sample, randomize(self.n, substream(seed, ROLE_ASSIGN)))
        write_experiment_csv(exp, work / "experiment.csv")

    def argv(self, work: Path, seed: int, workers: Optional[int] = None) -> list[str]:
        return ["analyze", "--input", str(work / "experiment.csv"),
                "--variance", "HC2", "--target", "pate", "--out", str(work / REPORT)]

    def _reference(self, work: Path) -> dict[tuple[str, str], tuple[float, float]]:
        """(estimator, flavor) -> (tau_hat, s2), recomputed densely from the CSV."""
        units: dict[str, dict[str, list[float]]] = {}
        with open(work / "experiment.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                xs = [float(v) for k, v in row.items() if k.startswith("x")]
                units.setdefault(row["pair"], {})[row["unit"]] = [
                    float(row["z"]), float(row["y"])] + xs
        a = np.array([[u["1"], u["2"]] for u in units.values()])  # (n, unit, z|y|x..)
        v = 2.0 * a[:, 0, 0] - 1.0
        y = v * (a[:, 0, 1] - a[:, 1, 1])
        vd = v[:, None] * (a[:, 0, 2:] - a[:, 1, 2:])
        m = (a[:, 0, 2:] + a[:, 1, 2:]) / 2.0
        m = m - m.mean(axis=0)
        n, k_d = y.shape[0], vd.shape[1]
        r1 = _dense_intercept(vd, y)
        r2 = _dense_intercept(np.hstack([vd, m]), y)
        beta_m = r2["beta"][1 + k_d:]
        correction = float(beta_m @ (m.T @ m / (n - 1)) @ beta_m) / n
        tau_c = float(y.mean())
        return {
            ("C", "classical"): (tau_c, float(((y - tau_c) ** 2).sum()) / (n * (n - 1))),
            ("R1", "HC2"): (r1["tau"], r1["HC2"]),
            ("R2", "HC2"): (r2["tau"], r2["HC2"]),
            ("R2", "superpop-corrected"): (r2["tau"], r2["classical"] + correction),
        }

    def check(self, work: Path, outputs: dict[str, bytes]) -> list[str]:
        doc, problems = _load_report(outputs)
        if doc is None:
            return problems
        rows = {(r.get("estimator"), r.get("flavor")): r
                for r in doc.get("estimates", []) if isinstance(r, dict)}
        for key, (tau, s2) in self._reference(work).items():
            row = rows.get(key)
            if row is None:
                problems.append(f"report has no {key} row")
                continue
            # tau is compared on the scale of its own standard error, so a
            # near-zero estimate does not demand an absurd relative accuracy.
            if not _close(row.get("tau_hat"), tau, max(abs(tau), math.sqrt(s2)), self.rtol):
                problems.append(f"{key} tau_hat={row.get('tau_hat')!r}, dense {tau!r}")
            if not _close(row.get("s2"), s2, s2, self.rtol):
                problems.append(f"{key} s2={row.get('s2')!r}, dense {s2!r}")
        if doc.get("r2_interval_uses") != "superpop-corrected":
            problems.append(f"r2_interval_uses={doc.get('r2_interval_uses')!r}")
        return problems


WORKLOADS: dict[str, Workload] = {
    "pate_study": Study(
        name="pate_study",
        mode="pate-study", n=25, samples=2000,
        criterion_seed=7, gauge="fits",
        windows={
            "coverage_C": (0.93, 0.97),
            "coverage_R2": (0.74, 0.81),
            "coverage_R2P": (0.94, 0.975),
            "se_sd_ratio_R2": (0.54, 0.66),
        },
    ),
    "sate_study": Study(
        name="sate_study",
        mode="sate-study", n=100, samples=200, randomizations=200, workers=2,
        criterion_seed=20250301,
        windows={
            "coverage_C": (0.99, 1.0),
            "coverage_R1": (0.99, 1.0),
            "coverage_R2": (0.99, 1.0),
            "se_ratio_R2_C": (0.47, 0.59),
            "se_ratio_R2_R1": (0.56, 0.68),
            "rmse_ratio_R2_C": (0.42, 0.54),
        },
    ),
    "enumerate_n16": Enumerate(
        name="enumerate_n16",
    ),
    "analyze_n2000": Analyze(
        name="analyze_n2000",
    ),
}

# Small sizes for the self-test; acceptance windows do not apply to them.
TOY: dict[str, Workload] = {
    "pate_study": replace(WORKLOADS["pate_study"], samples=40, windows={}),
    "sate_study": replace(WORKLOADS["sate_study"], n=30, samples=6, randomizations=20, windows={}),
    "enumerate_n16": replace(WORKLOADS["enumerate_n16"], n=8),
    "analyze_n2000": replace(WORKLOADS["analyze_n2000"], n=60),
}
