"""Fixed loads that gauge how fast the host runs at the moment.

On a shared host the throughput of a CPU moves by up to 2x over seconds
to minutes with other tenants' load, and every operation's wall and CPU
time move with it (a 2-vCPU Intel Xeon KVM guest showed this). ``run.py``
reads a gauge before and after every timed operation and rescales the
operation's times to a host on which one reading takes ``NOMINAL_S``.

A load never calls the package, so a faster or slower program leaves it
unchanged. Not every kind of code slows alike, so each workload is gauged
by the load that resembles it (``Workload.gauge``):

- ``fits``: small least-squares fits on samples of 25 pairs, the
  per-sample path of ``pate_study``;
- ``kernels``: a pure-Python loop, many small numpy fits and one batched
  solve over an array larger than a core's L2 cache, the mix of
  ``sate_study``, ``enumerate_n16`` and ``analyze_n2000``.

Measured on the host above over eight 22-second stretches, ``fits`` kept
the rescaled ``pate_study`` times within a quartile spread of 0.05 where
``kernels`` gave 0.12, and ``kernels`` kept the other workloads within
0.02 where ``fits`` gave 0.16 to 0.25.
"""

from __future__ import annotations

import time

import numpy as np

# Wall seconds of one reading of either load on an unloaded core of the
# host above; a fixed scale that keeps rescaled times close to seconds.
NOMINAL_S = 0.045
LOADS = ("fits", "kernels")
_FITS = 650


class Gauge:
    """Times one pass of a fixed load; see the module docstring."""

    def __init__(self, load: str) -> None:
        if load not in LOADS:
            raise ValueError(f"unknown gauge load {load!r}")
        rng = np.random.default_rng(20240917)
        self._x = rng.standard_normal((50, 5))
        self._y = rng.standard_normal(50)
        gram = rng.standard_normal((20000, 9, 9))
        self._gram = gram @ gram.transpose(0, 2, 1) + 9.0 * np.eye(9)
        self._rhs = rng.standard_normal((20000, 9, 1))
        self._load = self._fits if load == "fits" else self._kernels
        self.read()  # first-call costs stay out of the readings

    def _fits(self) -> None:
        rng = np.random.default_rng(11)
        slopes = np.array([1.0, -0.5, 0.25])
        fits = []
        for _ in range(_FITS):
            x = rng.standard_normal((25, 3))
            sign = 2.0 * (rng.permutation(25) % 2) - 1.0
            y = x @ slopes + sign + rng.standard_normal(25)
            design = np.column_stack([np.ones(25), sign, x - x.mean(axis=0)])
            beta = np.linalg.lstsq(design, y, rcond=None)[0]
            e = y - design @ beta
            q = np.linalg.qr(design)[0]
            leverage = np.einsum("ij,ij->i", q, q)
            inv = np.linalg.inv(design.T @ design)
            hc2 = float(np.sum((design @ inv[:, 0]) ** 2 * e**2 / (1.0 - leverage)))
            fits.append((beta[0], hc2, float(e @ e) / 20.0 * inv[0, 0]))
        table = np.array(fits)
        table.mean(axis=0)
        table.std(axis=0, ddof=1)
        np.quantile(table[:, 0], [0.025, 0.975])

    def _kernels(self) -> None:
        counts: dict[int, int] = {}
        digits = 0
        for i in range(60000):
            counts[i % 97] = counts.get(i % 97, 0) + i
            digits += len(str(i))
        for _ in range(600):
            x = np.column_stack([np.ones(50), self._x])
            np.linalg.lstsq(x, self._y, rcond=None)
            (x * 2.0).sum(axis=0)
        np.linalg.solve(self._gram, self._rhs)
        (self._gram * 1.5).sum()

    def read(self) -> tuple[float, float]:
        """Wall and CPU seconds of one pass of the load."""
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        self._load()
        return time.perf_counter() - t0, time.process_time() - cpu0


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two readings, rescaled to the nominal host."""
    return seconds * NOMINAL_S * 2.0 / (before + after)
