"""Synthetic paired-experiment generator.

Latent pair covariates are four independent standard normal draws for
the first unit; the second unit's values sit close by (conditional
variance 1/4), which is what makes the pairing informative. The
analyst never sees the latents, only four deliberately awkward
transformations of them, so any regression on the observed covariates
is misspecified by construction.

Two response settings are provided. Under ``parallel`` the treated and
control surfaces coincide, so every unit-level effect is exactly zero.
Under ``nonparallel`` the surfaces differ and the unit-level effect
13.7 w1 + 10.7 w3 - 13.7 w4 has mean zero over the latent law but
substantial variance. Noise is drawn once per unit and added to both
potential outcomes, so treated-minus-control contrasts are noise-free.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, TextIO, Union

import numpy as np

from .errors import DimensionMismatch, MalformedRow, float_array, int_at_least, one_of, strict_int
from .experiment_model import read_header, read_pairs, read_source, readonly, write_pairs
from .rng import ROLE_SAMPLE, substream

SETTINGS = ("parallel", "nonparallel")

# Latent and observed covariates per unit; the formulas below use all four.
N_COVARIATES = 4


@dataclass(frozen=True)
class PotentialOutcomeSample:
    """A science table: both potential outcomes for every unit.

    ``w`` (latents) and ``x`` (observed covariates) may be absent when
    a table was assembled by hand or loaded from a file that lacked
    them; everything that only involves outcomes still works.
    """

    r_t: np.ndarray  # (n, 2) outcomes under treatment
    r_c: np.ndarray  # (n, 2) outcomes under control
    w: Optional[np.ndarray] = None  # (n, 2, 4) latent covariates
    x: Optional[np.ndarray] = None  # (n, 2, 4) observed covariates
    setting: str = "custom"
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        r_t = float_array(self.r_t, "r_t")
        r_c = float_array(self.r_c, "r_c")
        if r_t.ndim != 2 or r_t.shape[1] != 2 or r_c.shape != r_t.shape:
            raise DimensionMismatch(
                f"potential outcomes must both be (n, 2), got {r_t.shape} and {r_c.shape}"
            )
        if not (np.isfinite(r_t).all() and np.isfinite(r_c).all()):
            raise MalformedRow("potential outcomes must be finite")
        object.__setattr__(self, "r_t", readonly(r_t))
        object.__setattr__(self, "r_c", readonly(r_c))
        n = r_t.shape[0]
        for name in ("w", "x"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = float_array(arr, name)
            if arr.shape != (n, 2, N_COVARIATES):
                raise DimensionMismatch(
                    f"{name} must be ({n}, 2, {N_COVARIATES}), got {arr.shape}"
                )
            if not np.isfinite(arr).all():
                raise MalformedRow(f"{name} must be finite")
            object.__setattr__(self, name, readonly(arr))

    @property
    def n(self) -> int:
        return self.r_t.shape[0]

    @property
    def p(self) -> Optional[int]:
        """Observed covariates per unit, None for a table without them."""
        return None if self.x is None else self.x.shape[2]

    @property
    def levels(self) -> np.ndarray:
        """Per-unit average of the two potential outcomes, (n, 2)."""
        return (self.r_t + self.r_c) / 2.0

    @property
    def effects(self) -> np.ndarray:
        """Pair-level average treatment effect Delta_i, (n,)."""
        tau = self.r_t - self.r_c
        return (tau[:, 0] + tau[:, 1]) / 2.0

    @property
    def sate(self) -> float:
        """Average effect over the n pairs actually in the sample."""
        return float(self.effects.mean())


def draw_pair_covariates(n: int, rng: np.random.Generator) -> np.ndarray:
    """Latent covariates for n pairs, shape (n, 2, 4).

    First-unit values are standard normal; second-unit values equal the
    first plus N(0, 1/4) noise, independently across the four
    coordinates. Draw order (all first units, then all second units) is
    fixed so a given stream always produces the same table.
    """
    n = int_at_least(n, 1, "n")
    return _pair_latents(rng.standard_normal(8 * n), n)


def _pair_latents(normals: np.ndarray, n: int) -> np.ndarray:
    """Latents (..., n, 2, 4) from the first 8n normals of the last axis.

    The first 4n are the first units' values, pair by pair; the next 4n
    are the second units' N(0, 1) noise, halved and added to them.
    """
    lead = normals.shape[:-1]
    w1 = normals[..., : 4 * n].reshape(lead + (n, N_COVARIATES))
    w2 = w1 + 0.5 * normals[..., 4 * n : 8 * n].reshape(lead + (n, N_COVARIATES))
    return np.concatenate([w1, w2], axis=-1).reshape(lead + (n, 2, N_COVARIATES))


def stacked_tables(
    normals: np.ndarray, setting: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stacked science tables from a (T, 10n) array of standard normals.

    Row t holds one table's draws in generation order: 8n for the
    latents (see :func:`_pair_latents`), then 2n of outcome noise, one
    per unit and shared by both potential outcomes. Returns ``w`` and
    ``x`` of shape (T, n, 2, 4) and ``r_t``, ``r_c`` of shape (T, n, 2);
    table t is bit for bit what :func:`generate_sample` makes from the
    same normals. Every step is elementwise, none sums over pairs, and
    the arrays keep the memory order of ``normals``.
    """
    t, size = normals.shape
    n = size // 10
    w = _pair_latents(normals, n)
    eps = normals[:, 8 * n :].reshape(t, n, 2)
    mu_t, mu_c = response_surfaces(w, setting)
    return w, mu_t + eps, mu_c + eps, observe_covariates(w)


def observe_covariates(w: np.ndarray) -> np.ndarray:
    """Map latent 4-vectors to the observed, distorted covariates.

    Works on any array whose last axis has length 4.
    """
    w = np.asarray(w, dtype=float)
    if w.shape[-1] != 4:
        raise DimensionMismatch(f"latents must have 4 columns, got {w.shape}")
    w1, w2, w3, w4 = (w[..., j] for j in range(4))
    x = np.empty_like(w)
    x[..., 0] = np.exp(w1 / 2.0)
    x[..., 1] = w2 / (1.0 + np.exp(w1)) + 10.0
    x[..., 2] = ((w1 * w3) / 25.0 + 0.6) ** 3
    x[..., 3] = (w2 + w4 + 20.0) ** 2
    return x


def response_surfaces(w: np.ndarray, setting: str) -> tuple[np.ndarray, np.ndarray]:
    """Treated and control mean surfaces evaluated at the latents."""
    setting = one_of(setting, SETTINGS, "setting")
    w = np.asarray(w, dtype=float)
    w1, w2, w3, w4 = (w[..., j] for j in range(4))
    mu_t = 27.4 * w1 + 13.7 * (w2 + w3 + w4)
    if setting == "parallel":
        mu_c = mu_t
    else:
        mu_c = 13.7 * (w1 + w2) + 3.0 * w3 + 27.4 * w4
    return mu_t, mu_c


def generate_sample(
    n: int,
    setting: str,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> PotentialOutcomeSample:
    """Draw a complete science table.

    Either pass a seed (a dedicated substream is derived from it) or an
    explicit generator; with neither, entropy comes from the OS. One
    draw of 10n standard normals fills the table in a fixed order:
    latents first, then one noise value per unit, shared between the
    treated and control outcomes (see :func:`stacked_tables`).
    """
    setting = one_of(setting, SETTINGS, "setting")
    n = int_at_least(n, 1, "n")
    seed = None if seed is None else int_at_least(seed, 0, "seed")
    if rng is None:
        if seed is None:
            rng = np.random.default_rng()
        else:
            rng = substream(seed, ROLE_SAMPLE)
    w, r_t, r_c, x = stacked_tables(rng.standard_normal(10 * n)[None], setting)
    return PotentialOutcomeSample(
        r_t=r_t[0], r_c=r_c[0], w=w[0], x=x[0], setting=setting, seed=seed
    )


_W_COLS = tuple(f"w{j}" for j in range(1, N_COVARIATES + 1))
_X_COLS = tuple(f"x{j}" for j in range(1, N_COVARIATES + 1))


def write_science_table(sample: PotentialOutcomeSample, dest: Union[str, Path, TextIO]) -> None:
    """Write a science table as CSV, through ``experiment_model.write_pairs``.

    Columns: pair, unit, w1..w4 (if present), x1..x4 (if present),
    r_t, r_c. No sidecar is written: ``generate``'s report is the one
    sidecar format, and :func:`load_science_table` its reader.
    """
    groups = [(cols, a) for cols, a in ((_W_COLS, sample.w), (_X_COLS, sample.x)) if a is not None]
    groups.append((("r_t", "r_c"), np.stack([sample.r_t, sample.r_c], axis=-1)))
    values = np.concatenate([a for _, a in groups], axis=-1)
    header = ["pair", "unit", *(name for cols, _ in groups for name in cols)]
    write_pairs(dest, header, range(1, sample.n + 1), np.empty((sample.n, 2, 0), int), values)


def _read_sidecar(sidecar: TextIO) -> dict:
    """A sidecar's JSON object, with ``n`` through strict_int and ``sate`` a finite float.

    Anything else raises MalformedRow naming the sidecar by the stream's
    ``name``, when it has one: a file's is its path.
    """
    name = getattr(sidecar, "name", "")
    where = f"sidecar {name}" if name else "sidecar"
    try:
        meta = json.load(sidecar)
        if not isinstance(meta, dict):
            raise MalformedRow(f"{where}: expected a JSON object, got {type(meta).__name__}")
        if meta.get("n") is not None:
            meta["n"] = strict_int(meta["n"], "n")
        if meta.get("sate") is not None:
            meta["sate"] = float(meta["sate"])
            if not math.isfinite(meta["sate"]):
                raise MalformedRow(f"{where}: sate must be finite, got {meta['sate']}")
    except (ValueError, TypeError, OverflowError) as exc:
        raise MalformedRow(f"{where}: {exc}") from None
    return meta


def load_science_table(
    source: Union[str, Path, TextIO, Iterable[str]],
    sidecar: Union[str, Path, TextIO, None] = None,
) -> PotentialOutcomeSample:
    """Read a science table written by :func:`write_science_table`, and its sidecar.

    Each is a path, read by ``experiment_model.read_source``, or text.
    pair, unit, r_t, r_c are required; the w and x column groups are
    optional but must be complete and in order when present. The data
    rows are read as :func:`load_experiment_csv` reads them, by one
    ``np.loadtxt`` call in ``read_pairs``. When a sidecar is
    supplied, it must be a JSON object whose ``n`` and average effect, if
    stored, match the table (MalformedRow otherwise); ``generate``'s
    report is one.
    """
    # Both files are opened before either is parsed, so an unreadable
    # sidecar is named before a malformed table.
    source, sidecar = read_source(source), read_source(sidecar)
    header, lines = read_header(source)
    expect, blocks = ["pair", "unit"], {}
    for name, cols in (("w", _W_COLS), ("x", _X_COLS)):
        if header[len(expect) : len(expect) + N_COVARIATES] == list(cols):
            blocks[name] = slice(len(expect) - 2, len(expect) - 2 + N_COVARIATES)
            expect += cols
    expect += ["r_t", "r_c"]
    if header != expect:
        raise MalformedRow(
            f"science table header must be pair,unit[,w1..w4][,x1..x4],r_t,r_c; got {header}"
        )

    _, _, values = read_pairs(lines, len(expect))
    n = values.shape[0]
    w, x = (values[:, :, blocks[name]] if name in blocks else None for name in ("w", "x"))
    r_t = values[:, :, -2]
    r_c = values[:, :, -1]

    meta = {} if sidecar is None else _read_sidecar(sidecar)
    if meta.get("n") is not None and meta["n"] != n:
        raise MalformedRow(f"sidecar says n={meta['n']} but table has {n} pairs")
    sample = PotentialOutcomeSample(
        r_t=r_t, r_c=r_c, w=w, x=x, setting=meta.get("setting", "custom"), seed=meta.get("seed")
    )
    expected_sate = meta.get("sate")
    if expected_sate is not None and abs(sample.sate - expected_sate) > 1e-9 * max(
        1.0, abs(expected_sate)
    ):
        raise MalformedRow(
            f"sidecar average effect {expected_sate} does not match table ({sample.sate})"
        )
    return sample
