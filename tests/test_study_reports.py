"""Study reports against the report-level oracles.

Every aggregate of a :func:`run_study` report is recomputed by
``tests/oracles.py`` from the per-sample columns of the same samples,
written the slow way with Python sorting and ``statistics``: each sate
median, q025 and q975, and each pate coverage, se/sd ratio and sd ratio.
"""

import math

import pytest

from paired_adjust.experiment_model import TransformSpec as T
from paired_adjust.randomization_engine import StudyConfig, _study_block, run_study

from oracles import pate_report_oracle, sate_report_oracle

CONFIGS = [
    StudyConfig(mode="sate", setting="nonparallel", n=20, samples=41, randomizations=30,
                seed=5, f=T.power(2), g=T.log()),
    StudyConfig(mode="sate", setting="parallel", n=16, samples=9, randomizations=12, seed=6,
                alpha=0.1),
    StudyConfig(mode="pate", setting="nonparallel", n=25, samples=60, seed=7,
                f=T.power(2), g=T.power(2)),
    StudyConfig(mode="pate", setting="parallel", n=30, samples=23, seed=8, alpha=0.2,
                f=T.identity(), g=T.select([2, 3])),
]


def _close(got, want):
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        return all(_close(got[k], want[k]) for k in want)
    if math.isnan(want):
        return math.isnan(got)
    return got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}-{c.samples}")
def test_report_matches_its_oracle(config):
    report = run_study(config)
    columns = _study_block(report.config, range(config.samples))
    if config.mode == "sate":
        want = sate_report_oracle(columns)
    else:
        want = pate_report_oracle(columns, config.alpha)
    assert report.metrics.keys() == want.keys()
    for name, value in want.items():
        assert _close(report.metrics[name], value), (name, report.metrics[name], value)
