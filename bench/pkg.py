"""Load the package from this checkout's ``src/`` with a pinned BLAS setting.

Import this module before anything that imports numpy.

Every benchmark process (the measuring run, its set-up probes and any pool
workers they fork) goes through :func:`load_cli`, so parent and change are
always measured with the same BLAS thread count and never against an
installed copy of the package.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "paired_adjust"

BLAS_THREADS = "1"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas() -> None:
    # BLAS reads these once, when numpy is first imported.
    for var in _BLAS_VARS:
        os.environ[var] = BLAS_THREADS


_pin_blas()


def load_cli():
    """Pin BLAS threads, import ``paired_adjust.cli`` from ``src/`` and return it.

    Exits with a message when the checkout has no package source, or when
    the import resolves to a copy outside it.
    """
    _pin_blas()
    if not (PACKAGE_DIR / "cli.py").is_file():
        raise SystemExit(f"bench: no package source at {PACKAGE_DIR}")
    sys.path.insert(0, str(SRC))
    from paired_adjust import cli

    if Path(cli.__file__).resolve().parent != PACKAGE_DIR.resolve():
        raise SystemExit(f"bench: imported {cli.__file__}, not the checkout's source")
    return cli


def git_commit() -> str:
    """HEAD commit read from ``.git`` without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
