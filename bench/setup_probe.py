"""One set-up in a fresh process: import the CLI and write a workload's inputs.

    python3 bench/setup_probe.py --workload NAME --seed N --dir DIR [--toy] [--op]

``run.py`` times this whole process for the ``setup_s`` metric. With
``--op`` it then runs one operation at ``--seed`` in ``DIR`` and prints the
peak resident memory of the process plus its largest child, in MB, for the
``peak_rss_mb`` metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import resource
from pathlib import Path

import pkg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--op", action="store_true")
    args = parser.parse_args()
    cli = pkg.load_cli()
    import workloads

    wl = (workloads.TOY if args.toy else workloads.WORKLOADS)[args.workload]
    wl.write_inputs(args.dir, args.seed)
    if not args.op:
        return 0
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(wl.argv(args.dir, args.seed))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print((own + kids) / 1024.0)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
