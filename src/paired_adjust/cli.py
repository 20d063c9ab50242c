"""Command line front end.

Four subcommands: ``analyze`` runs the estimators on an observed
experiment CSV, ``simulate`` runs a multi-sample study, ``enumerate``
evaluates the exact randomization distribution of a small science
table, and ``generate`` synthesizes a science table.

Options can come from flags or from a config file (``--config``,
JSON everywhere, TOML on Python 3.11+); flags win over file values.
Only ``simulate`` and ``generate`` draw random numbers, so only they
take a seed, which falls back to the PAIRED_ADJUST_SEED environment
variable when neither source provides one. Each option is declared
once, in ``_OPTION_TABLES``, which builds the flags and casts every
value whatever its source with the library's own casts (``errors``):
integers integral and not boolean, seed >= 0, counts (n, S, B, workers,
cap) >= 1, alpha in (0, 1).
Reports are JSON on stdout unless ``--out`` is given, and every report
embeds the package version and the fully resolved configuration, so a
report is reproducible from its own header. Output paths are checked
before any work starts.

Exit codes: 0 success, 2 data parse/validation (including an
unreadable or non-UTF-8 input file), 3 numerical rank/degeneracy, 4
configuration (including bad flags, an output path that is a directory
or lies in a missing one, and a failed output write), 5 enumeration
too large.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Optional, Union

import numpy as np

from . import __version__
from .dgp import SETTINGS, generate_sample, load_science_table, write_science_table
from .errors import (
    BadArgument,
    ConfigError,
    DimensionMismatch,
    NumericalError,
    PairedAdjustError,
    TooFewPairs,
    as_alpha,
    int_at_least,
    one_of,
)
from .estimators import (
    FLAVORS,
    estimate_classical,
    estimate_r1,
    estimate_r2_flavors,
    superpop_correct,
)
from .experiment_model import (
    TransformSpec,
    build_design,
    design_estimators,
    load_experiment_csv,
    validate_design,
    writing,
)
from .randomization_engine import (
    ENUMERATION_CAP,
    StudyConfig,
    enumerate_exact,
    run_study,
)

_MODES = ("sate-study", "pate-study")
_TARGETS = ("sate", "pate")
_OUTPUTS = ("out", "csv", "histogram")


class _Parser(argparse.ArgumentParser):
    """argparse that honors the exit-code contract (config errors: 4)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def parse_transform(value: Any) -> TransformSpec:
    """Parse a transform from shorthand text or a config mapping.

    Accepted text: ``identity``, ``log``, ``exp``, ``power:K``,
    ``select:1,3`` (1-based columns; ``select:`` keeps none). Text is
    rewritten into the mapping form, so both go through
    :meth:`TransformSpec.from_dict` and its integer rule.
    """
    if isinstance(value, TransformSpec):
        return value
    if isinstance(value, Mapping):
        spec = dict(value)
    else:
        kind, _, arg = str(value).strip().partition(":")
        spec = {"kind": kind}
        if kind == "select":
            spec["columns"] = [c for c in arg.split(",") if c.strip()]
        elif arg or kind == "power":
            spec["degree"] = arg
    try:
        return TransformSpec.from_dict(spec)
    except BadArgument as exc:
        raise ConfigError(f"bad transform spec {value!r}: {exc}") from None


def _load_config_file(path: str) -> dict:
    p = Path(path)
    toml = p.suffix.lower() == ".toml"
    try:
        if toml:
            try:
                import tomllib
            except ModuleNotFoundError:
                raise ConfigError(
                    "TOML config files need Python 3.11+; use a JSON config instead"
                ) from None
        # A leading byte-order mark is dropped; TOML keeps its line endings, as tomllib.load does.
        with open(p, "r", encoding="utf-8-sig", newline="" if toml else None) as fh:
            text = fh.read()
        data = tomllib.loads(text) if toml else json.loads(text)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a table/object at top level")
    return data


class _Option(NamedTuple):
    """One option of a subcommand: its cast, help text, default and need."""

    cast: Callable[[Any], Any]
    help: str
    default: Any = None
    required: bool = False


def _choice(choices: tuple[str, ...], what: str, default: Optional[str] = None) -> _Option:
    shown = f" (default {default})" if default is not None else ""
    listed = f"{what}: one of {', '.join(choices)}{shown}"
    cast = functools.partial(one_of, choices=choices)
    return _Option(cast, listed, default, required=default is None)


def _transform(what: str, default: Optional[TransformSpec], shown: str) -> _Option:
    kinds = "identity, log, exp, power:K or select:I,J (1-based columns; 'select:' keeps none)"
    return _Option(parse_transform, f"transform for {what}: {kinds} (default {shown})", default)


_COUNT = functools.partial(int_at_least, low=1)
_ALPHA = _Option(as_alpha, "two-sided miscoverage level in (0, 1) (default 0.05)", 0.05)
_OUT = _Option(str, "write the JSON report here instead of stdout")
_SEED = _Option(
    functools.partial(int_at_least, low=0),
    "master seed, an integer >= 0 (env PAIRED_ADJUST_SEED as fallback) (default 0)",
    0,
)
_DIFFS, _AVGS = "within-pair differences", "pair averages"
_ENUMERATE_DEFAULT = "identity; none if neither is given and identity does not fit the table"

# One table per subcommand; flags, help and every value's cast come from it.
_OPTION_TABLES: dict[str, dict[str, _Option]] = {
    "analyze": {
        "input": _Option(str, "experiment CSV (pair,unit,z,y,x1..xP)", required=True),
        "f": _transform(_DIFFS, TransformSpec.identity(), "identity"),
        "g": _transform(_AVGS, TransformSpec.identity(), "identity"),
        "target": _choice(_TARGETS, "inferential target", "sate"),
        "variance": _choice(FLAVORS, "variance flavor for R1/R2", "classical"),
        "alpha": _ALPHA,
        "out": _OUT,
    },
    "simulate": {
        "setting": _choice(SETTINGS, "data-generating setting"),
        "n": _Option(_COUNT, "pairs per sample", required=True),
        "S": _Option(_COUNT, "number of samples", required=True),
        "B": _Option(_COUNT, "randomizations per sample (sate mode; default 1)", 1),
        "mode": _choice(_MODES, "study protocol", "sate-study"),
        "f": _transform(_DIFFS, TransformSpec.identity(), "identity"),
        "g": _transform(_AVGS, TransformSpec.identity(), "identity"),
        "alpha": _ALPHA,
        "seed": _SEED,
        "workers": _Option(_COUNT, "worker thread count (default: CPUs this process may run on)"),
        "out": _OUT,
        "csv": _Option(str, "also write the metric table as CSV here"),
    },
    "enumerate": {
        "input": _Option(str, "science-table CSV (pair,unit[,w..][,x..],r_t,r_c)", required=True),
        "meta": _Option(str, "sidecar JSON to cross-check against the table"),
        "cap": _Option(
            _COUNT, f"refuse above this many pairs (default {ENUMERATION_CAP})", ENUMERATION_CAP
        ),
        "f": _transform(_DIFFS, None, _ENUMERATE_DEFAULT),
        "g": _transform(_AVGS, None, _ENUMERATE_DEFAULT),
        "alpha": _ALPHA,
        "out": _OUT,
        "histogram": _Option(str, "write binned point-estimate draws as CSV here"),
    },
    "generate": {
        "n": _Option(_COUNT, "number of pairs", required=True),
        "setting": _choice(SETTINGS, "data-generating setting"),
        "seed": _SEED,
        "out": _Option(str, "science-table CSV (sidecar JSON written next to it)", required=True),
    },
}


def _resolve_options(args: argparse.Namespace, file_conf: dict) -> dict:
    """Merge flag, config-file, environment and default values.

    Precedence: explicit flag > config file > PAIRED_ADJUST_SEED (seed
    only) > built-in default. Unknown config-file keys are rejected, and
    the winning value goes through the option's cast.
    """
    table = _OPTION_TABLES[args.command]
    unknown = set(file_conf) - set(table)
    if unknown:
        raise ConfigError(
            f"unknown config keys for {args.command}: {', '.join(sorted(unknown))}"
        )
    resolved: dict[str, Any] = {}
    for name, opt in table.items():
        value = getattr(args, name, None)
        if value is None:
            value = file_conf.get(name)
        if value is None and name == "seed":
            value = os.environ.get("PAIRED_ADJUST_SEED")
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise ConfigError(f"missing required option --{name}")
        try:
            resolved[name] = opt.cast(value) if value is not None else None
        except ConfigError as exc:
            raise ConfigError(f"--{name}: {exc}") from None
    return resolved


def _check_outputs(command: str, conf: dict) -> None:
    """Refuse an output path that is a directory or lies in a missing one.

    ``generate`` also writes a sidecar next to its ``--out`` table, so
    that path is checked too, before anything is written.
    """
    outputs = [(name, Path(conf[name])) for name in _OUTPUTS if conf.get(name) is not None]
    if command == "generate":
        outputs.append(("out", _sidecar_path(Path(conf["out"]))))
    for name, path in outputs:
        try:
            is_dir, parent_is_dir = path.is_dir(), path.parent.is_dir()
        except OSError as exc:  # a name too long for the file system, say
            raise ConfigError(f"--{name}: cannot use {str(path)!r}: {exc.strerror}") from None
        if is_dir:
            raise ConfigError(f"--{name}: {str(path)!r} is a directory")
        if not parent_is_dir:
            raise ConfigError(f"--{name}: directory {str(path.parent)!r} does not exist")


def _emit_json(doc: dict, out: Union[str, Path, None]) -> None:
    """Write ``doc`` as strict JSON; a NaN or an infinity in it is a numerical error."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise NumericalError("the report holds a NaN or an infinity, which JSON "
                             "cannot encode") from None
    with writing(sys.stdout if out is None else out) as fh:
        fh.write(text)


def _config_echo(conf: dict) -> dict:
    echo: dict[str, Any] = {}
    for key, value in conf.items():
        if key in _OUTPUTS:
            continue
        echo[key] = value.to_dict() if isinstance(value, TransformSpec) else value
    return echo


def cmd_analyze(conf: dict) -> int:
    """estimate effects from an experiment CSV"""
    exp = load_experiment_csv(conf["input"])
    dm = build_design(exp, conf["f"], conf["g"])
    validate_design(dm)
    alpha = conf["alpha"]
    flavor = conf["variance"]

    rows = []
    rows.append(estimate_classical(dm.y).to_report_dict("sate", alpha))
    rows.append(estimate_r1(dm, flavor).to_report_dict("sate", alpha))
    # The superpopulation correction widens the classical R2 variance.
    r2_flavored, r2_classical = estimate_r2_flavors(dm, (flavor, "classical"))
    rows.append(r2_flavored.to_report_dict("sate", alpha))
    if dm.k_m > 0:
        rows.append(superpop_correct(r2_classical, dm).to_report_dict("pate", alpha))
        r2_uses = "superpop-corrected" if conf["target"] == "pate" else flavor
    else:
        r2_uses = flavor

    doc = {
        "version": __version__,
        "config": _config_echo(conf),
        "n": dm.n,
        "estimates": rows,
        "r2_interval_uses": r2_uses,
    }
    _emit_json(doc, conf["out"])
    return 0


def cmd_simulate(conf: dict) -> int:
    """run a multi-sample study"""
    workers = conf["workers"]
    if workers is None:  # the CPUs this process may run on, where the platform tells
        affinity = getattr(os, "sched_getaffinity", None)
        workers = len(affinity(0)) if affinity else os.cpu_count() or 1
    study = StudyConfig(
        mode="sate" if conf["mode"] == "sate-study" else "pate",
        setting=conf["setting"],
        n=conf["n"],
        samples=conf["S"],
        randomizations=conf["B"],
        alpha=conf["alpha"],
        f=conf["f"],
        g=conf["g"],
        seed=conf["seed"],
        workers=workers,
    )
    report = run_study(study)
    doc = {"version": __version__}
    doc.update(report.to_json_dict())
    _emit_json(doc, conf["out"])
    if conf["csv"] is not None:
        with writing(conf["csv"]) as fh:
            fh.write(report.to_csv())
    return 0


def _write_histogram(dist, path: str, bins: int = 64) -> None:
    lines, binned = ["estimator,bin_left,bin_right,count"], {}
    for est, tau in dist.tau_hat.items():
        if id(tau) not in binned:  # R2 and R2P share one array, binned once
            binned[id(tau)] = np.histogram(tau, bins=bins)
        counts, edges = binned[id(tau)]
        for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
            lines.append(f"{est},{lo!r},{hi!r},{int(c)}")
    with writing(path) as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_enumerate(conf: dict) -> int:
    """exact randomization distribution of a science table"""
    sample = load_science_table(conf["input"], conf["meta"])
    ident = TransformSpec.identity()
    if conf["f"] is not None or conf["g"] is not None:
        conf = dict(conf, f=conf["f"] or ident, g=conf["g"] or ident)
    else:  # no transform given: identity where the feasibility rule allows it
        with contextlib.suppress(DimensionMismatch, TooFewPairs):
            design_estimators(sample.n, sample.p, ident, ident)
            conf = dict(conf, f=ident, g=ident)
    dist = enumerate_exact(sample, conf["f"], conf["g"], alpha=conf["alpha"], cap=conf["cap"])

    summary = dist.summary()
    for est, cell in summary["estimators"].items():
        cell["s2_margin"] = cell["mean_s2"] - cell["variance"]
    doc = {"version": __version__, "config": _config_echo(conf), "summary": summary}
    _emit_json(doc, conf["out"])
    if conf["histogram"] is not None:
        _write_histogram(dist, conf["histogram"])
    return 0


def _sidecar_path(out: Path) -> Path:
    side = out.with_suffix(".json")
    if side == out:
        side = Path(str(out) + ".json")
    return side


def cmd_generate(conf: dict) -> int:
    """synthesize a science table"""
    sample = generate_sample(conf["n"], conf["setting"], seed=conf["seed"])
    write_science_table(sample, conf["out"])
    meta = {
        "version": __version__,
        "config": _config_echo(conf),
        "n": sample.n,
        "setting": sample.setting,
        "seed": sample.seed,
        "sate": sample.sate,
    }
    _emit_json(meta, _sidecar_path(Path(conf["out"])))
    _emit_json(meta, None)
    return 0


_HANDLERS = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "enumerate": cmd_enumerate,
    "generate": cmd_generate,
}


@functools.cache
def build_parser() -> _Parser:
    """One plain-string flag per table option; casting happens in _resolve_options.

    The tree depends on no input, so it is built on the first call and
    the same parser is returned to every later one.
    """
    parser = _Parser(
        prog="paired-adjust",
        description="Regression-adjusted estimation for paired randomized experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, table in _OPTION_TABLES.items():
        p = sub.add_parser(command, help=_HANDLERS[command].__doc__)
        p.add_argument("--config", help="JSON (or TOML on 3.11+) config file; flags win")
        for name, opt in table.items():
            p.add_argument(f"--{name}", help=opt.help + (" (required)" if opt.required else ""))
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_conf = _load_config_file(args.config) if args.config else {}
        conf = _resolve_options(args, file_conf)
        _check_outputs(args.command, conf)
        return _HANDLERS[args.command](conf)
    except PairedAdjustError as exc:
        print(f"paired-adjust: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
