"""Command line front end.

Four subcommands: ``analyze`` runs the estimators on an observed
experiment CSV, ``simulate`` runs a multi-sample study, ``enumerate``
evaluates the exact randomization distribution of a small science
table, and ``generate`` synthesizes a science table.

Options can come from flags or from a config file (``--config``,
JSON everywhere, TOML on Python 3.11+); flags win over file values.
The seed falls back to the PAIRED_ADJUST_SEED environment variable
when neither source provides one. Reports are JSON on stdout unless
``--out`` is given, and every report embeds the package version and
the fully resolved configuration, so a report is reproducible from its
own header.

Exit codes: 0 success, 2 data parse/validation, 3 numerical
rank/degeneracy, 4 configuration (including bad flags), 5 enumeration
too large.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

import numpy as np

from . import __version__
from .dgp import SETTINGS, generate_sample, load_science_table, write_science_table
from .errors import ConfigError, PairedAdjustError
from .estimators import (
    _FLAVORS,
    confidence_interval,
    estimate_classical,
    estimate_r1,
    estimate_r2,
    superpop_correct,
)
from .experiment_model import TransformSpec, build_design, load_experiment_csv, validate_design
from .randomization_engine import (
    ENUMERATION_CAP,
    StudyConfig,
    enumerate_exact,
    run_study,
)

_MODES = ("sate-study", "pate-study")
_TARGETS = ("sate", "pate")


class _Parser(argparse.ArgumentParser):
    """argparse that honors the exit-code contract (config errors: 4)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def parse_transform(value: Any) -> TransformSpec:
    """Parse a transform from shorthand text or a config mapping.

    Accepted text: ``identity``, ``log``, ``exp``, ``power:K``,
    ``select:1,3`` (1-based columns; ``select:`` keeps none).
    """
    if isinstance(value, TransformSpec):
        return value
    try:
        if isinstance(value, Mapping):
            return TransformSpec.from_dict(dict(value))
        text = str(value).strip()
        kind, _, arg = text.partition(":")
        if kind in ("identity", "log", "exp"):
            if arg:
                raise ValueError(f"{kind} takes no argument")
            return TransformSpec(kind)
        if kind == "power":
            return TransformSpec.power(int(arg))
        if kind == "select":
            cols = [int(c) for c in arg.split(",") if c.strip()] if arg else []
            return TransformSpec.select(cols)
        raise ValueError(f"unknown transform {text!r}")
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad transform spec {value!r}: {exc}") from None


def _load_config_file(path: str) -> dict:
    p = Path(path)
    try:
        if p.suffix.lower() == ".toml":
            try:
                import tomllib
            except ModuleNotFoundError:
                raise ConfigError(
                    "TOML config files need Python 3.11+; use a JSON config instead"
                ) from None
            with open(p, "rb") as fh:
                data = tomllib.load(fh)
        else:
            with open(p, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a table/object at top level")
    return data


def _as_int(v: Any) -> int:
    try:
        out = int(v)
    except (TypeError, ValueError):
        raise ConfigError(f"expected an integer, got {v!r}") from None
    return out


def _as_float(v: Any) -> float:
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ConfigError(f"expected a number, got {v!r}") from None


def _as_choice(choices: tuple[str, ...]) -> Callable[[Any], str]:
    def cast(v: Any) -> str:
        s = str(v)
        if s not in choices:
            raise ConfigError(f"expected one of {choices}, got {s!r}")
        return s

    return cast


def _as_str(v: Any) -> str:
    return str(v)


# Per-subcommand option tables: name -> (cast, default, required).
_OPTION_TABLES: dict[str, dict[str, tuple[Callable[[Any], Any], Any, bool]]] = {
    "analyze": {
        "input": (_as_str, None, True),
        "f": (parse_transform, TransformSpec.identity(), False),
        "g": (parse_transform, TransformSpec.identity(), False),
        "target": (_as_choice(_TARGETS), "sate", False),
        "variance": (_as_choice(_FLAVORS), "classical", False),
        "alpha": (_as_float, 0.05, False),
        "seed": (_as_int, None, False),
        "out": (_as_str, None, False),
    },
    "simulate": {
        "setting": (_as_choice(SETTINGS), None, True),
        "n": (_as_int, None, True),
        "S": (_as_int, None, True),
        "B": (_as_int, 1, False),
        "mode": (_as_choice(_MODES), "sate-study", False),
        "f": (parse_transform, TransformSpec.identity(), False),
        "g": (parse_transform, TransformSpec.identity(), False),
        "alpha": (_as_float, 0.05, False),
        "seed": (_as_int, 0, False),
        "workers": (_as_int, None, False),
        "out": (_as_str, None, False),
        "csv": (_as_str, None, False),
    },
    "enumerate": {
        "input": (_as_str, None, True),
        "meta": (_as_str, None, False),
        "cap": (_as_int, ENUMERATION_CAP, False),
        "f": (parse_transform, None, False),
        "g": (parse_transform, None, False),
        "alpha": (_as_float, 0.05, False),
        "seed": (_as_int, None, False),
        "out": (_as_str, None, False),
        "histogram": (_as_str, None, False),
    },
    "generate": {
        "n": (_as_int, None, True),
        "setting": (_as_choice(SETTINGS), None, True),
        "seed": (_as_int, 0, False),
        "out": (_as_str, None, True),
    },
}


def _resolve_options(args: argparse.Namespace, file_conf: dict) -> dict:
    """Merge flag, config-file, environment and default values.

    Precedence: explicit flag > config file > PAIRED_ADJUST_SEED (seed
    only) > built-in default. Unknown config-file keys are rejected.
    """
    table = _OPTION_TABLES[args.command]
    unknown = set(file_conf) - set(table)
    if unknown:
        raise ConfigError(
            f"unknown config keys for {args.command}: {', '.join(sorted(unknown))}"
        )
    resolved: dict[str, Any] = {}
    for name, (cast, default, required) in table.items():
        value = getattr(args, name, None)
        if value is None and name in file_conf:
            value = file_conf[name]
        if value is None and name == "seed":
            env = os.environ.get("PAIRED_ADJUST_SEED")
            if env is not None:
                value = env
        if value is None:
            value = default
        if value is None and required:
            raise ConfigError(f"missing required option --{name}")
        resolved[name] = cast(value) if value is not None else None
    alpha = resolved.get("alpha")
    if alpha is not None and not 0 < alpha < 1:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    return resolved


def _emit_json(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _config_echo(conf: dict, skip: tuple[str, ...] = ()) -> dict:
    echo: dict[str, Any] = {}
    for key, value in conf.items():
        if key in skip or key in ("out", "csv", "histogram"):
            continue
        echo[key] = value.to_dict() if isinstance(value, TransformSpec) else value
    return echo


def cmd_analyze(conf: dict) -> int:
    exp = load_experiment_csv(conf["input"])
    dm = build_design(exp, conf["f"], conf["g"])
    validate_design(dm)
    alpha = conf["alpha"]
    flavor = conf["variance"]

    rows = []
    rows.append(estimate_classical(dm.y).to_report_dict("sate", alpha))
    rows.append(estimate_r1(dm, flavor).to_report_dict("sate", alpha))
    r2_flavored = estimate_r2(dm, flavor)
    rows.append(r2_flavored.to_report_dict("sate", alpha))
    r2_classical = r2_flavored if flavor == "classical" else estimate_r2(dm)
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
    workers = conf["workers"]
    if workers is None:
        workers = os.cpu_count() or 1
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
        Path(conf["csv"]).write_text(report.to_csv(), encoding="utf-8")
    return 0


def _write_histogram(dist, path: str, bins: int = 64) -> None:
    lines = ["estimator,bin_left,bin_right,count"]
    for est in dist.estimators:
        counts, edges = np.histogram(dist.tau_hat[est], bins=bins)
        for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
            lines.append(f"{est},{lo!r},{hi!r},{int(c)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_enumerate(conf: dict) -> int:
    sample = load_science_table(conf["input"], conf["meta"])
    f, g = conf["f"], conf["g"]
    if f is None and g is None and sample.x is not None:
        f = g = TransformSpec.identity()
    dist = enumerate_exact(sample, f, g, alpha=conf["alpha"], cap=conf["cap"])

    summary = dist.summary()
    for est, cell in summary["estimators"].items():
        cell["s2_margin"] = cell["mean_s2"] - cell["variance"]
    echo = _config_echo(conf, skip=("f", "g"))
    echo["f"] = f.to_dict() if f is not None else None
    echo["g"] = g.to_dict() if g is not None else None
    doc = {"version": __version__, "config": echo, "summary": summary}
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
    sample = generate_sample(conf["n"], conf["setting"], seed=conf["seed"])
    out = Path(conf["out"])
    write_science_table(sample, out)
    meta = {
        "version": __version__,
        "config": _config_echo(conf),
        "n": sample.n,
        "setting": sample.setting,
        "seed": sample.seed,
        "sate": sample.sate,
    }
    side = _sidecar_path(out)
    side.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="paired-adjust",
        description="Regression-adjusted estimation for paired randomized experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(
        p: argparse.ArgumentParser,
        out_help: str = "write the JSON report here instead of stdout",
        with_alpha: bool = True,
    ) -> None:
        p.add_argument("--config", help="JSON (or TOML on 3.11+) config file; flags win")
        p.add_argument("--seed", type=int, help="master seed (env PAIRED_ADJUST_SEED as fallback)")
        if with_alpha:
            p.add_argument("--alpha", type=float, help="two-sided miscoverage level (default 0.05)")
        p.add_argument("--out", help=out_help)

    pa = sub.add_parser("analyze", help="estimate effects from an experiment CSV")
    common(pa)
    pa.add_argument("--input", help="experiment CSV (pair,unit,z,y,x1..xP)")
    pa.add_argument("--f", help="transform for within-pair differences (default identity)")
    pa.add_argument("--g", help="transform for pair averages (default identity)")
    pa.add_argument("--target", choices=_TARGETS, help="inferential target (default sate)")
    pa.add_argument("--variance", choices=_FLAVORS, help="variance flavor for R1/R2 (default classical)")

    ps = sub.add_parser("simulate", help="run a multi-sample study")
    common(ps)
    ps.add_argument("--setting", choices=SETTINGS)
    ps.add_argument("--n", type=int, help="pairs per sample")
    ps.add_argument("--S", type=int, help="number of samples")
    ps.add_argument("--B", type=int, help="randomizations per sample (sate mode)")
    ps.add_argument("--mode", choices=_MODES, help="study protocol (default sate-study)")
    ps.add_argument("--f", help="transform for within-pair differences")
    ps.add_argument("--g", help="transform for pair averages")
    ps.add_argument("--workers", type=int, help="process count (default: machine parallelism)")
    ps.add_argument("--csv", help="also write the metric table as CSV here")

    pe = sub.add_parser("enumerate", help="exact randomization distribution of a science table")
    common(pe)
    pe.add_argument("--input", help="science-table CSV (pair,unit[,w..][,x..],r_t,r_c)")
    pe.add_argument("--meta", help="sidecar JSON to cross-check against the table")
    pe.add_argument("--cap", type=int, help=f"refuse above this many pairs (default {ENUMERATION_CAP})")
    pe.add_argument("--f", help="transform for within-pair differences (default identity when x present)")
    pe.add_argument("--g", help="transform for pair averages")
    pe.add_argument("--histogram", help="write binned point-estimate draws as CSV here")

    pg = sub.add_parser("generate", help="synthesize a science table")
    common(pg, out_help="science-table CSV path (sidecar JSON written next to it)", with_alpha=False)
    pg.add_argument("--n", type=int, help="number of pairs")
    pg.add_argument("--setting", choices=SETTINGS)

    return parser


_HANDLERS = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "enumerate": cmd_enumerate,
    "generate": cmd_generate,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_conf = _load_config_file(args.config) if args.config else {}
        conf = _resolve_options(args, file_conf)
        return _HANDLERS[args.command](conf)
    except PairedAdjustError as exc:
        print(f"paired-adjust: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
