"""Command-line front end.

Subcommands mirror the library modules (anderson-verify, staircase,
solve-selfcomm, lie, minimize, seq) and a ``run`` mode executes a plain-text
config.  One table, ``COMMANDS``, names each command's certificate call,
options, tolerances and ``--out`` artifact; the argument parser, the
config-file parser, the key list in ``--help`` and dispatch are all built
from it.  Each certificate returns a finished SolveReport and ``run`` is the
one writer: every artifact atomically, then ``report.csv``, rows
(check_name, value, tolerance, pass).  Exit codes: 0 all checks pass,
2 config/parse problems, 3 tolerance failures, 4 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import textwrap
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import anderson, idealseq, liealg, matio, minimize, numkit, selfcomm, staircase
from .numkit import DomainError, NumericError, ShapeError, VerificationError
from .report import SolveReport
from .sequences import PowerLog, WeightSequence

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    """Bad config file or command line."""


@dataclass
class RunConfig:
    command: str
    inputs: tuple[str, ...] = ()
    target: str | None = None
    out: str | None = None
    report_path: str | None = None
    output_dir: str = "."
    tolerances: dict[str, float] = field(default_factory=dict)
    seed: int = 0
    weights: str | None = None
    blocks: int = 8
    solver_type: str | None = None
    selfadjoint: bool = False
    action: str | None = None
    rank: int = 3
    family: str | None = None
    restarts: int = 50
    max_iters: int = 20000


def parse_weights(text: str, count: int) -> WeightSequence:
    if text.startswith("powerlog:"):
        parts = text[len("powerlog:"):].split(",")
        if len(parts) != 3:
            raise ConfigError(f"powerlog needs C,p,q: {text!r}")
        try:
            c, p, q = (float(x) for x in parts)
        except ValueError:
            raise ConfigError(f"powerlog parameters must be numbers: {text!r}") from None
        # Grammar exponents are decay exponents; the stored family is signed.
        return WeightSequence.powerlog(c, -p, -q, count=count)
    if text.startswith("explicit:"):
        return WeightSequence.explicit(matio.load_values(text[len("explicit:"):]))
    raise ConfigError(f"weights must be powerlog:C,p,q or explicit:PATH, got {text!r}")


def parse_family(text: str) -> PowerLog | np.ndarray:
    if text.startswith("powerlog:"):
        return parse_weights(text, count=1).family
    if text.startswith("explicit:"):
        return matio.load_values(text[len("explicit:"):])
    raise ConfigError(f"family must be powerlog:C,p,q or explicit:PATH, got {text!r}")


# ---------------------------------------------------------------------------
# certificate calls, each on a RunConfig that run() has checked against COMMANDS


def _anderson(cfg: RunConfig) -> SolveReport:
    return anderson.certify(parse_weights(cfg.weights, count=cfg.blocks + 1), cfg.blocks,
                            cfg.tolerances["verify"])


def _staircase(cfg: RunConfig) -> SolveReport:
    return staircase.certify([matio.load_matrix(p) for p in cfg.inputs], cfg.selfadjoint,
                             cfg.tolerances["band"])


def _selfcomm(cfg: RunConfig) -> SolveReport:
    t = matio.load_matrix(cfg.inputs[0])
    if cfg.solver_type == "A":
        return selfcomm.solve_type_A(t)
    if t.shape[0] % 2:
        raise DomainError("type C needs even dimension")
    return selfcomm.solve_type_C(t, selfcomm.make_anticonjugation(t.shape[0] // 2))


def _lie(cfg: RunConfig) -> SolveReport:
    if cfg.action == "solve-sl":
        if not cfg.inputs:
            raise ConfigError("lie solve-sl needs an input matrix")
        return liealg.solve_sl(matio.load_matrix(cfg.inputs[0]))
    if cfg.rank < 2:
        raise ConfigError("lie needs n >= 2")
    return liealg.certify_sl(cfg.rank, killing=cfg.action == "killing")


def _minimize(cfg: RunConfig) -> SolveReport:
    return minimize.certify(minimize.MinimizeConfig(
        target=matio.load_matrix(cfg.target), restarts=cfg.restarts,
        max_iters=cfg.max_iters, seed=cfg.seed))


def _seq(cfg: RunConfig) -> SolveReport:
    if cfg.action == "classify":
        if not cfg.family:
            raise ConfigError("seq classify needs a family")
        return idealseq.certify_family(parse_family(cfg.family))
    if not cfg.inputs:
        raise ConfigError("seq mean needs an input value file")
    return idealseq.certify_mean(matio.load_values(cfg.inputs[0]))


# ---------------------------------------------------------------------------
# the command table


@dataclass(frozen=True)
class Option:
    """Config key, RunConfig field, flag (positional without dashes), type, default.

    ``kind`` is str, int, bool (a bare flag; true/false/0/1 in a file) or tuple
    (``--input A``, or ``--input A B ...`` with ``many``; comma-separated in a file).
    ``actions`` names the actions that read the option; empty means all of them.
    """

    key: str
    field: str
    flag: str
    kind: type = str
    default: object = None
    required: bool = False
    choices: tuple[str, ...] = ()
    many: bool = False
    help: str | None = None
    actions: tuple[str, ...] = ()

    def read_by(self, action: str | None) -> bool:
        return not self.actions or action in self.actions


@dataclass(frozen=True)
class Command:
    certify: Callable[[RunConfig], SolveReport]
    help: str
    options: tuple[Option, ...]
    tolerances: dict[str, float] = field(default_factory=dict)  # name -> default
    out: str | None = None  # the artifact that ``--out`` redirects


# Keys every command takes, besides ``command`` and ``tol.NAME``.
COMMON = (
    Option("output_dir", "output_dir", "--out-dir", default=".", help="artifact directory"),
    Option("report", "report_path", "--report", help="report CSV path"),
)
_INPUT = Option("input", "inputs", "--input", tuple, ())
_OUT = Option("out", "out", "--out")

COMMANDS = {
    "anderson-verify": Command(_anderson, "certify [C,Z] for a weight family", (
        Option("weights", "weights", "--weights", required=True),
        Option("blocks", "blocks", "--blocks", int, 8),
    ), {"verify": numkit.DEFAULT_TOL}),
    "staircase": Command(_staircase, "simultaneous banded form", (
        dataclasses.replace(_INPUT, required=True, many=True),
        Option("selfadjoint", "selfadjoint", "--selfadjoint", bool, False),
    ), {"band": staircase.BAND_TOL}),
    "solve-selfcomm": Command(_selfcomm, "solve [Y*,Y] = T", (
        Option("type", "solver_type", "--type", required=True, choices=("A", "C")),
        dataclasses.replace(_INPUT, required=True),
        dataclasses.replace(_OUT, help="solution matrix path"),
    ), out="Y.txt"),
    "lie": Command(_lie, "Killing form / semisimplicity / sl solver", (
        Option("action", "action", "action", default="killing",
               choices=("killing", "semisimple", "solve-sl")),
        Option("n", "rank", "--n", int, 3, help="matrix size for sl(n)",
               actions=("killing", "semisimple")),
        dataclasses.replace(_INPUT, actions=("solve-sl",)),
        dataclasses.replace(_OUT, actions=("solve-sl",)),
    ), out="Y.txt"),
    "minimize": Command(_minimize, "penalty search for the norm minimum", (
        Option("target", "target", "--target", required=True),
        Option("restarts", "restarts", "--restarts", int, 50),
        Option("max_iters", "max_iters", "--max-iters", int, 20000),
        Option("seed", "seed", "--seed", int, 0, help="random seed (COMMLAB_SEED overrides)"),
        dataclasses.replace(_OUT, help="restart CSV path"),
    ), out="restarts.csv"),
    "seq": Command(_seq, "sequence classifiers", (
        Option("action", "action", "action", default="classify", choices=("classify", "mean")),
        Option("family", "family", "--family", actions=("classify",)),
        dataclasses.replace(_INPUT, actions=("mean",)),
        dataclasses.replace(_OUT, actions=("mean",)),
    ), out="mean.txt"),
}


def _convert(opt: Option, value):
    """Option text from a config file or the command line, in the option's type."""
    if not isinstance(value, str):  # a bare flag or a list of paths
        return tuple(value) if isinstance(value, list) else value
    if opt.kind is int:
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{opt.key} needs an integer, got {value!r}") from None
    if opt.kind is bool:
        if value.lower() not in ("true", "false", "0", "1"):
            raise ConfigError(f"{opt.key} needs true/false, got {value!r}")
        return value.lower() in ("true", "1")
    if opt.kind is tuple:
        return tuple(p.strip() for p in value.split(",") if p.strip())
    return value


def _build_config(command: str, values: dict[str, object]) -> RunConfig:
    """The one path from config keys (file or command line) to a RunConfig."""
    options = {o.key: o for o in COMMANDS[command].options + COMMON}
    fields: dict[str, object] = {"tolerances": {}}
    for key, value in values.items():
        if key.startswith("tol."):
            try:
                fields["tolerances"][key[len("tol."):]] = float(value)
            except ValueError:
                raise ConfigError(f"tolerance {key[len('tol.'):]!r} needs a number, "
                                  f"got {value!r}") from None
        elif key in options:
            fields[options[key].field] = _convert(options[key], value)
        else:
            raise ConfigError(f"unknown key {key!r} for {command} "
                              f"(it takes: {', '.join(options)})")
    act = options.get("action")
    action = fields.get("action", act.default) if act else None
    if act and action in act.choices:  # run() rejects an unknown action
        takes = [o.key for o in options.values() if o.read_by(action)]
        for key in values:
            if key in options and key not in takes:
                raise ConfigError(f"{command} {action} does not read {key!r} "
                                  f"(it takes: {', '.join(takes)})")
    return RunConfig(command=command, **fields)


def parse_config(text: str) -> RunConfig:
    """Parse the line-oriented "key = value" document into a RunConfig."""
    seen: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = value.strip()
    if "command" not in seen:
        raise ConfigError("command required")
    command = seen.pop("command")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    return _build_config(command, seen)


def run(config: RunConfig) -> SolveReport:
    """Check a config against its COMMANDS entry (unset options take the table
    default), run its certificate, write its artifacts and then ``report.csv``,
    or raise the report's ``failure`` in place of the latter.
    """
    entry = COMMANDS.get(config.command)
    if entry is None:
        raise ConfigError(f"unknown command {config.command!r}")
    for name, tol in config.tolerances.items():
        if name not in entry.tolerances:
            raise ConfigError(f"unknown tolerance {name!r} for {config.command} "
                              f"(it takes: {', '.join(entry.tolerances) or 'none'})")
        if not tol > 0:
            raise ConfigError(f"tolerance {name!r} must be positive")
    changes: dict[str, object] = {}
    for opt in entry.options:
        value = getattr(config, opt.field)
        if value is None:
            value = changes[opt.field] = opt.default
        if opt.required and not value:
            raise ConfigError(f"{config.command} needs {opt.key}")
        if opt.choices and value not in opt.choices:
            raise ConfigError(f"unknown {config.command} {opt.key} {value!r}")
    env_seed = os.environ.get("COMMLAB_SEED")
    if env_seed is not None and any(opt.key == "seed" for opt in entry.options):
        try:
            changes["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"COMMLAB_SEED must be an integer, got {env_seed!r}") from None
    cfg = dataclasses.replace(config, tolerances={**entry.tolerances, **config.tolerances},
                              **changes)
    os.makedirs(cfg.output_dir, exist_ok=True)
    if not os.access(cfg.output_dir, os.W_OK):
        raise ConfigError(f"output directory {cfg.output_dir!r} is not writable")
    start = time.perf_counter()
    rep = entry.certify(cfg)
    rep.wall_time = time.perf_counter() - start
    artifacts = [(f"{name}.txt", matio.save_values if m.ndim == 1 else matio.save_matrix, m)
                 for name, m in rep.matrices.items()]
    artifacts += [(f"{name}.csv", matio.atomic_write, matio.format_table(*table))
                  for name, table in rep.tables.items()]
    for name, save, data in artifacts:
        save((name == entry.out and cfg.out) or os.path.join(cfg.output_dir, name), data)
    if rep.failure is not None:
        raise rep.failure
    rows = [(row.name, row.measured, row.tolerance, int(row.passed)) for row in rep.checks]
    matio.atomic_write(cfg.report_path or os.path.join(cfg.output_dir, "report.csv"),
                       matio.format_table(("check_name", "value", "tolerance", "pass"), rows))
    return rep


# ---------------------------------------------------------------------------
# argument parsing

FORMATS = """\
formats:
  matrix file      first line "rows cols"; then rows*cols lines "re im",
                   row-major, 17 significant digits (doubles round-trip
                   bit-exactly)
  value file       one decimal literal per line
  weights/family   powerlog:C,p,q   meaning d_n = C * n^-p * log(n+1)^-q
                   explicit:PATH    terms read from a value file
  config file      line-oriented "key = value"; blank lines and lines
                   starting with '#' are ignored; input takes a comma-
                   separated list; unknown or duplicate keys, and keys or
                   tolerance names the command does not take, are rejected
environment:
  COMMLAB_SEED     overrides minimize's seed; the other commands ignore it
config keys (flag, default) and tol.NAME tolerance names (default):
"""


def _epilog() -> str:
    def describe(opt: Option) -> str:
        flag = " ".join([opt.flag if opt.flag.startswith("-") else "positional",
                         "|".join(opt.choices)])
        default = "" if opt.default in (None, ()) else f", {opt.default}"
        only = f", {'|'.join(opt.actions)} only" if opt.actions else ""
        return f"{opt.key} ({flag.strip()}{default}{only})"

    rows = [("every command", "command, " + ", ".join(map(describe, COMMON))
             + ", tol.NAME (--tol NAME=VALUE)")]
    for name, cmd in COMMANDS.items():
        tols = ", ".join(f"{t} ({v:g})" for t, v in cmd.tolerances.items()) or "none"
        rows.append((name, ", ".join(map(describe, cmd.options)) + f"; tol: {tols}"))
    return FORMATS + "\n".join(
        textwrap.fill(text, 76, initial_indent=f"  {name:<17}", subsequent_indent=" " * 19,
                      break_on_hyphens=False)
        for name, text in rows) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commlab",
        description="Commutator constructions, self-commutator solvers and "
                    "norm-minimum certificates at finite truncation.",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for opt in cmd.options + COMMON:
            kw: dict[str, object] = {"default": argparse.SUPPRESS, "help": opt.help}
            if opt.choices:
                kw["choices"] = opt.choices
            if not opt.flag.startswith("-"):
                p.add_argument(opt.flag, **kw)
                continue
            if opt.kind is bool:
                kw["action"] = "store_true"
            elif opt.kind is tuple:
                kw["nargs"] = "+" if opt.many else 1
            p.add_argument(opt.flag, dest=opt.key, required=opt.required, **kw)
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                       help="tolerance override: " + (", ".join(cmd.tolerances) or "none"))
    p = sub.add_parser("run", help="execute a key = value config file")
    p.add_argument("--config", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    command = args.pop("command")
    try:
        if command == "run":
            try:
                with open(args["config"]) as handle:
                    text = handle.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
            cfg = parse_config(text)
        else:
            for item in args.pop("tol"):
                name, _, value = item.partition("=")
                args[f"tol.{name}"] = value
            cfg = _build_config(command, args)
        rep = run(cfg)
    except (ConfigError, matio.MatrixFormatError, DomainError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    for row in rep.checks:
        status = "PASS" if row.passed else "FAIL"
        print(f"{rep.command}: {row.name} = {row.measured:.6g} "
              f"(tol {row.tolerance:.6g}) {status}")
    print(f"{rep.command}: {'PASS' if rep.passed else 'FAIL'} "
          f"in {rep.wall_time:.3f}s")
    return EXIT_OK if rep.passed else EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
