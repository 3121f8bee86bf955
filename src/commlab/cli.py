"""Command-line front end.

Subcommands mirror the library modules (anderson-verify, staircase,
solve-selfcomm, lie, minimize, seq) and a ``run`` mode executes a plain-text
config.  All artifacts are written atomically; reports are CSV rows
(check_name, value, tolerance, pass).  Exit codes: 0 all checks pass,
2 config/parse problems, 3 tolerance failures, 4 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import anderson, idealseq, liealg, matio, minimize, numkit, selfcomm, staircase
from .numkit import DomainError, NumericError, ShapeError, VerificationError
from .report import SolveReport
from .sequences import PowerLog, WeightSequence

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3
EXIT_NUMERIC = 4

FORMAT_GRAMMARS = """\
formats:
  matrix file      first line "rows cols"; then rows*cols lines "re im",
                   row-major, 17 significant digits (doubles round-trip
                   bit-exactly)
  value file       one decimal literal per line
  weights/family   powerlog:C,p,q   meaning d_n = C * n^-p * log(n+1)^-q
                   explicit:PATH    terms read from a value file
  config file      line-oriented "key = value"; blank lines and lines
                   starting with '#' are ignored; keys: command, seed,
                   output_dir, input, target, out, report, weights,
                   blocks, type, selfadjoint, action, n, family, restarts,
                   max_iters, tol.NAME; unknown or duplicate keys are
                   rejected
environment:
  COMMLAB_SEED     overrides the configured seed
"""


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


_COMMANDS = ("anderson-verify", "staircase", "solve-selfcomm", "lie", "minimize", "seq")
_INT_KEYS = {"seed", "blocks", "n", "restarts", "max_iters"}
_BOOL_KEYS = {"selfadjoint"}
_STR_KEYS = {"command", "output_dir", "input", "target", "out", "report",
             "weights", "type", "action", "family"}


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
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not (key in _INT_KEYS or key in _BOOL_KEYS or key in _STR_KEYS
                or key.startswith("tol.")):
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        seen[key] = value

    if "command" not in seen:
        raise ConfigError("command required")
    command = seen.pop("command")
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")

    cfg = RunConfig(command=command)
    for key, value in seen.items():
        if key.startswith("tol."):
            name = key[len("tol."):]
            try:
                tol = float(value)
            except ValueError:
                raise ConfigError(f"tolerance {key!r} is not a number") from None
            if not tol > 0:
                raise ConfigError(f"tolerance {key!r} must be positive")
            cfg.tolerances[name] = tol
        elif key in _INT_KEYS:
            try:
                num = int(value)
            except ValueError:
                raise ConfigError(f"key {key!r} needs an integer") from None
            setattr(cfg, "rank" if key == "n" else key, num)
        elif key in _BOOL_KEYS:
            if value.lower() not in ("true", "false", "0", "1"):
                raise ConfigError(f"key {key!r} needs true/false")
            setattr(cfg, key, value.lower() in ("true", "1"))
        elif key == "input":
            cfg.inputs = tuple(p.strip() for p in value.split(",") if p.strip())
        elif key == "type":
            cfg.solver_type = value
        elif key == "report":
            cfg.report_path = value
        else:
            setattr(cfg, key, value)
    return cfg


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


def _csv_text(header: tuple[str, ...], rows) -> str:
    def fmt(x) -> str:
        if isinstance(x, float):
            return f"{x:.17g}"
        return str(x)

    lines = [",".join(header)]
    lines.extend(",".join(fmt(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _artifact(cfg: RunConfig, name: str, override: str | None = None) -> str:
    return override if override else os.path.join(cfg.output_dir, name)


def _write_matrix(rep: SolveReport, cfg: RunConfig, name: str, m,
                  override: str | None = None) -> str:
    target = _artifact(cfg, name, override)
    matio.save_matrix(target, m)
    rep.details.setdefault("artifacts", []).append(target)
    return target


def _write_text(rep: SolveReport, cfg: RunConfig, name: str, text: str,
                override: str | None = None) -> str:
    target = _artifact(cfg, name, override)
    matio.atomic_write(target, text)
    rep.details.setdefault("artifacts", []).append(target)
    return target


# ---------------------------------------------------------------------------
# dispatch


def _run_anderson(cfg: RunConfig) -> SolveReport:
    if not cfg.weights:
        raise ConfigError("anderson-verify needs weights")
    weights = parse_weights(cfg.weights, count=cfg.blocks + 1)
    tol = cfg.tolerances.get("verify", numkit.DEFAULT_TOL)
    rep = anderson.verify_positive_commutator(weights, cfg.blocks, tolerance=tol)
    adm = anderson.admissible(weights)
    if adm.admissible is not None:
        rep.check("admissible_growth", 0.0 if adm.admissible else 1.0, 0.5)
    rep.info("tail_max_ratio", adm.tail_max_ratio)
    means = rep.details["block_means"]
    predicted = rep.details["predicted_profile"]
    rows = [
        (k + 1, float(means[k]), float(abs(means[k] - predicted[k])))
        for k in range(len(means))
    ]
    _write_text(rep, cfg, "blocks.csv",
                _csv_text(("block_index", "diagonal_value", "residual"), rows))
    return rep


def _run_staircase(cfg: RunConfig) -> SolveReport:
    if not cfg.inputs:
        raise ConfigError("staircase needs input matrices")
    ops = [matio.load_matrix(p) for p in cfg.inputs]
    tol = cfg.tolerances.get("band", 1e-9)
    result = staircase.staircase_form(ops, selfadjoint_hint=cfg.selfadjoint,
                                      tolerance=tol)
    rep = SolveReport(command="staircase")
    rep.check("unitary_defect", numkit.unitary_defect(result.unitary), 1e-9)
    e1 = np.zeros(result.unitary.shape[0], dtype=np.complex128)
    e1[0] = 1.0
    rep.check("fixes_e1", float(np.abs(result.unitary[:, 0] - e1).max()), 0.0,
              passed=bool((result.unitary[:, 0] == e1).all()))
    ok = staircase.verify_band(result, len(ops), cfg.selfadjoint, tol)
    rep.check("band_bound", 0.0 if ok else 1.0, 0.5)
    _write_matrix(rep, cfg, "unitary.txt", result.unitary)
    factor = staircase.band_bound_factor(len(ops), cfg.selfadjoint)
    for i, (t, profile) in enumerate(zip(result.transformed, result.band_profile)):
        _write_matrix(rep, cfg, f"transformed_{i}.txt", t)
        rows = [(r + 1, int(profile[r]), (r + 1) * factor) for r in range(len(profile))]
        _write_text(rep, cfg, f"band_{i}.csv",
                    _csv_text(("row_index", "max_col", "bound"), rows))
    return rep


def _run_selfcomm(cfg: RunConfig) -> SolveReport:
    if not cfg.inputs:
        raise ConfigError("solve-selfcomm needs an input matrix")
    if cfg.solver_type not in ("A", "C"):
        raise ConfigError("solve-selfcomm needs type A or C")
    t = matio.load_matrix(cfg.inputs[0])
    if cfg.solver_type == "A":
        sol = selfcomm.solve_type_A(t)
        rep = SolveReport(command="solve-selfcomm type=A")
        rep.check("residual", sol.residual, 1e-9 * (1.0 + numkit.hs_norm(t)))
        worst = float(-sol.partial_sums.min()) if sol.partial_sums.size else 0.0
        rep.check("partial_sum_negativity", max(worst, 0.0), 1e-12)
        rep.info("solution_hs_norm", numkit.hs_norm(sol.solution))
        rep.matrices["Y"] = sol.solution
    else:
        if t.shape[0] % 2:
            raise DomainError("type C needs even dimension")
        j = selfcomm.make_anticonjugation(t.shape[0] // 2)
        rep = selfcomm.solve_type_C(t, j)
    _write_matrix(rep, cfg, "Y.txt", rep.matrices["Y"], cfg.out)
    return rep


def _run_lie(cfg: RunConfig) -> SolveReport:
    action = cfg.action or "killing"
    if action == "solve-sl":
        if not cfg.inputs:
            raise ConfigError("lie solve-sl needs an input matrix")
        rep = liealg.solve_sl(matio.load_matrix(cfg.inputs[0]))
        _write_matrix(rep, cfg, "Y.txt", rep.matrices["Y"], cfg.out)
        return rep
    if action not in ("killing", "semisimple"):
        raise ConfigError(f"unknown lie action {action!r}")
    n = cfg.rank
    if n < 2:
        raise ConfigError("lie needs n >= 2")
    basis = liealg.sl_basis(n - 1)
    rep = SolveReport(command=f"lie {action}")
    if action == "killing":
        rng = np.random.default_rng(cfg.seed)
        worst = 0.0
        for _ in range(20):
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            x -= np.trace(x) / n * np.eye(n)
            w -= np.trace(w) / n * np.eye(n)
            lhs = liealg.killing_form(x, w, basis)
            rhs = 2 * n * complex(np.trace(x @ w))
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
        rep.check("killing_vs_closed_form", worst, 1e-9)
    rep.check("semisimple", 0.0 if liealg.is_semisimple(basis) else 1.0, 0.5)
    return rep


def _run_minimize(cfg: RunConfig) -> SolveReport:
    if not cfg.target:
        raise ConfigError("minimize needs a target matrix")
    target = matio.load_matrix(cfg.target)
    mcfg = minimize.MinimizeConfig(
        target=target, restarts=cfg.restarts, max_iters=cfg.max_iters, seed=cfg.seed
    )
    result = minimize.minimize_commutator(mcfg)
    rep = SolveReport(command="minimize")
    rep.check("feasibility", result.feasibility, minimize.FEASIBILITY_TOL)
    rep.info("objective", result.objective)
    rep.info("lower_bound", result.lower_bound)
    rep.check("objective_above_bound",
              max(0.0, result.lower_bound - result.objective), 1e-6,
              passed=(not result.certified)
              or result.objective >= result.lower_bound - 1e-6)
    rows = [
        (t.restart, t.iterations, t.feasibility, t.objective, t.stop_reason,
         int(t.converged))
        for t in result.restarts
    ]
    _write_text(rep, cfg, "restarts.csv",
                _csv_text(("restart", "iters", "feasibility", "objective",
                           "stop_reason", "converged"), rows),
                cfg.out)
    _write_matrix(rep, cfg, "best_a.txt", result.best_a)
    _write_matrix(rep, cfg, "best_b.txt", result.best_b)
    if not result.certified:
        raise NumericError(
            f"no restart reached feasibility {minimize.FEASIBILITY_TOL:g}; "
            f"best non-certified objective {result.objective:.6g}"
        )
    return rep


def _run_seq(cfg: RunConfig) -> SolveReport:
    action = cfg.action or "classify"
    rep = SolveReport(command=f"seq {action}")
    if action == "classify":
        if not cfg.family:
            raise ConfigError("seq classify needs a family")
        verdict = idealseq.classify_hsii(parse_family(cfg.family))
        for name, val in (("in_trace_class", verdict.in_trace_class),
                          ("in_commutator_class", verdict.in_commutator_class)):
            rep.info(name, float("nan") if val is None else float(val))
        for key, val in verdict.diagnostics.items():
            rep.info(f"diag_{key}", float(val))
        return rep
    if action == "mean":
        if not cfg.inputs:
            raise ConfigError("seq mean needs an input value file")
        values = matio.load_values(cfg.inputs[0])
        means = idealseq.arithmetic_mean_sequence(values)
        target = _artifact(cfg, "mean.txt", cfg.out)
        matio.save_values(target, means)
        rep.details.setdefault("artifacts", []).append(target)
        rep.info("terms", float(means.size))
        rep.info("final_mean", float(means[-1]) if means.size else 0.0)
        return rep
    raise ConfigError(f"unknown seq action {action!r}")


_DISPATCH = {
    "anderson-verify": _run_anderson,
    "staircase": _run_staircase,
    "solve-selfcomm": _run_selfcomm,
    "lie": _run_lie,
    "minimize": _run_minimize,
    "seq": _run_seq,
}


def run(config: RunConfig) -> SolveReport:
    """Dispatch a config to its module and write the report CSV."""
    if config.command not in _DISPATCH:
        raise ConfigError(f"unknown command {config.command!r}")
    for tol in config.tolerances.values():
        if not tol > 0:
            raise ConfigError("tolerance overrides must be positive")
    env_seed = os.environ.get("COMMLAB_SEED")
    if env_seed is not None:
        try:
            config.seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"COMMLAB_SEED must be an integer, got {env_seed!r}") from None
    os.makedirs(config.output_dir, exist_ok=True)
    if not os.access(config.output_dir, os.W_OK):
        raise ConfigError(f"output directory {config.output_dir!r} is not writable")
    start = time.perf_counter()
    rep = _DISPATCH[config.command](config)
    if not rep.wall_time:
        rep.wall_time = time.perf_counter() - start
    report_path = _artifact(config, "report.csv", config.report_path)
    matio.atomic_write(report_path, rep.csv_text())
    rep.details.setdefault("artifacts", []).append(report_path)
    return rep


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commlab",
        description="Commutator constructions, self-commutator solvers and "
                    "norm-minimum certificates at finite truncation.",
        epilog=FORMAT_GRAMMARS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out-dir", default=".", help="artifact directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--report", default=None, help="report CSV path")
        p.add_argument("--tol", action="append", default=[],
                       metavar="NAME=VALUE", help="tolerance override")

    p = sub.add_parser("anderson-verify", help="certify [C,Z] for a weight family")
    p.add_argument("--weights", required=True)
    p.add_argument("--blocks", type=int, default=8)
    common(p)

    p = sub.add_parser("staircase", help="simultaneous banded form")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--selfadjoint", action="store_true")
    common(p)

    p = sub.add_parser("solve-selfcomm", help="solve [Y*,Y] = T")
    p.add_argument("--type", choices=("A", "C"), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None, help="solution matrix path")
    common(p)

    p = sub.add_parser("lie", help="Killing form / semisimplicity / sl solver")
    p.add_argument("action", choices=("killing", "semisimple", "solve-sl"))
    p.add_argument("--n", type=int, default=3, help="matrix size for sl(n)")
    p.add_argument("--input", default=None)
    p.add_argument("--out", default=None)
    common(p)

    p = sub.add_parser("minimize", help="penalty search for the norm minimum")
    p.add_argument("--target", required=True)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--max-iters", type=int, default=20000)
    p.add_argument("--out", default=None, help="restart CSV path")
    common(p)

    p = sub.add_parser("seq", help="sequence classifiers")
    p.add_argument("action", choices=("classify", "mean"))
    p.add_argument("--family", default=None)
    p.add_argument("--input", default=None)
    p.add_argument("--out", default=None)
    common(p)

    p = sub.add_parser("run", help="execute a key = value config file")
    p.add_argument("--config", required=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    cfg.output_dir = getattr(args, "out_dir", ".")
    cfg.seed = getattr(args, "seed", 0)
    cfg.report_path = getattr(args, "report", None)
    for item in getattr(args, "tol", []):
        name, _, value = item.partition("=")
        try:
            tol = float(value)
        except ValueError:
            raise ConfigError(f"bad tolerance override {item!r}") from None
        if not tol > 0:
            raise ConfigError(f"tolerance override {item!r} must be positive")
        cfg.tolerances[name] = tol
    if args.command == "anderson-verify":
        cfg.weights = args.weights
        cfg.blocks = args.blocks
    elif args.command == "staircase":
        cfg.inputs = tuple(args.input)
        cfg.selfadjoint = args.selfadjoint
    elif args.command == "solve-selfcomm":
        cfg.inputs = (args.input,)
        cfg.solver_type = args.type
        cfg.out = args.out
    elif args.command == "lie":
        cfg.action = args.action
        cfg.rank = args.n
        cfg.inputs = (args.input,) if args.input else ()
        cfg.out = args.out
    elif args.command == "minimize":
        cfg.target = args.target
        cfg.restarts = args.restarts
        cfg.max_iters = args.max_iters
        cfg.out = args.out
    elif args.command == "seq":
        cfg.action = args.action
        cfg.family = args.family
        cfg.inputs = (args.input,) if args.input else ()
        cfg.out = args.out
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            try:
                with open(args.config) as handle:
                    text = handle.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
            cfg = parse_config(text)
        else:
            cfg = _config_from_args(args)
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
