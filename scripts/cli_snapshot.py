"""Run every commlab subcommand on fixed inputs and keep all artifacts.

Covers anderson-verify (with one case large enough to span several of the
verifier's chunks), staircase (plain and self-adjoint), solve-selfcomm
(types A and C, and type C on a low-rank input with a 12-dimensional
kernel), every lie action, minimize (to convergence and out of budget
mid-stage), every seq action and two ``run --config`` jobs (one exits 2 on
a seed that ``lie`` does not read), each with a fixed seed, into one
directory per case.  Cases that fail on purpose (an unreachable tolerance,
a search out of budget) keep what they leave on disk, and
``--out``/``--report`` redirects are covered.  Two checkouts can
be compared file by file:

    PYTHONPATH=src python scripts/cli_snapshot.py --out-dir ../snap_a
    (in the other checkout) PYTHONPATH=src python scripts/cli_snapshot.py --out-dir ../snap_b
    diff -r ../snap_a ../snap_b    # or cmp file by file

The inputs are written under ``inputs/`` by this script rather than by
``commlab.matio``, so they do not depend on the checkout being compared.
The config files name absolute paths, so they go to a temporary directory
outside the snapshot.  The exit status is the worst exit code of the cases.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import numpy as np

from commlab.cli import main


def write_matrix(path: str, m: np.ndarray) -> str:
    m = np.asarray(m, dtype=np.complex128)
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    lines.extend(f"{z.real:.17g} {z.imag:.17g}" for z in m.reshape(-1))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


def write_values(path: str, values) -> str:
    with open(path, "w") as handle:
        handle.write("\n".join(f"{x:.17g}" for x in values) + "\n")
    return path


def hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def inputs(root: str) -> dict[str, str]:
    os.makedirs(root, exist_ok=True)
    rng = np.random.default_rng(20261018)
    t = hermitian(rng, 12)
    t -= np.trace(t) / 12 * np.eye(12)
    s = np.block([[np.zeros((5, 5)), np.eye(5)], [-np.eye(5), np.zeros((5, 5))]])
    h = hermitian(rng, 10)
    sp = (h + s @ h.T @ s) / 2.0
    general = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    p = os.path.join
    files = {
        "T": write_matrix(p(root, "T.txt"), t),
        "C": write_matrix(p(root, "C.txt"), sp),
        "H0": write_matrix(p(root, "H0.txt"), hermitian(rng, 9)),
        "H1": write_matrix(p(root, "H1.txt"), hermitian(rng, 9)),
        "G": write_matrix(p(root, "G.txt"), general),
        "target": write_matrix(p(root, "target.txt"), np.diag([-1.0, 0.5, 0.5])),
        "values": write_values(p(root, "values.txt"), rng.standard_normal(40)),
        "weights": write_values(p(root, "weights.txt"), np.sqrt(np.arange(1.0, 12.0))),
    }
    # Rank 4 in sp on C^16: the sp average of a rank-2 Hermitian G G*.
    g = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
    s16 = np.block([[np.zeros((8, 8)), np.eye(8)], [-np.eye(8), np.zeros((8, 8))]])
    low = g @ g.conj().T
    files["K"] = write_matrix(p(root, "K.txt"), (low + s16 @ low.T @ s16) / 2.0)
    # Partial sums -5e-11 and -1e-10: inside the trace test's slack.
    files["slack"] = write_matrix(p(root, "slack.txt"), np.diag([-5e-11, -5e-11]))
    return files


def write_configs(tmp: str, f: dict[str, str], out: str) -> None:
    """The ``run --config`` jobs, each naming its own output directory."""
    bodies = {
        "config": "# type C through a config file\ncommand = solve-selfcomm\n"
                  f"type = C\ninput = {f['C']}\n",
        # lie reads no seed: exit 2 before any file is written.
        "config-lie-seed": "command = lie\naction = killing\nseed = 5\n",
    }
    for name, body in bodies.items():
        f[name] = os.path.join(tmp, f"{name}.cfg")
        with open(f[name], "w") as handle:
            handle.write(body + f"output_dir = {os.path.join(out, 'run-' + name)}\n")


def cases(f: dict[str, str], out: str) -> dict[str, list[str]]:
    """argv of each case; ``out`` is the root the case directories go under."""
    return {
        "anderson": ["anderson-verify", "--weights", "powerlog:1,-0.5,0",
                     "--blocks", "9", "--tol", "verify=1e-9"],
        "anderson-explicit": ["anderson-verify", "--weights", f"explicit:{f['weights']}",
                              "--blocks", "6"],
        # Enough blocks that the verifier works through several chunks.
        "anderson-multichunk": ["anderson-verify", "--weights", "powerlog:1,0,-1",
                                "--blocks", "600"],
        # Exit 3 before any artifact is written.
        "anderson-tolerance": ["anderson-verify", "--weights", "powerlog:1,-0.5,0",
                               "--blocks", "6", "--tol", "verify=1e-30"],
        "staircase": ["staircase", "--input", f["G"], f["H0"]],
        "staircase-sa": ["staircase", "--input", f["H0"], f["H1"], "--selfadjoint",
                         "--tol", "band=1e-8",
                         "--report", os.path.join(out, "staircase-sa", "checks.csv")],
        "selfcomm-A": ["solve-selfcomm", "--type", "A", "--input", f["T"],
                       "--out", os.path.join(out, "selfcomm-A", "solution.txt")],
        "selfcomm-C": ["solve-selfcomm", "--type", "C", "--input", f["C"]],
        "selfcomm-C-kernel": ["solve-selfcomm", "--type", "C", "--input", f["K"]],
        "lie-killing": ["lie", "killing", "--n", "4",
                        "--report", os.path.join(out, "lie-killing", "killing.csv")],
        "lie-semisimple": ["lie", "semisimple", "--n", "3"],
        "lie-solve-sl": ["lie", "solve-sl", "--input", f["T"]],
        "lie-solve-sl-slack": ["lie", "solve-sl", "--input", f["slack"]],
        "minimize": ["minimize", "--target", f["target"], "--restarts", "6",
                     "--max-iters", "4000", "--seed", "3"],
        # Restarts that run out of budget mid-stage.
        "minimize-budget": ["minimize", "--target", f["target"], "--restarts", "5",
                            "--max-iters", "30"],
        "seq-classify": ["seq", "classify", "--family", "powerlog:1,1,2"],
        "seq-mean": ["seq", "mean", "--input", f["values"],
                     "--out", os.path.join(out, "seq-mean", "means.txt")],
        "run-config": ["run", "--config", f["config"]],
        "run-config-lie-seed": ["run", "--config", f["config-lie-seed"]],
    }


def snapshot(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    files = inputs(os.path.join(args.out_dir, "inputs"))
    worst = 0
    with tempfile.TemporaryDirectory() as tmp:
        write_configs(tmp, files, args.out_dir)
        for name, case in cases(files, args.out_dir).items():
            if case[0] != "run":
                case = [*case, "--out-dir", os.path.join(args.out_dir, name)]
            code = main(case)
            print(f"{name}: exit {code}")
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(snapshot())
