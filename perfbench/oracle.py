"""Output oracles that do not use the code under test.

Each check reads a job's artifacts back from disk with a plain reader and
re-derives the certificate with plain numpy from the inputs the benchmark
generated.  A miss raises ``OracleError``; the runner counts it as a failed
job.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np


class OracleError(AssertionError):
    """An artifact does not carry the certificate its job claims."""


def read_matrix(path: str) -> np.ndarray:
    """Parse a ``rows cols`` / ``re im`` matrix file."""
    with open(path) as handle:
        tokens = handle.read().split()
    rows, cols = int(tokens[0]), int(tokens[1])
    vals = np.array(tokens[2:], dtype=np.float64)
    if vals.size != 2 * rows * cols:
        raise OracleError(f"{path}: {vals.size // 2} entries for a {rows}x{cols} matrix")
    return (vals[0::2] + 1j * vals[1::2]).reshape(rows, cols)


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def report_rows(out: str) -> dict[str, tuple[float, bool]]:
    """``report.csv`` as {check_name: (value, passed)}; every row must pass."""
    rows = {r["check_name"]: (float(r["value"]), r["pass"] == "1")
            for r in read_csv(os.path.join(out, "report.csv"))}
    failed = [name for name, (_, ok) in rows.items() if not ok]
    if failed:
        raise OracleError(f"report.csv rows failed: {failed}")
    return rows


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


def fro(m: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(m) ** 2)))


def symplectic_form(m: int) -> np.ndarray:
    """S = [[0, I], [-I, 0]]; X is in sp(2m) exactly when X = S X^T S."""
    eye = np.eye(m)
    zero = np.zeros((m, m))
    return np.block([[zero, eye], [-eye, zero]])


def check_anderson(out: str, params: tuple[float, float, float], blocks: int) -> None:
    """Interior block diagonals equal (d_k - d_{k-1})/k, d_n = C n^-p log(n+1)^-q."""
    report_rows(out)
    c, p, q = params
    n = np.arange(1, blocks + 2, dtype=np.float64)
    d = c * n ** (-p) * np.log(n + 1.0) ** (-q)
    predicted = np.concatenate([[d[0]], np.diff(d) / n[1:]])
    rows = read_csv(os.path.join(out, "blocks.csv"))
    _require(len(rows) == blocks + 1, f"blocks.csv has {len(rows)} rows, want {blocks + 1}")
    measured = np.array([float(r["diagonal_value"]) for r in rows])
    interior = slice(0, blocks - 1)   # the last two block rows are truncation boundary
    dev = float(np.abs(measured[interior] - predicted[interior]).max())
    _require(dev <= 1e-9, f"interior diagonal deviates from the telescoped profile by {dev:.3e}")


def check_self_commutator(out: str, t: np.ndarray, rtol: float) -> np.ndarray:
    """||[Y*, Y] - T||_F <= rtol (1 + ||T||_F) for the Y.txt artifact."""
    report_rows(out)
    y = read_matrix(os.path.join(out, "Y.txt"))
    _require(y.shape == t.shape, f"Y has shape {y.shape}, want {t.shape}")
    yh = y.conj().T
    res = fro(yh @ y - y @ yh - t)
    bound = rtol * (1.0 + fro(t))
    _require(res <= bound, f"self-commutator residual {res:.3e} > {bound:.3e}")
    return y


def check_type_c(out: str, t: np.ndarray) -> None:
    y = check_self_commutator(out, t, 1e-8)
    s = symplectic_form(t.shape[0] // 2)
    defect = fro(y - s @ y.T @ s)
    _require(defect <= 1e-8 * (1.0 + fro(y)), f"Y leaves sp by {defect:.3e}")


def check_staircase(out: str, ops: list[np.ndarray], selfadjoint: bool) -> None:
    """U fixes e_1, is unitary, and every U* A U sits in the staircase band."""
    report_rows(out)
    u = read_matrix(os.path.join(out, "unitary.txt"))
    dim = ops[0].shape[0]
    e1 = np.zeros(dim)
    e1[0] = 1.0
    _require(np.array_equal(u[:, 0], e1), "U does not fix e_1")
    defect = fro(u.conj().T @ u - np.eye(dim))
    _require(defect <= 1e-9, f"unitary defect {defect:.3e}")
    factor = len(ops) + 1 if selfadjoint else 2 * len(ops) + 1
    idx = np.arange(1, dim + 1)
    outside = ~((idx[None, :] <= factor * idx[:, None]) & (idx[:, None] <= factor * idx[None, :]))
    for i, a in enumerate(ops):
        t = read_matrix(os.path.join(out, f"transformed_{i}.txt"))
        drift = fro(t - u.conj().T @ a @ u)
        _require(drift <= 1e-9 * (1.0 + fro(a)), f"transformed_{i} is not U* A U ({drift:.3e})")
        spill = float(np.abs(t[outside]).max()) if outside.any() else 0.0
        _require(spill <= 1e-9, f"transformed_{i} leaves the n({factor}) band by {spill:.3e}")


def check_minimize(out: str, target: np.ndarray, minimum: float) -> None:
    """Certified pair, objective in the acceptance window, above the bound."""
    rows = report_rows(out)
    a = read_matrix(os.path.join(out, "best_a.txt"))
    b = read_matrix(os.path.join(out, "best_b.txt"))
    feas = fro(a @ b - b @ a - target)
    _require(feas <= 1e-6, f"best pair is not feasible: {feas:.3e}")
    objective = fro(a)
    _require(abs(objective - rows["objective"][0]) <= 1e-12 * (1.0 + objective),
             "reported objective differs from ||best_a||_F")
    _require(minimum - 1e-3 <= objective <= minimum + 1e-2,
             f"objective {objective:.6f} outside the window around {minimum:.6f}")
    bound = math.sqrt(float(np.linalg.svd(target, compute_uv=False).sum()) / 2.0)
    _require(objective >= bound - 1e-6, f"objective {objective:.6f} below the bound {bound:.6f}")


def check_semisimple(out: str) -> None:
    rows = report_rows(out)
    _require(rows["semisimple"][0] == 0.0, "sl(n) reported as not semisimple")


def check_classify(out: str, p: float, q: float) -> None:
    """Integral test for d_n = n^-p log(n+1)^-q, with and without a log weight."""
    rows = report_rows(out)
    trace_class = p > 1.0 or (p == 1.0 and q > 1.0)
    commutator_class = p > 1.0 or (p == 1.0 and q > 2.0)
    _require(rows["in_trace_class"][0] == float(trace_class), "wrong trace-class verdict")
    _require(rows["in_commutator_class"][0] == float(commutator_class),
             "wrong log-weighted verdict")


def check_mean(out: str, values: np.ndarray) -> None:
    """Running means after a stable sort by decreasing modulus."""
    report_rows(out)
    arranged = values[np.argsort(-np.abs(values), kind="stable")]
    expected = np.cumsum(arranged) / np.arange(1, values.size + 1)
    with open(os.path.join(out, "mean.txt")) as handle:
        got = np.array(handle.read().split(), dtype=np.float64)
    _require(got.shape == expected.shape, f"mean.txt has {got.size} terms, want {expected.size}")
    dev = float(np.abs(got - expected).max())
    _require(dev <= 1e-12 * (1.0 + float(np.abs(values).max())), f"running means off by {dev:.3e}")
