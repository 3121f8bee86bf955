"""Sequence-level ideal membership classifiers.

Analytic summability tests for the closed-form power-log family (plain and
log-weighted, by the integral test), partial-sum diagnostics for explicit
term lists, and decreasing-moduli running means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .report import SolveReport
from .sequences import PowerLog

#: Accepted by :func:`classify_hsii`: a PowerLog family or explicit terms.
SequenceFamily = PowerLog | Sequence[float] | np.ndarray


@dataclass
class HsiiClassification:
    """Verdicts are None when no finite prefix can decide them."""

    in_trace_class: bool | None
    in_commutator_class: bool | None
    diagnostics: dict = field(default_factory=dict)


def _partial_sum_diagnostics(d: np.ndarray) -> dict:
    n = np.arange(1, d.size + 1, dtype=np.float64)
    sums = np.cumsum(d)
    log_sums = np.cumsum(d * np.log(n))
    lo = d.size // 2
    # Least-squares growth rates of the partial sums against log and log^2
    # models over the tail; reported, never asserted.
    def slope(model: np.ndarray) -> float:
        x = model[lo:] - model[lo:].mean()
        y = sums[lo:] - sums[lo:].mean()
        denom = float(x @ x)
        return float(x @ y) / denom if denom > 0 else 0.0

    logs = np.log(n)
    return {
        "terms": int(d.size),
        "partial_sum": float(sums[-1]),
        "log_weighted_partial_sum": float(log_sums[-1]),
        "last_term": float(d[-1]),
        "log_slope": slope(logs),
        "log2_slope": slope(logs**2),
    }


def classify_hsii(family: SequenceFamily, horizon: int = 4096) -> HsiiClassification:
    """Trace-class and log-weighted summability verdicts.

    For a PowerLog family both answers are analytic (integral test); the
    log-weighted sum is the stricter requirement, so membership there
    implies plain summability.  Explicit term lists are indeterminate by
    design and get partial-sum diagnostics only.
    """
    if isinstance(family, PowerLog):
        d = family.terms(horizon)
        return HsiiClassification(
            in_trace_class=family.is_summable(),
            in_commutator_class=family.is_log_weighted_summable(),
            diagnostics=_partial_sum_diagnostics(d),
        )
    d = np.asarray(family, dtype=np.float64).reshape(-1)
    if d.size == 0:
        return HsiiClassification(None, None, {"terms": 0})
    return HsiiClassification(
        in_trace_class=None,
        in_commutator_class=None,
        diagnostics=_partial_sum_diagnostics(d),
    )


def arithmetic_mean_sequence(values: Sequence[float]) -> np.ndarray:
    """Running means after re-sorting by decreasing modulus.

    The ordering is enforced (stable on ties, original index ascending); the
    k-th output is the mean of the first k re-sorted terms.
    """
    lam = np.asarray(values, dtype=np.float64).reshape(-1)
    if lam.size == 0:
        return lam.copy()
    order = np.argsort(-np.abs(lam), kind="stable")
    arranged = lam[order]
    return np.cumsum(arranged) / np.arange(1, lam.size + 1, dtype=np.float64)


def certify_family(family: SequenceFamily) -> SolveReport:
    """The ``seq classify`` certificate: :func:`classify_hsii` as
    informational rows, an undecided verdict as NaN, then each diagnostic
    as ``diag_<key>``."""
    verdict = classify_hsii(family)
    rep = SolveReport(command="seq classify")
    for name, val in (("in_trace_class", verdict.in_trace_class),
                      ("in_commutator_class", verdict.in_commutator_class)):
        rep.info(name, float("nan") if val is None else float(val))
    for key, val in verdict.diagnostics.items():
        rep.info(f"diag_{key}", float(val))
    return rep


def certify_mean(values: Sequence[float]) -> SolveReport:
    """The ``seq mean`` certificate: the running means, written as ``mean``,
    with their count and last value as informational rows."""
    means = arithmetic_mean_sequence(values)
    rep = SolveReport(command="seq mean")
    rep.matrices["mean"] = means
    rep.info("terms", float(means.size))
    rep.info("final_mean", float(means[-1]) if means.size else 0.0)
    return rep
