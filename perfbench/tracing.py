"""Outside-in tracing: wrap commlab's public functions by module attribute.

Replacing ``module.name`` catches calls made through the module (``cli`` ->
``anderson.verify_positive_commutator``) and calls inside the module that go
through its globals (``anderson`` -> ``assemble``).  Each call records a span
(name, start, end, parent, job) in memory; self time is a span's duration
minus the time its direct children cover.  Exact work counts (flops, bytes,
offers, iterations, dense dimensions) are recorded at the same boundaries.
Nothing under ``src/commlab`` changes.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np

# (module, function) pairs wrapped in a traced run; names read <module>.<function>.
TRACED = {
    "numkit": ("commutator", "hs_norm", "hermitian_eigen", "project_residual",
               "unitary_defect", "self_commutator"),
    "anderson": ("verify_positive_commutator", "assemble", "build_modified"),
    "minimize": ("penalty_gradient", "minimize_commutator"),
    "matio": ("load_matrix", "save_matrix", "atomic_write", "load_values", "save_values"),
    "staircase": ("staircase_form", "verify_band"),
    "selfcomm": ("solve_type_A", "solve_type_C", "spectral_pairing"),
    "liealg": ("is_semisimple", "sl_basis", "solve_sl"),
    "idealseq": ("classify_hsii",),
    "cli": ("run",),
}

#: Work counts that repeat exactly for a fixed seed (unit, meaning).
EXACT_COUNTS = {
    "numkit.commutator.flops": ("flop", "16 n^3 per commutator call, computed from shapes"),
    "matio.bytes_read": ("B", "sizes of files passed to load_matrix/load_values"),
    "matio.bytes_written": ("B", "sizes of files after atomic_write"),
    "minimize.iterations": ("count", "sum of iters over restarts.csv"),
    "staircase.offers": ("count", "project_residual calls inside staircase_form"),
    "anderson.dense_dim": ("count", "sum of dense dimensions (m+1)(m+2)/2 of [C, Z]"),
}


class Tracer:
    """Span recorder; ``install`` patches modules, ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, job]
        self.counts: dict[str, int] = defaultdict(int)
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, modules: dict[str, object]) -> None:
        for mod_name, functions in TRACED.items():
            module = modules[mod_name]
            for fn_name in functions:
                original = getattr(module, fn_name)
                self._saved.append((module, fn_name, original))
                setattr(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", original))

    def uninstall(self) -> None:
        while self._saved:
            module, fn_name, original = self._saved.pop()
            setattr(module, fn_name, original)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(counts, args, kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(counts, args, kwargs, result)
            return result
        return traced

    def drain(self) -> tuple[list[list], dict[str, int]]:
        """Hand over the recorded spans and counts and start afresh."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_flops(counts, args, kwargs):
    n = np.shape(_arg(args, kwargs, 0, "a"))[0]
    counts["numkit.commutator.flops"] += 16 * n ** 3


def _count_read(counts, args, kwargs):
    counts["matio.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_written(counts, args, kwargs, result):
    counts["matio.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_dense_dim(counts, args, kwargs):
    m = _arg(args, kwargs, 1, "block_count")
    counts["anderson.dense_dim"] += (m + 1) * (m + 2) // 2


def _count_restarts(counts, args, kwargs, result):
    counts["minimize.restarts"] += len(result.restarts)
    counts["minimize.converged"] += sum(t.converged for t in result.restarts)


_BEFORE = {
    "numkit.commutator": _count_flops,
    "matio.load_matrix": _count_read,
    "matio.load_values": _count_read,
    "anderson.verify_positive_commutator": _count_dense_dim,
}
_AFTER = {
    "matio.atomic_write": _count_written,
    "minimize.minimize_commutator": _count_restarts,
}


def self_times(spans: list[list]) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = np.array([s[2] - s[1] for s in spans])
    covered = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            covered[s[3]] += d
    return dur - covered


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per function: calls and summed self time."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for s, own in zip(spans, self_times(spans)):
        out[s[0]]["calls"] += 1
        out[s[0]]["self_s"] += own
    return out


def child_calls(spans: list[list], child: str, parent: str) -> int:
    """Number of ``child`` spans whose direct parent is a ``parent`` span."""
    return sum(1 for s in spans if s[0] == child and s[3] >= 0 and spans[s[3]][0] == parent)


def write_spans(path: str, spans: list[list]) -> None:
    """Spans as CSV: name, start, end and parent (row index), job."""
    own = self_times(spans)
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as handle:
        handle.write("span,name,start_s,end_s,parent,job,self_s\n")
        for i, (s, o) in enumerate(zip(spans, own)):
            handle.write(f"{i},{s[0]},{s[1] - t0:.9f},{s[2] - t0:.9f},{s[3]},{s[4]},{o:.9f}\n")
