"""The result contract of every certificate: check rows plus the artifacts
the CLI writes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Tolerance used for purely informational rows (always passing).
INFORMATIONAL = float("inf")


@dataclass(frozen=True)
class CheckRow:
    name: str
    measured: float
    tolerance: float
    passed: bool


@dataclass
class SolveReport:
    """Named checks, artifacts and metadata of one certificate.

    ``matrices`` are written as ``<name>.txt`` (a 1-d array as a value file)
    and ``tables``, (header, rows) pairs, as ``<name>.csv``.  ``failure`` is
    raised once the artifacts are written, in place of ``report.csv``.
    """

    command: str
    checks: list[CheckRow] = field(default_factory=list)
    matrices: dict[str, np.ndarray] = field(default_factory=dict)
    tables: dict[str, tuple[tuple[str, ...], list[tuple]]] = field(default_factory=dict)
    details: dict[str, object] = field(default_factory=dict)
    wall_time: float = 0.0
    failure: Exception | None = None

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.checks)

    def check(self, name: str, measured: float, tolerance: float,
              passed: bool | None = None) -> CheckRow:
        """Append a row; by default it passes when measured <= tolerance."""
        measured = float(measured)
        tolerance = float(tolerance)
        if passed is None:
            passed = measured <= tolerance
        row = CheckRow(name, measured, tolerance, bool(passed))
        self.checks.append(row)
        return row

    def info(self, name: str, measured: float) -> CheckRow:
        """Append an informational (always passing) row."""
        return self.check(name, measured, INFORMATIONAL, passed=True)
