"""Real sequence families: a closed-form power-log family plus explicit
prefixes, shared by the block construction and the summability classifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import DomainError


@dataclass(frozen=True)
class PowerLog:
    """Closed form d_n = coeff * n**power * log(n+1)**log_power, n >= 1.

    ``log(n+1)`` rather than ``log n`` keeps the n = 1 term finite and
    nonzero for negative log exponents.  Exponents are signed: growing
    families take positive ``power``, decaying ones negative.
    """

    coeff: float
    power: float = 0.0
    log_power: float = 0.0

    def __post_init__(self):
        if not (self.coeff >= 0.0):
            raise DomainError("PowerLog coefficient must be nonnegative")

    def terms(self, count: int) -> np.ndarray:
        """d_1..d_count; extreme exponents give inf or nan, which
        :class:`WeightSequence` rejects with a DomainError."""
        n = np.arange(1, count + 1, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            return self.coeff * n ** self.power * np.log(n + 1.0) ** self.log_power

    # Analytic facts, all by the integral test.

    def is_summable(self) -> bool:
        """Whether sum d_n converges."""
        if self.coeff == 0.0:
            return True
        return self.power < -1.0 or (self.power == -1.0 and self.log_power < -1.0)

    def is_log_weighted_summable(self) -> bool:
        """Whether sum d_n * log(n) converges."""
        if self.coeff == 0.0:
            return True
        return self.power < -1.0 or (self.power == -1.0 and self.log_power < -2.0)

    def ratio_to_index_vanishes(self) -> bool:
        """Whether d_n / n -> 0."""
        if self.coeff == 0.0:
            return True
        return self.power < 1.0 or (self.power == 1.0 and self.log_power < 0.0)


@dataclass(frozen=True)
class WeightSequence:
    """A weight family plus a materialized finite prefix d_1..d_N.

    ``family`` is None for purely explicit data.
    """

    family: PowerLog | None
    prefix: tuple[float, ...]

    def __post_init__(self):
        self._checked(np.asarray(self.prefix, dtype=np.float64))

    @staticmethod
    def _checked(arr: np.ndarray) -> np.ndarray:
        if not np.isfinite(arr).all():
            raise DomainError("weight sequence contains non-finite values")
        return arr

    @classmethod
    def powerlog(cls, coeff: float, power: float = 0.0, log_power: float = 0.0,
                 count: int = 64) -> "WeightSequence":
        fam = PowerLog(coeff, power, log_power)
        return cls(family=fam, prefix=tuple(fam.terms(count)))

    @classmethod
    def explicit(cls, values) -> "WeightSequence":
        vals = tuple(float(x) for x in np.asarray(values, dtype=np.float64).reshape(-1))
        return cls(family=None, prefix=vals)

    def values(self, count: int) -> np.ndarray:
        """First ``count`` terms, extending the closed form when available.

        An extension gets the prefix's check: non-finite terms raise
        DomainError.
        """
        if count <= len(self.prefix):
            return np.asarray(self.prefix[:count], dtype=np.float64)
        if self.family is None:
            raise DomainError(
                f"explicit prefix has {len(self.prefix)} terms, {count} required"
            )
        return self._checked(self.family.terms(count))
