"""Truncation policies for infinite products and series.

A TruncationControl either fixes the number of leading terms outright or
names a tail tolerance: the consumer must stop at the first index whose
certified tail bound is below the tolerance, and must report
non-convergence if that needs more than max_terms terms. Every consumer
applies this rule through one helper, `gautschi._cutoff`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

DEFAULT_EPS = 1e-6
DEFAULT_MAX_TERMS = 10**8


@dataclass(frozen=True)
class TruncationControl:
    m: int = 0  # fixed mode takes m >= 1 terms; tolerance mode leaves it 0
    eps: float = DEFAULT_EPS
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self) -> None:
        """Every check, the classmethods' too; m and max_terms are kept as ints."""
        for name, least in (("m", 0), ("max_terms", 1)):
            value = getattr(self, name)
            try:
                whole = int(value)
            except (TypeError, ValueError, OverflowError):  # nan, inf, not a number
                whole = None
            if whole is None or whole != value or whole < least:
                raise DomainError(f"{name} must be a whole number >= {least}, got {value!r}")
            object.__setattr__(self, name, whole)
        if not self.eps > 0:
            raise DomainError(f"tolerance must be positive, got {self.eps}")

    @classmethod
    def fixed(cls, m: int) -> "TruncationControl":
        ctrl = cls(m=m)
        if not ctrl.is_fixed:
            raise DomainError(f"fixed truncation needs m >= 1, got {m}")
        return ctrl

    @classmethod
    def tolerance(cls, eps: float = DEFAULT_EPS,
                  max_terms: int = DEFAULT_MAX_TERMS) -> "TruncationControl":
        return cls(eps=float(eps), max_terms=max_terms)

    @property
    def is_fixed(self) -> bool:
        return self.m > 0
