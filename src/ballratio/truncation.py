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

    @classmethod
    def fixed(cls, m: int) -> "TruncationControl":
        if m < 1:
            raise DomainError(f"fixed truncation needs m >= 1, got {m}")
        return cls(m=int(m))

    @classmethod
    def tolerance(
        cls, eps: float = DEFAULT_EPS, max_terms: int = DEFAULT_MAX_TERMS
    ) -> "TruncationControl":
        if not eps > 0:
            raise DomainError(f"tolerance must be positive, got {eps}")
        if max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {max_terms}")
        return cls(eps=float(eps), max_terms=int(max_terms))

    @property
    def is_fixed(self) -> bool:
        return self.m > 0
