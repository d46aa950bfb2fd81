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


def _shown(value) -> str:
    """repr(value), or its type alone for a number past int's str digit limit."""
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__} past the digit limit"


@dataclass(frozen=True)
class TruncationControl:
    m: int = 0  # fixed mode takes m >= 1 terms; tolerance mode leaves it 0
    eps: float = DEFAULT_EPS
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self) -> None:
        """Every check, the classmethods' too; m and max_terms are kept as ints,
        eps as a float."""
        for name, least in (("m", 0), ("max_terms", 1)):
            value = getattr(self, name)
            try:
                whole = int(value)
            except (TypeError, ValueError, OverflowError):  # nan, inf, not a number
                whole = None
            if whole is None or whole != value or whole < least:
                raise DomainError(f"{name} must be a whole number >= {least}, "
                                  f"got {_shown(value)}")
            object.__setattr__(self, name, whole)
        try:
            eps = float(self.eps)
        except (TypeError, ValueError, OverflowError) as exc:  # not a number, beyond a double
            raise DomainError(f"tolerance must be a positive double: {exc}") from None
        if not eps > 0:
            raise DomainError(f"tolerance must be positive, got {eps}")
        object.__setattr__(self, "eps", eps)

    @classmethod
    def fixed(cls, m: int) -> "TruncationControl":
        ctrl = cls(m=m)
        if not ctrl.is_fixed:
            raise DomainError(f"fixed truncation needs m >= 1, got {m}")
        return ctrl

    @classmethod
    def tolerance(cls, eps: float = DEFAULT_EPS,
                  max_terms: int = DEFAULT_MAX_TERMS) -> "TruncationControl":
        return cls(eps=eps, max_terms=max_terms)

    @property
    def is_fixed(self) -> bool:
        return self.m > 0
