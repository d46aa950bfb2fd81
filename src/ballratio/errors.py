"""Exception taxonomy shared by every ballratio module."""


class BallRatioError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BallRatioError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NonConvergenceError(BallRatioError, RuntimeError):
    """A tolerance-mode truncation hit its term budget before the tail
    bound dropped below the requested tolerance.

    Carries the partial value of what was asked for (v_n's for v_product, not
    the joint factor's), the tail bound at the cutoff (log-scale for the
    products) and the number of terms consumed.
    """

    def __init__(self, message: str, partial: float, tail_bound: float, terms: int):
        super().__init__(
            f"{message} (partial={partial!r}, tail_bound={tail_bound!r}, terms={terms})"
        )
        self.partial = partial
        self.tail_bound = tail_bound
        self.terms = terms
