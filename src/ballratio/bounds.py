"""Catalog of lower/upper bounds for v_n and w_n, evaluable at any valid n.

Every bound family gets a stable kebab-case token (the CLI contract), a
side, a target sequence, a minimum dimension, an attribution string, and
its formula. Parameterized families (product truncates and their
exponential refinements) additionally carry a truncation order m, from 1
to _MAX_ORDER = 1000; a larger m is refused with DomainError.

Each formula is written once, as a function (B, N, n, m) of a backend B,
the dimension as the backend's number N and as the int n, and the order m.
Rational prefactors are integer pairs (numerator, denominator), built in
one small-int loop; digamma and trigamma are taken at half-integers x,
each given as the int t = 2x. Three backends run the formulas:

- FLOAT (eval_bound): doubles at one n. Each pair is rounded by a single
  correctly rounded division, and psi_slope, psi_alpha and trigamma are
  specfun's kernel functions, which read its t-keyed integer kernels at
  their points, values in units of 2^-128 rounded once, arranged so that
  gamma and log-4 contributions cancel exactly where they should.
- the shared column backend (_sharing): FLOAT on a block of n at once, N
  a column of doubles and n one of ints. A column applies + - * / **
  elementwise through the operator builtins and every function of FLOAT
  through map, so each element goes through the very operation FLOAT does
  at its n, in the same order, and every double is kept bit for bit; the
  loops run in C, so a block costs one formula call per bound, not one per
  (bound, n). Every bound runs on the whole block (its readers mask the n
  below its min_n). The m-truncates f, sigma, s and w extend one another,
  one factor or one summand per order, so each keeps its last pair of
  columns and goes on from it to a higher order instead of starting again;
  each kernel function keeps its last column.
- MP (eval_bound_mp): FLOAT at 30 digits, for near-tie adjudication: pi,
  sqrt, exp and the division are mpmath's, and the same kernel functions
  read the same integer kernels at their points, each value rounded once at
  working precision. It is built at the first eval_bound_mp call
  (_mp_backend), so that importing the catalog loads no mpmath.

_pass, the one block loop (verify, crossover, and tables through _rows), asks
the bounds in ascending m, so each factor, summand and psi value of a block
is computed once per n, and only if some bound reads it.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .ballvol import MAX_DIMENSION
from .errors import DomainError
from .specfun import _fixed, _kernel_functions, _kernels, _mp_fixed

_MP_DPS = 30  # digits of eval_bound_mp
# Largest truncation order m. The truncates' integers grow with m, so the
# work grows about as m^2: one evaluation at m = 1000 takes a few ms.
_MAX_ORDER = 1000


def _check_order(m: int) -> None:
    if m > _MAX_ORDER:
        raise DomainError(f"truncation order m must be <= {_MAX_ORDER}, got {m}")


# Each truncate loop returns the pair of order m. Given (k, p, q), the pair
# of a lower order k, it goes on from there; the defaults are the empty
# product or sum.

def _f_m(n: int, m: int, k: int = 0, p: int = 1, q: int = 1) -> tuple[int, int]:
    # joint factor k(x+k-1)/((k-a)(k+x+a-1)) at x = (n+1)/2, a = 1/2
    for k in range(k + 1, m + 1):
        p *= 2 * k * (n + 2 * k - 1)
        q *= (2 * k - 1) * (n + 2 * k)
    return p, q


def _sigma(n: int, m: int, k: int = 0, p: int = 0, q: int = 1) -> tuple[int, int]:
    # sum_{k=1}^m 1/(k(2k+n-1))
    for k in range(k + 1, m + 1):
        d = k * (2 * k + n - 1)
        p, q = p * d + q, q * d
    return p, q


def _s(n: int, m: int, k: int = -1, p: int = 0, q: int = 1) -> tuple[int, int]:
    # sum_{k=0}^m 1/((2k-1)(2k+n))
    for k in range(k + 1, m + 1):
        d = (2 * k - 1) * (2 * k + n)
        p, q = p * d + q, q * d
    return p, q


def _w_trunc(n: int, m: int, k: int = 0, p: int = 1, q: int = 1) -> tuple[int, int]:
    # prod_{k=1}^m (2k+n)^2/((2k+n)^2 - 1)
    for k in range(k + 1, m + 1):
        t = 2 * k + n
        p *= t * t
        q *= t * t - 1
    return p, q


# psi_slope, psi_alpha and trigamma at the int n (specfun's kernel
# functions), and the truncates, each as B.f(n, m) -> the pair of order m
FLOAT = SimpleNamespace(
    pi=math.pi,
    sqrt=math.sqrt,
    exp=math.exp,
    ratio=operator.truediv,  # int true division rounds once, correctly
    **_kernel_functions(_fixed, math.pi),
    f=_f_m,
    sigma=_sigma,
    s=_s,
    w=_w_trunc,
)


@functools.cache
def _mp_backend() -> SimpleNamespace:
    """MP, built at the first eval_bound_mp call: the catalog's one use of mpmath."""
    import mpmath

    return SimpleNamespace(**{
        **vars(FLOAT),
        "pi": mpmath.pi,
        "sqrt": mpmath.sqrt,
        "exp": mpmath.exp,
        "ratio": lambda p, q: mpmath.mpf(p) / q,
        **_kernel_functions(_mp_fixed, mpmath.pi),
    })


def _each(fn: Callable) -> Callable:
    """fn applied elementwise to columns, a number standing for every element."""
    return lambda *args: _Column(map(fn, *(a if isinstance(a, list) else repeat(a)
                                          for a in args)))


def _elementwise(op: Callable) -> tuple[Callable, Callable]:
    """The method pair (a op b, b op a) of op on a column a."""
    each = _each(op)
    return each, lambda a, b: each(b, a)


class _Column(list):
    """A column of numbers, one per n of a block. + - * / ** apply their
    operator builtin elementwise, to another column of the same length or to
    a number, with the operands in the order written; the in-place forms
    build a new column, as they do for numbers."""

    __add__, __radd__ = _elementwise(operator.add)
    __sub__, __rsub__ = _elementwise(operator.sub)
    __mul__, __rmul__ = _elementwise(operator.mul)
    __truediv__, __rtruediv__ = _elementwise(operator.truediv)
    __pow__, __rpow__ = _elementwise(operator.pow)
    __iadd__, __imul__ = __add__, __mul__  # list's would extend or repeat in place


# FLOAT on columns: the same truncate loops, each function mapped; the
# kernel functions come from _sharing, on the pass's kernels
_COLUMNS = SimpleNamespace(**{
    **vars(FLOAT),
    **{name: _each(getattr(FLOAT, name)) for name in ("sqrt", "exp", "ratio")},
})


def _sharing(*readers: Callable[[int], int]) -> SimpleNamespace:
    """The column backend for the bounds of one block, which all run on the
    same n column. Each truncate keeps the last pair of columns it gave, with
    its order, and goes on from it when asked for a higher order; a lower
    order starts again. Each kernel function keeps its last argument and
    column. Nothing is kept beyond that one entry each. psi and psi' come
    from readers, the block's pair from the pass's kernels (by default, each
    t read at its point)."""
    def truncate(loop):
        k, p, q = 0, 1, 1  # the last order and its pair; 0 when none

        def get(n, m):
            nonlocal k, p, q
            if k != m:
                p, q = loop(n, m, k, p, q) if 0 < k < m else loop(n, m)
                k = m
            return p, q
        return get

    def last(fn):
        arg, value = None, None  # the last argument and its value

        def get(n):
            nonlocal arg, value
            if n != arg:
                arg, value = n, fn(n)
            return value
        return get

    return SimpleNamespace(**{
        **vars(_COLUMNS),
        **{name: truncate(getattr(_COLUMNS, name)) for name in ("f", "sigma", "s", "w")},
        **{name: last(_each(fn))
           for name, fn in _kernel_functions(_fixed, math.pi, *readers).items()},
    })


class _Family(NamedTuple):
    target: str
    kind: str
    side: str
    parametric: bool
    min_n: int
    citation: str
    formula: Callable  # (B, N, n, m) -> the bound's value in backend B


_FAMILIES: tuple[_Family, ...] = (
    _Family("v", "lower-trunc", "lower", True, 1, "truncated product",
            lambda B, N, n, m: B.ratio(*B.f(n, m)) / B.pi),
    _Family("v", "lower-d", "lower", True, 1, "digamma-exponential refinement",
            lambda B, N, n, m: B.ratio(*B.f(n, m)) / B.pi * B.exp(N / 2 * (
                B.psi_slope(n) - B.ratio(*B.sigma(n, m))))),
    _Family("v", "lower-borgwardt", "lower", False, 1, "Borgwardt (1987)",
            lambda B, N, n, m: B.sqrt(N / (2 * B.pi))),
    _Family("v", "lower-alzer", "lower", False, 1, "Alzer",
            lambda B, N, n, m: B.sqrt((N + 0.5) / (2 * B.pi))),
    # psi(n/2) - alpha, alpha = psi(3/2): gamma and log 4 cancel exactly, so
    # at n = 1 the difference is the integer -2
    _Family("v", "upper-h", "upper", True, 1, "digamma-exponential upper bound",
            lambda B, N, n, m: B.ratio(*B.f(n, m)) / B.pi * B.exp(N * (
                B.psi_alpha(n) / (2 * (N + 1)) - B.ratio(*B.s(n, m))))),
    _Family("v", "upper-alzer", "upper", False, 1, "Alzer",
            lambda B, N, n, m: B.sqrt((N + (B.pi / 2 - 1)) / (2 * B.pi))),
    _Family("v", "upper-borgwardt", "upper", False, 1, "Borgwardt (1987), shifted index",
            lambda B, N, n, m: B.sqrt((N + 1) / (2 * B.pi))),
    _Family("w", "lower-trunc", "lower", True, 1, "truncated product",
            lambda B, N, n, m: B.ratio(*B.w(n, m))),
    _Family("w", "lower-trigamma", "lower", False, 1, "trigamma-exponential",
            lambda B, N, n, m: B.exp(B.trigamma(n) / 4 - 1 / (N * N))),
    _Family("w", "lower-443", "lower", False, 1, "plain exponential lower bound",
            lambda B, N, n, m: B.exp((N + 3) / (2 * (N + 2) * (N + 2)))),
    _Family("w", "lower-p", "lower", False, 1, "product-exponential refinement",
            lambda B, N, n, m: B.ratio((n + 2) ** 2, (n + 1) * (n + 3))
            * B.exp((N + 1) / (2 * (N + 2) * (N + 2)))),
    _Family("w", "lower-classic", "lower", False, 1, "classical square-root bound",
            lambda B, N, n, m: B.sqrt(1 + 1 / (N + 1))),
    _Family("w", "upper-51", "upper", False, 1, "exponential upper bound",
            lambda B, N, n, m: B.exp(1 / (2 * (N + 1)))),
    _Family("w", "upper-merkle", "upper", False, 1, "Merkle",
            lambda B, N, n, m: (N + 2) ** 1.5 / ((N + 1) * B.sqrt(N + 3))),
    _Family("w", "upper-merkle-q", "upper", False, 2, "Merkle, quartic-root form",
            lambda B, N, n, m: (1 + 2 / N) ** 0.25),
    _Family("w", "upper-alzer", "upper", False, 1, "Alzer",
            lambda B, N, n, m: B.sqrt(1 + 1 / N)),
    _Family("w", "upper-refined", "upper", True, 1, "truncate times exponential tail cap",
            lambda B, N, n, m: B.ratio(*B.w(n, m)) * B.exp(1 / (2 * (N + 2 * m + 1)))),
)

_BY_KEY: dict[tuple[str, str], _Family] = {(f.target, f.kind): f for f in _FAMILIES}


@dataclass(frozen=True)
class BoundId:
    """One evaluable bound: target sequence, family token, optional order m."""

    target: str
    kind: str
    m: int | None = None

    def __post_init__(self) -> None:
        fam = _BY_KEY.get((self.target, self.kind))
        if fam is None:
            raise ValueError(f"unknown bound family {self.target}:{self.kind}")
        if fam.parametric:
            if self.m is None or self.m < 1:
                raise ValueError(f"{self.kind} needs a truncation order m >= 1")
            _check_order(self.m)
        elif self.m is not None:
            raise ValueError(f"{self.kind} takes no truncation order")

    @property
    def side(self) -> str:
        return _BY_KEY[(self.target, self.kind)].side

    @property
    def min_n(self) -> int:
        return _BY_KEY[(self.target, self.kind)].min_n

    def label(self) -> str:
        return self.kind if self.m is None else f"{self.kind}:{self.m}"


@dataclass(frozen=True)
class BoundSpec:
    id: BoundId
    side: str
    target: str
    min_n: int
    citation: str


# the catalog's bounds by name; a parametric family's name takes its order m
V_LOWER_TRUNC = functools.partial(BoundId, "v", "lower-trunc")
V_LOWER_D = functools.partial(BoundId, "v", "lower-d")
V_LOWER_BORGWARDT = BoundId("v", "lower-borgwardt")
V_LOWER_ALZER = BoundId("v", "lower-alzer")
V_UPPER_H = functools.partial(BoundId, "v", "upper-h")
V_UPPER_ALZER = BoundId("v", "upper-alzer")
V_UPPER_BORGWARDT = BoundId("v", "upper-borgwardt")
W_LOWER_TRUNC = functools.partial(BoundId, "w", "lower-trunc")
W_LOWER_TRIGAMMA = BoundId("w", "lower-trigamma")
W_LOWER_443 = BoundId("w", "lower-443")
W_LOWER_P = BoundId("w", "lower-p")
W_LOWER_CLASSIC = BoundId("w", "lower-classic")
W_UPPER_51 = BoundId("w", "upper-51")
W_UPPER_MERKLE = BoundId("w", "upper-merkle")
W_UPPER_MERKLE_Q = BoundId("w", "upper-merkle-q")
W_UPPER_ALZER = BoundId("w", "upper-alzer")
W_UPPER_REFINED = functools.partial(BoundId, "w", "upper-refined")


def family_labels(target: str) -> tuple[str, ...]:
    """Valid label tokens for --ids help text; parametric ones shown as kind:m."""
    return tuple(f"{f.kind}:m" if f.parametric else f.kind for f in _FAMILIES if f.target == target)


def parse_label(target: str, label: str) -> BoundId:
    """Parse a kebab token like "lower-d:1" or "upper-alzer" into a BoundId."""
    kind, sep, mtxt = label.strip().partition(":")
    m = None
    if sep:
        try:
            m = int(mtxt)
        except ValueError:
            raise ValueError(f"bad truncation order in bound id {label!r}") from None
    return BoundId(target, kind, m)


def catalog(m_values: tuple[int, ...] = (1, 2, 3)) -> list[BoundSpec]:
    """Every bound family, parametric ones enumerated over m_values."""
    return [BoundSpec(BoundId(f.target, f.kind, m), f.side, f.target, f.min_n, f.citation)
            for f in _FAMILIES for m in (m_values if f.parametric else (None,))]


def _check_nm(n: int, m: int) -> None:
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    _check_order(m)


def sigma_m(n: int, m: int) -> Fraction:
    """sum_{k=1}^m 1/(k(2k+n-1)), exactly; m = 0 gives 0."""
    _check_nm(n, m)
    return Fraction(*_sigma(n, m))


def s_m(n: int, m: int) -> Fraction:
    """sum_{k=0}^m 1/((2k-1)(2k+n)), exactly; the k=0 term is -1/n."""
    _check_nm(n, m)
    return Fraction(*_s(n, m))


def f_m_exact(n: int, m: int) -> Fraction:
    """m-truncate of the joint factor at x = (n+1)/2, a = 1/2, as a Fraction."""
    if n < 0:
        raise DomainError(f"x = (n+1)/2 must be positive, got n = {n}")
    if m < 0:
        raise DomainError(f"truncation order must be >= 0, got {m}")
    _check_order(m)
    return Fraction(*_f_m(n, m))


def w_trunc_exact(n: int, m: int) -> Fraction:
    """prod_{k=1}^m (2k+n)^2/((2k+n)^2 - 1), exactly."""
    _check_nm(n, m)
    return Fraction(*_w_trunc(n, m))


def _family(bid: BoundId, n: int) -> _Family:
    fam = _BY_KEY[(bid.target, bid.kind)]
    if not fam.min_n <= n <= MAX_DIMENSION:
        raise DomainError(
            f"bound {bid.label()} needs {fam.min_n} <= n <= {MAX_DIMENSION}, got {n}")
    return fam


def eval_bound(bid: BoundId, n: int) -> float:
    """Double-precision value of the bound at dimension n."""
    return _family(bid, n).formula(FLOAT, float(n), n, bid.m)


def eval_bound_mp(bid: BoundId, n: int):
    """The bound's formula in mpmath at 30 digits, for near-tie adjudication."""
    import mpmath

    fam = _family(bid, n)
    with mpmath.workdps(_MP_DPS):
        return fam.formula(_mp_backend(), mpmath.mpf(n), n, bid.m)


# n per block of a pass: enough that the elementwise loops, not the formula
# calls, take most of a block's time, and few enough that a sweep's peak
# memory stays near that of one n at a time
_BLOCK = 256


def _pass(ids: Sequence[BoundId], ns: Sequence[int]) -> Iterator[tuple[Sequence[int], Iterator]]:
    """(block, columns) for each block of up to _BLOCK consecutive n of ns,
    which ascend and are distinct; columns gives (i, the formula of ids[i] at
    every n of the block: its eval_bound doubles from the bound's min_n on,
    finite values that the readers mask below) for each bound, in ascending
    m, on one _sharing backend per block. An n outside [1, MAX_DIMENSION]
    raises DomainError before any bound is run."""
    if ns and not 1 <= ns[0] <= ns[-1] <= MAX_DIMENSION:
        raise DomainError(f"bounds need 1 <= n <= {MAX_DIMENSION}, got {ns[0]}..{ns[-1]}")
    plan = sorted((bid.m or 0, i, _BY_KEY[(bid.target, bid.kind)].formula)
                  for i, bid in enumerate(ids))
    kernels = _kernels(ns)

    def run(B, N, n):  # a block's columns, on its backend and n whenever they are read
        for m, i, formula in plan:
            yield i, formula(B, N, n, m)
    for start in range(0, len(ns), _BLOCK):
        block = ns[start:start + _BLOCK]  # whose kernel functions read t = n and n + 1
        B = _sharing(*(kernel.read(block[0], block[-1] + 1) for kernel in kernels))
        yield block, run(B, _Column(map(float, block)), _Column(block))


def _rows(ids: Sequence[BoundId], ns: Sequence[int]) -> Iterator[list[float | None]]:
    """For each n of ns, in the order of ns, the eval_bound double of every
    bound of ids at n, None for a bound below its min_n. A list that ascends
    without repeats is one _pass, given block by block; any other is one
    _pass over its distinct n, ascending, its rows kept to the end, so a
    dense list walks the kernels once in whatever order it is given."""
    if not all(map(operator.lt, ns, islice(ns, 1, None))):
        distinct = sorted(set(ns))
        yield from map(dict(zip(distinct, _rows(ids, distinct))).__getitem__, ns)
        return
    min_ns = [bid.min_n for bid in ids]
    for block, pairs in _pass(ids, ns):
        columns: list = [None] * len(ids)
        for i, column in pairs:
            if block[0] < min_ns[i]:
                column = [v if k >= min_ns[i] else None for k, v in zip(block, column)]
            columns[i] = column
        for _, *row in zip(block, *columns):  # with block, no ids still gives a row per n
            yield row
