"""Catalog of lower/upper bounds for v_n and w_n, evaluable at any valid n.

Every bound family gets a stable kebab-case token (the CLI contract), a
side, a target sequence, a minimum dimension, an attribution string, and
its formula. Parameterized families (product truncates and their
exponential refinements) additionally carry a truncation order m, from 1
to _MAX_ORDER = 1000; a larger m is refused with DomainError.

Each formula is written once, as a function (B, N, n, m) of a backend B,
the dimension as the backend's number N and as the int n, and the order m.
Rational prefactors are integer pairs (numerator, denominator), built one
factor or summand per step; digamma and trigamma are taken at half-integers x,
each given as the int t = 2x. Three backends run the formulas:

- FLOAT (eval_bound): doubles at one n. Each pair is rounded by a single
  correctly rounded division, and psi_slope, psi_alpha and trigamma are
  specfun's kernel functions, which read its t-keyed integer kernels at
  their points, values in units of 2^-128 rounded once, arranged so that
  gamma and log-4 contributions cancel exactly where they should.
- the compiled columns (_compiled): FLOAT on a block of n at once. Each
  formula, and each truncate's step, is traced once on symbols (_TRACER)
  and written out as one list comprehension over the block's input
  columns, with its operations in the order the formula does them, on the
  same operand types and constants, so every element is the double FLOAT
  gives at its n, bit for bit. m and the step's order k are arguments, so
  a process compiles at most one function per family and one per
  truncate. Every bound runs on the whole block (its readers mask the n
  below its min_n). The m-truncates f, sigma, s and w extend one another,
  one factor or summand per order, so each keeps its last column of pairs
  and goes on from it to a higher order; each kernel function's column is
  computed once per block (_inputs).
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
from itertools import islice
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


# Each truncate as its step (n, k, p, q) -> the pair of order k from the pair
# (p, q) of order k - 1, with its order 0 (-1 for s, whose sum starts at
# k = 0) and the pair there, the empty product or sum
_TRUNCATES = {
    # joint factor k(x+k-1)/((k-a)(k+x+a-1)) at x = (n+1)/2, a = 1/2
    "f": (lambda n, k, p, q: (p * (2 * k * (n + 2 * k - 1)), q * ((2 * k - 1) * (n + 2 * k))),
          0, 1, 1),
    # sum_{k=1}^m 1/(k(2k+n-1))
    "sigma": (lambda n, k, p, q: (p * (d := k * (2 * k + n - 1)) + q, q * d), 0, 0, 1),
    # sum_{k=0}^m 1/((2k-1)(2k+n))
    "s": (lambda n, k, p, q: (p * (d := (2 * k - 1) * (2 * k + n)) + q, q * d), -1, 0, 1),
    # prod_{k=1}^m (2k+n)^2/((2k+n)^2 - 1)
    "w": (lambda n, k, p, q: (p * ((t := 2 * k + n) * t), q * (t * t - 1)), 0, 1, 1),
}


def _fold(step: Callable, k0: int, p0: int, q0: int) -> Callable[..., tuple[int, int]]:
    """The truncate loop of step: (n, m, k, p, q) -> the pair of order m, going
    on from (k, p, q), the pair of a lower order k; by default from order k0."""
    def loop(n: int, m: int, k: int = k0, p: int = p0, q: int = q0) -> tuple[int, int]:
        for k in range(k + 1, m + 1):
            p, q = step(n, k, p, q)
        return p, q
    return loop


_f_m, _sigma, _s, _w_trunc = (_fold(*truncate) for truncate in _TRUNCATES.values())


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


class _Sym:
    """A traced value: text formats its operands args, each a _Sym or a
    constant, as Python source; uses counts the operations that take it."""

    def __init__(self, text: str, *args) -> None:
        self.text, self.args, self.uses = text, args, 0
        for a in args:
            if isinstance(a, _Sym):
                a.uses += 1

    def _op(text: str) -> Callable:  # the method of an operator, written as text
        return lambda a, b: _Sym(text, a, b)
    __add__, __radd__ = _op("({0} + {1})"), _op("({1} + {0})")
    __sub__, __rsub__ = _op("({0} - {1})"), _op("({1} - {0})")
    __mul__, __rmul__ = _op("({0} * {1})"), _op("({1} * {0})")
    __truediv__, __rtruediv__ = _op("({0} / {1})"), _op("({1} / {0})")
    __pow__, __rpow__ = _op("({0} ** {1})"), _op("({1} ** {0})")


_KERNEL_FUNCTIONS = tuple(_kernel_functions(_fixed, math.pi))
# FLOAT traced: each kernel function and truncate reads its input column
_TRACER = SimpleNamespace(
    pi=_Sym("pi"),
    sqrt=lambda x: _Sym("sqrt({0})", x),
    exp=lambda x: _Sym("exp({0})", x),
    ratio=lambda p, q: _Sym("({0} / {1})", p, q),
    **{name: lambda n, name=name: _Sym(name) for name in _KERNEL_FUNCTIONS},
    **{name: lambda n, m, name=name: (_Sym(f"{name}_p"), _Sym(f"{name}_q"))
       for name in _TRUNCATES},
)
# the input columns of a block, each by the loop target of its elements
_INPUTS = {"N": "N", "n": "n", **{name: f"({name}_p, {name}_q)" for name in _TRUNCATES},
           **{name: name for name in _KERNEL_FUNCTIONS}}


def _source(x, names: dict, leaves: set) -> str:
    """x as source, a constant by repr. An operation that more than one
    operation takes is bound by := where it is first evaluated and read by
    name after; leaves collects the names that x reads."""
    if not isinstance(x, _Sym):
        return repr(x)
    if x in names:
        return names[x]
    if not x.args:
        leaves.add(x.text)
        return x.text
    text = x.text.format(*(_source(a, names, leaves) for a in x.args))
    if x.uses < 2:
        return text
    names[x] = f"_{len(names)}"
    return f"({names[x]} := {text})"


@functools.cache
def _compiled(fn: Callable, truncate: str | None = None) -> tuple[Callable, tuple[str, ...]]:
    """A family's formula (B, N, n, m), or a truncate's step by name, as one
    list comprehension over the input columns of a block: (the function
    (m, *columns) -> the column of values, or (k, n, pairs) -> the pairs of
    order k, and the names in _INPUTS of the columns it takes). fn is traced
    once, on _TRACER, and its operations are written out in their order, on
    the same operands, with each constant by its repr, so every element is
    the very double or int that fn gives at its n. The source holds only
    operators, constants, the column and loop names, m, k, pi, sqrt, exp and
    zip; n, N, m, k and the columns are arguments: no input reaches it."""
    n, m = _Sym("n"), _Sym("k" if truncate else "m")
    value = (fn(n, m, *getattr(_TRACER, truncate)(n, m)) if truncate
             else fn(_TRACER, _Sym("N"), n, m))
    names: dict = {}
    leaves: set = set()
    body = ", ".join(_source(x, names, leaves) for x in (value if truncate else (value,)))
    inputs = tuple(name for name, target in _INPUTS.items()
                   if leaves.intersection(target.strip("()").split(", ")))
    columns = ", ".join(f"c{i}" for i in range(len(inputs)))
    loop = ", ".join(map(_INPUTS.get, inputs)) + (
        f" in zip({columns})" if len(inputs) > 1 else f" in {columns}")
    namespace = {"pi": math.pi, "sqrt": math.sqrt, "exp": math.exp}
    exec(compile(f"def column({m.text}, {columns}):\n    return [({body}) for {loop}]\n",
                 "<bounds>", "exec"), namespace)
    return namespace["column"], inputs


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


# n per block of a pass: enough that the compiled comprehensions, not the
# calls of them, take most of a block's time, and few enough that a sweep's
# peak memory stays near that of one n at a time
_BLOCK = 256


def _inputs(block: Sequence[int], functions: dict[str, Callable]) -> Callable:
    """get(name, m), the input column name of the compiled formulas on one
    block: N and n; each kernel function of functions, computed at its first
    read; each truncate's pairs at order m, going on from its last order (a
    lower order starts again), one compiled step per order. Nothing is kept
    beyond the last column of each."""
    held: dict = {"N": (None, list(map(float, block))), "n": (None, block)}

    def get(name: str, m: int) -> Sequence:
        k, column = held.get(name, (None, None))
        if name in _TRUNCATES and k != m:
            step, k0, *pair = _TRUNCATES[name]
            if k is None or k > m:
                k, column = k0, [tuple(pair)] * len(block)
            step = _compiled(step, name)[0]  # (k, n, pairs) -> the pairs of order k
            for k in range(k + 1, m + 1):
                column = step(k, block, column)
            held[name] = m, column
        elif column is None:
            held[name] = None, (column := list(map(functions[name], block)))
        return column
    return get


def _pass(ids: Sequence[BoundId], ns: Sequence[int]) -> Iterator[tuple[Sequence[int], Iterator]]:
    """(block, columns) for each block of up to _BLOCK consecutive n of ns,
    which ascend and are distinct; columns gives (i, the formula of ids[i] at
    every n of the block: its eval_bound doubles from the bound's min_n on,
    finite values that the readers mask below) for each bound, in ascending
    m, each from its compiled comprehension on the block's _inputs. An n
    outside [1, MAX_DIMENSION] raises DomainError before any bound is run."""
    if ns and not 1 <= ns[0] <= ns[-1] <= MAX_DIMENSION:
        raise DomainError(f"bounds need 1 <= n <= {MAX_DIMENSION}, got {ns[0]}..{ns[-1]}")
    plan = sorted((bid.m or 0, i, _compiled(_BY_KEY[(bid.target, bid.kind)].formula))
                  for i, bid in enumerate(ids))
    kernels = _kernels(ns)

    def run(get):  # a block's columns, whenever they are read
        for m, i, (column, inputs) in plan:
            yield i, column(m, *(get(name, m) for name in inputs))
    for start in range(0, len(ns), _BLOCK):
        block = ns[start:start + _BLOCK]  # whose kernel functions read t = n and n + 1
        readers = [kernel.read(block[0], block[-1] + 1) for kernel in kernels]
        yield block, run(_inputs(block, _kernel_functions(_fixed, math.pi, *readers)))


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
