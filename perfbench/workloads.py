"""The rounds of each workload, drawn from the seeded rng.

`WORKLOADS[name](rng)` is an endless iterator of rounds; a round is a list
of operations. A run draws rounds from one random.Random seeded with the
workload and the seed, so the same seed gives the same sequence of rounds.
Every round of a workload holds the same kinds and counts of operations.
Each input is drawn by a `Draws`: its pool is ordered by cost, and one
block of BLOCK rounds takes one member from each of k·BLOCK equal slices of
the pool. A run of a few blocks thus sees nearly the same spread of costs
whatever the seed, which keeps the medians steady.

- sweep: one `ballratio verify --n-max SWEEP_N` in a fresh interpreter. The
  draws pick the output format and the records the check re-decides.
- products: 26 library calls whose time goes to the O(m) product loops,
  plus one `product_overtake_index` at OVERTAKE_FAULT_N, which gives a
  wrong answer every time.
- queries: 15 in-process `ballratio` CLI calls at scattered dimensions, all
  three formats, plus one `volume` at VOLUME_FAULT_N, which fails every time.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator, Sequence

import reference

BLOCK = 4

SWEEP_N = 5000
SWEEP_SAMPLE = 150

PRODUCT_EPS = 1e-6
W_PRODUCT_EPS = 1e-7
OVERTAKE_R_MAX = 10**7
UPPER_CAP_M_MAX = (5 * 10**6, 10**7)
PRODUCT_N = range(1, 101)
# (a, x) with a on the twentieths other than 1/2 (which needs no Gamma(1-a))
# and x on the quarters of [1, 10], ordered by a(x+a-1), which sets the
# number of terms
JOINT_AX = sorted(((i / 20, j / 4) for i in range(1, 20) if i != 10 for j in range(4, 41)),
                  key=lambda ax: ax[0] * (ax[1] + ax[0] - 1))
DIGAMMA_X = [j / 4 for j in range(3, 33)]
# Up to n = 100 every overtake index lies below 2^22, so each scan costs one
# chunk. At n = 97 the float scan returns 3688644, one past the true index
# 3688643; every other n is exact. That scan is in every round at the same
# n, so it fails the same share of operations on every seed, and the pool
# the seeds draw from holds the other n.
OVERTAKE_FAULT_N = 97
OVERTAKE_N = [n for n in PRODUCT_N if n != OVERTAKE_FAULT_N]

# Each round opens with one v and one w table at QUERY_N_MAX and
# QUERY_N_MAX - 1, so every prefix table (of either parity) reaches the same
# length, paid by the same two operations, in every round.
QUERY_N_MAX = 30000
QUERY_N = range(2, QUERY_N_MAX - 1)
VOLUME_N = range(0, 2801)  # volume prints Omega_n exactly; see VOLUME_FAULT_N
# From n = 2847 on, `volume` cannot print Omega_n (the exact rational has more
# than 4300 digits) and exits 2; this one operation fails in every round.
VOLUME_FAULT_N = 20000
CROSSOVER_N_MAX = 3000
CROSSOVER_NEAR_TIE = ("w", "upper-refined:1", "upper-51")
CROSSOVER_PAIRS = (
    ("v", "upper-h:2", "upper-alzer"), ("v", "lower-d:1", "lower-borgwardt"),
    ("v", "upper-h:1", "upper-borgwardt"), ("v", "lower-d:2", "lower-alzer"),
    ("w", "lower-p", "lower-443"), ("w", "upper-merkle", "upper-alzer"),
    ("w", "lower-trigamma", "lower-classic"), ("w", "upper-refined:3", "upper-51"),
)
CROSSOVER_N = range(500, CROSSOVER_N_MAX + 1)
FORMATS = ("text", "csv", "json")


def strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k integers, one from each of k equal slices of [lo, hi], shuffled."""
    edges = [lo + (hi - lo + 1) * i // k for i in range(k + 1)]
    out = [rng.randrange(edges[i], edges[i + 1]) for i in range(k)]
    rng.shuffle(out)
    return out


class Draws:
    """k members of a pool per round, stratified over blocks of BLOCK rounds."""

    def __init__(self, rng: random.Random, pool: Sequence, k: int):
        self.rng, self.pool, self.k, self.left = rng, pool, k, []

    def next(self) -> list:
        if not self.left:
            whole, rest = divmod(self.k * BLOCK, len(self.pool))
            picks = list(range(len(self.pool))) * whole
            picks += strata(self.rng, 0, len(self.pool) - 1, rest) if rest else []
            self.rng.shuffle(picks)
            self.left = [self.pool[i] for i in picks]
        out, self.left = self.left[:self.k], self.left[self.k:]
        return out


def sweep(rng: random.Random) -> Iterator[list[dict]]:
    formats = Draws(rng, ("text", "json"), 1)  # csv carries no summary to check
    while True:
        fmt = formats.next()[0]
        sample = []
        for _ in range(SWEEP_SAMPLE):
            target, label, _, lo = rng.choice(reference.CATALOG)
            sample.append((target, label, rng.randint(lo, SWEEP_N)))
        yield [{"cli": ["verify", "--n-max", str(SWEEP_N), "--format", fmt],
                "check": {"cmd": "verify", "n_max": SWEEP_N, "format": fmt, "sample": sample}}]


def products(rng: random.Random) -> Iterator[list[dict]]:
    v_n, w_n = Draws(rng, PRODUCT_N, 8), Draws(rng, PRODUCT_N, 4)
    joint, digamma = Draws(rng, JOINT_AX, 6), Draws(rng, DIGAMMA_X, 3)
    overtake, cap = Draws(rng, OVERTAKE_N, 3), Draws(rng, PRODUCT_N, 2)
    while True:
        ops: list[dict] = []
        ops += [{"fn": "v_product", "n": n, "eps": PRODUCT_EPS} for n in v_n.next()]
        ops += [{"fn": "w_product", "n": n, "eps": W_PRODUCT_EPS} for n in w_n.next()]
        for k, (a, x) in enumerate(joint.next()):
            if k % 2:
                ops.append({"fn": "joint_factor_result", "x": x, "a": a, "eps": PRODUCT_EPS})
            else:
                ops.append({"fn": "gautschi_ratio", "x": x, "a": a, "eps": PRODUCT_EPS,
                            "gamma_one_minus_a": math.gamma(1 - a)})
        ops += [{"fn": "digamma_series", "x": x, "eps": PRODUCT_EPS} for x in digamma.next()]
        ops += [{"fn": "product_overtake_index", "n": n, "r_max": OVERTAKE_R_MAX}
                for n in overtake.next()]
        ops += [{"fn": "partials_below_upper_cap", "n": n, "m_max": m_max}
                for n, m_max in zip(cap.next(), UPPER_CAP_M_MAX)]
        ops.append({"fn": "product_overtake_index", "n": OVERTAKE_FAULT_N,
                    "r_max": OVERTAKE_R_MAX, "known_fault": True})
        rng.shuffle(ops)
        yield ops


def cli_op(spec: dict) -> dict:
    argv = [spec["cmd"]]
    if "target" in spec:
        argv += ["--target", spec["target"]]
    if "n" in spec:
        argv += ["--n", ",".join(map(str, spec["n"]))]
    if spec.get("ids") is not None:
        argv += ["--ids", ",".join(spec["ids"])]
    if spec.get("partial"):
        argv.append("--partial")
    if "n_max" in spec:
        argv += ["--n-max", str(spec["n_max"])]
    argv += ["--format", spec["format"]]
    return {"cli": argv, "check": spec}


def queries(rng: random.Random) -> Iterator[list[dict]]:
    volume_n, query_n = Draws(rng, VOLUME_N, 9), Draws(rng, QUERY_N, 13)
    pairs, crossover_n = Draws(rng, CROSSOVER_PAIRS, 3), Draws(rng, CROSSOVER_N, 3)
    v_labels, w_labels = reference.labels("v"), reference.labels("w")
    while True:
        vol, scattered = volume_n.next(), query_n.next()
        take = lambda k: [scattered.pop() for _ in range(k)]  # noqa: E731
        top = [
            {"cmd": "bounds", "target": t, "n": [QUERY_N_MAX, QUERY_N_MAX - 1, *take(1)],
             "ids": None, "format": "json"} for t in ("v", "w")
        ]
        specs = [{"cmd": "volume", "n": vol[3 * i:3 * i + 3], "format": fmt}
                 for i, fmt in enumerate(FORMATS)]
        specs.append({"cmd": "volume", "n": [VOLUME_FAULT_N], "format": "text"})
        specs += [
            {"cmd": "bounds", "target": "v", "n": take(2), "ids": None, "format": "text"},
            {"cmd": "bounds", "target": "v", "n": take(2), "ids": rng.sample(v_labels, 3),
             "format": "csv"},
            {"cmd": "bounds", "target": "v", "n": take(2), "ids": rng.sample(v_labels, 2),
             "partial": True, "format": rng.choice(FORMATS)},
            {"cmd": "bounds", "target": "w", "n": take(2), "ids": rng.sample(w_labels, 3),
             "format": "csv"},
            {"cmd": "bounds", "target": "w", "n": [1, *take(1)], "ids": None, "partial": True,
             "format": "text"},
            {"cmd": "bounds", "target": "w", "n": take(2), "ids": rng.sample(w_labels, 2),
             "format": rng.choice(FORMATS)},
        ]
        crossovers = [(*CROSSOVER_NEAR_TIE, CROSSOVER_N_MAX)]
        crossovers += [(*pair, n) for pair, n in zip(pairs.next(), crossover_n.next())]
        specs += [{"cmd": "crossover", "target": target, "ids": [a, b], "n_max": n_max,
                   "format": rng.choice(FORMATS)} for target, a, b, n_max in crossovers]
        rng.shuffle(specs)
        yield [cli_op(spec) for spec in top + specs]


WORKLOADS = {"sweep": sweep, "products": products, "queries": queries}
