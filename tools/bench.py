"""Measure `ballratio` commands end to end and `verify` split by layer, for
one or more source trees, and write the results as JSON.

    python tools/bench.py --out BENCH.json parent=/path/to/other/src change=src

Each LABEL=SRC names a source tree holding the `ballratio` package. Every
child reads and writes one private bytecode cache (PYTHONPYCACHEPREFIX in
a temporary directory, with PYTHONDONTWRITEBYTECODE unset for the
children), which one untimed child per tree fills first with the tree's
package and the modules the runs import, so that a run measures the
program and not the compiling of its source. For each tree (the order of
the trees alternates from one run to the next):

- the commands of CLI_RUNS, each in a fresh interpreter: `verify --n-max
  10000` (5 runs) and `--n-max 100000` (7 runs: 3 cannot resolve a change
  of its peak RSS), 5 runs each of the sparse shapes that every `perfbench`
  `queries` round holds: v and w tables at n = 30000 and 29999, and a
  near-tie crossover to 3000; and 5 runs each of v and w tables at
  n = 100000 and 99999 and of `volume --n 100000`, the sparse reads at the
  cap; 5 runs of a v table over the odd n <= 9999, a dense table; and 5
  runs each of the truncates at order 1000, a v table over n = 1..300 and
  a crossover to 1000; the wall time is taken with time.perf_counter
  around the child, and the peak resident set from os.wait4 of that child;
- (IMPORT_RUNS runs) a cold `import ballratio.cli` in a fresh interpreter,
  timed the same way, and whether it loaded mpmath;
- the in-process measurements of IN_PROCESS, each run a fresh interpreter
  that measures once after a warm-up:
  - the split of `verify_tally` at n_max 5000 and at the cap 100000 (7
    runs each: 3 cannot resolve the parts at the cap): `ratio_walk`, the
    catalog's bound values (one pass of the catalog's block loop,
    `bounds._pass`), and the whole `verify_tally`; then
    decide/tally, the loop of `verify_tally` over `analysis._evaluate`
    itself: one more `verify_tally`, less the time that its two inputs,
    the walk and the pass, take to make each block ahead of it;
  - (7 runs) a fresh interpreter's first `verify_tally` at n_max 5000,
    against its second: the first holds the one-time costs, such as
    compiling the catalog's formulas;
  - (5 runs) µs per n of each catalog family in one pass of the block loop
    to n_max 5000, all of its orders together; µs per n of `bounds._rows`
    over the v catalog at n = 1..20000 and at n = 20000..1 (a list given
    in descending order); and µs per `eval_bound_mp` call of each bound of
    MP_IDS, over the 200 n from 20000 on, after one untimed call;
  - (5 runs) the products in tolerance mode, each group timed as a whole:
    `v_product` (eps 1e-6) and `w_product` (eps 1e-7) at n = 1..100,
    `joint_factor_result` (eps 1e-6) on the grid a = i/20 (i = 1..19),
    x = j/4 (j = 4..40), `digamma_series` (eps 1e-6) on the pool x = j/4
    (j = 3..32), and `product_overtake_index` at n = 1..100, r_max 10^7;
- the tier-1 suite (3 runs): the tree's own tests/ under pytest, run from
  the directory above SRC; wall time and the passed and failed counts;
- (1 run, as the counts are deterministic) the sidedness records of
  `analysis._evaluate` at n_max 100000 that no double resolves, per bound
  and in total: the "ok"s given only by the slack TIE_REL (gap <= 0), and
  the records with |gap| <= k ulp of the oracle double for k in ULPS.

Only the standard library is used here; the children import ballratio,
and the tier-1 children pytest.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

# (name, arguments, runs per tree) of the CLI
CLI_RUNS = (
    ("verify_10000", ["verify", "--n-max", "10000"], 5),
    ("verify_100000", ["verify", "--n-max", "100000"], 7),
    ("bounds_v_30000", ["bounds", "--target", "v", "--n", "30000,29999"], 5),
    ("bounds_w_30000", ["bounds", "--target", "w", "--n", "30000,29999"], 5),
    ("crossover_w_3000", ["crossover", "--target", "w", "--ids", "upper-refined:1,upper-51",
                          "--n-max", "3000"], 5),
    ("bounds_v_100000", ["bounds", "--target", "v", "--n", "100000,99999"], 5),
    ("bounds_w_100000", ["bounds", "--target", "w", "--n", "100000,99999"], 5),
    ("volume_100000", ["volume", "--n", "100000"], 5),
    ("bounds_v_odd_9999", ["bounds", "--target", "v", "--n",
                           ",".join(map(str, range(1, 10_000, 2)))], 5),
    ("bounds_v_trunc_1000", ["bounds", "--target", "v", "--ids", "lower-trunc:1000,upper-h:1000",
                             "--n", ",".join(map(str, range(1, 301)))], 5),
    ("crossover_v_trunc_1000", ["crossover", "--target", "v", "--ids",
                                "lower-trunc:1000,lower-trunc:999", "--n-max", "1000"], 5),
)
# untimed, once per tree: fills the bytecode cache with the package and with
# what the runs import
WARM = ("import compileall, sys; compileall.compile_dir(sys.argv[1], quiet=1); "
        "import ballratio.cli, ballratio.analysis, ballratio.gautschi, mpmath, pytest, hypothesis")
# a cold import of the CLI, which prints whether it loaded mpmath
IMPORT_CLI = "import sys, ballratio.cli; print('mpmath' in sys.modules)"
IMPORT_RUNS = 21
MP_IDS = ("v:lower-d:2", "v:upper-h:2", "w:lower-trigamma", "w:upper-refined:1")

SPLIT = r"""
import json, sys, time
from itertools import islice
from ballratio import analysis, bounds
from ballratio.ballvol import ratio_walk

n_max = int(sys.argv[1])
ids = [s.id for s in bounds.catalog()]
clock = time.perf_counter
making = [0.0]  # seconds spent making the inputs of analysis._evaluate


def values():
    for _, columns in bounds._pass(ids, range(1, n_max + 1)):
        for _ in columns:
            pass


def made(items, size):
    # the items, each size of them made ahead, on the clock of making
    while True:
        t0 = clock()
        chunk = list(islice(items, size))
        making[0] += clock() - t0
        if not chunk:
            return
        yield from chunk


def passed(ids, ns):
    for block, columns in made(bounds._pass(ids, ns), 1):
        yield block, made(columns, len(ids))


analysis.verify_tally(ids, n_max)  # warm-up
out = {}
for key, run in (("ratio_walk_s", lambda: list(ratio_walk(n_max))),
                 ("catalog_values_s", values),
                 ("verify_tally_s", lambda: analysis.verify_tally(ids, n_max))):
    t0 = clock()
    run()
    out[key] = clock() - t0
analysis.ratio_walk = lambda n_max: made(ratio_walk(n_max), bounds._BLOCK)
analysis._pass = passed
t0 = clock()
analysis.verify_tally(ids, n_max)
out["decide_tally_s"] = clock() - t0 - making[0]
print(json.dumps(out))
"""

FIRST = r"""
import json, time
from ballratio import analysis, bounds

ids = [s.id for s in bounds.catalog()]
out = {}
for key in ("first_verify_5000_s", "second_verify_5000_s"):
    t0 = time.perf_counter()
    analysis.verify_tally(ids, 5000)
    out[key] = time.perf_counter() - t0
print(json.dumps(out))
"""

PARTS = r"""
import json, sys, time
from ballratio import analysis, bounds

families = {}
for s in bounds.catalog():
    families.setdefault(f"{s.target}:{s.id.kind}", []).append(s.id)
mp_ns = range(20_000, 20_200)
analysis.verify_tally([s.id for s in bounds.catalog()], 20_200)  # warm-up (as in SPLIT)
out = {}
for name, ids in families.items():
    t0 = time.perf_counter()
    for _, columns in bounds._pass(ids, range(1, 5001)):
        for _ in columns:
            pass
    out[f"columns_us_per_n:{name}"] = (time.perf_counter() - t0) / 5000 * 1e6
v_ids = [s.id for s in bounds.catalog() if s.target == "v"]
for order, ns in (("ascending", range(1, 20_001)), ("descending", range(20_000, 0, -1))):
    t0 = time.perf_counter()
    list(bounds._rows(v_ids, ns))
    out[f"rows_us_per_n:v:{order}"] = (time.perf_counter() - t0) / len(ns) * 1e6
for name in sys.argv[1].split(","):
    target, _, label = name.partition(":")
    bid = bounds.parse_label(target, label)
    bounds.eval_bound_mp(bid, mp_ns[0])  # warm-up: the first call may import mpmath
    t0 = time.perf_counter()
    for n in mp_ns:
        bounds.eval_bound_mp(bid, n)
    out[f"eval_bound_mp_us:{name}"] = (time.perf_counter() - t0) / len(mp_ns) * 1e6
print(json.dumps(out))
"""

PRODUCTS = r"""
import json, time
from ballratio import analysis, ballvol, gautschi, specfun
from ballratio.truncation import TruncationControl

tol = TruncationControl.tolerance
ns = range(1, 101)
joint = [(i / 20, j / 4) for i in range(1, 20) for j in range(4, 41)]
runs = {
    "v_product_s": lambda: [ballvol.v_product(n, tol(1e-6)) for n in ns],
    "w_product_s": lambda: [ballvol.w_product(n, tol(1e-7)) for n in ns],
    "joint_factor_result_s": lambda: [gautschi.joint_factor_result(x, a, tol(1e-6))
                                      for a, x in joint],
    "digamma_series_s": lambda: [specfun.digamma_series(j / 4, tol(1e-6)) for j in range(3, 33)],
    "overtake_s": lambda: [analysis.product_overtake_index(n, 10**7) for n in ns],
}
for run in runs.values():  # warm-up
    run()
out = {}
for key, run in runs.items():
    t0 = time.perf_counter()
    run()
    out[key] = time.perf_counter() - t0
print(json.dumps(out))
"""

ULPS = (1, 2, 4, 8)
TIES = r"""
import json, math, sys
from ballratio import analysis, bounds

ids = [s.id for s in bounds.catalog()]
names = [f"{bid.target}:{bid.label()}" for bid in ids]
ks = json.loads(sys.argv[2])
counts = {key: dict.fromkeys(names, 0)
          for key in ["slack_only", *(f"within_{k}_ulp" for k in ks)]}
for _, columns in analysis._evaluate(ids, int(sys.argv[1])):
    for i, _, _, exact, gaps, *_, ok in columns:
        counts["slack_only"][names[i]] += sum(o and g <= 0 for o, g in zip(ok, gaps))
        ulps = [abs(g) / math.ulp(e) for e, g in zip(exact, gaps)]
        for k in ks:
            counts[f"within_{k}_ulp"][names[i]] += sum(u <= k for u in ulps)
for per_bound in counts.values():
    per_bound["total"] = sum(per_bound.values())
print(json.dumps(counts))
"""
TIES_N_MAX = 100_000

TIER1 = r"""
import sys
import pytest

code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "tests"])
sys.exit(code not in (0, 1))  # 1: the suite ran, and some tests failed
"""

# (name, arguments after -c, runs per tree) of the in-process measurements
IN_PROCESS = (
    ("split_5000", [SPLIT, "5000"], 7),
    ("split_100000", [SPLIT, "100000"], 7),
    ("first_verify", [FIRST], 7),
    ("parts", [PARTS, ",".join(MP_IDS)], 5),
    ("products", [PRODUCTS], 5),
)
TIER1_RUNS = 3


def _child(src: str, argv: list[str], pycache: str | None = None) -> tuple[float, int, str]:
    """Run python argv with src on the path, in the directory above src, and
    with pycache, if given, as its bytecode cache: (wall s, peak RSS KiB,
    stdout)."""
    env = dict(os.environ, PYTHONPATH=src)
    if pycache:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = pycache
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.PIPE,
                            cwd=os.path.dirname(src))
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if proc.returncode:
        raise SystemExit(f"{argv} under {src} exited {proc.returncode}")
    return wall, usage.ru_maxrss, out.decode()


def _alternating(trees: list, reps: int):
    """(label, src) of each tree for each of reps runs, the order of the trees
    reversed every other run."""
    for rep in range(reps):
        yield from trees if rep % 2 == 0 else trees[::-1]


def _summary(xs: list[float]) -> dict:
    xs = sorted(xs)
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"median": statistics.median(xs), "q1": q[0], "q3": q[2], "runs": xs}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", metavar="LABEL=SRC")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    trees = [tuple(t.split("=", 1)) for t in args.trees]
    cache = tempfile.TemporaryDirectory(prefix="bench-pycache-")  # removed at exit
    child = functools.partial(_child, pycache=cache.name)
    for _, src in trees:
        child(os.path.abspath(src), ["-c", WARM, os.path.abspath(src)])
    raw: dict = {label: {} for label, _ in trees}
    for name, cli, reps in CLI_RUNS:
        for label, src in _alternating(trees, reps):
            wall, rss, _ = child(os.path.abspath(src), [
                "-c", "import sys; from ballratio.cli import main; sys.exit(main())", *cli])
            cell = raw[label].setdefault(name, {"wall_s": [], "peak_rss_mb": []})
            cell["wall_s"].append(wall)
            cell["peak_rss_mb"].append(rss / 1024)
    loaded: dict = {label: set() for label, _ in trees}
    for label, src in _alternating(trees, IMPORT_RUNS):
        wall, _, out = child(os.path.abspath(src), ["-c", IMPORT_CLI])
        raw[label].setdefault("import_cli", {"wall_s": []})["wall_s"].append(wall)
        loaded[label].add(out.strip() == "True")
    for name, argv, reps in IN_PROCESS:
        for label, src in _alternating(trees, reps):
            _, _, out = child(os.path.abspath(src), ["-c", *argv])
            cell = raw[label].setdefault(name, {})
            for metric, x in json.loads(out).items():
                cell.setdefault(metric, []).append(x)
    for label, src in _alternating(trees, TIER1_RUNS):
        wall, _, out = child(os.path.abspath(src), ["-c", TIER1])
        counts = dict.fromkeys(("passed", "failed"), 0)
        for count, word in re.findall(r"(\d+) (passed|failed)", out.splitlines()[-1]):
            counts[word] = int(count)
        cell = raw[label].setdefault("tier1", {"wall_s": [], "passed": [], "failed": []})
        cell["wall_s"].append(wall)
        for word, count in counts.items():
            cell[word].append(count)
    ties = {label: json.loads(child(os.path.abspath(src), [
        "-c", TIES, str(TIES_N_MAX), json.dumps(ULPS)])[2]) for label, src in trees}
    result = {
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "trees": {label: {**{name: {metric: _summary(xs) for metric, xs in cell.items()}
                             for name, cell in cells.items()},
                          "import_cli_mpmath_loaded": sorted(loaded[label]),
                          f"unresolved_{TIES_N_MAX}": ties[label]}
                  for label, cells in raw.items()},
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
