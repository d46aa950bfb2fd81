"""Measure `ballratio` commands end to end and `verify` split by layer, for
one or more source trees, and write the results as JSON.

    python tools/bench.py --out BENCH.json parent=/path/to/other/src change=src

Each LABEL=SRC names a source tree holding the `ballratio` package. For
each tree (the order of the trees alternates from one run to the next):

- the commands of CLI_RUNS, each in a fresh interpreter: `verify --n-max
  10000` (5 runs) and `--n-max 100000` (3 runs), and 5 runs each of the
  sparse shapes that every `perfbench` `queries` round holds: v and w
  tables at n = 30000 and 29999, and a near-tie crossover to 3000;
  the wall time is taken with time.perf_counter around the child, and the
  peak resident set from os.wait4 of that child;
- the in-process measurements of IN_PROCESS, each run a fresh interpreter
  that measures once after a warm-up:
  - the split of `verify_tally` at n_max 5000 (7 runs) and at the cap
    100000 (3 runs): `ratio_walk`, the catalog's bound values
    (bounds._columns block by block), and the whole `verify_tally`;
    decide/tally is the whole minus the other two;
  - (5 runs) µs per n of each catalog family in bounds._columns at n_max
    5000, all of its orders together, as one `_columns` call per block;
    and µs per `eval_bound_mp` call of each bound of MP_IDS, over the 200 n
    from 20000 on.

Only the standard library is used here; the children import ballratio.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# (name, arguments, runs per tree) of the CLI
CLI_RUNS = (
    ("verify_10000", ["verify", "--n-max", "10000"], 5),
    ("verify_100000", ["verify", "--n-max", "100000"], 3),
    ("bounds_v_30000", ["bounds", "--target", "v", "--n", "30000,29999"], 5),
    ("bounds_w_30000", ["bounds", "--target", "w", "--n", "30000,29999"], 5),
    ("crossover_w_3000", ["crossover", "--target", "w", "--ids", "upper-refined:1,upper-51",
                          "--n-max", "3000"], 5),
)
MP_IDS = ("v:lower-d:2", "v:upper-h:2", "w:lower-trigamma", "w:upper-refined:1")

SPLIT = r"""
import json, sys, time
from ballratio import analysis, bounds
from ballratio.ballvol import ratio_walk

n_max = int(sys.argv[1])
ids = [s.id for s in bounds.catalog()]


def values():
    for block in bounds._blocks(range(1, n_max + 1)):
        for _ in bounds._columns(ids, block):
            pass


analysis.verify_tally(ids, n_max)  # warm-up: the psi table is built once
out = {}
for key, run in (("ratio_walk_s", lambda: list(ratio_walk(n_max))),
                 ("catalog_values_s", values),
                 ("verify_tally_s", lambda: analysis.verify_tally(ids, n_max))):
    t0 = time.perf_counter()
    run()
    out[key] = time.perf_counter() - t0
out["decide_tally_s"] = out["verify_tally_s"] - out["ratio_walk_s"] - out["catalog_values_s"]
print(json.dumps(out))
"""

PARTS = r"""
import json, sys, time
from ballratio import analysis, bounds

families = {}
for s in bounds.catalog():
    families.setdefault(f"{s.target}:{s.id.kind}", []).append(s.id)
blocks = list(bounds._blocks(range(1, 5001)))
mp_ns = range(20_000, 20_200)
analysis.verify_tally([s.id for s in bounds.catalog()], 20_200)  # warm-up: the psi table
out = {}
for name, ids in families.items():
    t0 = time.perf_counter()
    for block in blocks:
        for _ in bounds._columns(ids, block):
            pass
    out[f"columns_us_per_n:{name}"] = (time.perf_counter() - t0) / 5000 * 1e6
for name in sys.argv[1].split(","):
    target, _, label = name.partition(":")
    bid = bounds.parse_label(target, label)
    t0 = time.perf_counter()
    for n in mp_ns:
        bounds.eval_bound_mp(bid, n)
    out[f"eval_bound_mp_us:{name}"] = (time.perf_counter() - t0) / len(mp_ns) * 1e6
print(json.dumps(out))
"""

# (name, arguments after -c, runs per tree) of the in-process measurements
IN_PROCESS = (
    ("split_5000", [SPLIT, "5000"], 7),
    ("split_100000", [SPLIT, "100000"], 3),
    ("parts", [PARTS, ",".join(MP_IDS)], 5),
)


def _child(src: str, argv: list[str]) -> tuple[float, int, str]:
    """Run python argv with src on the path: (wall s, peak RSS KiB, stdout)."""
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.PIPE)
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
    raw: dict = {label: {} for label, _ in trees}
    for name, cli, reps in CLI_RUNS:
        for label, src in _alternating(trees, reps):
            wall, rss, _ = _child(os.path.abspath(src), [
                "-c", "import sys; from ballratio.cli import main; sys.exit(main())", *cli])
            cell = raw[label].setdefault(name, {"wall_s": [], "peak_rss_mb": []})
            cell["wall_s"].append(wall)
            cell["peak_rss_mb"].append(rss / 1024)
    for name, argv, reps in IN_PROCESS:
        for label, src in _alternating(trees, reps):
            _, _, out = _child(os.path.abspath(src), ["-c", *argv])
            cell = raw[label].setdefault(name, {})
            for metric, x in json.loads(out).items():
                cell.setdefault(metric, []).append(x)
    result = {
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "trees": {label: {name: {metric: _summary(xs) for metric, xs in cell.items()}
                          for name, cell in cells.items()}
                  for label, cells in raw.items()},
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
