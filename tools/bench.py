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
- the in-process split at n_max 5000 (7 runs), after one warm-up run of
  the same sweep: `ratio_walk`, the catalog's bound values
  (bounds._columns block by block), and the whole `verify_tally`;
  decide/tally is the whole minus the other two.

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
SPLIT_REPS = 7

SPLIT = r"""
import json, sys, time
from ballratio import analysis, bounds
from ballratio.ballvol import ratio_walk

n_max, reps = int(sys.argv[1]), int(sys.argv[2])
ids = [s.id for s in bounds.catalog()]


def values():
    for block in bounds._blocks(range(1, n_max + 1)):
        for _ in bounds._columns(ids, block):
            pass


analysis.verify_tally(ids, n_max)  # warm-up: the psi table is built once
out = {"ratio_walk_s": [], "catalog_values_s": [], "verify_tally_s": []}
for _ in range(reps):
    for key, run in (("ratio_walk_s", lambda: list(ratio_walk(n_max))),
                     ("catalog_values_s", values),
                     ("verify_tally_s", lambda: analysis.verify_tally(ids, n_max))):
        t0 = time.perf_counter()
        run()
        out[key].append(time.perf_counter() - t0)
print(json.dumps(out))
"""


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
        for rep in range(reps):
            order = trees if rep % 2 == 0 else trees[::-1]
            for label, src in order:
                wall, rss, _ = _child(os.path.abspath(src), [
                    "-c", "import sys; from ballratio.cli import main; sys.exit(main())", *cli])
                cell = raw[label].setdefault(name, {"wall_s": [], "peak_rss_mb": []})
                cell["wall_s"].append(wall)
                cell["peak_rss_mb"].append(rss / 1024)
    for label, src in trees:
        _, _, out = _child(os.path.abspath(src), ["-c", SPLIT, "5000", str(SPLIT_REPS)])
        split = json.loads(out)
        split["decide_tally_s"] = [t - w - c for t, w, c in zip(
            split["verify_tally_s"], split["ratio_walk_s"], split["catalog_values_s"])]
        raw[label]["split_5000"] = split
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
