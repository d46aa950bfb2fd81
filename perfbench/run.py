"""Benchmark for ballratio: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload {sweep,products,queries} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; ballratio is imported from its
src/. One client drives a closed loop: operations run one after another,
and at most one child interpreter runs at a time. A run draws rounds from
the seed (workloads.py), one after another, until the next round would end
past S seconds. Each round is served by a fresh interpreter (serve.py),
which times its operations from inside, so no cache state carries from one
round to the next and the interpreter's start and imports are set-up.
After the timed rounds every result is checked (checks.py) and the last
line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`failed` counts the operations that exited non-zero or raised, and those
marked known_fault (a fault of the program that shows on a fixed input in
every round) whose check finds the wrong answer; `correct` is false if
any other operation's output is wrong.

--trace 0 reports wall_s, op_p50_s, peak_rss_mb and setup_s. --trace 1
serves each round twice, untraced and then traced, and reports per traced
round the calls and self time of every function in tracer.TRACED, plus
trace.overhead_s: the traced rounds' median wall minus the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 7


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no source tree, a worker died)."""


def _spawn(cmd: list[str], stdin: bytes | None = None) -> tuple[int, bytes, int]:
    """Run cmd from the checkout root with src/ on the path.

    Returns (exit code, stdout, peak RSS in KiB).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL)
    try:
        if stdin is not None:
            proc.stdin.write(stdin)
            proc.stdin.close()
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    return proc.returncode, out, usage.ru_maxrss


def measure_setup() -> list[float]:
    """Seconds from starting a fresh interpreter to `import ballratio.cli` done."""
    code = "import time, ballratio.cli; print(ballratio.cli.__file__, time.monotonic())"
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        rc, out, _ = _spawn([sys.executable, "-c", code])
        if rc != 0:
            raise BenchError(f"`import ballratio.cli` exited {rc}")
        path, stamp = out.decode().rsplit(maxsplit=1)
        _check_source(path)
        samples.append(float(stamp) - start)
    return samples


def _check_source(path: str) -> None:
    if not Path(path).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"ballratio was imported from {path}, not from {ROOT / 'src'}")


@dataclass
class Round:
    ops: list[dict]
    wall: float  # start of the first operation to the end of the last
    results: list[dict]
    rss_kib: int  # peak resident set of the serving process
    spans: Path | None  # span file of a traced round


def run_round(ops: list[dict], spans: Path | None) -> Round:
    cmd = [sys.executable, str(HERE / "serve.py")] + (["--trace", str(spans)] if spans else [])
    rc, out, peak = _spawn(cmd, json.dumps(ops).encode())
    wall, results = _served(rc, out)
    return Round(ops, wall, results, peak, spans)


def _served(rc: int, out: bytes) -> tuple[float, list[dict]]:
    if rc != 0:
        raise BenchError(f"serve.py exited {rc}")
    payload = json.loads(out)
    _check_source(payload["module"])
    return payload["wall"], payload["results"]


def _failed(res: dict) -> bool:
    """The operation exited non-zero or raised."""
    return "error" in res or res.get("rc", 0) != 0


def tally(rounds: list[Round]) -> tuple[int, int, list[str]]:
    """(operations attempted, operations failed, problems in the others' outputs)."""
    attempted = failed = 0
    found: list[str] = []
    for rnd in rounds:
        for op, res in zip(rnd.ops, rnd.results):
            attempted += 1
            wrong = [] if _failed(res) else checks.problems(op, res)
            if _failed(res) or (wrong and op.get("known_fault")):
                failed += 1
            else:
                found += wrong
    return attempted, failed, found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ballratio" / "cli.py").is_file():
        print(f"perfbench: no ballratio source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # for omega strings, should volume print large n
    rounds = workloads.WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"))

    plain: list[Round] = []
    traced: list[Round] = []
    try:
        setup = [] if args.trace else measure_setup()
        trace_dir = OUT / "trace" / args.workload
        if args.trace:
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
        start, durations = time.perf_counter(), []
        while True:
            t0 = time.perf_counter()
            ops = next(rounds)
            plain.append(run_round(ops, None))
            if args.trace:
                traced.append(run_round(ops, trace_dir / f"round{len(traced)}.spans"))
            durations.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.median(durations) > args.seconds:
                break
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed, found = tally(plain + traced)
    for line in found[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)

    if args.trace:
        metrics = trace_metrics(args.workload, plain, traced)
    else:
        metrics = {
            "wall_s": (statistics.median(r.wall for r in plain), "s"),
            "op_p50_s": (statistics.median(res["t"] for r in plain for res in r.results), "s"),
            "peak_rss_mb": (statistics.median(r.rss_kib for r in plain) / 1024, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    print(json.dumps({
        "correct": not found, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def trace_metrics(workload: str, plain: list[Round], traced: list[Round]) -> dict:
    totals = {name: [0, 0.0] for name in tracer.NAMES}
    for rnd in traced:
        for name, (calls, secs) in tracer.self_times(rnd.spans).items():
            totals[name][0] += calls
            totals[name][1] += secs
    k = len(traced)
    metrics = {}
    for name, (calls, secs) in totals.items():
        metrics[f"{name}.calls"] = (calls / k, "count")
        metrics[f"{name}.self_s"] = (secs / k, "s")
    overhead = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    summary = OUT / "trace" / workload / "summary.json"
    summary.write_text(json.dumps({name: v for name, (v, _) in metrics.items()}, indent=1))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
