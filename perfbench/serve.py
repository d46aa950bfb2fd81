"""Serve one round of benchmark operations in a fresh interpreter.

    python3 perfbench/serve.py [--trace SPANS_FILE] < ops.json

Reads a JSON list of operations on stdin and runs them one after another in
this process. An operation is either {"cli": argv}, a call of
ballratio.cli.main with stdout and stderr captured, or {"fn": name, ...},
a call of one library function. Writes one JSON object to stdout: where
ballratio was imported from, the round's wall time from the start of the
first operation to the end of the last, and each operation's result and
time. With --trace the traced functions are wrapped first (tracer.py) and
the spans are written to SPANS_FILE at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback

import tracer
from ballratio import analysis, ballvol, cli, gautschi, specfun
from ballratio.truncation import TruncationControl


def _call(op: dict):
    fn = op["fn"]
    if fn in ("v_product", "w_product"):
        return getattr(ballvol, fn)(op["n"], TruncationControl.tolerance(op["eps"]))
    if fn == "joint_factor_result":
        res = gautschi.joint_factor_result(op["x"], op["a"], TruncationControl.tolerance(op["eps"]))
        return {"value": res.value, "terms_used": res.terms_used, "tail_bound": res.tail_bound}
    if fn == "gautschi_ratio":
        return gautschi.gautschi_ratio(op["x"], op["a"], TruncationControl.tolerance(op["eps"]),
                                       gamma_one_minus_a=op["gamma_one_minus_a"])
    if fn == "digamma_series":
        return specfun.digamma_series(op["x"], TruncationControl.tolerance(op["eps"]))
    if fn == "product_overtake_index":
        return analysis.product_overtake_index(op["n"], op["r_max"])
    if fn == "partials_below_upper_cap":
        return analysis.partials_below_upper_cap(op["n"], op["m_max"])
    raise KeyError(f"unknown operation {fn!r}")


def _cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def main(argv: list[str]) -> int:
    trace_path = argv[1] if argv[:1] == ["--trace"] else None
    ops = json.load(sys.stdin)
    spans = None
    if trace_path:
        spans = tracer.Tracer()
        spans.install()
    results = []
    clock = time.perf_counter
    first = clock()
    for op in ops:
        t0 = clock()
        try:
            res = _cli(op["cli"]) if "cli" in op else {"value": _call(op)}
        except Exception:  # one operation's failure is recorded, the round goes on
            res = {"error": traceback.format_exc()}
        res["t"] = clock() - t0
        results.append(res)
    wall = clock() - first
    if spans is not None:
        spans.write(trace_path)
    json.dump({"module": sys.modules["ballratio"].__file__, "wall": wall, "results": results},
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
