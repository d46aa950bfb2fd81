"""Check that no seed can draw an input on which a check fails.

    PYTHONPATH=src python3 perfbench/audit.py

The workloads draw their inputs from finite pools (workloads.py). This runs
ballratio on the members of those pools and checks every answer: each
record of the sweep, each crossover pair at the largest n-max, each
product input on its grid, each volume n, and the bound tables on a stride
through the queries' range of n. It prints every problem it finds and exits
1 if there was one. Run it after changing a pool, a check or the program;
it takes a few minutes on two cores. The inputs that every round keeps
although the program fails on them (workloads.VOLUME_FAULT_N,
workloads.OVERTAKE_FAULT_N) are printed as known faults and do not count.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys

import checks
import reference
import workloads as W
from ballratio import analysis, ballvol, cli, gautschi, specfun
from ballratio.truncation import TruncationControl


def _cli(spec: dict) -> list[str]:
    op = W.cli_op(spec)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(op["cli"])
    if rc != 0:
        return [f"{op['cli']} exited {rc}"]
    return checks.problems(op, {"rc": rc, "out": out.getvalue()})


def _call(op: dict, value) -> list[str]:
    return checks.problems(op, {"value": value})


def main() -> int:
    tol = TruncationControl.tolerance
    found: list[str] = []
    for target, label, _, lo in reference.CATALOG:
        found += [f"sweep record {target}:{label} at n={n} is on the wrong side"
                  for n in range(lo, W.SWEEP_N + 1) if not reference.side_ok(target, label, n)]

    for target, a, b in [W.CROSSOVER_NEAR_TIE, *W.CROSSOVER_PAIRS]:
        found += _cli({"cmd": "crossover", "target": target, "ids": [a, b],
                       "n_max": W.CROSSOVER_N_MAX, "format": "json"})

    for k in range(0, len(W.VOLUME_N), 100):
        found += _cli({"cmd": "volume", "n": list(W.VOLUME_N[k:k + 100]), "format": "csv"})
    for target in ("v", "w"):
        ns = [*range(1, W.QUERY_N_MAX, 97), W.QUERY_N_MAX - 1, W.QUERY_N_MAX]
        for k in range(0, len(ns), 50):
            found += _cli({"cmd": "bounds", "target": target, "ids": None, "n": ns[k:k + 50],
                           "partial": True, "format": "json"})

    for n in W.PRODUCT_N:
        op = {"fn": "v_product", "n": n, "eps": W.PRODUCT_EPS}
        found += _call(op, ballvol.v_product(n, tol(W.PRODUCT_EPS)))
        op = {"fn": "w_product", "n": n, "eps": W.W_PRODUCT_EPS}
        found += _call(op, ballvol.w_product(n, tol(W.W_PRODUCT_EPS)))
        for m_max in W.UPPER_CAP_M_MAX:
            op = {"fn": "partials_below_upper_cap", "n": n, "m_max": m_max}
            found += _call(op, analysis.partials_below_upper_cap(n, m_max))
    for n in W.OVERTAKE_N:
        op = {"fn": "product_overtake_index", "n": n, "r_max": W.OVERTAKE_R_MAX}
        found += _call(op, analysis.product_overtake_index(n, W.OVERTAKE_R_MAX))
    for x in W.DIGAMMA_X:
        op = {"fn": "digamma_series", "x": x, "eps": W.PRODUCT_EPS}
        found += _call(op, specfun.digamma_series(x, tol(W.PRODUCT_EPS)))
    eps = W.PRODUCT_EPS
    for a, x in W.JOINT_AX:
        res = gautschi.joint_factor_result(x, a, tol(eps))
        found += _call({"fn": "joint_factor_result", "x": x, "a": a, "eps": eps},
                       {"value": res.value, "terms_used": res.terms_used,
                        "tail_bound": res.tail_bound})
        g = math.gamma(1 - a)
        found += _call({"fn": "gautschi_ratio", "x": x, "a": a, "eps": eps, "gamma_one_minus_a": g},
                       gautschi.gautschi_ratio(x, a, tol(eps), gamma_one_minus_a=g))

    # the two inputs every round keeps although the program fails on them
    known = _cli({"cmd": "volume", "n": [W.VOLUME_FAULT_N], "format": "text"})
    op = {"fn": "product_overtake_index", "n": W.OVERTAKE_FAULT_N, "r_max": W.OVERTAKE_R_MAX}
    known += _call(op, analysis.product_overtake_index(W.OVERTAKE_FAULT_N, W.OVERTAKE_R_MAX))
    for line in known:
        print(f"known fault: {line}")
    for line in found:
        print(line)
    print(f"audit: {len(found)} problems")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
