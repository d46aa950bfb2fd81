"""Checks of each operation's output against reference.py.

`problems(op, result)` returns a list of what is wrong with one operation's
result; an empty list means the output is correct. Call it only for
operations that did not fail (exit code 0, no exception): `failed` in
run.py counts those. No check compares against a stored copy of an earlier
output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

import reference
from reference import MP

# Relative rounding a cell may carry: 7 significant digits in text, a
# double (plus the few roundings that made it) in csv and json.
TEXT_TOL = 5e-7 + 1e-14
RAW_TOL = 2e-15
# Slack on log-gaps of the products for float summation over up to 10^8
# terms; far below the 1e-6 tolerances they are checked against.
SLACK = 1e-13
# gautschi evaluates its tail bound in double, as |c/(a+b)| log((m+b)/(m-a)),
# where the log loses up to ~1e-11 of relative accuracy to cancellation. The
# minimality of terms_used is judged up to this share; one term more or less
# moves the bound by about 1/m, over 1e-8 for every m the workloads reach.
TAIL_REL = 1e-9


def problems(op: dict, result: dict) -> list[str]:
    if "cli" in op:
        spec = op["check"]
        return _CLI[spec["cmd"]](spec, result["out"])
    return _CALL[op["fn"]](op, result["value"])


# -- parsing the three output formats --------------------------------------


def _parse(fmt: str, out: str) -> tuple[list[str], list[list], dict]:
    """(headers, rows, summary); cells are None, int, float or str."""
    if fmt == "json":
        payload = json.loads(out)
        rows = payload["rows"]
        headers = list(rows[0]) if rows else []
        return headers, [[r[h] for h in headers] for r in rows], payload["summary"]
    if fmt == "csv":
        lines = list(csv.reader(io.StringIO(out, newline="")))
        return lines[0], [[_cell(c, "") for c in row] for row in lines[1:]], {}
    table, _, tail = out.partition("\n\n")
    lines = table.splitlines()
    headers = re.split(r"\s{2,}", lines[0].strip())
    rows = [[_cell(c, "-") for c in re.split(r"\s{2,}", line.strip())] for line in lines[1:]]
    summary = dict(line.split(": ", 1) for line in tail.splitlines())
    return headers, rows, summary


def _cell(text: str, blank: str):
    if text == blank:
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _tol(fmt: str) -> float:
    return TEXT_TOL if fmt == "text" else RAW_TOL


def _close(cell, ref, tol: float) -> bool:
    return isinstance(cell, (int, float)) and abs(cell - ref) <= tol * abs(ref) + 1e-320


def _summary_value(summary: dict, key: str):
    value = summary.get(key)
    if isinstance(value, str):
        return {"yes": True, "no": False, "-": None}.get(value, _cell(value, "-"))
    return value


def _summary_problems(fmt: str, summary: dict, expected: dict) -> list[str]:
    if fmt == "csv":
        return []  # csv carries rows only
    return [f"summary {key}: {_summary_value(summary, key)!r}, expected {want!r}"
            for key, want in expected.items() if _summary_value(summary, key) != want]


# -- CLI commands -----------------------------------------------------------


def check_verify(spec: dict, out: str) -> list[str]:
    fmt, n_max = spec["format"], spec["n_max"]
    headers, rows, summary = _parse(fmt, out)
    found: list[str] = []
    if headers != ["bound", "side", "target", "checked", "ok", "violations"]:
        found.append(f"verify headers {headers}")
    if len(rows) != len(reference.CATALOG):
        found.append(f"verify has {len(rows)} rows, catalog has {len(reference.CATALOG)}")
    # verify tallies rows by label, so a label in both targets is skipped here
    shared = set(reference.labels("v")) & set(reference.labels("w"))
    for row, (target, label, side, lo) in zip(rows, reference.CATALOG):
        name, row_side, row_target, checked, ok, bad = row
        if (name, row_side, row_target) != (label, side, target):
            found.append(f"verify row {row[:3]}, expected {(label, side, target)}")
            continue
        if bad != 0 or ok != checked:
            found.append(f"verify row {label}/{target}: {bad} violations, {ok} of {checked} ok")
        if label not in shared and checked != n_max - lo + 1:
            found.append(f"verify row {label}/{target}: checked {checked}, expected {n_max - lo + 1}")
    found += _summary_problems(fmt, summary, {
        "n_max": n_max, "bounds": len(reference.CATALOG),
        "records": reference.record_count(n_max), "violations": 0, "klein_rota_ok": True,
    })
    # A record the reference puts on the wrong side must show as a violation
    # in its row. No record up to n = 5000 is on the wrong side (audit.py), so
    # this guards the expectation `violations: 0` above rather than adding a
    # check of the program's answer.
    violated = {(row[2], row[0]) for row in rows if row[5] != 0}
    for target, label, n in spec["sample"]:
        if not reference.side_ok(target, label, n) and (target, label) not in violated:
            found.append(f"verify counted {target}:{label} at n={n} ok; it is on the wrong side")
    return found


def _parse_omega(text) -> tuple:
    m = re.fullmatch(r"(\d+)(?:/(\d+))? \* pi\^(\d+)", str(text))
    if not m:
        return None
    return Fraction(int(m[1]), int(m[2] or 1)), int(m[3])


def check_volume(spec: dict, out: str) -> list[str]:
    fmt, ns = spec["format"], spec["n"]
    headers, rows, summary = _parse(fmt, out)
    tol = _tol(fmt)
    found: list[str] = []
    if headers != ["n", "omega", "omega_value", "v", "w"]:
        found.append(f"volume headers {headers}")
    if [row[0] for row in rows] != ns:
        found.append(f"volume rows for n={[row[0] for row in rows]}, asked {ns}")
    for row in rows:
        n, om, om_value, v, w = row
        if not isinstance(n, int) or n < 0:
            continue
        if _parse_omega(om) != reference.omega_exact(n):
            found.append(f"volume n={n}: omega {om!r} is not {reference.omega_exact(n)}")
        if not _close(om_value, reference.omega(n), tol):
            found.append(f"volume n={n}: omega_value {om_value!r}")
        if n == 0:
            if (v, w) != (None, None):
                found.append(f"volume n=0: v, w = {v!r}, {w!r}; expected blanks")
            continue
        if not _close(v, reference.v(n), tol):
            found.append(f"volume n={n}: v {v!r}, expected {MP.nstr(reference.v(n), 17)}")
        if not _close(w, reference.w(n), tol):
            found.append(f"volume n={n}: w {w!r}, expected {MP.nstr(reference.w(n), 17)}")
    return found + _summary_problems(fmt, summary, {"rows": len(ns)})


def check_bounds(spec: dict, out: str) -> list[str]:
    fmt, target, ns = spec["format"], spec["target"], spec["n"]
    labels = spec["ids"] or reference.labels(target)
    headers, rows, summary = _parse(fmt, out)
    tol = _tol(fmt)
    found: list[str] = []
    if headers != ["n", "exact", *labels, *(f"gap:{label}" for label in labels)]:
        found.append(f"bounds headers {headers}")
        return found
    if [row[0] for row in rows] != ns:
        found.append(f"bounds rows for n={[row[0] for row in rows]}, asked {ns}")
    k = len(labels)
    for row in rows:
        n, ex_cell = row[0], row[1]
        ex = reference.exact(target, n)
        if not _close(ex_cell, ex, tol):
            found.append(f"bounds {target} n={n}: exact {ex_cell!r}, expected {MP.nstr(ex, 17)}")
            continue
        for label, cell, gap in zip(labels, row[2:2 + k], row[2 + k:]):
            if n < reference.min_n(target, label):
                if (cell, gap) != (None, None) or not spec.get("partial"):
                    found.append(f"bounds {target}:{label} n={n}: {cell!r} below the bound's min n")
                continue
            lower = reference.side(target, label) == "lower"
            slack = tol * abs(ex)
            if not isinstance(cell, (int, float)) or (
                    cell > ex + slack if lower else cell < ex - slack):
                found.append(f"bounds {target}:{label} n={n}: {cell!r} on the wrong side of "
                             f"{MP.nstr(ex, 17)}")
                continue
            want_gap = ex_cell - cell if lower else cell - ex_cell
            if not isinstance(gap, (int, float)) or abs(gap - want_gap) > 4 * slack:
                found.append(f"bounds {target}:{label} n={n}: gap {gap!r}, expected {want_gap!r}")
    return found + _summary_problems(fmt, summary, {"rows": len(ns), "bounds": k})


def check_crossover(spec: dict, out: str) -> list[str]:
    fmt, target, (a, b), n_max = spec["format"], spec["target"], spec["ids"], spec["n_max"]
    headers, rows, summary = _parse(fmt, out)
    found: list[str] = []
    if headers not in (["n_sharper"], []):
        found.append(f"crossover headers {headers}")
    got = [row[0] for row in rows]
    want = sorted(reference.sharper_set(target, a, b, n_max))
    if got != want:
        extra, missing = sorted(set(got) - set(want)), sorted(set(want) - set(got))
        found.append(f"crossover {target} {a} vs {b} to {n_max}: reported but not sharper "
                     f"{extra[:10]}, sharper but not reported {missing[:10]}, order ok "
                     f"{got == sorted(got)}")
    contiguous = bool(want) and want[-1] - want[0] + 1 == len(want)
    shape = "{}" if not want else f"{want[0]}..{want[-1]}" if contiguous else ",".join(map(str, want))
    return found + _summary_problems(fmt, summary, {
        "bound_a": a, "bound_b": b, "count": len(want), "sharper": shape,
        "threshold": want[-1] if contiguous else None,
    })


_CLI = {"verify": check_verify, "volume": check_volume, "bounds": check_bounds,
        "crossover": check_crossover}


# -- library calls ----------------------------------------------------------


def _log_gap(what: str, true_log, value, most) -> list[str]:
    """The truncations under-approximate: 0 <= true_log - log(value) <= most."""
    if not (isinstance(value, float) and value > 0):
        return [f"{what}: value {value!r} is not a positive float"]
    gap = true_log - MP.log(MP.mpf(value))
    if gap < -SLACK:
        return [f"{what}: {value!r} lies above the true value (log-gap {MP.nstr(gap, 5)})"]
    if gap > most + SLACK:
        return [f"{what}: {value!r} falls short by {MP.nstr(gap, 5)} in log, allowed {most}"]
    return []


def check_v_product(op: dict, value) -> list[str]:
    n = op["n"]
    return _log_gap(f"v_product({n})", MP.log(reference.v(n)), value, op["eps"])


def check_w_product(op: dict, value) -> list[str]:
    n = op["n"]
    return _log_gap(f"w_product({n})", MP.log(reference.w(n)), value, op["eps"])


def check_joint_factor_result(op: dict, value) -> list[str]:
    x, a, eps = op["x"], op["a"], op["eps"]
    what = f"joint_factor_result({x}, {a})"
    m, tail = value["terms_used"], value["tail_bound"]
    found = []
    if not (isinstance(m, int) and m >= 1):
        return [f"{what}: terms_used {m!r}"]
    own_tail = reference.joint_factor_tail(x, a, m)
    if not own_tail < eps * (1 + TAIL_REL) or (
            m > 1 and reference.joint_factor_tail(x, a, m - 1) < eps * (1 - TAIL_REL)):
        found.append(f"{what}: terms_used {m} is not the least m with tail bound below {eps}")
    if not (isinstance(tail, float) and abs(tail - own_tail) <= TAIL_REL * own_tail):
        found.append(f"{what}: tail_bound {tail!r}, the bound at m={m} is {MP.nstr(own_tail, 17)}")
    return found + _log_gap(what, reference.log_joint_factor(x, a), value["value"], own_tail)


def check_gautschi_ratio(op: dict, value) -> list[str]:
    x, a = op["x"], op["a"]
    return _log_gap(f"gautschi_ratio({x}, {a})", reference.log_gamma_ratio(x, a), value, op["eps"])


def check_digamma_series(op: dict, value) -> list[str]:
    x, eps = op["x"], op["eps"]
    terms = math.ceil(abs(x) / eps)
    what = f"digamma_series({x})"
    if not isinstance(value, float):
        return [f"{what}: value {value!r}"]
    # positive terms: the K-term partial sits below psi(x+1) by at most x/K
    gap = reference.digamma_shifted(x) - MP.mpf(value)
    if not -SLACK <= gap <= x / terms + SLACK:
        return [f"{what}: {value!r} is {MP.nstr(gap, 5)} below psi(x+1), allowed [0, {x / terms}]"]
    return []


def check_product_overtake_index(op: dict, value) -> list[str]:
    n, r_max = op["n"], op["r_max"]
    what = f"product_overtake_index({n}, {r_max})"
    target = reference.log_overtake_target(n)
    if value is None:
        if reference.log_overtake_partial(n, r_max) > target:
            return [f"{what}: None, but P(r_max) is above sqrt(pi(2n+1))/2"]
        return []
    if not (isinstance(value, int) and 1 <= value <= r_max):
        return [f"{what}: {value!r} is no index"]
    if not reference.log_overtake_partial(n, value - 1) <= target < reference.log_overtake_partial(n, value):
        return [f"{what}: {value} is not the least r with P(r) above sqrt(pi(2n+1))/2"]
    return []


def check_partials_below_upper_cap(op: dict, value) -> list[str]:
    n, m_max = op["n"], op["m_max"]
    want = bool(reference.log_overtake_partial(n, m_max) < reference.log_upper_cap(n))
    if value is not want:
        return [f"partials_below_upper_cap({n}, {m_max}): {value!r}, expected {want}"]
    return []


_CALL = {
    "v_product": check_v_product,
    "w_product": check_w_product,
    "joint_factor_result": check_joint_factor_result,
    "gautschi_ratio": check_gautschi_ratio,
    "digamma_series": check_digamma_series,
    "product_overtake_index": check_product_overtake_index,
    "partials_below_upper_cap": check_partials_below_upper_cap,
}
