"""Each benchmark check accepts ballratio's answer and rejects a wrong one.

    python3 -m pytest perfbench -q

Correct answers come from ballratio itself on small inputs; wrong ones are
made from them by the smallest change the check must see.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ballratio import analysis, ballvol, cli, gautschi, specfun  # noqa: E402
from ballratio.truncation import TruncationControl  # noqa: E402


def cli_op(spec: dict) -> tuple[dict, str]:
    op = workloads.cli_op(spec)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(op["cli"]) == 0
    return op, out.getvalue()


def found(op: dict, out: str) -> list[str]:
    return checks.problems(op, {"rc": 0, "out": out})


# -- products ---------------------------------------------------------------


def test_v_product_off_by_two_eps_either_way():
    op = {"fn": "v_product", "n": 7, "eps": 1e-4}
    value = ballvol.v_product(7, TruncationControl.tolerance(1e-4))
    assert checks.problems(op, {"value": value}) == []
    assert checks.problems(op, {"value": value * (1 + 2e-4)})  # above the true value
    assert checks.problems(op, {"value": value * (1 - 2e-4)})  # short by more than eps


def test_w_product_off_by_two_eps():
    op = {"fn": "w_product", "n": 5, "eps": 1e-5}
    value = ballvol.w_product(5, TruncationControl.tolerance(1e-5))
    assert checks.problems(op, {"value": value}) == []
    assert checks.problems(op, {"value": value * (1 + 2e-5)})
    assert checks.problems(op, {"value": value * (1 - 2e-5)})


def test_joint_factor_result_terms_used_must_be_minimal():
    op = {"fn": "joint_factor_result", "x": 2.5, "a": 0.3, "eps": 1e-4}
    res = gautschi.joint_factor_result(2.5, 0.3, TruncationControl.tolerance(1e-4))
    good = {"value": res.value, "terms_used": res.terms_used, "tail_bound": res.tail_bound}
    assert checks.problems(op, {"value": good}) == []
    for m in (res.terms_used - 1, res.terms_used + 1):
        assert checks.problems(op, {"value": dict(good, terms_used=m)})
    assert checks.problems(op, {"value": dict(good, tail_bound=res.tail_bound / 2)})
    assert checks.problems(op, {"value": dict(good, value=res.value * (1 + 2e-4))})


def test_gautschi_ratio_off_by_two_eps():
    a = 0.35
    op = {"fn": "gautschi_ratio", "x": 3.0, "a": a, "eps": 1e-4}
    value = gautschi.gautschi_ratio(3.0, a, TruncationControl.tolerance(1e-4),
                                    gamma_one_minus_a=math.gamma(1 - a))
    assert checks.problems(op, {"value": value}) == []
    assert checks.problems(op, {"value": value * (1 + 2e-4)})
    assert checks.problems(op, {"value": value * (1 - 2e-4)})


def test_digamma_series_outside_its_tail():
    op = {"fn": "digamma_series", "x": 1.5, "eps": 1e-4}
    value = specfun.digamma_series(1.5, TruncationControl.tolerance(1e-4))
    assert checks.problems(op, {"value": value}) == []
    assert checks.problems(op, {"value": value + 2e-4})
    assert checks.problems(op, {"value": value - 2e-4})


@pytest.mark.parametrize("n", [1, 12])
def test_overtake_index_off_by_one(n):
    op = {"fn": "product_overtake_index", "n": n, "r_max": 10**5}
    r = analysis.product_overtake_index(n, 10**5)
    assert checks.problems(op, {"value": r}) == []
    assert checks.problems(op, {"value": r - 1})
    assert checks.problems(op, {"value": r + 1})
    assert checks.problems(op, {"value": None})


def test_overtake_index_at_97_is_3688643():
    # the program's float scan returns 3688644 here; the workload keeps the
    # call in every round as a known fault
    op = {"fn": "product_overtake_index", "n": 97, "r_max": 10**7}
    assert checks.problems(op, {"value": 3688643}) == []
    assert checks.problems(op, {"value": 3688644})


def test_known_fault_counts_as_failed_and_others_as_wrong():
    op = {"fn": "product_overtake_index", "n": 97, "r_max": 10**7}
    ops = [dict(op, known_fault=True), op, dict(op, known_fault=True), {"cli": ["volume"]}]
    results = [{"value": 3688644}, {"value": 3688644}, {"value": 3688643}, {"rc": 2, "out": ""}]
    attempted, failed, found = run.tally([run.Round(ops, 1.0, results, 0, None)])
    assert (attempted, failed, len(found)) == (4, 2, 1)


def test_overtake_index_beyond_r_max():
    op = {"fn": "product_overtake_index", "n": 37, "r_max": 10**5}  # the index is 208208
    assert analysis.product_overtake_index(37, 10**5) is None
    assert checks.problems(op, {"value": None}) == []
    assert checks.problems(op, {"value": 10**5})


def test_upper_cap_answer_flipped():
    op = {"fn": "partials_below_upper_cap", "n": 4, "m_max": 1000}
    value = analysis.partials_below_upper_cap(4, 1000)
    assert checks.problems(op, {"value": value}) == []
    assert checks.problems(op, {"value": not value})


# -- CLI --------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_crossover_with_one_extra_or_one_missing_n(fmt):
    op, out = cli_op({"cmd": "crossover", "target": "v", "ids": ["upper-h:2", "upper-alzer"],
                      "n_max": 50, "format": fmt})
    assert found(op, out) == []
    # the true set is {2, 3}
    if fmt == "json":
        payload = json.loads(out)
        payload["rows"].append({"n_sharper": 4})
        extra = json.dumps(payload)
        payload["rows"] = payload["rows"][:1]
        missing = json.dumps(payload)
    else:
        eol = "\r\n" if fmt == "csv" else "\n"
        extra = out.replace(f"3{eol}", f"3{eol}4{eol}", 1)
        missing = out.replace(f"3{eol}", "", 1)
    assert found(op, extra)
    assert found(op, missing)


def test_crossover_near_tie_summary_is_checked():
    op, out = cli_op({"cmd": "crossover", "target": "w", "ids": ["upper-refined:1", "upper-51"],
                      "n_max": 300, "format": "text"})
    assert found(op, out) == []
    assert found(op, out.replace("threshold: 300", "threshold: 299"))


def test_verify_doubled_records_and_a_violation():
    spec = {"cmd": "verify", "n_max": 20, "format": "text", "sample": [("w", "upper-51", 7)]}
    op, out = cli_op(spec)
    assert found(op, out) == []
    assert found(op, out.replace("records: 539", "records: 1078"))
    assert found(op, out.replace("violations: 0", "violations: 1"))
    # a single-target row must count every n from its min n
    assert found(op, out.replace("w       19       19", "w       20       20"))
    op_json, out_json = cli_op(dict(spec, format="json"))
    payload = json.loads(out_json)
    payload["summary"]["klein_rota_ok"] = False
    assert found(op_json, json.dumps(payload))


def test_verify_sample_is_re_decided(monkeypatch):
    spec = {"cmd": "verify", "n_max": 20, "format": "json", "sample": [("v", "lower-alzer", 9)]}
    op, out = cli_op(spec)
    assert found(op, out) == []
    # a bound on the wrong side of v_9: the re-decision must disagree with "ok"
    monkeypatch.setattr(reference, "bound", lambda t, label, n: reference.v(n) * 2)
    assert found(op, out)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_volume_omega_and_ratios(fmt):
    op, out = cli_op({"cmd": "volume", "n": [0, 3, 1001], "format": fmt})
    assert found(op, out) == []
    assert found(op, out.replace("4/3 * pi^1", "5/3 * pi^1"))
    v3 = "0.75"
    assert found(op, out.replace(v3, "0.7500008", 1))


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_bounds_cell_on_the_wrong_side(fmt):
    spec = {"cmd": "bounds", "target": "w", "n": [1, 9], "ids": None, "partial": True, "format": fmt}
    op, out = cli_op(spec)
    assert found(op, out) == []
    # lower-classic at n = 9 is sqrt(1.1) = 1.0488088..., w_9 = 1.0838...;
    # raising the bound above w_9 puts it on the wrong side
    value = ballvol.w_exact(9).to_real() * (1 + 1e-5)
    bound = math.sqrt(1.0 + 1.0 / 10)
    cell = {"text": f"{bound:.7g}", "csv": f"{bound:.17g}", "json": repr(bound)}[fmt]
    new = {"text": f"{value:.7g}", "csv": f"{value:.17g}", "json": repr(value)}[fmt]
    assert cell in out
    assert found(op, out.replace(cell, new, 1))


def test_bounds_blank_cell_without_partial():
    op, out = cli_op({"cmd": "bounds", "target": "w", "n": [1], "ids": None, "partial": True,
                      "format": "json"})
    assert found(op, out) == []
    op["check"] = dict(op["check"], partial=False)
    assert found(op, out)
