"""Command-line surface: rendering in all three formats, exit codes,
determinism, and the injected-fault path for verify."""

import csv
import dataclasses
import decimal
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc

import pytest

import ballratio
from ballratio import analysis
from ballratio import ballvol as bv
from ballratio.analysis import BoundTally
from ballratio.bounds import W_UPPER_51, parse_label
from ballratio.cli import main


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_volume_text(capsys):
    rc, out, err = run_cli(capsys, ["volume", "--n", "0,3"])
    assert rc == 0 and err == ""
    assert "4/3 * pi^1" in out
    assert "4.18879" in out
    row0 = out.splitlines()[1].split()
    assert row0[0] == "0" and row0[-1] == "-"  # no v or w in dimension 0


def test_volume_csv_round_trips(capsys):
    rc, out, _ = run_cli(capsys, ["volume", "--n", "2", "--format", "csv"])
    assert rc == 0
    assert "\r\n" in out  # RFC 4180 line endings
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "omega", "omega_value", "v", "w"]
    assert float(rows[1][3]) == bv.v_exact(2).to_real()  # %.17g is lossless


def test_bounds_text_example(capsys):
    rc, out, _ = run_cli(
        capsys, ["bounds", "--target", "w", "--n", "2", "--ids", "upper-51"])
    assert rc == 0
    assert "1.178097" in out  # exact w_2 = 3 pi / 8 to 7 significant digits
    assert "1.18136" in out   # the bound value at n = 2


def test_bounds_defaults_to_full_catalog(capsys):
    rc, out, _ = run_cli(
        capsys, ["bounds", "--target", "v", "--n", "3", "--format", "json"])
    payload = json.loads(out)
    assert rc == 0
    headers = list(payload["rows"][0])
    assert headers[0] == "n" and headers[1] == "exact"
    # 13 v-side catalog entries, each with a value and a gap column
    assert len(headers) == 2 + 2 * 13


def test_bounds_alzer_exact_row(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["bounds", "--target", "v", "--n", "1", "--ids", "upper-alzer",
         "--format", "json"])
    assert rc == 0
    row = json.loads(out)["rows"][0]
    assert row["exact"] == 0.5
    assert row["upper-alzer"] == 0.5
    assert row["gap:upper-alzer"] == 0.0


def test_bounds_csv_json_numeric_parity(capsys):
    argv = ["bounds", "--target", "v", "--n", "1,2,9",
            "--ids", "lower-borgwardt,lower-d:1"]
    rc, csv_out, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert rc == 0
    rc, json_out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(csv_out)))
    payload = json.loads(json_out)
    assert len(rows) == 1 + len(payload["rows"])
    for crow, jrow in zip(rows[1:], payload["rows"]):
        for header, cell in zip(rows[0], crow):
            want = jrow[header]
            got = int(cell) if header == "n" else float(cell)
            assert got == want, header


def test_json_top_level_shape(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["crossover", "--target", "v", "--ids", "upper-h:2,upper-alzer",
         "--n-max", "10", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert list(payload) == ["query", "rows", "summary"]
    assert payload["summary"]["threshold"] == 3
    assert [r["n_sharper"] for r in payload["rows"]] == [2, 3]


def test_crossover_empty_set(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["crossover", "--target", "v", "--ids", "upper-h:1,upper-alzer",
         "--n-max", "5"])
    assert rc == 0
    assert "count: 0" in out
    assert "{}" in out


def test_determinism(capsys):
    for argv in (
        ["verify", "--n-max", "12", "--format", "json"],
        ["bounds", "--target", "w", "--n", "3,4"],
    ):
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second


def test_verify_clean_exit(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--n-max", "30"])
    assert rc == 0
    assert "violations: 0" in out
    assert "klein_rota_ok: yes" in out


def test_verify_csv_one_row_per_family(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--n-max", "5", "--format", "csv"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 28  # header + 27 catalog entries
    assert rows[0][0] == "bound"


def test_verify_tallies_each_bound_once(capsys):
    # v and w share labels such as upper-alzer; each row counts its own target
    rc, out, _ = run_cli(capsys, ["verify", "--n-max", "20", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    for row in payload["rows"]:
        min_n = parse_label(row["target"], row["bound"]).min_n
        assert row["checked"] == 20 - min_n + 1, row
    total = sum(row["checked"] for row in payload["rows"])
    assert total == payload["summary"]["records"]


def test_verify_injected_fault_exits_one(capsys, monkeypatch):
    real = analysis.verify_tally

    def sabotage(ids, n_max):
        tally = real(ids, n_max)
        bad = BoundTally(checked=3, ok=2, min_margin=-0.2, argmin_n=2)
        return dataclasses.replace(tally, bounds={**tally.bounds, W_UPPER_51: bad})

    monkeypatch.setattr(analysis, "verify_tally", sabotage)
    rc, out, _ = run_cli(capsys, ["verify", "--n-max", "3"])
    assert rc == 1
    assert "violations: 1" in out


# SHA-256 of `verify --n-max 2000` stdout in each format: how verify counts
# may change, what it prints may not
VERIFY_2000_SHA256 = {
    "text": "4f80918afbb72051d2dc8176d443cfbe095d8dadb0ba75681dfa332af4175186",
    "csv": "686314d100ff10643e269c82e44e54aec96e17e9a64c513fecdaa798c58db5a8",
    "json": "7f9fb08e3f86404f4ae2c20de29d8bc357e10683a966ac6106ed29b71ccaf958",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_2000_SHA256))
def test_verify_output_is_pinned(capsys, fmt):
    rc, out, _ = run_cli(capsys, ["verify", "--n-max", "2000", "--format", fmt])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_2000_SHA256[fmt]


# SHA-256 of `bounds --target v --format csv` over the odd n <= 9999, taken
# when the table read v_n at each n alone; it reads them from one walk now
BOUNDS_V_ODD_CSV_SHA256 = "cb9d0dc9d9e8facef0e643b258fdcd149bdde82a05b04ee23446a791a8fb4187"


def test_dense_bounds_table_output_is_pinned(capsys):
    odd = ",".join(map(str, range(1, 10_000, 2)))
    rc, out, _ = run_cli(capsys, ["bounds", "--target", "v", "--n", odd, "--format", "csv"])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_V_ODD_CSV_SHA256


def test_verify_builds_no_records(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("verify built an EvaluationRecord")

    monkeypatch.setattr(analysis, "EvaluationRecord", refuse)
    rc, out, _ = run_cli(capsys, ["verify", "--n-max", "50"])
    assert rc == 0
    assert "violations: 0" in out


def test_verify_memory_stays_flat(capsys):
    tracemalloc.start()
    try:
        rc = main(["verify", "--n-max", "1000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert rc == 0
    assert peak < 2 * 2**20  # one record per (bound, n) would take about 6 MB


def test_malformed_n_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["volume", "--n", "2,x"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_id_exits_two_with_valid_list(capsys):
    rc, _, err = run_cli(
        capsys, ["bounds", "--target", "w", "--n", "2", "--ids", "upper-bogus"])
    assert rc == 2
    assert "upper-merkle-q" in err  # the message enumerates valid ids


def test_bounds_with_no_ids_prints_one_row_per_n(capsys):
    argv = ["bounds", "--target", "v", "--n", "5,7", "--ids", ","]
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0 and "rows: 2" in out
    rc, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    assert rc == 0 and json.loads(out)["summary"]["rows"] == 2


def test_duplicate_ids_exit_two(capsys):
    rc, _, err = run_cli(
        capsys,
        ["bounds", "--target", "w", "--n", "2", "--ids", "upper-51,upper-51"])
    assert rc == 2


def test_below_min_n_exits_three(capsys):
    rc, _, err = run_cli(
        capsys, ["bounds", "--target", "w", "--n", "1", "--ids", "upper-merkle-q"])
    assert rc == 3
    assert "2" in err


def test_truncation_order_above_the_cap_exits_three_at_once(capsys):
    from ballratio.bounds import _MAX_ORDER

    bounds = ["bounds", "--target", "v", "--n", "5", "--ids"]
    for argv in ([*bounds, f"lower-trunc:{_MAX_ORDER + 1}"], [*bounds, "lower-trunc:1000000000"],
                 ["crossover", "--target", "w", "--ids",
                  f"upper-refined:{_MAX_ORDER + 1},upper-51"]):
        t0 = time.perf_counter()
        rc, out, err = run_cli(capsys, argv)
        assert rc == 3 and out == "" and str(_MAX_ORDER) in err, argv
        assert time.perf_counter() - t0 < 1.0
    rc, out, _ = run_cli(capsys, [*bounds, f"lower-trunc:{_MAX_ORDER}", "--format", "csv"])
    assert rc == 0
    assert out.splitlines()[1].startswith("5,0.9375,0.936")


def test_partial_flag_blanks_instead(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["bounds", "--target", "w", "--n", "1,2", "--ids", "upper-merkle-q",
         "--partial"])
    assert rc == 0
    assert out.splitlines()[1].split()[2] == "-"


def test_incompatible_crossover_exits_two(capsys):
    rc, _, _ = run_cli(
        capsys,
        ["crossover", "--target", "v", "--ids", "upper-h:1,lower-borgwardt"])
    assert rc == 2


def test_crossover_needs_exactly_two_ids(capsys):
    rc, _, _ = run_cli(
        capsys, ["crossover", "--target", "v", "--ids", "upper-h:1"])
    assert rc == 2
    rc, _, _ = run_cli(
        capsys,
        ["crossover", "--target", "v",
         "--ids", "upper-h:1,upper-alzer,upper-borgwardt"])
    assert rc == 2


def test_crossover_of_a_bound_with_itself_exits_two(capsys):
    rc, out, err = run_cli(
        capsys, ["crossover", "--target", "v", "--ids", "lower-d:2,lower-d:2", "--n-max", "3000"])
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("ballratio: ")


def test_negative_dimension_exits_three(capsys):
    rc, _, _ = run_cli(capsys, ["volume", "--n", "-2"])
    assert rc == 3


def test_volume_prints_omega_past_the_int_string_limit(capsys):
    rc, out, err = run_cli(capsys, ["volume", "--n", "3,20000", "--format", "csv"])
    assert rc == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][1] == "4/3 * pi^1"
    num, _, rest = rows[2][1].partition("/")
    den, _, power = rest.partition(" * pi^")
    assert (num, power) == ("1", "10000")
    assert int(decimal.Decimal(den)) == math.factorial(10_000)
    assert float(rows[2][2]) == 0.0  # Omega_20000 underflows


def test_volume_computes_one_central_binomial_per_row(capsys, monkeypatch):
    # Omega_n, v_n and w_n of one row share the odd part of C(2k, k), k = n // 2
    calls = []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda n, k: calls.append((n, k)) or comb(n, k))
    for n in (100_000, 99_999):
        bv._odd_central.cache_clear()
        calls.clear()
        rc, _, _ = run_cli(capsys, ["volume", "--n", str(n)])
        assert rc == 0 and len(calls) == 1, (n, calls)


def test_dimension_above_cap_exits_three_at_once(capsys):
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, ["volume", "--n", "1000000000"])
    assert rc == 3 and out == "" and "100000" in err
    assert time.perf_counter() - t0 < 1.0


def test_verify_n_max_outside_the_range_exits_three(capsys):
    for n_max in ("0", "100001"):  # an empty sweep is refused, not counted
        rc, out, err = run_cli(capsys, ["verify", "--n-max", n_max])
        assert rc == 3 and out == "" and err.count("ballratio:") == 1, n_max


def test_crossover_above_cap_exits_three_at_once(capsys):
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, ["crossover", "--target", "w", "--ids",
                                    "upper-51,upper-alzer", "--n-max", "100001"])
    assert rc == 3 and out == "" and "100000" in err
    assert time.perf_counter() - t0 < 1.0


def test_bounds_at_the_cap_fit_in_one_gigabyte():
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ballratio.__file__)))
    argv = [sys.executable, "-m", "ballratio.cli", "bounds", "--target", "v",
            "--n", str(bv.MAX_DIMENSION), "--format", "csv"]
    proc = subprocess.run(argv, env=env, preexec_fn=limit_address_space,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].startswith(f"{bv.MAX_DIMENSION},")
