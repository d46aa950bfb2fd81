"""tools/bench.py's in-process scripts still run against this tree, so a
renamed private name that they read fails here rather than in a bench run."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _script(*argv):
    """stdout of python -c argv in a child interpreter on this tree's src, as JSON."""
    _, _, out = bench._child(str(ROOT / "src"), ["-c", *argv])
    return json.loads(out)


def test_split_runs_on_this_tree():
    split = _script(bench.SPLIT, "300")
    assert set(split) == {"ratio_walk_s", "catalog_values_s", "verify_tally_s",
                          "decide_tally_s"}
    assert all(split[key] > 0 for key in split)
    # decide/tally is timed within one verify_tally, not from separate runs
    assert split["decide_tally_s"] < split["verify_tally_s"]


def test_cold_import_of_the_cli_loads_no_mpmath():
    _, _, out = bench._child(str(ROOT / "src"), ["-c", bench.IMPORT_CLI])
    assert out.strip() == "False"


def test_ties_runs_on_this_tree():
    ties = _script(bench.TIES, "300", json.dumps(bench.ULPS))
    assert set(ties) == {"slack_only", *(f"within_{k}_ulp" for k in bench.ULPS)}
    # the exact tie v:upper-alzer at n = 1 is an "ok" only through the slack
    assert ties["slack_only"]["v:upper-alzer"] == 1


def test_first_verify_runs_on_this_tree():
    first = _script(bench.FIRST)
    assert set(first) == {"first_verify_5000_s", "second_verify_5000_s"}
    assert all(first[key] > 0 for key in first)


def test_children_share_one_private_bytecode_cache(tmp_path):
    # bytecode is written, and read from the given cache alone
    _, _, out = bench._child(str(ROOT / "src"), [
        "-c", "import sys; print(sys.pycache_prefix, sys.dont_write_bytecode)"], str(tmp_path))
    assert out.split() == [str(tmp_path), "False"]
    bench._child(str(ROOT / "src"), ["-c", bench.WARM, str(ROOT / "src")], str(tmp_path))
    assert list(tmp_path.rglob("bounds.*.pyc"))
