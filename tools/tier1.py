"""Run the tier-1 suite and pass only if its failures are exactly the five
documented refutations.

    python tools/tier1.py [pytest arguments...]

The suite is `python -m pytest -q --continue-on-collection-errors` at the
repository root with src on the path, run here in process. Five acceptance
tests state claims that machine checks refute (README "Verification
findings"), so they fail by design, and pytest's own exit status cannot
tell them from a regression. This script exits 0 when the failing tests are
exactly REFUTED, and 1 when any other test fails or errors, when a module
fails to collect, when one of REFUTED passes or is not run, or when pytest
stops short; it lists each difference. Only the standard library and
pytest are used.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REFUTED = frozenset(f"tests/test_acceptance.py::{name}" for name in (
    "test_c02c_sqrt_lower_bound_at_two",
    "test_c05a_second_order_upper_vs_shifted_sqrt",
    "test_c07a_digamma_refinement_above_sqrt_lower",
    "test_c10d_auxiliary_lhs_at_most_one_sixth",
    "test_c10e_auxiliary_rhs_above_decimal_floor",
))


class Failures:
    """A pytest plugin that keeps the node id of every failed collection,
    setup, call or teardown."""

    def __init__(self) -> None:
        self.ids: set[str] = set()

    def pytest_collectreport(self, report) -> None:
        if report.failed:
            self.ids.add(report.nodeid or "<collection>")

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed:
            self.ids.add(report.nodeid)


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))  # the tier-1 command's PYTHONPATH=src
    failures = Failures()
    code = pytest.main(["-q", "--continue-on-collection-errors", *argv], plugins=[failures])
    unexpected = sorted(failures.ids - REFUTED)
    missing = sorted(REFUTED - failures.ids)
    for nodeid in unexpected:
        print(f"tier1: unexpected failure: {nodeid}")
    for nodeid in missing:
        print(f"tier1: documented refutation did not fail: {nodeid}")
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        print(f"tier1: pytest stopped with exit status {int(code)}")
        return 1
    if unexpected or missing:
        return 1
    print(f"tier1: ok, the failures are exactly the {len(REFUTED)} documented refutations")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
