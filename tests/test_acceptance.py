"""Acceptance suite: one test per check in the verify registry.

Each test prints a PASS/FAIL line and asserts the check passed at its
stated tolerance.  Two checks fail for structural reasons that the check
results themselves document (see their ``note`` fields): the edge-pair
orbit sizes, which cannot be {3, 2} under an order-5 cyclic action, and
fundamental-domain uniqueness, which the non-discrete translation group
rules out.  They are asserted as stated and left red on purpose.
"""

import json
from pathlib import Path

import pytest

from starsurf import tiling
from starsurf.verify import (CHECKS, EXPECTED_FAILURES, RUNTIME_BUDGETS, budget_report,
                             run_verify)

#: the ledger the benchmark gates on; read here, never written
LEDGER_REF = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "ledger_ref.json"
#: checks whose measured string is a count
COUNTED = ("05", "06", "09a", "09c", "10c", "10d", "10e", "10f")

_LEDGER = None


def _ledger():
    global _LEDGER
    if _LEDGER is None:
        _LEDGER = run_verify()
    return _LEDGER


@pytest.mark.parametrize("check", CHECKS, ids=lambda fn: fn.__name__)
def test_acceptance_check(check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.check_id}: {result.claim} "
          f"[measured {result.measured}; tolerance {result.tolerance}]")
    message = f"{result.check_id}: measured {result.measured}"
    if result.note:
        message += f" ({result.note})"
    assert result.passed, message


def test_runtime_budgets():
    report = budget_report(_ledger())
    for criterion, (elapsed, budget, within) in report.items():
        print(f"criterion {criterion}: {elapsed:.4f}s of {budget}s budget")
        assert within, f"criterion {criterion} took {elapsed:.3f}s > {budget}s"


def test_every_criterion_is_covered():
    ids = {e.check_id[:2] for e in _ledger().entries}
    assert ids == set(RUNTIME_BUDGETS)


def test_ledger_matches_the_benchmark_reference():
    reference = json.loads(LEDGER_REF.read_text())["entries"]
    got = {e.check_id: e for e in _ledger().entries}
    assert set(got) == {r["check_id"] for r in reference}
    for ref in reference:
        entry = got[ref["check_id"]]
        assert entry.passed == (entry.check_id not in EXPECTED_FAILURES), entry.check_id
        assert entry.passed == ref["passed"], entry.check_id
        if entry.check_id.split("-")[0] in COUNTED:
            assert entry.measured == ref["measured"], entry.check_id


def test_each_ledger_builds_its_own_word_balls():
    # run_verify empties the tiling caches, so each ledger misses the cache
    # once for the patch's ball and once for the checks' ball, times their
    # builds, and reads the same figures
    ledgers, infos = [], []
    for _ in range(2):
        ledgers.append([(e.check_id, e.passed, e.measured) for e in run_verify().entries])
        infos.append(tiling._translation_values.cache_info())
    assert ledgers[0] == ledgers[1]
    assert infos[0] == infos[1] and infos[0].misses == 2
