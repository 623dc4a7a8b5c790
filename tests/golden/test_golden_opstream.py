"""Golden digests: any change that shifts op streams, schedules or metrics fails.

On a mismatch the test writes ``golden-digest-diff.json`` (working
directory) listing the expected and actual digest of every diverging case;
CI uploads the file as an artifact.  If the change was intentional,
regenerate with ``PYTHONPATH=src python tests/golden/regenerate.py`` and
commit the result.  Independently of the committed values, every case's
schedules must pass :func:`repro.scheduling.validate_schedule`.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from golden_cases import (CASES, DIGEST_FIELDS, SCHEMA, case_key,
                          compile_case, compute_digest, load_committed)
from repro.mapping import shuttling_router
from repro.scheduling import validate_schedule

DIFF_PATH = Path("golden-digest-diff.json")


@pytest.fixture(scope="module", autouse=True)
def _fresh_diff_file():
    """Drop stale divergence records so the artifact reflects this run only."""
    if DIFF_PATH.exists():
        DIFF_PATH.unlink()


@pytest.fixture(scope="module")
def committed():
    data = load_committed()
    assert data["schema"] == SCHEMA
    return {case_key(entry): entry for entry in data["cases"]}


def _record_diff(case, expected, actual) -> None:
    """Append one divergence to the diff artifact (for the CI upload)."""
    existing = []
    if DIFF_PATH.exists():
        try:
            existing = json.loads(DIFF_PATH.read_text())
        except ValueError:
            existing = []
    existing.append({"case": case_key(case), "expected": expected,
                     "actual": actual})
    DIFF_PATH.write_text(json.dumps(existing, indent=2) + "\n")


def test_golden_file_covers_exactly_the_case_matrix(committed):
    assert sorted(committed) == sorted(case_key(case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_key)
def test_op_stream_digest_matches_committed(case, committed):
    expected_entry = committed[case_key(case)]
    expected = {field: expected_entry[field] for field in DIGEST_FIELDS}
    actual = compute_digest(case)
    if actual != expected:
        _record_diff(case, expected, actual)
    assert actual == expected, (
        f"op stream, schedules or metrics of {case_key(case)} diverged from "
        f"the committed golden digest (see {DIFF_PATH}); if intentional, "
        "regenerate via "
        "'PYTHONPATH=src python tests/golden/regenerate.py'")


@pytest.mark.parametrize("case", CASES, ids=case_key)
def test_digest_unchanged_with_the_chain_screen_forced(case, committed,
                                                       monkeypatch):
    """The ``best_chain`` screen only engages on fronts wider than its
    width constant, which these small circuits rarely reach.  Forced on in
    every round, it must reproduce every committed digest."""
    monkeypatch.setattr(shuttling_router, "_SCREEN_FRONT_WIDTH", 0)
    expected_entry = committed[case_key(case)]
    expected = {field: expected_entry[field] for field in DIGEST_FIELDS}
    assert compute_digest(case) == expected, case_key(case)


@pytest.mark.parametrize("case", CASES, ids=case_key)
def test_schedules_pass_the_oracle(case):
    """Both schedules keep atom exclusivity and the restriction radius."""
    architecture, _circuit, _result, reference, mapped = compile_case(case)
    assert validate_schedule(reference, architecture) == []
    assert validate_schedule(mapped, architecture) == []
