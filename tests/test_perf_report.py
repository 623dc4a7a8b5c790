"""Smoke checks of the perf-report CLI (``benchmarks/perf_report.py``).

The CLI runs as a subprocess from the repository root at ``--scale 0.08``
(a few seconds per run: each matrix case compiles three times), always with
``--out`` in a temporary directory:
the default matrix, the zoned case, a batch-throughput case, a matrix
regeneration and the serial large-circuit case into the same report, which
must keep the report's merge rules (also checked on synthetic cases through
``merge_report`` itself).
The tracked ``BENCH_scaling.json`` must come out byte-identical.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TRACKED_REPORT = REPO_ROOT / "BENCH_scaling.json"
PASS_NAMES = {"decompose", "initial_layout", "routing", "schedule", "evaluate"}
SCALE = "0.08"


def _run(out: Path, *args: str) -> dict:
    subprocess.run(
        [sys.executable, "benchmarks/perf_report.py", "--scale", SCALE,
         "--out", str(out), *args],
        cwd=REPO_ROOT, check=True, capture_output=True, text=True)
    return json.loads(out.read_text())


def _single(report: dict) -> list:
    return [case for case in report["cases"] if "kind" not in case]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Reports after each step of one run sequence into one ``--out``."""
    tracked = TRACKED_REPORT.read_bytes()
    out = tmp_path_factory.mktemp("perf_report") / "report.json"
    reports = {
        "matrix": _run(out),
        "zoned": _run(out, "--topology", "zoned", "--hardware", "mixed",
                      "--circuits", "qft"),
        "batch": _run(out, "--batch", "--workers", "2"),
        "regenerated": _run(out, "--circuits", "qft"),
        "serial_large": _run(out, "--serial-large"),
    }
    return tracked, reports


def test_matrix_cases(runs):
    _, reports = runs
    report = reports["matrix"]
    assert report["schema"] == "repro-bench-scaling/v1"
    assert report["scale"] == float(SCALE)
    cases = _single(report)
    assert len(cases) == len(report["cases"]) == 6
    assert {(case["hardware"], case["circuit"]) for case in cases} == {
        (hardware, circuit) for hardware in ("gate", "mixed", "shuttling")
        for circuit in ("qft", "graph")}
    for case in cases:
        assert set(case["pass_seconds"]) == PASS_NAMES
        # At tiny scales a case may need no routing at all.
        assert case["num_swaps"] >= 0 and case["num_moves"] >= 0
        assert case["mapper_seconds"] >= 0
        # Each case is the median of a fixed number of compiles.
        assert case["repeats"] == 3
        assert (0 < case["wall_min_seconds"] <= case["wall_seconds"]
                <= case["wall_max_seconds"])
        # The default config maps with commutation on.
        assert "pending the sound DAG" in case["quality_caveat"]


def test_zoned_case_shuttles_and_keeps_the_square_matrix(runs):
    _, reports = runs
    report = reports["zoned"]
    zoned, *kept = report["cases"]
    assert (zoned["topology"], zoned["hardware"], zoned["circuit"]) == (
        "zoned", "mixed", "qft")
    # Zoned routing must shuttle gate qubits into the entangling band.
    assert zoned["num_moves"] > 0
    assert kept == reports["matrix"]["cases"]


def test_batch_case(runs):
    _, reports = runs
    report = reports["batch"]
    batch = [case for case in report["cases"]
             if case.get("kind") == "batch_throughput"]
    assert len(batch) == 1
    assert batch[0]["num_failures"] == 0
    assert batch[0]["num_tasks"] == 6
    assert batch[0]["batch_circuits_per_second"] > 0
    assert report["cases"][:-1] == reports["zoned"]["cases"]


def test_matrix_regeneration_replaces_only_its_own_topology(runs):
    """Same-key cases are replaced; a matrix run drops its topology's other
    single-circuit rows and keeps every other case."""
    _, reports = runs
    before, after = reports["batch"]["cases"], reports["regenerated"]["cases"]
    regenerated = [case for case in after
                   if "kind" not in case and case["topology"] == "square"]
    assert [(case["hardware"], case["circuit"]) for case in regenerated] == [
        ("gate", "qft"), ("mixed", "qft"), ("shuttling", "qft")]
    assert after[:3] == regenerated
    kept = [case for case in before
            if case.get("kind") or case["topology"] != "square"]
    assert after[3:] == kept


def test_serial_large_case(runs):
    _, reports = runs
    (case,) = [case for case in reports["serial_large"]["cases"]
               if case.get("kind") == "serial_large"]
    assert case["circuit"] == "local_window" and case["num_qubits"] >= 256
    assert case["wall_seconds"] > 0 and case["delta_t_us"] >= 0
    assert case["swap_rounds"] > 0
    # Only a small share of a round's candidates is rescored.
    assert 0 < case["mean_rescored"] < case["mean_candidates"]


def test_merge_report_rules(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmarks"))
    from perf_report import merge_report, write_report

    def case(hardware, topology="square", kind=None, value=0):
        entry = {"hardware": hardware, "circuit": "qft", "mode": "hybrid",
                 "scale": 0.3, "topology": topology, "value": value}
        if kind:
            entry["kind"] = kind
        return entry

    path = tmp_path / "report.json"
    path.write_text("not json")
    report = merge_report(path, [case("gate"), case("mixed")], 0.3,
                          matrix_topology="square")
    assert report["cases"] == [case("gate"), case("mixed")]
    write_report(report, path)
    # An appended case replaces its same-key case and keeps the rest.
    report = merge_report(path, [case("gate", value=1)], 0.08)
    assert report["scale"] == 0.3
    assert report["cases"] == [case("mixed"), case("gate", value=1)]
    write_report(report, path)
    write_report(merge_report(path, [case("mixed", kind="batch_throughput"),
                                     case("mixed", topology="zoned")], 0.3),
                 path)
    report = merge_report(path, [case("shuttling")], 0.08,
                          matrix_topology="square")
    assert report["scale"] == 0.08
    assert report["cases"] == [case("shuttling"),
                               case("mixed", kind="batch_throughput"),
                               case("mixed", topology="zoned")]


def test_tracked_report_is_untouched(runs):
    tracked, _ = runs
    assert TRACKED_REPORT.read_bytes() == tracked
