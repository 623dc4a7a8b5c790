"""Scaling benchmark: per-pass compile wall time, emitting BENCH_scaling.json.

Runs the hybrid mapper on the ``qft``/``graph`` benchmarks over all three
hardware presets at ``REPRO_BENCH_SCALE`` and records where the time goes
(execute / decide / gate_route / shuttle_route plus the pipeline's per-pass
timings), the swap/move counts that must stay bit-identical across perf PRs,
and a batch-throughput case from the service layer (circuits/sec at N
workers vs serial).  After the matrix has run, the accumulated cases are
written to ``BENCH_scaling.json`` (override the path with
``REPRO_BENCH_REPORT``) in the ``repro-bench-scaling/v1`` schema of
:mod:`benchmarks.perf_report`, so every benchmark run leaves a
machine-readable perf trace behind.

Script usage (records a batch case without the pytest harness)::

    PYTHONPATH=src python benchmarks/bench_scaling.py --batch --workers 4 \
        --scale 0.3 --out BENCH_scaling.json
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

if __package__:
    from .common import BENCH_SCALE
    from .perf_report import (DEFAULT_CIRCUITS, DEFAULT_HARDWARE,
                              _preserved_cases, collect_report,
                              main as perf_report_main, run_batch_case,
                              run_case, write_report)
else:  # executed as a plain script: python benchmarks/bench_scaling.py
    _HERE = Path(__file__).resolve().parent
    for entry in (str(_HERE), str(_HERE.parent / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from common import BENCH_SCALE
    from perf_report import (DEFAULT_CIRCUITS, DEFAULT_HARDWARE,
                             _preserved_cases, collect_report,
                             main as perf_report_main, run_batch_case,
                             run_case, write_report)

import pytest

#: Worker count of the smoke batch case recorded by the pytest run.
SMOKE_BATCH_WORKERS = 2

_CASES: List[Dict] = []


def _report_path() -> str:
    return os.environ.get("REPRO_BENCH_REPORT", "BENCH_scaling.json")


@pytest.mark.benchmark(group="scaling")
@pytest.mark.parametrize("circuit_name", DEFAULT_CIRCUITS)
@pytest.mark.parametrize("hardware", DEFAULT_HARDWARE)
def test_scaling_case(benchmark, hardware, circuit_name):
    case = benchmark.pedantic(run_case, args=(hardware, circuit_name, "hybrid",
                                              BENCH_SCALE),
                              rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info.update(
        {key: value for key, value in case.items() if key != "pass_seconds"})
    _CASES.append(case)
    assert set(case["pass_seconds"]) == {"decompose", "initial_layout",
                                         "routing", "schedule", "evaluate"}
    # At tiny smoke scales a case may need no routing at all, so only sanity
    # is asserted, not a positive operation count.
    assert case["num_swaps"] >= 0 and case["num_moves"] >= 0
    assert case["mapper_seconds"] >= 0
    print(f"\n[{case['hardware']:9s}] {case['circuit']:10s} "
          f"wall={case['wall_seconds']:7.2f}s "
          f"passes={case['pass_seconds']} "
          f"swaps={case['num_swaps']} moves={case['num_moves']}")


@pytest.mark.benchmark(group="scaling")
def test_zoned_smoke_case(benchmark):
    """Record a zoned-topology case (mixed device parameters, storage +
    entangling bands) so the multi-zone scenario is exercised — and its perf
    trace kept — on every benchmark run."""
    case = benchmark.pedantic(run_case, args=("mixed", "qft", "hybrid",
                                              BENCH_SCALE),
                              kwargs={"topology": "zoned"},
                              rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info.update(
        {key: value for key, value in case.items() if key != "pass_seconds"})
    _CASES.append(case)
    assert case["topology"] == "zoned"
    # Zoned routing must shuttle gate qubits into the entangling band.
    assert case["num_moves"] > 0
    print(f"\n[zoned    ] {case['circuit']:10s} wall={case['wall_seconds']:7.2f}s "
          f"swaps={case['num_swaps']} moves={case['num_moves']}")


def test_batch_throughput_case():
    """Record a service-layer batch-throughput case (circuits/sec at N workers).

    The case compiles the full qft/graph x hardware matrix through the
    :class:`~repro.service.BatchCompiler`, once serially and once with
    worker processes; every task must succeed.  Absolute speedup depends on
    the host's core count, so only sanity is asserted here — the recorded
    numbers are the artifact.
    """
    case = run_batch_case(BENCH_SCALE, SMOKE_BATCH_WORKERS)
    _CASES.append(case)
    assert case["num_failures"] == 0
    assert case["num_tasks"] == len(DEFAULT_CIRCUITS) * len(DEFAULT_HARDWARE)
    assert case["batch_circuits_per_second"] > 0
    print(f"\n[batch] tasks={case['num_tasks']} workers={case['num_workers']} "
          f"serial={case['serial_seconds']:.2f}s batch={case['batch_seconds']:.2f}s "
          f"speedup={case['throughput_speedup']:.2f}x "
          f"(host cpus: {case['available_cpus']})")
    if case.get("cpu_caveat"):
        print(f"[batch] note: {case['cpu_caveat']}")


def test_emit_scaling_report():
    """Write the accumulated cases (or a fresh matrix) to BENCH_scaling.json.

    Non-superseded cases already in the report — other topologies, other
    scales, batch-throughput entries — are preserved, matching the CLI
    path's merge semantics, so a harness run never silently drops committed
    cases it did not re-measure.
    """
    report = collect_report(BENCH_SCALE, cases=_CASES or None)
    report["cases"].extend(
        _preserved_cases(_report_path(), report["cases"], topology=None))
    write_report(report, _report_path())
    assert os.path.exists(_report_path())
    assert report["cases"], "scaling report must contain at least one case"


def main(argv: Optional[List[str]] = None) -> int:
    """Script entry point: delegate to the perf-report CLI (incl. ``--batch``)."""
    return perf_report_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
