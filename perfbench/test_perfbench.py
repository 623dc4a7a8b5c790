"""Tests of the benchmark's own helpers (run with the repository's pytest)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.circuit.library import get_benchmark  # noqa: E402
from repro.pipeline import compile_circuit  # noqa: E402
from repro.service import ArchitectureSpec  # noqa: E402

from checks import StreamChecker  # noqa: E402
from compiling import (PASS_NAMES, PassRun, build_devices,  # noqa: E402
                       check_traced_quality, compile_pass)
from measure import SpeedSampler, TooFewSamples, tail_percentile  # noqa: E402
from probes import MAPPER_TIMERS, LayerProbe  # noqa: E402
from run import WORKLOAD_NAMES, declared_metrics  # noqa: E402
from serve import (SERVING_LAYER_METRICS, ServeRound,  # noqa: E402
                   serving_layer_metrics)
from workloads import Entry, compile_set, serve_tasks  # noqa: E402


# ----------------------------------------------------------------------
# Percentile helper
# ----------------------------------------------------------------------
def test_tail_percentile_needs_ten_samples_beyond():
    samples = [float(value) for value in range(100)]
    p90 = tail_percentile(samples, 0.9)
    assert sum(1 for value in samples if value > p90) >= 10
    with pytest.raises(TooFewSamples):
        tail_percentile(samples[:50], 0.9)


def test_tail_percentile_min_beyond_zero_accepts_small_samples():
    assert tail_percentile([3.0], 0.9, min_beyond=0) == 3.0
    assert tail_percentile([1.0, 2.0, 3.0], 0.5, min_beyond=0) == 2.0
    with pytest.raises(TooFewSamples):
        tail_percentile([], 0.5, min_beyond=0)


# ----------------------------------------------------------------------
# Workload generation
# ----------------------------------------------------------------------
def _set_digests(workload, seed):
    return [(entry.label, entry.circuit.canonical_digest())
            for entry in compile_set(workload, seed)]


def test_reversible_set_is_deterministic_per_seed_and_differs_across_seeds():
    assert _set_digests("reversible_table1", 3) == _set_digests(
        "reversible_table1", 3)
    first = {digest for _, digest in _set_digests("reversible_table1", 3)}
    second = {digest for _, digest in _set_digests("reversible_table1", 4)}
    assert first.isdisjoint(second)


def test_qft_set_ignores_the_seed():
    assert _set_digests("qft_mixed", 1) == _set_digests("qft_mixed", 2)


def test_serve_stream_is_deterministic_per_seed_and_differs_across_seeds():
    unique, stream = serve_tasks(5)
    again_unique, again_stream = serve_tasks(5)
    assert unique == again_unique and stream == again_stream
    other_unique, other_stream = serve_tasks(6)
    graph = [task for task in unique if task.circuit_name == "graph"]
    other_graph = [task for task in other_unique
                   if task.circuit_name == "graph"]
    assert graph and other_graph
    assert (graph[0].build_circuit().canonical_digest()
            != other_graph[0].build_circuit().canonical_digest())
    assert [task.task_id for task in stream] != [
        task.task_id for task in other_stream]
    # Every distinct task is requested the same number of times.
    counts = {}
    for task in stream:
        index = task.task_id.split("-")[0]
        counts[index] = counts.get(index, 0) + 1
    assert len(counts) == len(unique) and len(set(counts.values())) == 1


# ----------------------------------------------------------------------
# Probed compile
# ----------------------------------------------------------------------
def test_traced_small_qft_layers_fit_in_wall_time_and_keep_the_stream():
    spec = ArchitectureSpec.scaled("mixed", 0.06)
    entry = Entry("qft_12/mixed/hybrid", get_benchmark("qft", num_qubits=12),
                  spec)
    devices = build_devices([entry])
    checker = StreamChecker(lambda line: None, {})
    probe = LayerProbe()
    run = compile_pass([entry], devices, checker, SpeedSampler(), probe)
    assert checker.correct and checker.attempted == 1

    seconds = probe.seconds
    passes = sum(seconds[f"pass.{name}_s"] for name in PASS_NAMES)
    assert 0.0 < passes <= run.raw_wall
    mapper = sum(seconds[name] for name in MAPPER_TIMERS)
    assert 0.0 < mapper <= seconds["pass.routing_s"]
    reference = seconds["scheduler.reference_s"] + seconds["scheduler.mapped_s"]
    assert reference <= seconds["pass.schedule_s"]
    assert probe.counts["layers.rounds"] == len(probe.front_widths) > 0

    architecture, connectivity = devices[spec]
    plain = compile_circuit(entry.circuit, architecture, entry.config(),
                            connectivity=connectivity, alpha_ratio=1.0)
    assert checker.digests[entry.label] == (
        plain.require_result().op_stream_digest()["sha256"])

    # The probed pass sums to the quality of an unprobed one.
    untraced = compile_pass([entry], devices, checker, SpeedSampler())
    check_traced_quality(checker, [run], [untraced])
    assert checker.correct


def test_traced_quality_difference_makes_the_run_incorrect():
    checker = StreamChecker(lambda line: None, {})
    untraced, traced = PassRun(), PassRun()
    untraced.quality["delta_t_us"] = 10.0
    traced.quality["delta_t_us"] = 11.0
    check_traced_quality(checker, [traced], [untraced])
    assert not checker.correct


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_declares_the_workloads_and_metrics_run_reports():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOAD_NAMES)
    end_to_end, per_layer = declared_metrics()
    assert end_to_end["setup_s"] == "s"
    assert set(SERVING_LAYER_METRICS) <= set(per_layer)
    assert set(serving_layer_metrics([ServeRound()])) == set(
        SERVING_LAYER_METRICS)
