"""Differential harness, sharding axis: metrics parity + validity replay.

Sharded routing (``MapperConfig.shard_routing``) intentionally does *not*
promise a bit-identical stream — the honest gate is:

1. **validity** — every sharded op stream replays legally from its initial
   maps (``repro.mapping.replay``), and
2. **metrics parity** — ΔCZ / ΔT / swap / move counts stay within configured
   bounds of the serial mapper's on the same workload.

The suite runs shard-on vs shard-off across seeded random circuits × the
mixed/shuttling presets, plus a SWAP-exercising gate-preset case.  Every failed
parity comparison is appended to a JSON report (``SHARD_PARITY_REPORT``,
default ``shard-parity-report.json``) which the CI shard-differential job
uploads as an artifact, so a red run ships the numbers with it.

The whole module is marked ``shard``: run it standalone with
``pytest -m shard``.
"""

from __future__ import annotations

import json
import os
from typing import Dict

import pytest

from repro.circuit.library.random_circuits import (
    local_window_circuit,
    qaoa_maxcut_circuit,
    random_layered_circuit,
)
from repro.evaluation.metrics import evaluate
from repro.hardware import SiteConnectivity
from repro.mapping import HybridMapper, MapperConfig, validate_stream
from repro.service import ArchitectureSpec

pytestmark = pytest.mark.shard

HARDWARE_PRESETS = ("mixed", "shuttling")

RANDOM_CIRCUITS = {
    "layered": lambda seed: random_layered_circuit(16, 10, seed=seed),
    "qaoa": lambda seed: qaoa_maxcut_circuit(16, edge_probability=0.25,
                                             seed=seed),
    "local": lambda seed: local_window_circuit(18, 120, window=4, seed=seed),
}

#: Parity bounds: sharded <= serial * factor + slack.  Chained slices route
#: from the true state, so quality is lost only where a slice boundary caps
#: the router's view.  Worst cases on this suite's grid:
#:
#: * moves: 2.26x (shuttling/local/1234: 19 -> 43);
#: * ΔT: 2.20x (mixed/local/7: 311 -> 684 µs);
#: * swaps and ΔCZ: 2.5x (gate/layered/1234: 2 -> 5 swaps, 6 -> 15 ΔCZ),
#:   a small-count case the slacks absorb.
#:
#: Factors carry ~10% headroom over the ratios; the slacks only absorb
#: small-count cases.  A stitching regression that, e.g., re-routes a slice
#: from scratch blows through them.
PARITY_BOUNDS = {
    "num_swaps": (2.0, 2.0),
    "num_moves": (2.5, 5.0),
    "delta_cz": (2.0, 6.0),
    "delta_t_us": (2.5, 10.0),
}

_REPORT_PATH = os.environ.get("SHARD_PARITY_REPORT",
                              "shard-parity-report.json")


def _record_parity_failure(row: Dict[str, object]) -> None:
    entries = []
    if os.path.exists(_REPORT_PATH):
        try:
            with open(_REPORT_PATH, "r", encoding="utf-8") as handle:
                entries = json.load(handle)
        except (OSError, ValueError):  # pragma: no cover - corrupt report
            entries = []
    entries.append(row)
    with open(_REPORT_PATH, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=2, sort_keys=True)


def _architecture(hardware: str):
    architecture = ArchitectureSpec.scaled(hardware, 0.12).build()
    return architecture, SiteConnectivity(architecture)


def assert_metrics_parity(case: str, circuit, architecture, connectivity,
                          serial_config: MapperConfig,
                          sharded_config: MapperConfig) -> None:
    """Route serially and sharded; require validity plus bounded metrics."""
    serial = HybridMapper(architecture, serial_config,
                          connectivity=connectivity).map(circuit)
    sharded = HybridMapper(architecture, sharded_config,
                           connectivity=connectivity).map(circuit)
    assert sharded.shard_stats, f"{case}: sharded path did not engage"

    violations = validate_stream(sharded, architecture, connectivity)
    sharded.verify_complete()

    serial_metrics = evaluate(circuit, serial, architecture, connectivity)
    sharded_metrics = evaluate(circuit, sharded, architecture, connectivity)
    out_of_bounds = {}
    for metric, (factor, slack) in PARITY_BOUNDS.items():
        serial_value = getattr(serial_metrics, metric)
        sharded_value = getattr(sharded_metrics, metric)
        bound = serial_value * factor + slack
        if sharded_value > bound:
            out_of_bounds[metric] = {
                "serial": serial_value,
                "sharded": sharded_value,
                "bound": bound,
            }

    if violations or out_of_bounds:
        _record_parity_failure({
            "case": case,
            "circuit": circuit.name,
            "hardware": architecture.name,
            "replay_violations": violations[:10],
            "out_of_bounds": out_of_bounds,
            "serial": serial_metrics.as_row(),
            "sharded": sharded_metrics.as_row(),
            "shard_stats": sharded.shard_stats,
        })
    assert not violations, \
        f"{case}: sharded stream fails replay: {violations[:5]}"
    assert not out_of_bounds, \
        f"{case}: metrics out of parity bounds: {out_of_bounds}"


class TestShardMetricsParity:
    @pytest.mark.parametrize("hardware", HARDWARE_PRESETS)
    @pytest.mark.parametrize("workload", sorted(RANDOM_CIRCUITS))
    @pytest.mark.parametrize("seed", (7, 42, 1234))
    def test_random_circuit_parity(self, hardware, workload, seed):
        architecture, connectivity = _architecture(hardware)
        circuit = RANDOM_CIRCUITS[workload](seed)
        case = f"{hardware}/{workload}/seed{seed}"
        assert_metrics_parity(
            case, circuit, architecture, connectivity,
            MapperConfig.hybrid(1.0),
            MapperConfig.hybrid(1.0, shard_routing=True, shard_min_slice=16),
        )

    @pytest.mark.parametrize("seed", (7, 1234))
    def test_gate_leaning_parity_exercises_swaps(self, seed):
        """A gate-leaning config on the gate preset yields nonzero SWAP/ΔCZ
        counts, keeping those parity axes non-vacuous."""
        architecture, connectivity = _architecture("gate")
        circuit = random_layered_circuit(16, 10, seed=seed)
        serial = HybridMapper(architecture, MapperConfig.hybrid(8.0),
                              connectivity=connectivity).map(circuit)
        assert serial.num_swaps > 0, "expected a swap-exercising workload"
        case = f"gate/layered/seed{seed}"
        assert_metrics_parity(
            case, circuit, architecture, connectivity,
            MapperConfig.hybrid(8.0),
            MapperConfig.hybrid(8.0, shard_routing=True, shard_min_slice=16),
        )
