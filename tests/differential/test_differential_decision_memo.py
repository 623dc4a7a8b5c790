"""Differential harness: decision memo vs from-scratch decisions.

The capability decider replays a gate's decision from its cross-round memo
(:class:`repro.mapping.decision.DecisionMemo`) while the gate's sites and
their neighbourhood free counts are unchanged.  The replay promises a
**bit-identical** operation stream: every replayed decision must equal
what a fresh estimate would produce.  This harness locks that contract down
by compiling seeded random circuits, the paper benchmarks, a multi-qubit
displacement circuit and zoned-device benchmarks, and asserting op-stream
equality between the default mapper and a reference arm in which every memo
lookup misses.  The arms must also return the same sequence of decisions,
estimates included: a stale replay usually keeps the verdict, and with it
the stream, while its estimate already differs.

The same seeds are used in CI (see the differential job in
``.github/workflows/ci.yml``), so a failure there reproduces locally with
plain ``pytest tests/differential``.
"""

from __future__ import annotations

import pytest

from repro.circuit import QuantumCircuit, decompose_mcx_to_mcz
from repro.circuit.library import get_benchmark
from repro.circuit.library.random_circuits import (
    local_window_circuit,
    qaoa_maxcut_circuit,
    random_layered_circuit,
)
from repro.hardware import SiteConnectivity, preset
from repro.mapping import DecisionMemo, HybridMapper, MapperConfig
from repro.workloads import build_scaled_architecture

HARDWARE_PRESETS = ("gate", "mixed", "shuttling")

#: Seeded random workloads: two circuits per hardware preset in CI, plus a
#: multi-qubit-gate workload to exercise position caching under shuttling.
RANDOM_CIRCUITS = {
    "layered": lambda seed: random_layered_circuit(16, 6, seed=seed),
    "layered_ccz": lambda seed: decompose_mcx_to_mcz(
        random_layered_circuit(14, 4, multi_qubit_fraction=0.25, seed=seed)),
    "qaoa": lambda seed: qaoa_maxcut_circuit(16, edge_probability=0.25, seed=seed),
    "local": lambda seed: local_window_circuit(18, 60, window=4, seed=seed),
}


def _architecture(hardware: str):
    architecture = build_scaled_architecture(hardware, 0.12)
    return architecture, SiteConnectivity(architecture)


def _always_miss(memo, state, gate, gate_index):
    memo.misses += 1
    return None


def map_recording_decisions(circuit: QuantumCircuit, architecture,
                            connectivity, config: MapperConfig):
    """Map and return ``(result, every decision the decider returned)``."""
    mapper = HybridMapper(architecture, config, connectivity=connectivity)
    decisions = []
    decide = mapper.decider.decide

    def recorded(state, gate, gate_index):
        decision = decide(state, gate, gate_index)
        decisions.append(decision)
        return decision

    mapper.decider.decide = recorded
    return mapper.map(circuit), decisions


def map_without_memo(circuit: QuantumCircuit, architecture, connectivity,
                     config: MapperConfig):
    """Map with every decision estimated from scratch."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DecisionMemo, "lookup", _always_miss)
        return map_recording_decisions(circuit, architecture, connectivity,
                                       config)


def assert_streams_identical(circuit: QuantumCircuit, architecture,
                             connectivity, config: MapperConfig) -> None:
    """Map with the memo on and off and require identical output."""
    memoised, memo_decisions = map_recording_decisions(
        circuit, architecture, connectivity, config)
    reference, reference_decisions = map_without_memo(
        circuit, architecture, connectivity, config)

    assert memo_decisions == reference_decisions
    assert memoised.operations == reference.operations
    assert memoised.op_stream_lines() == reference.op_stream_lines()
    assert memoised.op_stream_digest() == reference.op_stream_digest()
    assert memoised.num_swaps == reference.num_swaps
    assert memoised.num_moves == reference.num_moves
    assert memoised.final_qubit_map == reference.final_qubit_map
    assert memoised.final_atom_map == reference.final_atom_map


class TestDifferentialRandomCircuits:
    @pytest.mark.parametrize("hardware", HARDWARE_PRESETS)
    @pytest.mark.parametrize("workload", sorted(RANDOM_CIRCUITS))
    @pytest.mark.parametrize("seed", (7, 1234))
    def test_random_circuit_stream_identical(self, hardware, workload, seed):
        architecture, connectivity = _architecture(hardware)
        circuit = RANDOM_CIRCUITS[workload](seed)
        assert_streams_identical(circuit, architecture, connectivity,
                                 MapperConfig.hybrid(1.0))

    @pytest.mark.parametrize("mode", ["gate_only", "shuttling_only"])
    def test_pure_modes_stream_identical(self, mode):
        architecture, connectivity = _architecture("mixed")
        circuit = RANDOM_CIRCUITS["layered"](99)
        assert_streams_identical(circuit, architecture, connectivity,
                                 MapperConfig.for_mode(mode))


class TestDifferentialPaperBenchmarks:
    @pytest.mark.parametrize("hardware", HARDWARE_PRESETS)
    @pytest.mark.parametrize("benchmark_name", ("qft", "graph"))
    def test_benchmark_stream_identical(self, hardware, benchmark_name):
        architecture, connectivity = _architecture(hardware)
        circuit = decompose_mcx_to_mcz(
            get_benchmark(benchmark_name, num_qubits=14, seed=2024))
        assert_streams_identical(circuit, architecture, connectivity,
                                 MapperConfig.hybrid(1.0))


class TestDifferentialMultiQubitDisplacement:
    """Replayed decisions must not interfere with the mapper's cached
    multi-qubit positions (``GatePosition.arrived``)."""

    @pytest.mark.parametrize("mode", ["hybrid", "gate_only", "shuttling_only"])
    def test_multiqubit_stream_identical(self, small_architecture,
                                         small_connectivity, mode):
        # A CCZ whose position is cached, plus spread-out CZ work that
        # forces shuttling moves through the CCZ's neighbourhood.
        circuit = QuantumCircuit(12)
        circuit.ccz(0, 1, 2)
        circuit.cz(3, 11)
        circuit.cz(4, 10)
        circuit.cz(0, 9)
        assert_streams_identical(circuit, small_architecture,
                                 small_connectivity,
                                 MapperConfig.for_mode(mode))


class TestDifferentialZoned:
    """Storage-stranded gates take the forced-shuttling verdict, which the
    memo replays like any other."""

    @pytest.mark.parametrize("circuit_name,num_qubits",
                             [("qft", 10), ("graph", 12), ("qpe", 8)])
    def test_zoned_stream_identical(self, circuit_name, num_qubits):
        architecture = preset("zoned", lattice_rows=9, num_atoms=24)
        circuit = decompose_mcx_to_mcz(
            get_benchmark(circuit_name, num_qubits=num_qubits, seed=2024))
        assert_streams_identical(circuit, architecture,
                                 SiteConnectivity(architecture),
                                 MapperConfig.hybrid(1.0))


class TestMemoActuallyEngages:
    """Guard against the memo silently never firing (dead-code equivalence)."""

    def test_memo_records_hits_on_shuttling_workload(self):
        architecture, connectivity = _architecture("shuttling")
        circuit = RANDOM_CIRCUITS["layered"](7)
        mapper = HybridMapper(architecture, MapperConfig.hybrid(1.0),
                              connectivity=connectivity)
        mapper.map(circuit)
        stats = mapper.region_cache.stats()
        assert stats["decision_hits"] > 0
        assert stats["decision_misses"] > 0

    def test_memo_rebinds_between_runs(self):
        architecture, connectivity = _architecture("mixed")
        circuit = RANDOM_CIRCUITS["local"](7)
        mapper = HybridMapper(architecture, MapperConfig.hybrid(1.0),
                              connectivity=connectivity)
        first = mapper.map(circuit)
        second = mapper.map(circuit)
        assert first.operations == second.operations
        assert first.final_atom_map == second.final_atom_map
