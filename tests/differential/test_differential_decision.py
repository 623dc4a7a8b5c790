"""Differential harness: capability decider vs its scalar reference.

``CapabilityDecider`` decides every front and lookahead gate in every
routing round from O(1) table reads: per-site free-neighbour counts kept by
``MappingState.move_atom``, the connectivity's adjacency and hop-distance
rows, a two-qubit specialisation and a table of Eq. (1) success pairs.
``split_layers`` also memoises two-qubit verdicts per state; the harness
wraps the stock method, so every split it checks goes through that memo.
:mod:`decision_reference` keeps the original scalar estimate as the oracle.
This harness compiles seeded random circuits, the paper benchmarks, a
multi-qubit displacement circuit and zoned-device benchmarks, and asserts:

* every ``split_layers`` partition equals the oracle's on the same state;
* every front/lookahead gate's ``decide()`` equals the oracle's decision,
  with each float of the estimate compared through ``float.hex``;
* the operation stream and its digest equal those of a reference arm whose
  mapper splits every round with the oracle.

The same seeds are used in CI (see the differential job in
``.github/workflows/ci.yml``), so a failure there reproduces locally with
plain ``pytest tests/differential``.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Optional

import pytest

from decision_reference import estimate_fields, reference_decide, reference_split
from repro.circuit import QuantumCircuit, decompose_mcx_to_mcz
from repro.circuit.library import get_benchmark
from repro.circuit.library.random_circuits import (
    local_window_circuit,
    qaoa_maxcut_circuit,
    random_layered_circuit,
)
from repro.hardware import SiteConnectivity, preset
from repro.mapping import HybridMapper, MapperConfig
from repro.service import ArchitectureSpec

HARDWARE_PRESETS = ("gate", "mixed", "shuttling")

#: Seeded random workloads: two circuits per hardware preset in CI, plus a
#: multi-qubit-gate workload to exercise the generic anchor loop.
RANDOM_CIRCUITS = {
    "layered": lambda seed: random_layered_circuit(16, 6, seed=seed),
    "layered_ccz": lambda seed: decompose_mcx_to_mcz(
        random_layered_circuit(14, 4, multi_qubit_fraction=0.25, seed=seed)),
    "qaoa": lambda seed: qaoa_maxcut_circuit(16, edge_probability=0.25, seed=seed),
    "local": lambda seed: local_window_circuit(18, 60, window=4, seed=seed),
}


def _architecture(hardware: str):
    architecture = ArchitectureSpec.scaled(hardware, 0.12).build()
    return architecture, SiteConnectivity(architecture)


def map_checked(circuit: QuantumCircuit, architecture, connectivity,
                config: MapperConfig, cases: Optional[Counter] = None):
    """Map with the stock decider, checking every split against the oracle.

    ``cases`` (optional) tallies the estimate shapes the run decided, so a
    test can assert which branches of the decider the matrix reached.
    """
    mapper = HybridMapper(architecture, config, connectivity=connectivity)
    decider = mapper.decider
    split = decider.split_layers
    splits = [0]

    def checked(state, nodes):
        partition = split(state, nodes)
        assert partition == reference_split(decider, state, nodes)
        for node in nodes:
            decision = decider.decide(state, node.gate, node.index)
            expected = reference_decide(decider, state, node.gate, node.index)
            assert decision.gate_index == expected.gate_index
            assert decision.use_gate_based == expected.use_gate_based
            assert (estimate_fields(decision.estimate)
                    == estimate_fields(expected.estimate))
            if cases is not None:
                estimate = decision.estimate
                cases[(len(node.gate.qubits) == 2,
                       estimate.estimated_moves)] += 1
        splits[0] += 1
        return partition

    decider.split_layers = checked
    result = mapper.map(circuit)
    assert splits[0] > 0
    return result


def map_reference(circuit: QuantumCircuit, architecture, connectivity,
                  config: MapperConfig):
    """Map with every round split by the scalar oracle."""
    mapper = HybridMapper(architecture, config, connectivity=connectivity)
    mapper.decider.split_layers = functools.partial(reference_split,
                                                    mapper.decider)
    return mapper.map(circuit)


def assert_streams_identical(circuit: QuantumCircuit, architecture,
                             connectivity, config: MapperConfig,
                             cases: Optional[Counter] = None) -> None:
    """Map with the decider and with the oracle and require identical output."""
    fast = map_checked(circuit, architecture, connectivity, config, cases)
    reference = map_reference(circuit, architecture, connectivity, config)

    assert fast.operations == reference.operations
    assert fast.op_stream_lines() == reference.op_stream_lines()
    assert fast.op_stream_digest() == reference.op_stream_digest()
    assert fast.num_swaps == reference.num_swaps
    assert fast.num_moves == reference.num_moves
    assert fast.final_qubit_map == reference.final_qubit_map
    assert fast.final_atom_map == reference.final_atom_map


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
    """Decisions on a multi-qubit gate whose neighbourhood shuttling moves
    keep changing (the generic anchor loop and the free counts)."""

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
    """Storage-stranded gates take the forced-shuttling verdict before the
    weights are consulted."""

    @pytest.mark.parametrize("circuit_name,num_qubits",
                             [("qft", 10), ("graph", 12), ("qpe", 8)])
    def test_zoned_stream_identical(self, circuit_name, num_qubits):
        architecture = preset("zoned", lattice_rows=9, num_atoms=24)
        circuit = decompose_mcx_to_mcz(
            get_benchmark(circuit_name, num_qubits=num_qubits, seed=2024))
        assert_streams_identical(circuit, architecture,
                                 SiteConnectivity(architecture),
                                 MapperConfig.hybrid(1.0))


class TestDecisionBranchesReached:
    """Guard against the matrix never reaching the branches it checks."""

    def test_move_aways_and_multi_qubit_moves_are_decided(self):
        cases: Counter = Counter()
        architecture, connectivity = _architecture("shuttling")
        assert_streams_identical(RANDOM_CIRCUITS["layered_ccz"](7),
                                 architecture, connectivity,
                                 MapperConfig.hybrid(1.0), cases)
        # Two-qubit gates (adjacent ones execute without a decision): one
        # direct move, and a direct move plus a move-away out of a full
        # neighbourhood.
        assert cases[(True, 1)] > 0
        assert cases[(True, 2)] > 0
        # Multi-qubit gates through the generic anchor loop.
        assert sum(count for (two_qubit, moves), count in cases.items()
                   if not two_qubit and moves > 0) > 0
