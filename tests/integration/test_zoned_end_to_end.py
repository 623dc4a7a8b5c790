"""End-to-end tests for zoned neutral-atom architectures.

The acceptance contract of the zoned scenario: a zoned preset compiles the
paper's benchmarks through :func:`repro.pipeline.compile_circuit` and the
:class:`~repro.service.BatchCompiler`, **every** entangling (2Q+) gate in
the emitted operation stream executes with all of its atoms inside an
entangling zone, and corridor transit shows up in move durations.
"""

from __future__ import annotations

import pytest

from repro import MapperConfig, compile_circuit
from repro.circuit import QuantumCircuit, decompose_mcx_to_mcz
from repro.circuit.library import get_benchmark
from repro.hardware import SiteConnectivity, preset
from repro.mapping import HybridMapper
from repro.service import ArchitectureSpec, BatchCompiler, CompilationTask


def _zoned_architecture(lattice_rows: int = 9, num_atoms: int = 24):
    architecture = preset("zoned", lattice_rows=lattice_rows, num_atoms=num_atoms)
    return architecture, SiteConnectivity(architecture)


def _assert_entangling_gates_in_entangling_zones(architecture, result):
    """Scheduling-level zone check over the emitted operation stream."""
    checked = 0
    for op in result.circuit_gate_ops():
        gate = op.gate
        if not gate.is_entangling or len(gate.qubits) < 2:
            continue
        checked += 1
        for site in op.sites:
            assert architecture.is_entangling_site(site), (
                f"gate {gate.name} executed with an atom at site {site}, "
                f"which lies in a storage zone")
    assert checked > 0, "the circuit must exercise entangling gates"
    # SWAPs are entangling operations too (three CZ pulses).
    for op in result.swap_ops():
        for site in (op.site_a, op.site_b):
            assert architecture.is_entangling_site(site)


class TestZonedCompileCircuit:
    @pytest.mark.parametrize("circuit_name,num_qubits",
                             [("qft", 10), ("graph", 12)])
    def test_benchmark_compiles_and_respects_zones(self, circuit_name, num_qubits):
        architecture, connectivity = _zoned_architecture()
        circuit = decompose_mcx_to_mcz(
            get_benchmark(circuit_name, num_qubits=num_qubits, seed=2024))
        context = compile_circuit(circuit, architecture, MapperConfig.hybrid(1.0),
                                  connectivity=connectivity, alpha_ratio=1.0)
        result = context.require_result()
        metrics = context.require_metrics()
        _assert_entangling_gates_in_entangling_zones(architecture, result)
        assert result.num_moves > 0, "zoned routing must shuttle into the zone"
        assert metrics.delta_t_us > 0
        reference_schedule, mapped_schedule = context.require_schedules()
        assert mapped_schedule.makespan > reference_schedule.makespan

    def test_scaled_zoned_preset_compiles(self):
        architecture = ArchitectureSpec.scaled(
            "mixed", 0.12, topology="zoned").build()
        assert architecture.lattice.kind == "zoned"
        connectivity = SiteConnectivity(architecture)
        circuit = decompose_mcx_to_mcz(get_benchmark("qft", num_qubits=12, seed=2024))
        context = compile_circuit(circuit, architecture, MapperConfig.hybrid(1.0),
                                  connectivity=connectivity)
        _assert_entangling_gates_in_entangling_zones(
            architecture, context.require_result())

    def test_multiqubit_gates_respect_zones(self):
        architecture, connectivity = _zoned_architecture()
        circuit = QuantumCircuit(8, name="zoned-mq")
        circuit.h(0)
        circuit.ccz(0, 3, 6)
        circuit.cz(1, 7)
        circuit.cccz(0, 2, 4, 6)
        circuit.ccz(5, 6, 7)
        context = compile_circuit(circuit, architecture, MapperConfig.hybrid(1.0),
                                  connectivity=connectivity)
        _assert_entangling_gates_in_entangling_zones(
            architecture, context.require_result())


class TestZonedBatchCompiler:
    def test_zoned_specs_compile_through_the_service(self):
        spec = ArchitectureSpec.scaled("mixed", 0.12, topology="zoned")
        tasks = [
            CompilationTask("zoned-qft", spec, circuit_name="qft", num_qubits=10),
            CompilationTask("zoned-graph", spec, circuit_name="graph", num_qubits=12),
        ]
        batch = BatchCompiler(max_workers=2, keep_results=True).compile(tasks)
        assert batch.ok, [entry.error for entry in batch.failed]
        architecture = spec.build()
        for entry in batch.succeeded:
            assert entry.result is not None
            _assert_entangling_gates_in_entangling_zones(architecture, entry.result)


class TestZonedCorridorTransit:
    def test_moves_crossing_corridors_carry_the_penalty(self):
        architecture, connectivity = _zoned_architecture()
        topology = architecture.lattice
        assert topology.has_travel_penalties
        circuit = decompose_mcx_to_mcz(get_benchmark("qft", num_qubits=10, seed=2024))
        mapper = HybridMapper(architecture, MapperConfig.hybrid(1.0),
                              connectivity=connectivity)
        result = mapper.map(circuit)
        crossing_moves = 0
        for move in result.moves():
            plain = (abs(move.destination_position[0] - move.source_position[0])
                     + abs(move.destination_position[1] - move.source_position[1]))
            crossings = topology.zone_crossings(move.source, move.destination)
            assert move.travel_distance_um is not None
            assert move.rectangular_distance == pytest.approx(
                plain + topology.corridor_transit_um * crossings)
            if crossings:
                crossing_moves += 1
        assert crossing_moves > 0, "shuttles must cross the storage corridor"

    def test_corridor_penalty_increases_estimated_time(self):
        def delta_t(corridor):
            architecture = preset("zoned", lattice_rows=9, num_atoms=24,
                                  corridor_transit_um=corridor)
            connectivity = SiteConnectivity(architecture)
            circuit = decompose_mcx_to_mcz(
                get_benchmark("qft", num_qubits=10, seed=2024))
            context = compile_circuit(circuit, architecture,
                                      MapperConfig.hybrid(1.0),
                                      connectivity=connectivity)
            return context.require_metrics().delta_t_us

        assert delta_t(30.0) > delta_t(0.0)
