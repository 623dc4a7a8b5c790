"""Unit tests for the ASAP scheduler (process block (5))."""

import pytest

from repro.circuit import QuantumCircuit
from repro.hardware import NeutralAtomArchitecture, SquareLattice
from repro.mapping import HybridMapper, MapperConfig
from repro.scheduling import OperationKind, Scheduler, validate_schedule


class TestCircuitScheduling:
    def test_sequential_gates_on_one_qubit(self, small_architecture):
        circuit = QuantumCircuit(1)
        circuit.h(0).h(0)
        schedule = Scheduler(small_architecture).schedule_circuit(circuit)
        assert schedule.makespan == pytest.approx(1.0)
        assert validate_schedule(schedule, small_architecture) == []

    def test_far_apart_gates_run_in_parallel(self, small_architecture):
        circuit = QuantumCircuit(20)
        circuit.cz(0, 1)     # sites (0,0)-(0,1)
        circuit.cz(18, 19)   # sites (3,0)-(3,1): more than r_restr away
        schedule = Scheduler(small_architecture).schedule_circuit(circuit)
        starts = [op.start for op in schedule if op.kind == OperationKind.ENTANGLING]
        assert starts == [0.0, 0.0]

    def test_restriction_radius_serialises_nearby_gates(self, small_architecture):
        circuit = QuantumCircuit(6)
        circuit.cz(0, 1)
        circuit.cz(2, 3)   # within r_restr = 2d of the first gate's sites
        schedule = Scheduler(small_architecture).schedule_circuit(circuit)
        entangling = [op for op in schedule if op.kind == OperationKind.ENTANGLING]
        assert entangling[1].start >= entangling[0].end

    def test_gate_durations_by_width(self, small_architecture):
        circuit = QuantumCircuit(4)
        circuit.cz(0, 1).ccz(0, 1, 2).cccz(0, 1, 2, 3)
        schedule = Scheduler(small_architecture).schedule_circuit(circuit)
        durations = [op.duration for op in schedule]
        assert durations == [pytest.approx(0.2), pytest.approx(0.4), pytest.approx(0.6)]

    def test_barrier_fences_timing(self, small_architecture):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.barrier()
        circuit.h(1)
        schedule = Scheduler(small_architecture).schedule_circuit(circuit)
        assert schedule.operations[1].start >= schedule.operations[0].end

    def test_measurement_scheduled(self, small_architecture):
        circuit = QuantumCircuit(1)
        circuit.h(0).measure(0)
        schedule = Scheduler(small_architecture).schedule_circuit(circuit)
        assert schedule.count_by_kind()[OperationKind.MEASURE] == 1

    def test_bare_swap_in_input_is_decomposed(self, small_architecture):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        schedule = Scheduler(small_architecture).schedule_circuit(circuit)
        assert schedule.num_cz_gates() == 3
        assert schedule.count_by_kind()[OperationKind.SINGLE_QUBIT] == 6

    def test_custom_placement(self, small_architecture):
        circuit = QuantumCircuit(2)
        circuit.cz(0, 1)
        placement = [0, 35]
        schedule = Scheduler(small_architecture).schedule_circuit(circuit, sites=placement)
        assert schedule.operations[0].sites == (0, 35)

    def test_incomplete_placement_rejected(self, small_architecture):
        circuit = QuantumCircuit(3)
        circuit.h(2)
        with pytest.raises(ValueError):
            Scheduler(small_architecture).schedule_circuit(circuit, sites=[0, 1])


class TestMappedResultScheduling:
    def test_swap_ops_expand_to_native_pulses(self, small_architecture,
                                              long_range_circuit):
        mapper = HybridMapper(small_architecture, MapperConfig.gate_only())
        result = mapper.map(long_range_circuit)
        schedule = Scheduler(small_architecture).schedule_result(result)
        expected_cz = long_range_circuit.num_entangling_gates() + 3 * result.num_swaps
        assert schedule.num_cz_gates() == expected_cz
        assert validate_schedule(schedule, small_architecture) == []

    def test_moves_scheduled_as_shuttle_operations(self, small_architecture,
                                                   long_range_circuit):
        mapper = HybridMapper(small_architecture, MapperConfig.shuttling_only())
        result = mapper.map(long_range_circuit)
        schedule = Scheduler(small_architecture).schedule_result(result)
        assert schedule.num_shuttle_operations() > 0
        # batching can only reduce the number of scheduled shuttle operations
        assert schedule.num_shuttle_operations() <= result.num_moves
        assert validate_schedule(schedule, small_architecture) == []

    def test_shuttle_duration_includes_activation_and_travel(self, small_architecture,
                                                             long_range_circuit):
        mapper = HybridMapper(small_architecture, MapperConfig.shuttling_only())
        result = mapper.map(long_range_circuit)
        schedule = Scheduler(small_architecture).schedule_result(result)
        for op in schedule:
            if op.kind == OperationKind.SHUTTLE:
                assert op.duration >= (small_architecture.durations.aod_activation
                                       + small_architecture.durations.aod_deactivation)

    def test_mapped_schedule_is_longer_for_shuttling(self, small_architecture,
                                                     long_range_circuit):
        scheduler = Scheduler(small_architecture)
        original = scheduler.schedule_circuit(long_range_circuit)
        mapper = HybridMapper(small_architecture, MapperConfig.shuttling_only())
        mapped = scheduler.schedule_result(mapper.map(long_range_circuit))
        assert mapped.makespan > original.makespan

    def test_hybrid_result_schedules_cleanly(self, mixed_architecture,
                                             multiqubit_circuit):
        mapper = HybridMapper(mixed_architecture, MapperConfig.hybrid(1.0))
        result = mapper.map(multiqubit_circuit)
        schedule = Scheduler(mixed_architecture).schedule_result(result)
        assert validate_schedule(schedule, mixed_architecture) == []
        assert schedule.makespan > 0
