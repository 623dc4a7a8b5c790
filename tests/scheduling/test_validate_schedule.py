"""The brute-force schedule oracle :func:`repro.scheduling.validate_schedule`."""

from __future__ import annotations

import pytest

from repro.circuit import QuantumCircuit
from repro.hardware import NeutralAtomArchitecture, SquareLattice
from repro.scheduling import (OperationKind, Schedule, ScheduledOperation,
                              Scheduler, validate_schedule)


def _cz(start, atoms, sites, duration=0.2):
    return ScheduledOperation(kind=OperationKind.ENTANGLING, name="cz",
                              start=start, duration=duration, atoms=atoms,
                              sites=sites)


def _schedule(*operations) -> Schedule:
    return Schedule(num_circuit_qubits=8, operations=list(operations))


@pytest.fixture(scope="module")
def row_device():
    """One row of traps at pitch d with r_restr = 2d: sites up to two
    apart block each other, sites three apart do not."""
    return NeutralAtomArchitecture(
        name="row-device", lattice=SquareLattice(3, 24, 3.0), num_atoms=20,
        interaction_radius=2.0, restriction_radius=2.0)


class TestAtomExclusivity:
    def test_back_to_back_operations_are_valid(self, row_device):
        schedule = _schedule(_cz(0.0, (0, 1), (0, 1)),
                             _cz(0.2, (1, 2), (1, 2)))
        assert validate_schedule(schedule, row_device) == []

    def test_double_booked_atom_is_flagged(self, row_device):
        schedule = _schedule(
            _cz(0.0, (0, 1), (0, 12)),
            ScheduledOperation(kind=OperationKind.SINGLE_QUBIT, name="h",
                               start=0.1, duration=0.5, atoms=(1,),
                               sites=(12,)))
        violations = validate_schedule(schedule, row_device)
        assert len(violations) == 1
        assert violations[0].startswith("atom 1 is double-booked")

    def test_overlap_below_epsilon_is_tolerated(self, row_device):
        schedule = _schedule(_cz(0.0, (0, 1), (0, 1)),
                             _cz(0.2 - 1e-10, (1, 9), (1, 9)))
        assert validate_schedule(schedule, row_device) == []


class TestRestrictionRadius:
    def test_far_apart_parallel_gates_are_valid(self, row_device):
        schedule = _schedule(_cz(0.0, (0, 1), (0, 1)),
                             _cz(0.0, (4, 5), (4, 5)))
        assert validate_schedule(schedule, row_device) == []

    def test_nearby_parallel_gates_are_flagged(self, row_device):
        schedule = _schedule(_cz(0.0, (0, 1), (0, 1)),
                             _cz(0.1, (2, 3), (2, 3)))
        violations = validate_schedule(schedule, row_device)
        assert len(violations) == 1
        assert violations[0].startswith("restriction radius")

    def test_nearby_sequential_gates_are_valid(self, row_device):
        schedule = _schedule(_cz(0.0, (0, 1), (0, 1)),
                             _cz(0.2, (2, 3), (2, 3)))
        assert validate_schedule(schedule, row_device) == []

    @pytest.mark.parametrize("narrow_first", (True, False))
    def test_asymmetric_radius_is_checked_both_ways(self, asymmetric_device,
                                                    narrow_first):
        assert asymmetric_device.within_restriction(14, 1)
        assert not asymmetric_device.within_restriction(1, 14)
        narrow = _cz(0.0 if narrow_first else 0.1, (0, 1), (0, 1))
        wide = _cz(0.1 if narrow_first else 0.0, (2, 3), (14, 15))
        assert len(validate_schedule(_schedule(narrow, wide),
                                     asymmetric_device)) == 1

    def test_collection_stops_at_the_cap(self, row_device):
        schedule = _schedule(*(_cz(0.0, (2 * i, 2 * i + 1), (i, i + 1))
                               for i in range(6)))
        assert len(validate_schedule(schedule, row_device,
                                     max_violations=3)) == 3


class TestScheduler:
    def test_asymmetric_radius_serialises_gates(self, asymmetric_device):
        for first, second in (((0, 1), (14, 15)), ((14, 15), (0, 1))):
            circuit = QuantumCircuit(16)
            circuit.cz(*first).cz(*second)
            schedule = Scheduler(asymmetric_device).schedule_circuit(circuit)
            assert validate_schedule(schedule, asymmetric_device) == []
            assert schedule.operations[1].start == pytest.approx(0.2)

    def test_call25_schedules_are_valid(self, call25_gate_only):
        architecture, connectivity, circuit, result = call25_gate_only
        scheduler = Scheduler(architecture, connectivity=connectivity)
        assert validate_schedule(scheduler.schedule_circuit(circuit),
                                 architecture) == []
        assert validate_schedule(scheduler.schedule_result(result),
                                 architecture) == []

    def test_call25_hybrid_pipeline_schedules_are_valid(
            self, call25_hybrid_compiled):
        architecture, context = call25_hybrid_compiled
        reference, mapped = context.require_schedules()
        assert validate_schedule(reference, architecture) == []
        assert validate_schedule(mapped, architecture) == []
