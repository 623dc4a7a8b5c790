"""Unit tests for the schedule data structures."""

import pytest

from repro.scheduling import (OperationKind, Schedule, ScheduledOperation,
                              validate_schedule)


def op(kind=OperationKind.SINGLE_QUBIT, name="h", start=0.0, duration=0.5,
       atoms=(0,), sites=(), fidelity=0.999):
    return ScheduledOperation(kind=kind, name=name, start=start, duration=duration,
                              atoms=atoms, sites=sites, fidelity=fidelity)


class TestScheduledOperation:
    def test_end_time(self):
        assert op(start=2.0, duration=0.5).end == pytest.approx(2.5)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            op(kind="bogus")

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            op(start=-1.0)
        with pytest.raises(ValueError):
            op(duration=-1.0)

    def test_fidelity_bounds(self):
        with pytest.raises(ValueError):
            op(fidelity=0.0)
        with pytest.raises(ValueError):
            op(fidelity=1.2)


class TestScheduleAggregates:
    def build(self):
        schedule = Schedule(num_circuit_qubits=3)
        schedule.append(op(start=0.0, duration=0.5, atoms=(0,)))
        schedule.append(op(kind=OperationKind.ENTANGLING, name="cz", start=0.5,
                           duration=0.2, atoms=(0, 1), fidelity=0.995))
        schedule.append(op(kind=OperationKind.SHUTTLE, name="move", start=0.0,
                           duration=100.0, atoms=(2,), fidelity=0.9999))
        return schedule

    def test_makespan(self):
        assert self.build().makespan == pytest.approx(100.0)

    def test_empty_schedule_makespan(self):
        assert Schedule(num_circuit_qubits=2).makespan == 0.0
        assert Schedule(num_circuit_qubits=2).idle_time() == 0.0

    def test_total_operation_time(self):
        assert self.build().total_operation_time() == pytest.approx(100.7)

    def test_total_busy_time_weights_by_width(self):
        assert self.build().total_busy_time() == pytest.approx(0.5 + 0.4 + 100.0)

    def test_idle_time_matches_paper_formula(self):
        schedule = self.build()
        expected = 3 * schedule.makespan - schedule.total_operation_time()
        assert schedule.idle_time() == pytest.approx(expected)

    def test_per_qubit_idle_time(self):
        schedule = self.build()
        expected = 3 * schedule.makespan - schedule.total_busy_time()
        assert schedule.per_qubit_idle_time() == pytest.approx(expected)

    def test_counts(self):
        schedule = self.build()
        assert schedule.count_by_kind() == {OperationKind.SINGLE_QUBIT: 1,
                                            OperationKind.ENTANGLING: 1,
                                            OperationKind.SHUTTLE: 1}
        assert schedule.count_entangling_by_width() == {2: 1}
        assert schedule.num_cz_gates() == 1
        assert schedule.num_shuttle_operations() == 1
        assert len(schedule) == 3

    def test_overlap_verification_passes_for_disjoint_atoms(self, small_architecture):
        assert validate_schedule(self.build(), small_architecture) == []

    def test_overlap_verification_detects_double_booking(self, small_architecture):
        schedule = Schedule(num_circuit_qubits=2)
        schedule.append(op(start=0.0, duration=1.0, atoms=(0,)))
        schedule.append(op(start=0.5, duration=1.0, atoms=(0,)))
        assert validate_schedule(schedule, small_architecture)
