"""Reference oracle for the scheduler's end-time-ordered interval index.

:class:`repro.scheduling.Scheduler` looks up restriction-radius conflicts in
an index of the live entangling intervals ordered by end time.  The original
linear scan over a plain list of intervals, in commit order, is kept below
as a test-only reference.  Every
schedule the indexed scheduler produces must equal the reference schedule
operation for operation: same kind, name, start, duration, atoms, sites and
fidelity, floats compared exactly.

The matrix covers seeded random circuits mapped on every hardware preset,
a zoned device whose restriction radii differ per zone (so each of the two
spatial tests blocks on its own), hand-built hostile timings, mixed
entangling durations with an interval ending exactly at the index's upper
end-time cut, and a long mapped schedule.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.circuit import QuantumCircuit, decompose_mcx_to_mcz
from repro.circuit.library.random_circuits import (local_window_circuit,
                                                   random_layered_circuit)
from repro.hardware import (GateDurations, NeutralAtomArchitecture,
                            SiteConnectivity, SquareLattice)
from repro.mapping import HybridMapper, MapperConfig
from repro.scheduling import (Schedule, Scheduler, scheduler as scheduler_module,
                              validate_schedule)
from repro.service import ArchitectureSpec


# ----------------------------------------------------------------------
# Reference implementation: the original list-based scan.
# ----------------------------------------------------------------------
_EPSILON = 1e-9


class _IntervalList(list):
    """Live intervals as a plain list in commit order."""

    add = list.append


def interval_sites_blocked(interval, blocked: Set[int]) -> bool:
    """True if any site of ``interval`` falls inside the ``blocked`` zone."""
    return any(site in blocked for site in interval.sites)


class ReferenceScheduler(Scheduler):
    """The scheduler with the original linear scan over every interval."""

    def _entangling_start(self, ready: Dict[int, float], intervals,
                          atoms: Tuple[int, ...], sites: Tuple[int, ...],
                          _blocked: Set[int], duration: float) -> float:
        """Earliest start compatible with atom readiness and the restriction radius."""
        start = max((ready.get(atom, 0.0) for atom in atoms), default=0.0)
        blocked = self._blocked_sites(sites)
        site_set = set(sites)
        while True:
            conflict_end: Optional[float] = None
            for interval in intervals:
                if interval.end <= start + _EPSILON or interval.start >= start + duration - _EPSILON:
                    continue
                if site_set & interval.blocked or interval_sites_blocked(interval, blocked):
                    if conflict_end is None or interval.end > conflict_end:
                        conflict_end = interval.end
            if conflict_end is None:
                return start
            start = conflict_end


# ----------------------------------------------------------------------
# Oracle comparison
# ----------------------------------------------------------------------
def _first_difference(expected: Schedule, actual: Schedule):
    for index, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            return index, want, got
    return len(expected), len(expected), len(actual)


def assert_matches_reference(architecture, circuit: QuantumCircuit,
                             result=None, connectivity=None
                             ) -> List[Schedule]:
    """Schedule ``circuit`` (and ``result``) both ways and require equality.

    Returns the reference schedules.
    """
    connectivity = connectivity or SiteConnectivity(architecture)

    def schedules(scheduler: Scheduler) -> List[Schedule]:
        built = [scheduler.schedule_circuit(circuit)]
        if result is not None:
            built.append(scheduler.schedule_result(result))
        return built

    reference = ReferenceScheduler(architecture, connectivity=connectivity)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler_module, "_IntervalIndex", _IntervalList)
        expected = schedules(reference)
    actual = schedules(Scheduler(architecture, connectivity=connectivity))
    for want, got in zip(expected, actual):
        assert got.operations == want.operations, _first_difference(want, got)
    return expected


# ----------------------------------------------------------------------
# Seeded random circuits on every preset
# ----------------------------------------------------------------------
RANDOM_CIRCUITS = {
    "layered": lambda seed: random_layered_circuit(16, 6, seed=seed),
    "layered_ccz": lambda seed: decompose_mcx_to_mcz(
        random_layered_circuit(14, 4, multi_qubit_fraction=0.25, seed=seed)),
    "local": lambda seed: local_window_circuit(18, 60, window=4, seed=seed),
}


@pytest.mark.parametrize("seed", (7, 1234))
@pytest.mark.parametrize("workload", sorted(RANDOM_CIRCUITS))
@pytest.mark.parametrize("hardware", ("gate", "mixed", "shuttling", "zoned"))
def test_random_circuit_schedules_match_reference(hardware, workload, seed):
    architecture = ArchitectureSpec.scaled(hardware, 0.12).build()
    connectivity = SiteConnectivity(architecture)
    circuit = RANDOM_CIRCUITS[workload](seed)
    result = HybridMapper(architecture, MapperConfig.hybrid(),
                          connectivity=connectivity).map(circuit)
    assert_matches_reference(architecture, circuit, result, connectivity)


@pytest.mark.parametrize("narrow_first", (True, False))
def test_asymmetric_restriction_matches_reference(asymmetric_device,
                                                  narrow_first):
    """Only the wide zone's radius separates the two gates, whichever of
    them is committed first."""
    narrow, wide = (0, 1), (14, 15)
    circuit = QuantumCircuit(16)
    for pair in ((narrow, wide) if narrow_first else (wide, narrow)):
        circuit.cz(*pair)
    circuit.cz(9, 10)             # far from both: no delay
    (schedule,) = assert_matches_reference(asymmetric_device, circuit)
    assert _entangling_starts(schedule) == pytest.approx([0.0, 0.2, 0.0])


# ----------------------------------------------------------------------
# Hostile hand-built timings
# ----------------------------------------------------------------------
def _row_device(**durations) -> NeutralAtomArchitecture:
    """3x24 lattice, r_restr = 2d: qubit q sits at site q of the first row,
    so qubits up to two apart block each other and qubits three apart do
    not."""
    return NeutralAtomArchitecture(
        name="row-device", lattice=SquareLattice(3, 24, 3.0), num_atoms=20,
        interaction_radius=2.0, restriction_radius=2.0,
        durations=GateDurations(**durations))


def _entangling_starts(schedule: Schedule) -> List[float]:
    return [op.start for op in schedule if len(op.atoms) > 1]


def test_equal_end_times_match_reference():
    """Gates that share an end time block the next gates together, which
    retry once, past their common end."""
    circuit = QuantumCircuit(12)
    circuit.cz(0, 1).cz(4, 5).cz(8, 9)     # all [0, 0.2)
    circuit.cz(2, 3).cz(6, 7)              # both blocked: [0.2, 0.4)
    circuit.cz(4, 5)                       # blocked by both: [0.4, 0.6)
    (schedule,) = assert_matches_reference(_row_device(), circuit)
    assert _entangling_starts(schedule) == pytest.approx(
        [0.0, 0.0, 0.0, 0.2, 0.2, 0.4])


@pytest.mark.parametrize("offset", (0.5e-9, 1e-9, 2e-9))
def test_end_within_epsilon_of_start_matches_reference(offset):
    """An interval that ends at or within ``_EPSILON`` of a candidate start
    is not a conflict; one that ends later is.  With ``offset == 1e-9`` the
    interval's end equals ``start + _EPSILON`` exactly, the tie the index
    must resolve like ``interval.end <= start + _EPSILON``."""
    architecture = _row_device(single_qubit=0.2, cz=0.2 + offset)
    circuit = QuantumCircuit(4)
    circuit.cz(0, 1)          # [0, 0.2 + offset)
    circuit.h(2)              # qubit 2 ready at 0.2
    circuit.cz(2, 3)          # next to qubit 1
    (schedule,) = assert_matches_reference(architecture, circuit)
    second = _entangling_starts(schedule)[1]
    assert (second == 0.2) == (0.2 + offset <= 0.2 + _EPSILON)


@pytest.mark.parametrize("width, start", ((2, 0.2), (4, 0.9)))
def test_gate_filling_an_earlier_gap_matches_reference(width, start):
    """Idle qubits next to a busy pair fill the 0.5 us gap between its
    gates when they fit (a 0.2 us CZ), and wait for the second gate when
    they do not (a 0.6 us CCCZ)."""
    circuit = QuantumCircuit(6)
    circuit.cz(0, 1)              # [0, 0.2)
    circuit.h(0).h(1)             # pair ready at 0.7
    circuit.cz(0, 1)              # [0.7, 0.9)
    circuit.mcz(list(range(2, 2 + width)))
    (schedule,) = assert_matches_reference(_row_device(), circuit)
    assert _entangling_starts(schedule)[2] == pytest.approx(start)


def test_atom_idle_behind_the_frontier_matches_reference():
    """300 sequential 5 us CZs on qubits 0/1, then a CZ on the idle
    neighbours 2/3.  The run ends at 1500 us with 300 intervals live; the
    last gate must still see the early intervals it would overlap, so it
    waits for the busy pair to finish."""
    architecture = _row_device(cz=5.0)
    circuit = QuantumCircuit(4)
    for _ in range(300):
        circuit.cz(0, 1)
    circuit.cz(2, 3)
    (schedule,) = assert_matches_reference(architecture, circuit)
    assert _entangling_starts(schedule)[-1] == pytest.approx(1500.0)
    assert validate_schedule(schedule, architecture) == []


# ----------------------------------------------------------------------
# Mixed durations: the upper end-time cut uses the longest interval
# ----------------------------------------------------------------------
def test_longer_earlier_interval_matches_reference():
    """A 0.6 us CCCZ that starts before a 0.2 us CZ's stop but ends past
    the CZ's own end: only the longest duration bounds its end, so the CZ
    must still see it and wait."""
    architecture = _row_device(single_qubit=0.1)
    circuit = QuantumCircuit(8)
    for qubit in range(3, 7):
        circuit.h(qubit)
    circuit.mcz([3, 4, 5, 6])     # [0.1, 0.7)
    circuit.cz(1, 2)              # ready at 0, next to qubit 3
    (schedule,) = assert_matches_reference(architecture, circuit)
    assert _entangling_starts(schedule) == pytest.approx([0.1, 0.7])


@pytest.mark.parametrize("seed", (3, 17, 2024))
def test_mixed_durations_match_reference(seed):
    """CZ, CCZ and CCCZ pulses (0.2/0.4/0.6 us, as the reversible
    benchmarks mix them) interleaved with single-qubit pulses in random
    order, so long intervals end past many shorter later ones."""
    rng = random.Random(seed)
    circuit = QuantumCircuit(16)
    for _ in range(400):
        if rng.random() < 0.3:
            circuit.h(rng.randrange(16))
        else:
            circuit.mcz(rng.sample(range(16), rng.choice((2, 3, 4))))
    architecture = _row_device(single_qubit=0.1)
    (schedule,) = assert_matches_reference(architecture, circuit)
    assert {op.duration for op in schedule if len(op.atoms) > 1} == {
        0.2, 0.4, 0.6}


@pytest.mark.parametrize("overlaps", (True, False))
def test_interval_ending_exactly_at_the_cut_matches_reference(overlaps):
    """A CCCZ whose end equals the cut ``fl(stop + longest)`` exactly.  It
    starts one ulp before the CZ's ``stop`` (a conflict the cut must keep)
    or exactly at it (no conflict)."""
    stop = 0.2 - _EPSILON            # the CZ's stop at start 0
    first = math.nextafter(stop, 0.0) if overlaps else stop
    assert first + 0.6 == stop + 0.6
    architecture = _row_device(single_qubit=first)
    circuit = QuantumCircuit(8)
    for qubit in range(3, 7):
        circuit.h(qubit)
    circuit.mcz([3, 4, 5, 6])     # [first, first + 0.6)
    circuit.cz(1, 2)              # ready at 0, next to qubit 3
    (schedule,) = assert_matches_reference(architecture, circuit)
    assert _entangling_starts(schedule)[1] == (first + 0.6 if overlaps
                                               else 0.0)


# ----------------------------------------------------------------------
# A long mapped schedule: more than 256 intervals live past 1000 us
# ----------------------------------------------------------------------
def test_call25_gate_only_matches_reference(call25_gate_only):
    architecture, connectivity, circuit, result = call25_gate_only
    assert_matches_reference(architecture, circuit, result, connectivity)
