"""ASAP scheduler with neutral-atom parallelism constraints (process block (5)).

The scheduler lowers a mapped operation stream — or a plain circuit, for the
reference schedule of the unmapped input — to timed hardware operations:

* single-qubit gates become individual ``U3`` pulses,
* ``C^{m-1}Z`` gates become one Rydberg pulse whose duration depends on the
  gate width (Table 1c),
* inserted SWAP gates are decomposed into their native three-CZ / four-H
  sequence before scheduling,
* shuttling moves are packed into AOD batches (respecting the no-crossing
  constraint) and charged activation + travel + deactivation time.

Two hardware constraints shape the timing:

1. an atom can take part in at most one operation at a time, and
2. two entangling gates may only run simultaneously if every atom of one gate
   keeps at least the restriction radius ``r_restr`` from every atom of the
   other (Section 2.1) — otherwise the later gate is delayed.

The second constraint is checked against the live entangling intervals,
which an :class:`_IntervalIndex` keeps ordered by end time.  A gate of
duration ``d`` at candidate start ``t`` can only conflict with an interval
that ends after ``t + _EPSILON`` and starts before ``stop = t + d -
_EPSILON``; every other interval is skipped by the time test anyway.  Both
sides are cut by one ``bisect_right`` each on the sorted end times:

* the lower cut drops the intervals ending at or before ``t + _EPSILON``;
* the upper cut drops the intervals ending after ``stop + longest``, where
  ``longest`` is the longest duration ever indexed.  This needs no margin,
  for any float times: an interval ``[s, s + d_i)`` that starts before
  ``stop`` has ``s + d_i < stop + longest`` as real numbers, and rounding
  to nearest is monotone, so its stored end ``fl(s + d_i)`` is at most
  ``fl(stop + longest)``, the cut itself, which ``bisect_right`` keeps.

Only the slice between the cuts is scanned, re-bisecting on every retry.
The time-overlap and spatial tests on that slice are unchanged, and a
retry moves the start to the maximum end over all conflicts, which does
not depend on the order the intervals are visited in — so the schedule is
exactly the one a scan over every live interval produces.

No interval is ever dropped.  Atoms that idled far behind the frontier may
start a gate early enough to overlap an interval that ended long before the
latest commit, so every interval stays live; the end-time bisection keeps
the scan short for gates near the frontier.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..circuit.circuit import QuantumCircuit
from ..circuit.gate import Gate, GateKind
from ..hardware.architecture import NeutralAtomArchitecture
from ..hardware.connectivity import SiteConnectivity
from ..mapping.result import CircuitGateOp, MappingResult, ShuttleOp, SwapOp
from ..shuttling.aod import group_moves, schedule_batch
from ..shuttling.moves import Move
from .schedule import OperationKind, Schedule, ScheduledOperation

__all__ = ["Scheduler"]

_EPSILON = 1e-9

#: Native realisation of one SWAP as (pulse, operand positions) pairs, the
#: positions indexing the SWAP's (atom_a, atom_b); mirrors
#: ``circuit.decompose.swap_decomposition``.
_NATIVE_SWAP = (
    ("h", (1,)),
    ("cz", (0, 1)),
    ("h", (1,)),
    ("h", (0,)),
    ("cz", (1, 0)),
    ("h", (0,)),
    ("h", (1,)),
    ("cz", (0, 1)),
    ("h", (1,)),
)


class _EntanglingInterval:
    """Book-keeping entry for the restriction-radius constraint."""

    __slots__ = ("start", "duration", "end", "sites", "blocked")

    def __init__(self, start: float, duration: float,
                 sites: Tuple[int, ...], blocked: Set[int]) -> None:
        self.start = start
        self.duration = duration
        self.end = start + duration
        self.sites = sites
        self.blocked = blocked


class _IntervalIndex:
    """Live entangling intervals in two parallel lists sorted by end time.

    ``bisect`` has no ``key=`` argument before Python 3.10, so the end
    times are kept in a list of their own.  Intervals with equal ends keep
    their insertion order.  ``longest`` is the longest duration added.
    """

    __slots__ = ("ends", "items", "longest")

    def __init__(self) -> None:
        self.ends: List[float] = []
        self.items: List[_EntanglingInterval] = []
        self.longest = 0.0

    def add(self, interval: _EntanglingInterval) -> None:
        position = bisect_right(self.ends, interval.end)
        self.ends.insert(position, interval.end)
        self.items.insert(position, interval)
        if interval.duration > self.longest:
            self.longest = interval.duration

    def overlapping(self, after: float, stop: float
                    ) -> List[_EntanglingInterval]:
        """The intervals ending strictly after ``after``, less those that
        end after ``stop + longest`` and so start at or after ``stop`` (the
        module docstring proves the cut)."""
        ends = self.ends
        return self.items[bisect_right(ends, after):
                          bisect_right(ends, stop + self.longest)]


class Scheduler:
    """ASAP list scheduler for neutral-atom hardware operations."""

    def __init__(self, architecture: NeutralAtomArchitecture,
                 connectivity: Optional[SiteConnectivity] = None) -> None:
        self.architecture = architecture
        self.connectivity = connectivity or SiteConnectivity(architecture)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def schedule_result(self, result: MappingResult) -> Schedule:
        """Schedule a mapped operation stream."""
        schedule = Schedule(num_circuit_qubits=result.circuit.num_qubits)
        ready: Dict[int, float] = {}
        intervals = _IntervalIndex()

        pending_moves: List[Tuple[Move, int]] = []  # (move, atom) buffered for batching

        for operation in result.operations:
            if isinstance(operation, ShuttleOp):
                pending_moves.append((operation.move, operation.move.atom))
                continue
            if pending_moves:
                self._flush_moves(schedule, ready, pending_moves)
                pending_moves = []
            if isinstance(operation, CircuitGateOp):
                self._schedule_gate(schedule, ready, intervals, operation.gate,
                                    operation.atoms, operation.sites)
            elif isinstance(operation, SwapOp):
                self._schedule_swap(schedule, ready, intervals, operation)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown mapped operation {operation!r}")
        if pending_moves:
            self._flush_moves(schedule, ready, pending_moves)
        return schedule

    def schedule_circuit(self, circuit: QuantumCircuit,
                         sites: Optional[Sequence[int]] = None) -> Schedule:
        """Schedule an (unmapped) circuit with the identity placement.

        This produces the reference schedule the evaluation compares against:
        connectivity is not enforced — every gate executes where its qubits
        sit — but atom exclusivity and the restriction-radius constraint are.
        """
        placement = list(sites) if sites is not None else list(range(circuit.num_qubits))
        if len(placement) < circuit.num_qubits:
            raise ValueError("placement must cover every circuit qubit")
        schedule = Schedule(num_circuit_qubits=circuit.num_qubits)
        ready: Dict[int, float] = {}
        intervals = _IntervalIndex()
        for gate in circuit:
            if gate.kind == GateKind.BARRIER:
                self._schedule_barrier(ready, gate)
                continue
            atoms = tuple(gate.qubits)
            gate_sites = tuple(placement[q] for q in gate.qubits)
            self._schedule_gate(schedule, ready, intervals, gate, atoms, gate_sites)
        return schedule

    # ------------------------------------------------------------------
    # Gate scheduling
    # ------------------------------------------------------------------
    def _schedule_barrier(self, ready: Dict[int, float], gate: Gate) -> None:
        fence = max((ready.get(q, 0.0) for q in gate.qubits), default=0.0)
        for qubit in gate.qubits:
            ready[qubit] = fence

    def _schedule_gate(self, schedule: Schedule, ready: Dict[int, float],
                       intervals: _IntervalIndex, gate: Gate,
                       atoms: Tuple[int, ...], sites: Tuple[int, ...]) -> None:
        arch = self.architecture
        if gate.kind == GateKind.MEASURE:
            start = ready.get(atoms[0], 0.0)
            duration = arch.durations.single_qubit
            schedule.append(ScheduledOperation(
                kind=OperationKind.MEASURE, name="measure", start=start,
                duration=duration, atoms=atoms, sites=sites, fidelity=1.0))
            ready[atoms[0]] = start + duration
            return
        if gate.is_single_qubit:
            start = ready.get(atoms[0], 0.0)
            duration = arch.durations.single_qubit
            schedule.append(ScheduledOperation(
                kind=OperationKind.SINGLE_QUBIT, name=gate.name, start=start,
                duration=duration, atoms=atoms, sites=sites,
                fidelity=arch.fidelities.single_qubit))
            ready[atoms[0]] = start + duration
            return
        if gate.kind == GateKind.SWAP:
            # A bare SWAP in the input circuit: schedule its native decomposition.
            self._schedule_native_swap(schedule, ready, intervals, atoms, sites)
            return
        # Multi-controlled Z (and CX gates that were not decomposed: they take
        # the same Rydberg pulse plus the two Hadamards already in the stream).
        width = gate.num_qubits
        duration = arch.durations.entangling(width)
        fidelity = arch.fidelities.entangling(width)
        blocked = self._blocked_sites(sites)
        start = self._entangling_start(ready, intervals, atoms, sites, blocked,
                                       duration)
        schedule.append(ScheduledOperation(
            kind=OperationKind.ENTANGLING, name=gate.name, start=start,
            duration=duration, atoms=atoms, sites=sites, fidelity=fidelity))
        self._commit_entangling(ready, intervals, atoms, sites, blocked, start,
                                duration)

    def _schedule_swap(self, schedule: Schedule, ready: Dict[int, float],
                       intervals: _IntervalIndex, operation: SwapOp) -> None:
        atoms = (operation.atom_a, operation.atom_b)
        sites = (operation.site_a, operation.site_b)
        self._schedule_native_swap(schedule, ready, intervals, atoms, sites)

    def _schedule_native_swap(self, schedule: Schedule, ready: Dict[int, float],
                              intervals: _IntervalIndex,
                              atoms: Tuple[int, ...], sites: Tuple[int, ...]) -> None:
        """Emit the native 3-CZ + 6-H realisation of one SWAP."""
        arch = self.architecture
        # All three CZs act on the same two sites.
        blocked = self._blocked_sites(sites)
        for name, positions in _NATIVE_SWAP:
            op_atoms = tuple(atoms[i] for i in positions)
            op_sites = tuple(sites[i] for i in positions)
            if name == "h":
                start = ready.get(op_atoms[0], 0.0)
                duration = arch.durations.single_qubit
                schedule.append(ScheduledOperation(
                    kind=OperationKind.SINGLE_QUBIT, name=name, start=start,
                    duration=duration, atoms=op_atoms, sites=op_sites,
                    fidelity=arch.fidelities.single_qubit))
                ready[op_atoms[0]] = start + duration
            else:
                duration = arch.durations.cz
                start = self._entangling_start(ready, intervals, op_atoms, op_sites,
                                               blocked, duration)
                schedule.append(ScheduledOperation(
                    kind=OperationKind.ENTANGLING, name=name, start=start,
                    duration=duration, atoms=op_atoms, sites=op_sites,
                    fidelity=arch.fidelities.cz))
                self._commit_entangling(ready, intervals, op_atoms, op_sites,
                                        blocked, start, duration)

    # ------------------------------------------------------------------
    # Restriction-radius handling
    # ------------------------------------------------------------------
    def _blocked_sites(self, sites: Tuple[int, ...]) -> Set[int]:
        blocked: Set[int] = set(sites)
        for site in sites:
            blocked.update(self.connectivity.restriction_neighbours(site))
        return blocked

    def _entangling_start(self, ready: Dict[int, float],
                          intervals: _IntervalIndex,
                          atoms: Tuple[int, ...], sites: Tuple[int, ...],
                          blocked: Set[int], duration: float) -> float:
        """Earliest start compatible with atom readiness and the restriction radius."""
        start = max((ready.get(atom, 0.0) for atom in atoms), default=0.0)
        site_set = set(sites)
        while True:
            conflict_end: Optional[float] = None
            stop = start + duration - _EPSILON
            for interval in intervals.overlapping(start + _EPSILON, stop):
                if interval.start >= stop:
                    continue
                if (not site_set.isdisjoint(interval.blocked)
                        or any(site in blocked for site in interval.sites)):
                    if conflict_end is None or interval.end > conflict_end:
                        conflict_end = interval.end
            if conflict_end is None:
                return start
            start = conflict_end

    def _commit_entangling(self, ready: Dict[int, float],
                           intervals: _IntervalIndex,
                           atoms: Tuple[int, ...], sites: Tuple[int, ...],
                           blocked: Set[int], start: float,
                           duration: float) -> None:
        for atom in atoms:
            ready[atom] = start + duration
        intervals.add(_EntanglingInterval(start, duration, sites, blocked))

    # ------------------------------------------------------------------
    # Shuttling
    # ------------------------------------------------------------------
    def _flush_moves(self, schedule: Schedule, ready: Dict[int, float],
                     pending: List[Tuple[Move, int]]) -> None:
        """Schedule a buffered run of consecutive moves as AOD batches."""
        moves = [move for move, _atom in pending]
        for batch in group_moves(moves):
            batch_schedule = schedule_batch(batch, self.architecture)
            atoms = tuple(move.atom for move in batch)
            start = max((ready.get(atom, 0.0) for atom in atoms), default=0.0)
            duration = batch_schedule.duration
            fidelity = self.architecture.fidelities.shuttling ** len(batch)
            sites = tuple(site for move in batch for site in (move.source, move.destination))
            schedule.append(ScheduledOperation(
                kind=OperationKind.SHUTTLE, name="move", start=start,
                duration=duration, atoms=atoms, sites=sites,
                fidelity=max(fidelity, 1e-12)))
            for atom in atoms:
                ready[atom] = start + duration

