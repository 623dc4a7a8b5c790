"""Schedule data structures.

The scheduler lowers a mapped operation stream to timed hardware operations.
Each :class:`ScheduledOperation` records its start time, duration, the atoms
it occupies, the trap sites involved and the operation fidelity.  The
:class:`Schedule` aggregates them and derives the quantities used by the
evaluation: total circuit time ``T``, the paper's idle time
``t_idle = n * T - sum_O t_O`` and the per-qubit busy/idle breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ScheduledOperation", "Schedule", "OperationKind"]


class OperationKind:
    """Classification of scheduled hardware operations."""

    SINGLE_QUBIT = "single_qubit"
    ENTANGLING = "entangling"
    SHUTTLE = "shuttle"
    MEASURE = "measure"

    ALL = (SINGLE_QUBIT, ENTANGLING, SHUTTLE, MEASURE)


@dataclass(frozen=True)
class ScheduledOperation:
    """One timed hardware operation.

    Attributes
    ----------
    kind:
        One of :class:`OperationKind`.
    name:
        Human-readable mnemonic (``"h"``, ``"cz"``, ``"ccz"``, ``"move"``...).
    start / duration:
        Start time and duration in microseconds.
    atoms:
        Physical atoms occupied for the duration.
    sites:
        Trap sites involved (for entangling gates: where the atoms sit; for
        moves: source and destination).
    fidelity:
        Average operation fidelity contributing to the success probability.
    """

    kind: str
    name: str
    start: float
    duration: float
    atoms: Tuple[int, ...]
    sites: Tuple[int, ...] = ()
    fidelity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in OperationKind.ALL:
            raise ValueError(f"unknown operation kind {self.kind!r}")
        if self.duration < 0 or self.start < 0:
            raise ValueError("times must be non-negative")
        if not 0.0 < self.fidelity <= 1.0:
            raise ValueError("fidelity must lie in (0, 1]")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class Schedule:
    """Timed realisation of a mapped circuit."""

    num_circuit_qubits: int
    operations: List[ScheduledOperation] = field(default_factory=list)

    def append(self, operation: ScheduledOperation) -> None:
        self.operations.append(operation)

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Total circuit execution time ``T`` in microseconds."""
        return max((op.end for op in self.operations), default=0.0)

    def total_operation_time(self) -> float:
        """``sum_O t_O`` — the summed duration of every operation."""
        return sum(op.duration for op in self.operations)

    def total_busy_time(self) -> float:
        """Summed busy time weighted by the number of atoms each operation occupies."""
        return sum(op.duration * len(op.atoms) for op in self.operations)

    def idle_time(self, *, makespan: Optional[float] = None) -> float:
        """The paper's idle time ``t_idle = n * T - sum_O t_O`` (Eq. 1).

        Negative values (possible for highly parallel circuits where the
        operation count outweighs the small qubit register) are clamped to
        zero, as an idle time below zero has no physical meaning.  A caller
        that already holds :attr:`makespan` passes it to skip a rescan.
        """
        if makespan is None:
            makespan = self.makespan
        return max(self.num_circuit_qubits * makespan - self.total_operation_time(), 0.0)

    def per_qubit_idle_time(self) -> float:
        """Alternative idle measure: ``sum_q (T - busy_q)`` over circuit qubits."""
        return max(self.num_circuit_qubits * self.makespan - self.total_busy_time(), 0.0)

    def count_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for op in self.operations:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    def count_entangling_by_width(self) -> Dict[int, int]:
        """Histogram of entangling-gate widths (2 = CZ, 3 = CCZ, ...)."""
        counts: Dict[int, int] = {}
        for op in self.operations:
            if op.kind == OperationKind.ENTANGLING:
                counts[len(op.atoms)] = counts.get(len(op.atoms), 0) + 1
        return counts

    def num_cz_gates(self) -> int:
        """Number of two-qubit CZ gates in the schedule."""
        return self.count_entangling_by_width().get(2, 0)

    def num_shuttle_operations(self) -> int:
        return self.count_by_kind().get(OperationKind.SHUTTLE, 0)
