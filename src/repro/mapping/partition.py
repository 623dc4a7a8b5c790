"""Circuit-DAG partitioning into weakly-coupled slices.

Sharded intra-circuit routing needs the circuit cut into slices that can be
routed one after another with as little cross-talk as possible.  Slices are
contiguous segments of the (topologically ordered) gate list, so every
per-qubit gate order stays trivially intact: each slice routes from the
mapping state its predecessor left behind without re-deriving
dependencies.

Definitions
-----------

* A **cut position** ``p`` splits the gate list into ``gates[:p]`` and
  ``gates[p:]``.
* The **crossing set** of ``p`` is the set of qubits with at least one gate
  strictly before ``p`` *and* at least one gate at/after ``p`` — exactly the
  qubits whose mapping state couples the two sides.

Recursive min-cut
-----------------

:func:`partition_circuit` follows the hierarchical decomposition of
separable workflow-nets: cut where the coupling frontier is narrow, then
recurse.  Any segment above the soft ceiling of ``4 * min_slice`` gates is
split at its minimum-crossing position among those that leave both halves
at least ``min_slice`` gates (ties broken towards the balanced midpoint,
then towards the earlier position — fully deterministic), and the
recursion continues inside both halves.  The leaves of that binary split
tree, read left to right, are the plan's slices; the tree's depth is
reported as :attr:`PartitionPlan.tree_depth`.

Each split costs O(log n), not a scan of its segment: a sparse table
answers the minimum crossing count of a position range, and a bisect into
the sorted positions holding that count finds the one nearest the
midpoint.  qft-shaped circuits split into chains of depth ~n / min_slice,
where a per-split scan made the whole partition quadratic.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.circuit import QuantumCircuit

__all__ = ["CircuitSlice", "PartitionPlan", "partition_circuit",
           "crossing_counts", "slice_subcircuit"]


@dataclass(frozen=True)
class CircuitSlice:
    """One contiguous slice ``gates[start:stop]`` of the partitioned circuit.

    ``cut_qubits`` is the crossing set of the cut *preceding* this slice
    (empty for the first slice): the qubits whose mapping state this slice
    inherits from its predecessors.
    """

    index: int
    start: int
    stop: int
    cut_qubits: Tuple[int, ...]

    @property
    def num_gates(self) -> int:
        return self.stop - self.start

    def gate_indices(self) -> range:
        """Global gate indices covered by this slice, in circuit order."""
        return range(self.start, self.stop)


@dataclass(frozen=True)
class PartitionPlan:
    """Ordered, disjoint, exhaustive slicing of one circuit's gate list.

    ``tree_depth`` is the depth of the recursive split tree (1 when the
    circuit stays one slice).
    """

    circuit: QuantumCircuit
    slices: Tuple[CircuitSlice, ...]
    tree_depth: int = 1

    @property
    def num_slices(self) -> int:
        return len(self.slices)

    def summary(self) -> Dict[str, object]:
        return {
            "num_slices": self.num_slices,
            "slice_sizes": [s.num_gates for s in self.slices],
            "cut_qubits": [len(s.cut_qubits) for s in self.slices[1:]],
            "tree_depth": self.tree_depth,
        }


def crossing_counts(circuit: QuantumCircuit) -> List[int]:
    """Crossing count for every cut position ``p`` in ``0 .. num_gates``.

    ``result[p]`` is the number of qubits with a gate strictly before ``p``
    and a gate at/after ``p``.
    """
    return _counts_from_spans(_use_spans(circuit), len(circuit))


def partition_circuit(circuit: QuantumCircuit, *,
                      min_slice: int) -> PartitionPlan:
    """Recursive min-cut partitioning of ``circuit``.

    A circuit of at most ``4 * min_slice`` gates stays one slice (callers
    treat that as "route serially"); every slice of a multi-slice plan
    holds at least ``min_slice`` gates.
    """
    if min_slice < 1:
        raise ValueError("min_slice must be at least 1")
    max_slice = 4 * min_slice
    num_gates = len(circuit)
    spans = _use_spans(circuit)
    counts = _counts_from_spans(spans, num_gates)

    cuts = _CutFinder(counts) if num_gates > max_slice else None

    # Iterative pre-order walk, left half first, so leaves arrive in
    # circuit order (the split tree can be deep on pathological inputs,
    # which would blow the recursion limit).
    starts: List[int] = []
    tree_depth = 1
    stack: List[Tuple[int, int, int]] = [(0, num_gates, 1)]
    while stack:
        lo, hi, depth = stack.pop()
        cut = (cuts.best_cut(lo, hi, min_slice)
               if hi - lo > max_slice else None)
        if cut is None:
            starts.append(lo)
            tree_depth = max(tree_depth, depth)
        else:
            stack.append((cut, hi, depth + 1))
            stack.append((lo, cut, depth + 1))

    stops = starts[1:] + [num_gates]
    slices = tuple(
        CircuitSlice(index=index, start=lo, stop=hi,
                     cut_qubits=_crossing_set(spans, lo) if lo else ())
        for index, (lo, hi) in enumerate(zip(starts, stops)))
    return PartitionPlan(circuit=circuit, slices=slices,
                         tree_depth=tree_depth)


class _CutFinder:
    """Best-cut queries over one circuit's crossing counts.

    ``_levels[k][i]`` is the minimum of ``counts[i : i + 2**k]`` (a sparse
    table), and ``_positions[c]`` lists the positions with count ``c`` in
    ascending order.
    """

    __slots__ = ("_levels", "_positions")

    def __init__(self, counts: Sequence[int]) -> None:
        self._levels: List[List[int]] = [list(counts)]
        span = 1
        while 2 * span <= len(counts):
            previous = self._levels[-1]
            self._levels.append(list(map(
                min, previous[:len(previous) - span], previous[span:])))
            span *= 2
        self._positions: Dict[int, List[int]] = {}
        for position, count in enumerate(counts):
            self._positions.setdefault(count, []).append(position)

    def best_cut(self, lo: int, hi: int, min_slice: int) -> Optional[int]:
        """Best split of segment ``[lo, hi)``; ``None`` keeps it a leaf.

        The position in ``[lo + min_slice, hi - min_slice]`` with the
        minimum crossing count, ties broken by distance to the segment
        midpoint (balance) and then by the earlier position (determinism).
        """
        range_lo, range_hi = lo + min_slice, hi - min_slice
        if range_lo > range_hi:
            return None
        level = (range_hi - range_lo + 1).bit_length() - 1
        row = self._levels[level]
        minimum = min(row[range_lo], row[range_hi - (1 << level) + 1])
        positions = self._positions[minimum]
        mid2 = lo + hi  # 2 * midpoint, keeps the distance tie-break integral
        # The midpoint is also the centre of [range_lo, range_hi], so the
        # minimum's position nearest to it lies in the range: ``before`` is
        # the nearest at or below the midpoint, ``after`` the nearest above.
        index = bisect_left(positions, mid2 // 2 + 1)
        before = positions[index - 1] if index else None
        after = positions[index] if index < len(positions) else None
        if before is None or (after is not None
                              and 2 * after - mid2 < mid2 - 2 * before):
            return after
        return before


def _use_spans(circuit: QuantumCircuit) -> Dict[int, Tuple[int, int]]:
    """Per-qubit ``(first_use, last_use)`` gate indices."""
    first_use: Dict[int, int] = {}
    last_use: Dict[int, int] = {}
    for index, gate in enumerate(circuit.gates):
        for qubit in gate.qubits:
            first_use.setdefault(qubit, index)
            last_use[qubit] = index
    return {qubit: (first, last_use[qubit])
            for qubit, first in first_use.items()}


def _counts_from_spans(spans: Dict[int, Tuple[int, int]],
                       num_gates: int) -> List[int]:
    """Crossing counts via a difference array, O(num_gates + num_qubits).

    A qubit crosses exactly the positions ``first_use < p <= last_use``.
    """
    delta = [0] * (num_gates + 1)
    for first, last in spans.values():
        if last > first:
            delta[first + 1] += 1
            delta[last + 1] -= 1
    return list(accumulate(delta))


def _crossing_set(spans: Dict[int, Tuple[int, int]],
                  position: int) -> Tuple[int, ...]:
    """The crossing set of cut ``position`` (sorted qubit indices)."""
    return tuple(sorted(qubit for qubit, (first, last) in spans.items()
                        if first < position <= last))


def slice_subcircuit(circuit: QuantumCircuit,
                     piece: CircuitSlice) -> QuantumCircuit:
    """Full-width circuit holding exactly the slice's gates, in order.

    The register width is preserved so qubit indices (and therefore mapping
    states) carry over unchanged; gate ``k`` of the subcircuit is gate
    ``piece.start + k`` of the original.
    """
    sub = QuantumCircuit(circuit.num_qubits,
                         name=f"{circuit.name}[s{piece.index}]")
    for gate in circuit.gates[piece.start:piece.stop]:
        sub.append(gate)
    return sub
