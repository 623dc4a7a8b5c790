"""Circuit-DAG partitioning into weakly-coupled slices.

Sharded intra-circuit routing (ROADMAP item 2) needs the circuit cut into
slices that can be routed independently with as little cross-talk as
possible.  The partitioner implements a **greedy frontier sweep** over the
gate list: slices are contiguous segments of the (topologically ordered)
gate sequence, and each cut is placed at a *low-crossing frontier* — a
position where as few qubits as possible are live on both sides of the cut.
Cutting on contiguous segments keeps every per-qubit gate order trivially
intact, which is what lets slices route one after another, each from its
predecessor's final state, without re-deriving dependencies (cf. the
hierarchical decomposition of separable workflow-nets: cut where the
coupling frontier is narrow, recurse inside).

Definitions
-----------

* A **cut position** ``p`` splits the gate list into ``gates[:p]`` and
  ``gates[p:]``.
* The **crossing set** of ``p`` is the set of qubits with at least one gate
  strictly before ``p`` *and* at least one gate at/after ``p`` — exactly the
  qubits whose mapping state couples the two sides.
* A cut is **admissible** when its crossing count does not exceed the
  configured bound (``max_cut_qubits``); with no bound every position is
  admissible and the sweep simply picks the locally minimal crossing.

The sweep walks left to right: once the pending slice has reached
``min_slice`` gates it scans the window up to ``max_slice`` for the
admissible position with the lowest crossing count (earliest wins ties) and
cuts there.  When no admissible position exists inside the window the slice
is *extended* past the soft maximum — the cut-qubit bound is a hard
invariant, the maximum slice size is not.  A tail shorter than ``min_slice``
is merged into the final slice, so every slice of a multi-slice plan holds
at least ``min_slice`` gates.

Hierarchical partitioning
-------------------------

:func:`partition_circuit_tree` replaces the linear sweep with the recursive
min-cut shape of hierarchical workload decomposition (PWDFT-SW; separable
workflow-nets): any segment above ``max_slice`` gates is re-cut at its own
minimum-crossing admissible frontier (ties broken towards the balanced
midpoint, then towards the earlier position — fully deterministic), and the
recursion continues inside both halves.  The result is a
:class:`PartitionNode` *tree* whose every internal cut honours the hard
``max_cut_qubits`` bound and whose leaves — read left to right — are
exactly the plan's slices, in the deterministic order the sharded router
routes them.  A segment with no admissible frontier stays an
oversized leaf: as in the sweep, the cut bound is hard, the size bound is
soft.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..circuit.circuit import QuantumCircuit

__all__ = ["CircuitSlice", "PartitionNode", "PartitionPlan",
           "partition_circuit", "partition_circuit_tree", "crossing_counts",
           "slice_subcircuit"]


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
class PartitionNode:
    """One node of the hierarchical partition tree over ``gates[start:stop]``.

    Internal nodes record the cut that split them (``cut`` is an absolute
    gate-list position, ``cut_count`` its crossing count — bounded by
    ``max_cut_qubits`` at *every* level); leaves have no children and become
    the plan's slices.  ``height`` is 1 for a leaf and grows towards the
    root, so the root's height is the tree depth.
    """

    start: int
    stop: int
    cut: Optional[int]
    cut_count: int
    height: int
    children: Tuple["PartitionNode", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def num_gates(self) -> int:
        return self.stop - self.start

    def leaves(self) -> Iterator["PartitionNode"]:
        """Leaf nodes left to right — the deterministic stitch order."""
        stack = [self]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend(reversed(node.children))

    def internal_nodes(self) -> Iterator["PartitionNode"]:
        """Every non-leaf node (pre-order)."""
        stack = [self]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                yield node
                stack.extend(reversed(node.children))


@dataclass(frozen=True)
class PartitionPlan:
    """Ordered, disjoint, exhaustive slicing of one circuit's gate list.

    ``tree`` is the hierarchical partition tree when the plan was built by
    :func:`partition_circuit_tree` (its left-to-right leaves are exactly
    ``slices``), ``None`` for the flat greedy sweep.
    """

    circuit: QuantumCircuit
    slices: Tuple[CircuitSlice, ...]
    tree: Optional[PartitionNode] = field(default=None, compare=False)

    @property
    def num_slices(self) -> int:
        return len(self.slices)

    def max_cut_qubits(self) -> int:
        """Largest crossing count over all interior cuts (0 for one slice)."""
        return max((len(s.cut_qubits) for s in self.slices[1:]), default=0)

    @property
    def tree_depth(self) -> int:
        """Depth of the partition tree (1 = unsplit root / flat plan)."""
        return self.tree.height if self.tree is not None else 1

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
    and a gate at/after ``p``.  Computed from per-qubit first/last gate
    indices in O(num_gates + num_qubits + len(result)) via a difference
    array: qubit ``q`` crosses exactly the positions
    ``first_use[q] < p <= last_use[q]``.
    """
    gates = circuit.gates
    first_use: Dict[int, int] = {}
    last_use: Dict[int, int] = {}
    for index, gate in enumerate(gates):
        for qubit in gate.qubits:
            first_use.setdefault(qubit, index)
            last_use[qubit] = index
    delta = [0] * (len(gates) + 2)
    for qubit, first in first_use.items():
        last = last_use[qubit]
        if last > first:
            delta[first + 1] += 1
            delta[last + 1] -= 1
    counts: List[int] = []
    running = 0
    for position in range(len(gates) + 1):
        running += delta[position]
        counts.append(running)
    return counts


def partition_circuit(circuit: QuantumCircuit, *,
                      min_slice: int,
                      max_slice: Optional[int] = None,
                      max_cut_qubits: Optional[int] = None) -> PartitionPlan:
    """Greedy frontier sweep partitioning of ``circuit``.

    Parameters
    ----------
    min_slice:
        Minimum gates per slice.  A circuit with fewer than ``2 * min_slice``
        gates yields a single slice (callers treat that as "route serially").
    max_slice:
        Soft slice-size ceiling (default ``4 * min_slice``); exceeded only
        when no admissible cut exists inside the window.
    max_cut_qubits:
        Hard bound on the crossing count of every cut; ``None`` disables the
        bound and the sweep cuts at the locally minimal crossing.
    """
    if min_slice < 1:
        raise ValueError("min_slice must be at least 1")
    if max_slice is None:
        max_slice = 4 * min_slice
    if max_slice < min_slice:
        raise ValueError("max_slice cannot be below min_slice")
    num_gates = len(circuit)
    counts = crossing_counts(circuit)

    cuts: List[int] = []
    start = 0
    while num_gates - start >= 2 * min_slice:
        cut = _best_cut(counts, start, num_gates, min_slice, max_slice,
                        max_cut_qubits)
        if cut is None:
            break  # no admissible frontier anywhere ahead: absorb the tail
        cuts.append(cut)
        start = cut

    return PartitionPlan(circuit=circuit,
                         slices=_slices_for_boundaries(circuit, cuts, num_gates))


def partition_circuit_tree(circuit: QuantumCircuit, *,
                           min_slice: int,
                           max_slice: Optional[int] = None,
                           max_cut_qubits: Optional[int] = None
                           ) -> PartitionPlan:
    """Hierarchical (recursive min-cut) partitioning of ``circuit``.

    Any segment above ``max_slice`` gates is split at its own
    minimum-crossing admissible frontier — crossing count first, then
    distance to the segment midpoint, then the earlier position, so the
    tree (and therefore the leaf order) is fully deterministic.  Both
    halves keep at least ``min_slice`` gates and the recursion continues
    inside them; a segment with no admissible frontier stays an oversized
    leaf (the ``max_cut_qubits`` bound is hard at every level, the size
    bound is soft).  Parameters match :func:`partition_circuit`.
    """
    if min_slice < 1:
        raise ValueError("min_slice must be at least 1")
    if max_slice is None:
        max_slice = 4 * min_slice
    if max_slice < min_slice:
        raise ValueError("max_slice cannot be below min_slice")
    num_gates = len(circuit)
    counts = crossing_counts(circuit)

    # Iterative post-order construction (the tree can be min_slice-deep on
    # pathological inputs, which would blow the recursion limit).
    nodes: Dict[Tuple[int, int], PartitionNode] = {}
    pending_cut: Dict[Tuple[int, int], int] = {}
    stack: List[Tuple[int, int, bool]] = [(0, num_gates, False)]
    while stack:
        lo, hi, expanded = stack.pop()
        if expanded:
            cut = pending_cut.pop((lo, hi))
            left, right = nodes.pop((lo, cut)), nodes.pop((cut, hi))
            nodes[(lo, hi)] = PartitionNode(
                start=lo, stop=hi, cut=cut, cut_count=counts[cut],
                height=1 + max(left.height, right.height),
                children=(left, right))
            continue
        cut = _best_tree_cut(counts, lo, hi, min_slice, max_slice,
                             max_cut_qubits)
        if cut is None:
            nodes[(lo, hi)] = PartitionNode(start=lo, stop=hi, cut=None,
                                            cut_count=0, height=1)
        else:
            pending_cut[(lo, hi)] = cut
            stack.append((lo, hi, True))
            stack.append((cut, hi, False))
            stack.append((lo, cut, False))
    root = nodes[(0, num_gates)]

    cuts = [leaf.start for leaf in root.leaves()][1:]
    return PartitionPlan(circuit=circuit,
                         slices=_slices_for_boundaries(circuit, cuts,
                                                       num_gates),
                         tree=root)


def _best_tree_cut(counts: Sequence[int], lo: int, hi: int,
                   min_slice: int, max_slice: int,
                   max_cut_qubits: Optional[int]) -> Optional[int]:
    """Best admissible split of segment ``[lo, hi)``; ``None`` keeps it a leaf.

    A segment at or below ``max_slice`` gates never splits.  Otherwise the
    admissible range ``[lo + min_slice, hi - min_slice]`` is scanned for the
    minimum crossing count, ties broken by distance to the segment midpoint
    (balance) and then by the earlier position (determinism).
    """
    if hi - lo <= max_slice:
        return None
    range_lo, range_hi = lo + min_slice, hi - min_slice
    if range_lo > range_hi:
        return None
    mid2 = lo + hi  # 2 * midpoint, keeps the distance tie-break integral
    best: Optional[int] = None
    best_key: Optional[Tuple[int, int]] = None
    for position in range(range_lo, range_hi + 1):
        count = counts[position]
        if max_cut_qubits is not None and count > max_cut_qubits:
            continue
        key = (count, abs(2 * position - mid2))
        if best_key is None or key < best_key:
            best, best_key = position, key
    return best


def _slices_for_boundaries(circuit: QuantumCircuit, cuts: Sequence[int],
                           num_gates: int) -> Tuple[CircuitSlice, ...]:
    """Materialise :class:`CircuitSlice` objects for the given interior cuts."""
    intervals = _qubit_intervals(circuit)
    slices: List[CircuitSlice] = []
    boundaries = [0] + list(cuts) + [num_gates]
    for index in range(len(boundaries) - 1):
        lo, hi = boundaries[index], boundaries[index + 1]
        cut_qubits = (_crossing_from_intervals(intervals, lo) if lo > 0
                      else ())
        slices.append(CircuitSlice(index=index, start=lo, stop=hi,
                                   cut_qubits=cut_qubits))
    return tuple(slices)


def _best_cut(counts: Sequence[int], start: int, num_gates: int,
              min_slice: int, max_slice: int,
              max_cut_qubits: Optional[int]) -> Optional[int]:
    """Lowest-crossing admissible cut after ``start``; ``None`` if none exists.

    Scans the window ``[start + min_slice, start + max_slice]`` first (the
    remainder must keep room for one more ``min_slice`` slice); when the
    bound rules out every position there, the window slides forward by
    ``max_slice`` at a time — slice size is soft, the cut bound is not.
    """
    window_lo = start + min_slice
    hard_hi = num_gates - min_slice  # leave room for the next slice
    while window_lo <= hard_hi:
        window_hi = min(window_lo + (max_slice - min_slice), hard_hi)
        best: Optional[int] = None
        best_count = None
        for position in range(window_lo, window_hi + 1):
            count = counts[position]
            if max_cut_qubits is not None and count > max_cut_qubits:
                continue
            if best_count is None or count < best_count:
                best, best_count = position, count
        if best is not None:
            return best
        window_lo = window_hi + 1
    return None


def _qubit_intervals(circuit: QuantumCircuit) -> Dict[int, Tuple[int, int]]:
    """Per-qubit ``(first_use, last_use)`` gate indices."""
    intervals: Dict[int, Tuple[int, int]] = {}
    for index, gate in enumerate(circuit.gates):
        for qubit in gate.qubits:
            first = intervals.get(qubit)
            intervals[qubit] = (index if first is None else first[0], index)
    return intervals


def _crossing_from_intervals(intervals: Dict[int, Tuple[int, int]],
                             position: int) -> Tuple[int, ...]:
    """The crossing set of cut ``position`` (sorted qubit indices).

    A qubit crosses exactly when it has a gate strictly before the cut and
    one at/after it: ``first_use < position <= last_use``.
    """
    return tuple(sorted(
        qubit for qubit, (first, last) in intervals.items()
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
