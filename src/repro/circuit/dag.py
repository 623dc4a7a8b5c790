"""Directed acyclic dependency graph of a quantum circuit.

The DAG is the data structure behind the layer-creation block of the hybrid
mapping process (Section 3.2, block (1)): each node is a gate; an edge
``u -> v`` means gate ``v`` cannot execute before gate ``u`` because they act
on a common qubit and do not commute.  The *front layer* is the set of nodes
with no unexecuted predecessors; the *lookahead layer* collects the gates that
become available within a configurable depth behind the front layer.

The implementation keeps an explicit "executed" set so the mapper can mark
gates as done one by one and cheaply query the updated front layer, without
rebuilding the graph.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .circuit import QuantumCircuit
from .commutation import gates_commute
from .gate import Gate, GateKind

__all__ = ["CircuitDAG", "DAGNode"]


class DAGNode:
    """A gate together with its dependency bookkeeping."""

    __slots__ = ("index", "gate", "predecessors", "successors")

    def __init__(self, index: int, gate: Gate) -> None:
        self.index = index
        self.gate = gate
        self.predecessors: Set[int] = set()
        self.successors: Set[int] = set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DAGNode({self.index}, {self.gate.name}, qubits={self.gate.qubits})"


class CircuitDAG:
    """Commutation-aware dependency DAG with incremental execution state.

    Parameters
    ----------
    circuit:
        The circuit to analyse.
    use_commutation:
        If True (default), gates that commute with all unexecuted gates in
        front of them on their qubits may surface in the front layer early.
        If False, the DAG degrades to the plain "last gate on each wire"
        dependency structure.
    """

    def __init__(self, circuit: QuantumCircuit, use_commutation: bool = True) -> None:
        self.circuit = circuit
        self.use_commutation = use_commutation
        self.nodes: List[DAGNode] = [DAGNode(i, g) for i, g in enumerate(circuit)]
        self._executed: Set[int] = set()
        self._build_edges()
        self._remaining_pred_count: Dict[int, int] = {
            node.index: len(node.predecessors) for node in self.nodes
        }
        self._front: Set[int] = {
            node.index for node in self.nodes if not node.predecessors
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_edges(self) -> None:
        """Create dependency edges in one pass over the circuit.

        For every gate we walk backwards along each of its wires, skip the
        gates it commutes with and add an edge to the first one it does not
        commute with (the wire's *blocker*).  The only guarantee is that
        edge: each gate follows the nearest earlier non-commuting gate on
        each of its wires.  Gates further back on the wire are ordered
        before it only if a path runs through the blocker, and there is
        none when they commute with the blocker.  In ``cx(0,1); cz(0,2);
        h(0)`` the ``h`` depends on the ``cz`` alone, so it can surface
        while the ``cx`` is pending.  The strict xfail
        ``test_gate_behind_a_commuting_blocker_waits`` in
        ``tests/circuit/test_dag.py`` pins this defect.
        """
        last_blockers: Dict[int, List[int]] = {q: [] for q in range(self.circuit.num_qubits)}

        for node in self.nodes:
            gate = node.gate
            for qubit in gate.qubits:
                for other_index in reversed(last_blockers[qubit]):
                    other = self.nodes[other_index]
                    if self.use_commutation and gates_commute(gate, other.gate):
                        continue
                    node.predecessors.add(other_index)
                    other.successors.add(node.index)
                    break  # the wire's blocker: the nearest non-commuting gate
            for qubit in gate.qubits:
                last_blockers[qubit].append(node.index)

    # ------------------------------------------------------------------
    # Execution state
    # ------------------------------------------------------------------
    @property
    def num_gates(self) -> int:
        return len(self.nodes)

    @property
    def num_executed(self) -> int:
        return len(self._executed)

    def is_finished(self) -> bool:
        return len(self._executed) == len(self.nodes)

    def execute(self, index: int) -> None:
        """Mark gate ``index`` as executed and release its successors."""
        if index in self._executed:
            raise ValueError(f"gate {index} already executed")
        if index not in self._front:
            raise ValueError(f"gate {index} is not in the front layer")
        self._executed.add(index)
        self._front.discard(index)
        for succ in self.nodes[index].successors:
            self._remaining_pred_count[succ] -= 1
            if self._remaining_pred_count[succ] == 0 and succ not in self._executed:
                self._front.add(succ)

    # ------------------------------------------------------------------
    # Layers
    # ------------------------------------------------------------------
    def front_layer(self) -> List[DAGNode]:
        """Gates with all dependencies satisfied, in circuit order."""
        return [self.nodes[i] for i in sorted(self._front)]

    def lookahead_layer(self, depth: int = 1) -> List[DAGNode]:
        """Gates that become available within ``depth`` releases behind the front.

        ``depth = 1`` returns the immediate successors of the current front
        layer (excluding gates already in the front); larger depths expand the
        horizon breadth-first.  The lookahead layer is used by both cost
        functions (Eq. 2 and Eq. 4) with the weighting factor ``w_l``.
        """
        if depth <= 0:
            return []
        seen: Set[int] = set(self._front) | set(self._executed)
        frontier: Set[int] = set(self._front)
        lookahead: List[int] = []
        for _ in range(depth):
            next_frontier: Set[int] = set()
            for index in frontier:
                for succ in self.nodes[index].successors:
                    if succ in seen:
                        continue
                    seen.add(succ)
                    next_frontier.add(succ)
                    lookahead.append(succ)
            if not next_frontier:
                break
            frontier = next_frontier
        return [self.nodes[i] for i in sorted(lookahead)]

    def entangling_front(self) -> List[DAGNode]:
        """Entangling gates currently in the front layer."""
        return [node for node in self.front_layer() if node.gate.is_entangling]

    def executable_trivially(self) -> List[DAGNode]:
        """Front-layer gates that need no routing (single-qubit, barrier, measure)."""
        return [node for node in self.front_layer() if not node.gate.is_entangling]
