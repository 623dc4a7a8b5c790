"""Directed acyclic dependency graph of a quantum circuit.

The DAG is the layer-creation block of the hybrid mapping process
(Section 3.2, block (1)): each node is a gate; an edge ``u -> v`` means gate
``v`` cannot execute before gate ``u`` because they act on a common qubit and
do not commute.  A gate is *ready* once all its predecessors are executed.

The DAG is also the mapper's routing view.  Ready non-entangling gates
(single-qubit gates, barriers, measurements) need no routing:
:meth:`CircuitDAG.drain_trivial` executes them.  What remains are the two
layers the mapper routes: the *front layer* of ready entangling gates and the
*lookahead layer* of entangling gates released within a configurable depth
behind the ready set.  Both are cached until the next execution, so the many
routing rounds of a long SWAP or move sequence reuse one snapshot.
"""

from __future__ import annotations

from typing import List, Optional, Set

from .circuit import QuantumCircuit
from .commutation import gates_commute
from .gate import Gate

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
    lookahead_depth:
        How many release steps behind the ready set the lookahead layer
        extends; 0 disables it.
    """

    def __init__(self, circuit: QuantumCircuit, use_commutation: bool = True,
                 lookahead_depth: int = 1) -> None:
        if lookahead_depth < 0:
            raise ValueError("lookahead depth cannot be negative")
        self.circuit = circuit
        self.use_commutation = use_commutation
        self.lookahead_depth = lookahead_depth
        self.nodes: List[DAGNode] = [DAGNode(i, g) for i, g in enumerate(circuit)]
        self._build_edges()
        self._entangling: List[bool] = [node.gate.is_entangling
                                        for node in self.nodes]
        self._remaining_pred_count: List[int] = [
            len(node.predecessors) for node in self.nodes]
        self._executed: Set[int] = set()
        # The ready set, split by whether a gate needs routing.
        self._ready_trivial: Set[int] = set()
        self._ready_entangling: Set[int] = set()
        for node in self.nodes:
            if not node.predecessors:
                self._ready_set(node.index).add(node.index)
        # Routing view, cached until the next execution.
        self._front: Optional[List[DAGNode]] = None
        self._lookahead: Optional[List[DAGNode]] = None

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

        The walk skips what it already knows it would skip, so it stays
        linear on long diagonal runs (a qft wire is one long run of ``cp``
        gates).  Each wire keeps two lists: every gate on it, and only its
        non-diagonal gates.  A diagonal gate walks the non-diagonal list.
        That is exact: two diagonal gates always commute under
        :func:`gates_commute`, and barriers and measurements are never
        diagonal, so the full walk would pass over every diagonal gate
        anyway.  A non-diagonal gate walks the full list.  Without
        commutation a gate links straight to the last gate on each wire.
        ``tests/differential/dag_reference.py`` keeps the plain walk, and
        the edges of both must be equal.
        """
        num_qubits = self.circuit.num_qubits
        wire_gates: List[List[int]] = [[] for _ in range(num_qubits)]
        wire_blockers: List[List[int]] = [[] for _ in range(num_qubits)]

        for node in self.nodes:
            gate = node.gate
            diagonal = gate.is_diagonal
            for qubit in gate.qubits:
                if not self.use_commutation:
                    walk = wire_gates[qubit][-1:]
                elif diagonal:
                    walk = wire_blockers[qubit]
                else:
                    walk = wire_gates[qubit]
                for other_index in reversed(walk):
                    other = self.nodes[other_index]
                    if self.use_commutation and gates_commute(gate, other.gate):
                        continue
                    node.predecessors.add(other_index)
                    other.successors.add(node.index)
                    break  # the wire's blocker: the nearest non-commuting gate
            for qubit in gate.qubits:
                wire_gates[qubit].append(node.index)
                if not diagonal:
                    wire_blockers[qubit].append(node.index)

    # ------------------------------------------------------------------
    # Execution state
    # ------------------------------------------------------------------
    def _ready_set(self, index: int) -> Set[int]:
        return self._ready_entangling if self._entangling[index] else self._ready_trivial

    def is_finished(self) -> bool:
        return len(self._executed) == len(self.nodes)

    def execute(self, index: int) -> None:
        """Mark ready gate ``index`` as executed and release its successors."""
        if index in self._executed:
            raise ValueError(f"gate {index} already executed")
        ready = self._ready_set(index)
        if index not in ready:
            raise ValueError(f"gate {index} is not ready")
        ready.remove(index)
        self._executed.add(index)
        self._front = self._lookahead = None
        for succ in self.nodes[index].successors:
            self._remaining_pred_count[succ] -= 1
            if self._remaining_pred_count[succ] == 0:
                self._ready_set(succ).add(succ)

    def drain_trivial(self) -> List[DAGNode]:
        """Execute and return ready non-entangling gates until none is ready.

        Each pass executes the gates ready at its start in index order; the
        gates they release wait for the next pass.  That is the order the
        mapper forwards them to the output stream.
        """
        drained: List[DAGNode] = []
        while self._ready_trivial:
            for index in sorted(self._ready_trivial):
                self.execute(index)
                drained.append(self.nodes[index])
        return drained

    # ------------------------------------------------------------------
    # Routing view
    # ------------------------------------------------------------------
    def front_layer(self) -> List[DAGNode]:
        """Ready entangling gates, in circuit order.

        The list is cached until the next execution; treat it as read-only.
        """
        if self._front is None:
            self._front = [self.nodes[i] for i in sorted(self._ready_entangling)]
        return self._front

    def lookahead_layer(self) -> List[DAGNode]:
        """Entangling gates released within ``lookahead_depth`` steps, in circuit order.

        Depth 1 holds the direct successors of the ready gates; larger depths
        expand the horizon breadth-first.  Both cost functions (Eq. 2 and
        Eq. 4) weigh this layer with ``w_l``.  Cached like
        :meth:`front_layer`.
        """
        if self._lookahead is None:
            self._lookahead = self._entangling_lookahead()
        return self._lookahead

    def _entangling_lookahead(self) -> List[DAGNode]:
        # A successor of an unexecuted gate is neither ready nor executed,
        # so the walk only has to remember the nodes it has reached.
        frontier: Set[int] = self._ready_trivial | self._ready_entangling
        seen: Set[int] = set(frontier)
        lookahead: List[int] = []
        for _ in range(self.lookahead_depth):
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
        return [self.nodes[i] for i in sorted(lookahead) if self._entangling[i]]
