"""Layer creation (process block (1)).

The :class:`LayerManager` wraps the commutation-aware circuit DAG and exposes
exactly the two layers the hybrid mapper operates on:

* the **front layer** ``f`` of entangling gates whose dependencies are all
  satisfied, and
* the **lookahead layer** ``l`` of entangling gates that follow the front
  layer within a configurable depth.

Non-entangling gates (single-qubit gates, barriers, measurements) never need
routing; the manager drains them from the DAG automatically and reports them
so the mapper can forward them to the output stream in order.

The manager additionally caches the *routing view*: the front and lookahead
layers are computed lazily and kept until a gate is executed.  During long
SWAP sequences (many routing rounds without an execution) the layers do not
change, so the cached view makes repeated layer queries O(1) instead of
re-walking the DAG every round.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.circuit import QuantumCircuit
from ..circuit.dag import CircuitDAG, DAGNode

__all__ = ["LayerManager", "build_qubit_node_index"]


def build_qubit_node_index(nodes: Sequence[DAGNode]
                           ) -> Dict[int, List[DAGNode]]:
    """Inverted index: circuit qubit → nodes acting on it, in node order.

    Node order is preserved so float sums taken over a qubit's nodes are
    bit-identical to iterating the original layer list.  Read by the
    shuttling router's cost terms.
    """
    index: Dict[int, List[DAGNode]] = {}
    for node in nodes:
        for qubit in node.gate.qubits:
            index.setdefault(qubit, []).append(node)
    return index


class LayerManager:
    """Maintains the front and lookahead layers of entangling gates.

    Parameters
    ----------
    circuit:
        Circuit to map.
    lookahead_depth:
        How many release steps behind the front layer the lookahead extends.
    use_commutation:
        Forwarded to :class:`~repro.circuit.dag.CircuitDAG`.
    """

    def __init__(self, circuit: QuantumCircuit, lookahead_depth: int = 1,
                 use_commutation: bool = True) -> None:
        if lookahead_depth < 0:
            raise ValueError("lookahead depth cannot be negative")
        self.circuit = circuit
        self.lookahead_depth = lookahead_depth
        self.dag = CircuitDAG(circuit, use_commutation=use_commutation)
        self._cached_front: Optional[List[DAGNode]] = None
        self._cached_lookahead: Optional[List[DAGNode]] = None

    def _invalidate_routing_view(self) -> None:
        self._cached_front = None
        self._cached_lookahead = None

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def is_finished(self) -> bool:
        return self.dag.is_finished()

    @property
    def num_remaining(self) -> int:
        return self.dag.num_gates - self.dag.num_executed

    # ------------------------------------------------------------------
    # Layers
    # ------------------------------------------------------------------
    def drain_trivial_gates(self) -> List[DAGNode]:
        """Execute and return all currently available non-entangling gates.

        Draining repeats until the front layer contains only entangling gates,
        because executing a single-qubit gate may release further
        single-qubit gates.
        """
        drained: List[DAGNode] = []
        while True:
            trivial = self.dag.executable_trivially()
            if not trivial:
                if drained:
                    self._invalidate_routing_view()
                return drained
            for node in trivial:
                self.dag.execute(node.index)
                drained.append(node)

    def front_layer(self) -> List[DAGNode]:
        """Entangling gates currently ready for routing (cached snapshot).

        The returned list is cached until the next execution; treat it as
        read-only.
        """
        if self._cached_front is None:
            self._cached_front = self.dag.entangling_front()
        return self._cached_front

    def lookahead_layer(self) -> List[DAGNode]:
        """Entangling gates within the lookahead horizon (cached snapshot)."""
        if self.lookahead_depth == 0:
            return []
        if self._cached_lookahead is None:
            self._cached_lookahead = [
                node for node in self.dag.lookahead_layer(self.lookahead_depth)
                if node.gate.is_entangling]
        return self._cached_lookahead

    def layers(self) -> Tuple[List[DAGNode], List[DAGNode]]:
        """Return ``(front, lookahead)`` after draining trivial gates."""
        self.drain_trivial_gates()
        return self.front_layer(), self.lookahead_layer()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, node: DAGNode) -> None:
        """Mark a front-layer gate as executed (invalidates the routing view)."""
        self.dag.execute(node.index)
        self._invalidate_routing_view()
