"""Plain wire walk of the DAG build: the test-only edge reference.

``CircuitDAG._build_edges`` lets a diagonal gate walk only the non-diagonal
gates of each wire, because it commutes with every diagonal gate there.
:func:`reference_edges` is the walk it replaced: every gate walks back over
every earlier gate on each of its wires, skips the ones it commutes with
and links to the first one it does not commute with.  Both must produce the
same edges.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.commutation import gates_commute


def reference_edges(circuit: QuantumCircuit, use_commutation: bool = True
                    ) -> Tuple[List[Set[int]], List[Set[int]]]:
    """``(predecessors, successors)`` of every gate index of ``circuit``."""
    gates = list(circuit)
    predecessors: List[Set[int]] = [set() for _ in gates]
    successors: List[Set[int]] = [set() for _ in gates]
    last_blockers: Dict[int, List[int]] = {q: [] for q in range(circuit.num_qubits)}

    for index, gate in enumerate(gates):
        for qubit in gate.qubits:
            for other_index in reversed(last_blockers[qubit]):
                if use_commutation and gates_commute(gate, gates[other_index]):
                    continue
                predecessors[index].add(other_index)
                successors[other_index].add(index)
                break  # the wire's blocker: the nearest non-commuting gate
        for qubit in gate.qubits:
            last_blockers[qubit].append(index)
    return predecessors, successors
