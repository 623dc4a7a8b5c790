"""Initial layout strategies.

The paper's evaluation uses the trivial identity layout
(``q_i <-> Q_i <-> C_i``), which this module provides as the default, but it
also notes that the hybrid process opens new research questions around the
interplay of circuit structure and mapping capability.  The additional
strategies here are the extension point for that study:

* ``identity`` — the paper's choice; atom ``a`` sits on site ``a`` and holds
  circuit qubit ``a``.
* ``compact`` — atoms are placed on a centred square block of the lattice so
  that the average pairwise distance (and therefore the routing effort of the
  very first layers) is minimised.
* ``interaction_graph`` — circuit qubits are assigned to the compact block in
  descending order of their two-qubit interaction degree, placing strongly
  coupled qubits near the block centre.  This is the classic
  "interaction-graph placement" heuristic adapted to the NA setting.

Every strategy returns a ready-to-use :class:`~repro.mapping.state.MappingState`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from ..circuit.circuit import QuantumCircuit
from ..hardware.architecture import NeutralAtomArchitecture
from ..hardware.connectivity import SiteConnectivity
from .state import MappingState

__all__ = ["identity_layout", "compact_layout", "interaction_graph_layout",
           "create_initial_state", "LAYOUT_STRATEGIES"]


def _centred_block_sites(architecture: NeutralAtomArchitecture, count: int) -> List[int]:
    """The ``count`` sites closest to the grid centre (deterministic order)."""
    topology = architecture.lattice
    centre_row = (topology.rows - 1) / 2.0
    centre_col = (topology.cols - 1) / 2.0

    def distance_to_centre(site: int) -> float:
        row, col = topology.row_col(site)
        return (row - centre_row) ** 2 + (col - centre_col) ** 2

    ranked = sorted(range(topology.num_sites), key=lambda s: (distance_to_centre(s), s))
    return ranked[:count]


def identity_layout(architecture: NeutralAtomArchitecture, num_circuit_qubits: int,
                    connectivity: Optional[SiteConnectivity] = None) -> MappingState:
    """The paper's trivial layout: ``q_i <-> Q_i <-> C_i``."""
    return MappingState(architecture, num_circuit_qubits, connectivity=connectivity)


def compact_layout(architecture: NeutralAtomArchitecture, num_circuit_qubits: int,
                   connectivity: Optional[SiteConnectivity] = None) -> MappingState:
    """Place all atoms on a centred block; circuit qubits keep identity order."""
    sites = _centred_block_sites(architecture, architecture.num_atoms)
    return MappingState(architecture, num_circuit_qubits, connectivity=connectivity,
                        initial_sites=sites)


def _interaction_degrees(circuit: QuantumCircuit) -> Dict[int, int]:
    """Number of entangling gates each circuit qubit participates in."""
    degrees: Dict[int, int] = defaultdict(int)
    for gate in circuit:
        if not gate.is_entangling:
            continue
        for qubit in gate.qubits:
            degrees[qubit] += 1
    return degrees


def interaction_graph_layout(architecture: NeutralAtomArchitecture,
                             circuit: QuantumCircuit,
                             connectivity: Optional[SiteConnectivity] = None
                             ) -> MappingState:
    """Place strongly interacting circuit qubits near the centre of a compact block.

    Atoms occupy the same centred block as :func:`compact_layout`; the qubit
    mapping assigns the circuit qubit with the highest entangling-gate count
    to the atom closest to the block centre, the second-highest to the second
    closest, and so on.  Unused atoms remain auxiliary.
    """
    num_circuit_qubits = circuit.num_qubits
    if num_circuit_qubits > architecture.num_atoms:
        raise ValueError("circuit does not fit onto the architecture")
    sites = _centred_block_sites(architecture, architecture.num_atoms)
    degrees = _interaction_degrees(circuit)
    # Atoms are indexed in block order, i.e. atom 0 sits closest to the centre.
    qubits_by_degree = sorted(range(num_circuit_qubits),
                              key=lambda q: (-degrees.get(q, 0), q))
    qubit_to_atom = [0] * num_circuit_qubits
    for atom_index, qubit in enumerate(qubits_by_degree):
        qubit_to_atom[qubit] = atom_index
    return MappingState(architecture, num_circuit_qubits, connectivity=connectivity,
                        initial_sites=sites, initial_qubit_map=qubit_to_atom)


#: Registry of named strategies usable from configuration files / CLIs.
LAYOUT_STRATEGIES = ("identity", "compact", "interaction_graph")


def create_initial_state(strategy: str, architecture: NeutralAtomArchitecture,
                         circuit: QuantumCircuit,
                         connectivity: Optional[SiteConnectivity] = None) -> MappingState:
    """Build the initial :class:`MappingState` for a named strategy."""
    lowered = strategy.lower()
    if lowered == "identity":
        return identity_layout(architecture, circuit.num_qubits, connectivity)
    if lowered == "compact":
        return compact_layout(architecture, circuit.num_qubits, connectivity)
    if lowered == "interaction_graph":
        return interaction_graph_layout(architecture, circuit, connectivity)
    raise ValueError(f"unknown layout strategy {strategy!r}; "
                     f"choose from {LAYOUT_STRATEGIES}")
