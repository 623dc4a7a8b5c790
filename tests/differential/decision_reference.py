"""Scalar capability decision: the test-only reference for the decider.

``CapabilityDecider`` reads per-site free-neighbour counts, adjacency and
hop-distance rows directly, specialises two-qubit gates and looks the
Eq. (1) success pair up in a table.  The functions below are the original
scalar estimate, kept as an independent oracle: free counts come from a set
intersection against the live free-site set, SWAP counts from
``MappingState.swap_distance``, moves from the per-anchor loop for every
gate width, and the success probabilities are recomputed inline for every
gate.  Each function takes the decider as its first argument and reads only
its architecture and weights.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.circuit.gate import Gate
from repro.mapping.decision import (
    CapabilityDecider,
    CapabilityDecision,
    GateCostEstimate,
)
from repro.mapping.state import MappingState


def _estimate_swaps(state: MappingState, qubits: Sequence[int]) -> int:
    """Hops to gather all qubits around the most central one."""
    if len(qubits) == 2:
        return state.swap_distance(qubits[0], qubits[1])
    best_total = None
    for anchor in qubits:
        total = 0
        for other in qubits:
            if other == anchor:
                continue
            total += state.swap_distance(anchor, other)
        if best_total is None or total < best_total:
            best_total = total
    return best_total or 0


def _estimate_moves(decider: CapabilityDecider, state: MappingState,
                    qubits: Sequence[int]) -> Tuple[int, float]:
    """Move count and summed rectangular travel distance of the best anchor."""
    topology = decider.architecture.lattice
    if len(qubits) == 2 and state.qubits_adjacent(qubits[0], qubits[1]):
        return (0, 0.0)
    best = None
    for anchor in qubits:
        anchor_site = state.site_of_qubit(anchor)
        moving = []
        for other in qubits:
            if other == anchor:
                continue
            if not state.qubits_adjacent(anchor, other):
                moving.append(other)
        free_nearby = len(state.connectivity.interaction_set(anchor_site)
                          & state.free_sites())
        move_aways = max(len(moving) - free_nearby, 0)
        moves = len(moving) + move_aways
        anchor_row = topology.rectangular_row(anchor_site)
        distance = sum(anchor_row[state.site_of_qubit(other)]
                       for other in moving)
        distance += move_aways * topology.spacing
        if best is None or moves < best[0] or (moves == best[0] and distance < best[1]):
            best = (moves, distance)
    return best if best is not None else (0, 0.0)


def reference_estimate(decider: CapabilityDecider, state: MappingState,
                       gate: Gate, gate_index: int) -> GateCostEstimate:
    """The scalar estimate with Eq. (1) evaluated inline."""
    arch = decider.architecture
    qubits = list(gate.qubits)
    estimated_swaps = _estimate_swaps(state, qubits)
    estimated_moves, move_distance = _estimate_moves(decider, state, qubits)

    t_eff = arch.effective_decoherence_time
    idle_qubits = max(state.num_circuit_qubits - len(qubits), 1)

    swap_fidelity = (arch.fidelities.cz ** 3) * (arch.fidelities.single_qubit ** 6)
    swap_duration = 3 * arch.durations.cz + 6 * arch.durations.single_qubit
    gate_success = (swap_fidelity ** estimated_swaps) * math.exp(
        -(estimated_swaps * swap_duration * idle_qubits) / t_eff)

    move_duration = (arch.durations.aod_activation + arch.durations.aod_deactivation
                     + arch.shuttle_move_duration(
                         move_distance / estimated_moves if estimated_moves else 0.0))
    shuttle_success = (arch.fidelities.shuttling ** estimated_moves) * math.exp(
        -(estimated_moves * move_duration * idle_qubits) / t_eff)

    return GateCostEstimate(
        gate_index=gate_index,
        estimated_swaps=estimated_swaps,
        estimated_moves=estimated_moves,
        estimated_move_distance_um=move_distance,
        success_gate_based=gate_success,
        success_shuttling_based=shuttle_success,
    )


def reference_decide(decider: CapabilityDecider, state: MappingState,
                     gate: Gate, gate_index: int) -> CapabilityDecision:
    """Zoned storage override first, then the alpha = 0 modes, then Eq. (1)."""
    arch = decider.architecture
    estimate = reference_estimate(decider, state, gate, gate_index)
    if (not arch.all_sites_entangling and len(gate.qubits) >= 2
            and not all(arch.is_entangling_site(state.site_of_qubit(q))
                        for q in gate.qubits)):
        return CapabilityDecision(gate_index, False, estimate)
    if decider.alpha_shuttling == 0:
        return CapabilityDecision(gate_index, True, estimate)
    if decider.alpha_gate == 0:
        return CapabilityDecision(gate_index, False, estimate)
    weighted_gate = decider.alpha_gate * estimate.success_gate_based
    weighted_shuttle = decider.alpha_shuttling * estimate.success_shuttling_based
    return CapabilityDecision(gate_index, weighted_gate >= weighted_shuttle,
                              estimate)


def reference_split(decider: CapabilityDecider, state: MappingState,
                    nodes: Sequence) -> Tuple[List, List]:
    """``(gate_based_nodes, shuttling_nodes)`` from per-gate reference decisions."""
    gate_nodes: List = []
    shuttle_nodes: List = []
    for node in nodes:
        if reference_decide(decider, state, node.gate, node.index).use_gate_based:
            gate_nodes.append(node)
        else:
            shuttle_nodes.append(node)
    return gate_nodes, shuttle_nodes


def estimate_fields(estimate: GateCostEstimate) -> Tuple:
    """The estimate's fields with every float as ``float.hex`` (bit-exact)."""
    return (estimate.gate_index, estimate.estimated_swaps,
            estimate.estimated_moves,
            float.hex(float(estimate.estimated_move_distance_um)),
            float.hex(estimate.success_gate_based),
            float.hex(estimate.success_shuttling_based))
