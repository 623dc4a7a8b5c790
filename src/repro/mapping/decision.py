"""Capability decision (process block (2)).

For every gate in the front (and lookahead) layer the mapper estimates how
many SWAPs gate-based routing would need and how many shuttling moves
shuttling-based routing would need, converts both estimates into approximate
success probabilities ``P_g`` and ``P_s`` following the fidelity model of
Eq. (1), weighs them with the user-chosen factors ``alpha_g`` and ``alpha_s``,
and assigns the gate to the capability with the larger weighted outcome.

The estimates are deliberately cheap and only need to rank the two
capabilities correctly, not predict the absolute fidelity.  Every gate is
re-decided in every routing round, so a decision is a few O(1) table reads:
the gate-qubit sites, the connectivity's adjacency and hop-distance rows,
the topology's rectangular distance rows and the state's per-site
free-neighbour counts.  The Eq. (1) success pair is computed once per
distinct input tuple and then read from a per-decider table.

The per-round split reads even less for a two-qubit gate.  Its verdict
depends only on the two sites and on whether each has a free trap in its
interaction neighbourhood: the zone check, the two-qubit counts and Eq. (1)
read nothing else, since the register size, the weights and the device are
fixed for one decider and one state.  :meth:`CapabilityDecider.split_layers`
therefore memoises two-qubit verdicts per state object under that key;
wide fronts repeat the same few thousand keys for the whole run.  Gates on
three or more qubits are decided directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.gate import Gate
from ..hardware.architecture import NeutralAtomArchitecture
from .state import MappingState

__all__ = ["CapabilityDecision", "GateCostEstimate", "CapabilityDecider"]


@dataclass(frozen=True)
class GateCostEstimate:
    """Cheap per-gate estimate backing the capability decision."""

    gate_index: int
    estimated_swaps: int
    estimated_moves: int
    estimated_move_distance_um: float
    success_gate_based: float
    success_shuttling_based: float


@dataclass(frozen=True)
class CapabilityDecision:
    """Outcome of the decision step for one gate."""

    gate_index: int
    use_gate_based: bool
    estimate: GateCostEstimate


class CapabilityDecider:
    """Computes per-gate capability decisions.

    Parameters
    ----------
    architecture:
        Target device (supplies fidelities, durations and coherence times).
    alpha_gate / alpha_shuttling:
        The weighting factors ``alpha_g`` and ``alpha_s``.  Setting one of
        them to zero forces the corresponding capability off, reproducing the
        paper's gate-only and shuttling-only modes.

    :meth:`split_layers` is the per-round path; it builds no per-gate
    objects and memoises two-qubit verdicts per state.  :meth:`estimate`
    and :meth:`decide` are the single-gate API.
    All three read the same counts (:meth:`_counts`) and the same table of
    Eq. (1) success pairs, so they always agree.
    """

    def __init__(self, architecture: NeutralAtomArchitecture,
                 alpha_gate: float = 1.0, alpha_shuttling: float = 1.0) -> None:
        if not (math.isfinite(alpha_gate) and math.isfinite(alpha_shuttling)):
            # NaN slips through the ``< 0`` check and sends every gate to
            # shuttling.
            raise ValueError("alpha weights must be finite")
        if alpha_gate < 0 or alpha_shuttling < 0:
            raise ValueError("alpha weights must be non-negative")
        if alpha_gate == 0 and alpha_shuttling == 0:
            raise ValueError("at least one of alpha_g, alpha_s must be positive")
        self.architecture = architecture
        self.alpha_gate = alpha_gate
        self.alpha_shuttling = alpha_shuttling
        # Zone capability (zoned topologies): 2Q+ gates can only execute in
        # entangling zones, and SWAP chains cannot traverse storage traps
        # (they have no interaction adjacency), so a gate with a qubit in a
        # storage zone is assigned to shuttling regardless of the weights.
        self._zones_limit_gates = not architecture.all_sites_entangling
        # (num_circuit_qubits, arity, swaps, moves, distance) ->
        # (P_g, P_s, weighted verdict): every input of the Eq. (1) estimate,
        # so a table hit equals a recomputation.
        self._success_table: Dict[Tuple[int, int, int, int, float],
                                  Tuple[float, float, bool]] = {}
        # Two-qubit verdicts of split_layers for one state (see the module
        # docstring), keyed by sites and free-neighbour flags.
        self._verdict_state: Optional[MappingState] = None
        self._verdicts: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------
    def estimate(self, state: MappingState, gate: Gate, gate_index: int) -> GateCostEstimate:
        """Estimate routing effort and success probability for both capabilities."""
        qubits = gate.qubits
        swaps, moves, distance = self._counts(state, qubits)
        gate_success, shuttle_success, _ = self._success(
            state.num_circuit_qubits, len(qubits), swaps, moves, distance)
        return GateCostEstimate(
            gate_index=gate_index,
            estimated_swaps=swaps,
            estimated_moves=moves,
            estimated_move_distance_um=distance,
            success_gate_based=gate_success,
            success_shuttling_based=shuttle_success,
        )

    def _counts(self, state: MappingState,
                qubits: Sequence[int]) -> Tuple[int, int, float]:
        """Estimated SWAP count, move count and summed move distance.

        Gate-based: hops to gather all qubits around the qubit with the
        smallest summed distance to the others (one SWAP per hop beyond
        adjacency).  Shuttling-based: every gate qubit that is not already
        within the interaction radius of the chosen anchor needs one direct
        move; if the anchor's vicinity has fewer free sites than moving
        qubits, the missing ones additionally need a move-away (two moves
        per qubit).  The anchor with the fewest moves, then the shortest
        summed rectangular travel distance, wins.

        Reads only the gate-qubit sites, the free-neighbour count of each
        anchor site and immutable site tables.
        """
        connectivity = state.connectivity
        adjacency_row = connectivity.adjacency_row
        topology = self.architecture.lattice
        spacing = topology.spacing
        free_near = state.num_free_sites_near
        site_of_qubit = state.site_of_qubit
        if len(qubits) == 2:
            site_a = site_of_qubit(qubits[0])
            site_b = site_of_qubit(qubits[1])
            if adjacency_row(site_a)[site_b]:
                # Already within the interaction radius: nothing to route.
                return 0, 0, 0.0
            swaps = connectivity.swap_row(site_a)[site_b]
            # Adjacency is symmetric, so either anchor moves the other
            # qubit, plus one move-away when its vicinity has no free trap.
            away_a = 0 if free_near(site_a) else 1
            away_b = 0 if free_near(site_b) else 1
            distance_a = topology.rectangular_row(site_a)[site_b] + away_a * spacing
            distance_b = topology.rectangular_row(site_b)[site_a] + away_b * spacing
            if away_b < away_a or (away_b == away_a and distance_b < distance_a):
                return swaps, 1 + away_b, distance_b
            return swaps, 1 + away_a, distance_a

        sites = [site_of_qubit(q) for q in qubits]
        swap_row = connectivity.swap_row
        # swap_row(anchor)[anchor] is 0, so the anchor adds nothing.
        swaps = min((sum(swap_row(anchor)[other] for other in sites)
                     for anchor in sites), default=0)
        best = None
        for anchor in sites:
            adjacent = adjacency_row(anchor)
            moving = [other for other in sites
                      if other != anchor and not adjacent[other]]
            move_aways = max(len(moving) - free_near(anchor), 0)
            anchor_row = topology.rectangular_row(anchor)
            distance = sum(anchor_row[other] for other in moving)
            distance += move_aways * spacing  # each move-away travels ~ one site
            candidate = (len(moving) + move_aways, distance)
            if best is None or candidate < best:
                best = candidate
        moves, distance = best if best is not None else (0, 0.0)
        return swaps, moves, distance

    def _success(self, num_circuit_qubits: int, arity: int, swaps: int,
                 moves: int, distance: float) -> Tuple[float, float, bool]:
        """``(P_g, P_s, alpha_g * P_g >= alpha_s * P_s)`` per Eq. (1)."""
        key = (num_circuit_qubits, arity, swaps, moves, distance)
        entry = self._success_table.get(key)
        if entry is not None:
            return entry
        arch = self.architecture
        t_eff = arch.effective_decoherence_time
        idle_qubits = max(num_circuit_qubits - arity, 1)

        swap_fidelity = (arch.fidelities.cz ** 3) * (arch.fidelities.single_qubit ** 6)
        swap_duration = 3 * arch.durations.cz + 6 * arch.durations.single_qubit
        gate_success = (swap_fidelity ** swaps) * math.exp(
            -(swaps * swap_duration * idle_qubits) / t_eff)

        move_duration = (arch.durations.aod_activation + arch.durations.aod_deactivation
                         + arch.shuttle_move_duration(
                             distance / moves if moves else 0.0))
        shuttle_success = (arch.fidelities.shuttling ** moves) * math.exp(
            -(moves * move_duration * idle_qubits) / t_eff)

        entry = (gate_success, shuttle_success,
                 self.alpha_gate * gate_success
                 >= self.alpha_shuttling * shuttle_success)
        self._success_table[key] = entry
        return entry

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def _use_gate_based(self, state: MappingState, qubits: Sequence[int]) -> bool:
        """The capability verdict for a gate on ``qubits``."""
        if self._zones_limit_gates and len(qubits) >= 2:
            # A qubit stranded in a storage zone can only be carried into
            # an entangling zone by shuttling: this overrides even
            # gate-only mode, mirroring the paper's forced fallback for
            # unplaceable multi-qubit gates.
            is_entangling = self.architecture.is_entangling_site
            site_of_qubit = state.site_of_qubit
            if not all(is_entangling(site_of_qubit(q)) for q in qubits):
                return False
        if self.alpha_shuttling == 0:
            return True
        if self.alpha_gate == 0:
            return False
        return self._success(state.num_circuit_qubits, len(qubits),
                             *self._counts(state, qubits))[2]

    def decide(self, state: MappingState, gate: Gate, gate_index: int) -> CapabilityDecision:
        """Assign one gate to gate-based or shuttling-based mapping."""
        return CapabilityDecision(gate_index,
                                  self._use_gate_based(state, gate.qubits),
                                  self.estimate(state, gate, gate_index))

    def split_layers(self, state: MappingState, nodes: Sequence,
                     ) -> Tuple[List, List]:
        """Split DAG nodes into gate-based and shuttling-based sublayers.

        Returns ``(gate_based_nodes, shuttling_nodes)`` preserving the
        input order.  Two-qubit verdicts are memoised per state under the
        key ``(site_a, site_b, free_near(site_a) > 0, free_near(site_b) >
        0)`` packed into one int; the memo starts empty for every new state.
        """
        if state is not self._verdict_state:
            self._verdict_state = state
            self._verdicts = {}
        verdicts = self._verdicts
        num_sites = state.num_sites
        qubit_atoms = state.qubit_atoms
        atom_sites = state.atom_sites
        free_near = state.free_near_counts
        gate_nodes: List = []
        shuttle_nodes: List = []
        use_gate_based = self._use_gate_based
        for node in nodes:
            qubits = node.gate.qubits
            if len(qubits) == 2:
                site_a = atom_sites[qubit_atoms[qubits[0]]]
                site_b = atom_sites[qubit_atoms[qubits[1]]]
                key = (site_a * num_sites + site_b) * 4
                if free_near[site_a]:
                    key += 2
                if free_near[site_b]:
                    key += 1
                verdict = verdicts.get(key)
                if verdict is None:
                    verdict = verdicts[key] = use_gate_based(state, qubits)
            else:
                verdict = use_gate_based(state, qubits)
            if verdict:
                gate_nodes.append(node)
            else:
                shuttle_nodes.append(node)
        return gate_nodes, shuttle_nodes
