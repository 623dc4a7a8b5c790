"""Capability decision (process block (2)).

For every gate in the front (and lookahead) layer the mapper estimates how
many SWAPs gate-based routing would need and how many shuttling moves
shuttling-based routing would need, converts both estimates into approximate
success probabilities ``P_g`` and ``P_s`` following the fidelity model of
Eq. (1), weighs them with the user-chosen factors ``alpha_g`` and ``alpha_s``,
and assigns the gate to the capability with the larger weighted outcome.

The estimates are deliberately cheap and only need to rank the two
capabilities correctly, not predict the absolute fidelity.  Every gate is
re-decided in every routing round, but a round mutates only a handful of
sites, so :class:`DecisionMemo` replays the verdicts of gates whose inspected
sites are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.gate import Gate
from ..hardware.architecture import NeutralAtomArchitecture
from .state import MappingState

__all__ = ["CapabilityDecision", "GateCostEstimate", "CapabilityDecider",
           "DecisionMemo"]


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


class DecisionMemo:
    """Cross-round memo of capability decisions, keyed by gate index.

    :meth:`CapabilityDecider.estimate` reads only the sites of the gate
    qubits and the free-trap count inside each site's interaction
    neighbourhood; everything else it touches is immutable site geometry.
    An entry therefore replays while the gate qubits sit on the stored
    sites and those counts are unchanged, checked in two steps:

    * **stamps** (fast path): while
      :meth:`~repro.mapping.state.MappingState.neighbourhoods_unchanged_since`
      holds for the entry's epoch, an O(1) read per site, no count can
      have changed;
    * **free counts** (revalidation): after a move landed nearby, the
      counts are recomputed and compared with the stored ones; equal
      counts re-arm the fast path at the current epoch.

    A hit means every input of the estimate is unchanged, so the replayed
    decision equals a recomputed one.  Entries are bound to one
    :class:`MappingState`: a lookup against another state drops them all,
    and each entry also pins its gate object, so one state mapped with two
    circuits cannot replay a decision across them.
    """

    def __init__(self) -> None:
        # gate_index -> [gate, sites, stamp epoch, free counts, decision];
        # a list so revalidation can advance the epoch in place.
        self._entries: Dict[int, List] = {}
        self._state: Optional[MappingState] = None
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters (used by tests and the perf harness)."""
        return {"decision_hits": self.hits, "decision_misses": self.misses}

    def lookup(self, state: MappingState, gate: Gate,
               gate_index: int) -> Optional["CapabilityDecision"]:
        """Replay the memoised decision, or ``None`` on a miss."""
        if state is not self._state:
            self._entries.clear()
            self._state = state
            self.misses += 1
            return None
        entry = self._entries.get(gate_index)
        if entry is None or entry[0] is not gate:
            self.misses += 1
            return None
        _gate, sites, epoch, free_counts, decision = entry
        site_of_qubit = state.site_of_qubit
        for qubit, site in zip(gate.qubits, sites):
            if site_of_qubit(qubit) != site:
                self.misses += 1
                return None
        if (free_counts is not None
                and not state.neighbourhoods_unchanged_since(sites, epoch)):
            num_free = state.num_free_sites_near
            for site, count in zip(sites, free_counts):
                if num_free(site) != count:
                    self.misses += 1
                    return None
            entry[2] = state.occupancy_epoch
        self.hits += 1
        return decision

    def store(self, state: MappingState, gate: Gate, gate_index: int,
              decision: "CapabilityDecision",
              free_counts: Optional[Tuple[int, ...]]) -> None:
        """Memoise one decision, made on the state of the latest lookup.

        ``free_counts`` are the per-anchor free-trap counts the estimate
        read, or ``None`` when it read no occupancy at all; such decisions
        depend only on the gate-qubit sites.
        """
        sites = tuple(state.site_of_qubit(q) for q in gate.qubits)
        self._entries[gate_index] = [gate, sites, state.occupancy_epoch,
                                     free_counts, decision]


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
    """

    def __init__(self, architecture: NeutralAtomArchitecture,
                 alpha_gate: float = 1.0, alpha_shuttling: float = 1.0) -> None:
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
        self.memo = DecisionMemo()
        # Free-trap counts the latest estimate read (per anchor, in qubit
        # order), or None when it read no occupancy at all; forwarded to the
        # memo so revalidation revisits exactly what the estimate read.
        self._last_free_counts: Optional[Tuple[int, ...]] = None

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------
    def estimate(self, state: MappingState, gate: Gate, gate_index: int) -> GateCostEstimate:
        """Estimate routing effort and success probability for both capabilities."""
        arch = self.architecture
        qubits = list(gate.qubits)

        # --- gate-based: SWAPs needed to bring all qubits together ---------
        estimated_swaps = self._estimate_swaps(state, qubits)

        # --- shuttling-based: moves needed to gather the qubits ------------
        estimated_moves, move_distance = self._estimate_moves(state, qubits)

        # --- convert to approximate success probabilities ------------------
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

    def _estimate_swaps(self, state: MappingState, qubits: Sequence[int]) -> int:
        """Estimated SWAP count: hops to gather all qubits around the most central one."""
        if len(qubits) == 2:
            return state.swap_distance(qubits[0], qubits[1])
        # For multi-qubit gates gather everyone around the qubit with the
        # smallest summed distance to the others.
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

    def _estimate_moves(self, state: MappingState,
                        qubits: Sequence[int]) -> Tuple[int, float]:
        """Estimated move count and summed rectangular travel distance.

        Every gate qubit that is not already within the interaction radius of
        the chosen anchor needs one direct move; if the anchor's vicinity has
        fewer free sites than moving qubits, the missing ones additionally
        need a move-away (two moves per qubit).
        """
        arch = self.architecture
        topology = arch.topology
        if len(qubits) == 2 and state.qubits_adjacent(qubits[0], qubits[1]):
            # Already within the interaction radius: no anchor needs a move,
            # matching what the anchor loop below would conclude — without
            # reading any occupancy (the free counts never influence a gate
            # with nothing to move).
            self._last_free_counts = None
            return (0, 0.0)
        best: Optional[Tuple[int, float]] = None
        free_counts = []
        for anchor in qubits:
            anchor_site = state.site_of_qubit(anchor)
            moving = []
            for other in qubits:
                if other == anchor:
                    continue
                if not state.qubits_adjacent(anchor, other):
                    moving.append(other)
            free_nearby = state.num_free_sites_near(anchor_site)
            free_counts.append(free_nearby)
            move_aways = max(len(moving) - free_nearby, 0)
            moves = len(moving) + move_aways
            anchor_row = topology.rectangular_row(anchor_site)
            distance = sum(anchor_row[state.site_of_qubit(other)]
                           for other in moving)
            distance += move_aways * topology.spacing  # each move-away travels ~ one site
            if best is None or moves < best[0] or (moves == best[0] and distance < best[1]):
                best = (moves, distance)
        self._last_free_counts = tuple(free_counts)
        return best if best is not None else (0, 0.0)

    def _gate_sites_entangling(self, state: MappingState, gate: Gate) -> bool:
        """True if every gate qubit currently sits on an entangling-capable site."""
        is_entangling = self.architecture.is_entangling_site
        site_of_qubit = state.site_of_qubit
        return all(is_entangling(site_of_qubit(q)) for q in gate.qubits)

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def decide(self, state: MappingState, gate: Gate, gate_index: int) -> CapabilityDecision:
        """Assign one gate to gate-based or shuttling-based mapping.

        A gate whose sites and neighbourhood free counts are unchanged
        since its last decision replays it from :attr:`memo`.
        """
        memo = self.memo
        cached = memo.lookup(state, gate, gate_index)
        if cached is not None:
            return cached
        estimate = self.estimate(state, gate, gate_index)
        if (self._zones_limit_gates and len(gate.qubits) >= 2
                and not self._gate_sites_entangling(state, gate)):
            # A qubit is stranded in a storage zone: only shuttling can
            # carry it into an entangling zone (this overrides even
            # gate-only mode, mirroring the paper's forced fallback for
            # unplaceable multi-qubit gates).  The verdict is a pure
            # function of the gate-qubit sites, so memo replays stay
            # exact.
            decision = CapabilityDecision(gate_index, False, estimate)
        elif self.alpha_shuttling == 0:
            decision = CapabilityDecision(gate_index, True, estimate)
        elif self.alpha_gate == 0:
            decision = CapabilityDecision(gate_index, False, estimate)
        else:
            weighted_gate = self.alpha_gate * estimate.success_gate_based
            weighted_shuttle = self.alpha_shuttling * estimate.success_shuttling_based
            decision = CapabilityDecision(
                gate_index, weighted_gate >= weighted_shuttle, estimate)
        memo.store(state, gate, gate_index, decision, self._last_free_counts)
        return decision

    def split_layers(self, state: MappingState, nodes: Sequence,
                     ) -> Tuple[List, List, List[CapabilityDecision]]:
        """Split DAG nodes into gate-based and shuttling-based sublayers.

        Returns ``(gate_based_nodes, shuttling_nodes, decisions)`` preserving
        the input order.
        """
        gate_nodes: List = []
        shuttle_nodes: List = []
        decisions: List[CapabilityDecision] = []
        for node in nodes:
            decision = self.decide(state, node.gate, node.index)
            decisions.append(decision)
            if decision.use_gate_based:
                gate_nodes.append(node)
            else:
                shuttle_nodes.append(node)
        return gate_nodes, shuttle_nodes, decisions
