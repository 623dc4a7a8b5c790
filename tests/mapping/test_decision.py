"""Unit tests for the capability decision (process block (2))."""

import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.gate import controlled_z
from repro.mapping import CapabilityDecider, LayerManager, MappingState


@pytest.fixture()
def decider(small_architecture):
    return CapabilityDecider(small_architecture, alpha_gate=1.0, alpha_shuttling=1.0)


class TestEstimates:
    def test_adjacent_gate_has_zero_cost(self, decider, small_state):
        estimate = decider.estimate(small_state, controlled_z((0, 1)), 0)
        assert estimate.estimated_swaps == 0
        assert estimate.estimated_moves == 0
        assert estimate.success_gate_based == pytest.approx(1.0)
        assert estimate.success_shuttling_based == pytest.approx(1.0)

    def test_distant_gate_costs_grow_with_separation(self, decider, small_state):
        near = decider.estimate(small_state, controlled_z((0, 3)), 0)
        far = decider.estimate(small_state, controlled_z((0, 11)), 1)
        assert far.estimated_swaps >= near.estimated_swaps
        assert far.success_gate_based <= near.success_gate_based

    def test_success_probabilities_within_unit_interval(self, decider, small_state):
        for gate in [controlled_z((0, 5)), controlled_z((0, 5, 11)), controlled_z((2, 9))]:
            estimate = decider.estimate(small_state, gate, 0)
            assert 0.0 < estimate.success_gate_based <= 1.0
            assert 0.0 < estimate.success_shuttling_based <= 1.0

    def test_multi_qubit_estimates_use_best_anchor(self, decider, small_state):
        estimate = decider.estimate(small_state, controlled_z((0, 1, 11)), 0)
        # Gathering around qubit 0 or 1 needs to move only qubit 11.
        assert estimate.estimated_moves >= 1
        assert estimate.estimated_move_distance_um > 0


class TestDecisions:
    def test_alpha_shuttling_zero_forces_gate_based(self, small_architecture, small_state):
        decider = CapabilityDecider(small_architecture, alpha_gate=1.0, alpha_shuttling=0.0)
        decision = decider.decide(small_state, controlled_z((0, 11)), 3)
        assert decision.use_gate_based

    def test_alpha_gate_zero_forces_shuttling(self, small_architecture, small_state):
        decider = CapabilityDecider(small_architecture, alpha_gate=0.0, alpha_shuttling=1.0)
        decision = decider.decide(small_state, controlled_z((0, 11)), 3)
        assert not decision.use_gate_based

    def test_invalid_weights_rejected(self, small_architecture):
        with pytest.raises(ValueError):
            CapabilityDecider(small_architecture, alpha_gate=0.0, alpha_shuttling=0.0)
        with pytest.raises(ValueError):
            CapabilityDecider(small_architecture, alpha_gate=-1.0)

    def test_extreme_alpha_overrides_estimates(self, small_architecture, small_state):
        gate = controlled_z((0, 11))
        gate_leaning = CapabilityDecider(small_architecture, alpha_gate=1e6,
                                         alpha_shuttling=1.0)
        shuttle_leaning = CapabilityDecider(small_architecture, alpha_gate=1e-6,
                                            alpha_shuttling=1.0)
        assert gate_leaning.decide(small_state, gate, 0).use_gate_based
        assert not shuttle_leaning.decide(small_state, gate, 0).use_gate_based

    def test_split_layers_preserves_all_nodes(self, decider, small_state):
        circuit = QuantumCircuit(12)
        circuit.cz(0, 11).cz(1, 2).cz(3, 9)
        manager = LayerManager(circuit)
        front, _ = manager.layers()
        gate_nodes, shuttle_nodes, decisions = decider.split_layers(small_state, front)
        assert len(gate_nodes) + len(shuttle_nodes) == len(front)
        assert len(decisions) == len(front)
        decided_indices = {d.gate_index for d in decisions}
        assert decided_indices == {node.index for node in front}


class TestDecisionMemo:
    """The decider's cross-round memo: replay on an unchanged neighbourhood,
    recompute after a nearby occupancy change or a SWAP of a gate qubit."""

    @pytest.fixture()
    def state(self, small_architecture, small_connectivity):
        return MappingState(small_architecture, 12,
                            connectivity=small_connectivity)

    def test_unchanged_state_replays_decision(self, decider, state):
        gate = controlled_z((0, 5))
        first = decider.decide(state, gate, 0)
        second = decider.decide(state, gate, 0)
        assert second is first
        assert decider.memo.stats() == {"decision_hits": 1,
                                        "decision_misses": 1}

    def test_far_move_keeps_decision_memoised(self, decider, state):
        gate = controlled_z((0, 1))
        first = decider.decide(state, gate, 0)
        # Move an atom far away from both gate qubits: no neighbourhood of
        # the gate sites changes its free count, so the verdict replays.
        far_site = state.num_sites - 1
        assert state.site_is_free(far_site)
        far_atom = 11
        assert all(far_site not in
                   state.connectivity.interaction_neighbours(state.site_of_qubit(q))
                   for q in gate.qubits)
        source = state.site_of_atom(far_atom)
        assert all(source not in
                   state.connectivity.interaction_neighbours(state.site_of_qubit(q))
                   for q in gate.qubits)
        state.move_atom(far_atom, far_site)
        assert decider.decide(state, gate, 0) is first

    def test_nearby_move_with_equal_free_count_replays(self, decider, state):
        """A move inside the neighbourhood fails the stamp fast path, but
        an unchanged free count still revalidates the entry."""
        gate = controlled_z((0, 5))
        first = decider.decide(state, gate, 0)
        sites = [state.site_of_qubit(q) for q in gate.qubits]
        epoch = state.occupancy_epoch
        # Take a spare atom out of qubit 0's neighbourhood and put it back.
        near = state.connectivity.interaction_set(sites[0])
        spare = next(atom for atom in range(state.num_atoms)
                     if state.qubit_of_atom(atom) is None
                     and state.site_of_atom(atom) in near)
        origin = state.site_of_atom(spare)
        state.move_atom(spare, max(state.free_sites()))
        state.move_atom(spare, origin)
        assert not state.neighbourhoods_unchanged_since(sites, epoch)
        assert decider.decide(state, gate, 0) is first
        assert decider.memo.stats()["decision_hits"] == 1

    def test_nearby_occupancy_change_recomputes(self, decider, state):
        gate = controlled_z((0, 5))
        first = decider.decide(state, gate, 0)
        # Free a trap inside a gate qubit's interaction neighbourhood: the
        # free count changes, so the memoised verdict must not replay.
        anchor_site = state.site_of_qubit(0)
        neighbour_atoms = [state.atom_at_site(s)
                           for s in state.connectivity.interaction_neighbours(anchor_site)
                           if state.atom_at_site(s) is not None
                           and state.qubit_of_atom(state.atom_at_site(s)) is None]
        far_free = max(s for s in state.free_sites()
                       if s not in state.connectivity.interaction_neighbours(anchor_site))
        state.move_atom(neighbour_atoms[0], far_free)
        second = decider.decide(state, gate, 0)
        assert second is not first
        assert decider.memo.stats()["decision_hits"] == 0

    def test_swap_of_gate_qubit_misses_on_sites(self, decider, state):
        gate = controlled_z((0, 5))
        first = decider.decide(state, gate, 0)
        # Swapping qubit 0 with an adjacent qubit changes its site: the
        # stored sites no longer match even though occupancy is untouched.
        state.apply_swap(0, 1)
        assert decider.decide(state, gate, 0) is not first

    def test_new_state_drops_entries(self, decider, state):
        gate = controlled_z((0, 5))
        decider.decide(state, gate, 0)
        decider.decide(state.copy(), gate, 0)
        decider.decide(state, gate, 0)
        assert decider.memo.stats()["decision_hits"] == 0

    def test_other_gate_at_same_index_misses(self, decider, state):
        """One state mapped with two circuits: an index that names another
        gate never replays, even one on a subset of the stored sites."""
        decider.decide(state, controlled_z((0, 5, 11)), 0)
        narrow = controlled_z((0, 5))
        decision = decider.decide(state, narrow, 0)
        assert decider.memo.stats()["decision_hits"] == 0
        assert decision.estimate == decider.estimate(state, narrow, 0)
