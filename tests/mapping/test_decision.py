"""Unit tests for the capability decision (process block (2))."""

import dataclasses

import pytest

from repro.circuit import CircuitDAG, QuantumCircuit
from repro.circuit.gate import controlled_z
from repro.hardware.presets import preset
from repro.mapping import CapabilityDecider, MappingState


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


    def test_success_table_keys_on_register_size(self, decider, small_architecture,
                                                 small_connectivity, small_state):
        # Eq. (1) charges idle qubits, so the same gate on the same sites
        # must not reuse a success pair computed for another register size.
        gate = controlled_z((0, 11))
        decider.estimate(small_state, gate, 0)
        wider = MappingState(small_architecture, 18, connectivity=small_connectivity)
        fresh = CapabilityDecider(small_architecture)
        assert decider.estimate(wider, gate, 0) == fresh.estimate(wider, gate, 0)
        assert (decider.estimate(wider, gate, 0).success_gate_based
                < decider.estimate(small_state, gate, 0).success_gate_based)


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

    @pytest.mark.parametrize("weights", [
        {"alpha_gate": float("nan")},
        {"alpha_shuttling": float("nan")},
        {"alpha_gate": float("inf")},
        {"alpha_shuttling": float("-inf")},
    ])
    def test_non_finite_weights_rejected(self, small_architecture, weights):
        # NaN passes every ``< 0`` comparison and would send every gate to
        # shuttling.
        with pytest.raises(ValueError, match="finite"):
            CapabilityDecider(small_architecture, **weights)

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
        front = CircuitDAG(circuit).front_layer()
        gate_nodes, shuttle_nodes = decider.split_layers(small_state, front)
        assert len(gate_nodes) + len(shuttle_nodes) == len(front)
        assert ({node.index for node in gate_nodes + shuttle_nodes}
                == {node.index for node in front})
        for node in front:
            verdict = decider.decide(small_state, node.gate, node.index)
            assert (node in gate_nodes) == verdict.use_gate_based


def _front(num_qubits, pairs):
    circuit = QuantumCircuit(num_qubits)
    for pair in pairs:
        circuit.cz(*pair)
    return CircuitDAG(circuit).front_layer()


def _direct_verdicts(decider, state, nodes):
    """The unmemoised single-gate verdict of every node."""
    return [decider.decide(state, node.gate, node.index).use_gate_based
            for node in nodes]


def _split_verdicts(decider, state, nodes):
    gate_nodes, _ = decider.split_layers(state, nodes)
    return [node in gate_nodes for node in nodes]


def _threshold(first, second):
    """An ``alpha_gate`` between the two estimates' ``P_s / P_g`` ratios,
    so the verdict differs between them."""
    low, high = sorted(estimate.success_shuttling_based
                       / estimate.success_gate_based
                       for estimate in (first, second))
    assert low < high
    return (low + high) / 2


class TestSplitMemo:
    """`split_layers` memoises two-qubit verdicts per state, keyed by the
    two sites and whether each has a free trap within reach."""

    def test_repeated_split_reads_the_memo(self, decider, small_state):
        front = _front(12, [(0, 11), (1, 9), (3, 8), (2, 10)])
        first = decider.split_layers(small_state, front)
        assert len(decider._verdicts) == len(front)

        def fail(*_args):
            raise AssertionError("a memoised verdict was recomputed")

        decider._use_gate_based = fail
        assert decider.split_layers(small_state, front) == first

    def test_verdicts_do_not_cross_register_sizes(self, small_architecture,
                                                  small_connectivity,
                                                  small_state):
        # Eq. (1) charges idle qubits, so the same sites and free flags can
        # decide differently for another register size.
        wider = MappingState(small_architecture, 20,
                             connectivity=small_connectivity)
        front = _front(12, [(0, 3)])
        probe = CapabilityDecider(small_architecture)
        alpha = _threshold(probe.estimate(small_state, front[0].gate, 0),
                           probe.estimate(wider, front[0].gate, 0))
        decider = CapabilityDecider(small_architecture, alpha_gate=alpha)
        narrow_verdicts = _split_verdicts(decider, small_state, front)
        wide_verdicts = _split_verdicts(decider, wider, front)
        assert narrow_verdicts != wide_verdicts
        assert narrow_verdicts == _direct_verdicts(decider, small_state, front)
        assert wide_verdicts == _direct_verdicts(decider, wider, front)
        assert (_split_verdicts(decider, small_state, front)
                == narrow_verdicts)

    def test_verdicts_do_not_cross_devices(self, small_architecture,
                                           small_state):
        # The same lattice with a wider interaction radius: qubits 0 and 3
        # (three spacings apart) interact there and need no routing.
        wide_radius = dataclasses.replace(small_architecture,
                                          interaction_radius=3.0,
                                          restriction_radius=3.0)
        other = MappingState(wide_radius, 12)
        front = _front(12, [(0, 3)])
        decider = CapabilityDecider(small_architecture)
        near = _split_verdicts(decider, small_state, front)
        far = _split_verdicts(decider, other, front)
        assert near != far
        assert near == _direct_verdicts(decider, small_state, front)
        assert far == _direct_verdicts(decider, other, front)

    @pytest.mark.parametrize("freed, flipped", ((12, 0), (15, 3)))
    def test_free_neighbour_flip_changes_the_key(self, small_architecture,
                                                 small_state, freed, flipped):
        # Sites 0 and 3 start without a free trap within reach, so gathering
        # needs a move-away.  Emptying site 12 (a neighbour of site 0 only)
        # or site 15 (of site 3 only) makes one direct move enough.
        state = small_state
        front = _front(12, [(0, 3)])
        gate = front[0].gate
        assert state.num_free_sites_near(0) == 0
        assert state.num_free_sites_near(3) == 0
        probe = CapabilityDecider(small_architecture)
        before = probe.estimate(state, gate, 0)
        moved = state.copy()
        moved.move_atom(moved.atom_at_site(freed), 35)
        assert [moved.num_free_sites_near(site) for site in (0, 3)] == [
            int(site == flipped) for site in (0, 3)]
        after = probe.estimate(moved, gate, 0)
        assert (before.estimated_moves, after.estimated_moves) == (2, 1)

        decider = CapabilityDecider(small_architecture,
                                    alpha_gate=_threshold(before, after))
        full = _split_verdicts(decider, state, front)
        assert len(decider._verdicts) == 1
        state.move_atom(state.atom_at_site(freed), 35)
        cleared = _split_verdicts(decider, state, front)
        assert len(decider._verdicts) == 2
        assert full != cleared
        assert cleared == _direct_verdicts(decider, state, front)
        state.move_atom(state.atom_at_site(35), freed)
        assert _split_verdicts(decider, state, front) == full
        assert len(decider._verdicts) == 2

    def test_zoned_gates_go_through_the_memo(self):
        architecture = preset("zoned", lattice_rows=9, num_atoms=24)
        entangling = [site for site in range(architecture.lattice.num_sites)
                      if architecture.is_entangling_site(site)]
        storage = [site for site in range(architecture.lattice.num_sites)
                   if not architecture.is_entangling_site(site)]
        # Qubits 0-5 in the entangling zone, 6-11 in storage.
        sites = entangling[:6] + storage[:6] + entangling[6:12] + storage[6:12]
        state = MappingState(architecture, 12, initial_sites=sites)
        front = _front(12, [(0, 5), (1, 4), (2, 7), (8, 11), (3, 10)])
        decider = CapabilityDecider(architecture)
        verdicts = _split_verdicts(decider, state, front)
        assert verdicts == _direct_verdicts(decider, state, front)
        assert len(decider._verdicts) == len(front)
        # Every gate with a storage-stranded qubit is forced to shuttling.
        assert verdicts[2:] == [False, False, False]

        def fail(*_args):
            raise AssertionError("a memoised verdict was recomputed")

        decider._use_gate_based = fail
        assert _split_verdicts(decider, state, front) == verdicts
