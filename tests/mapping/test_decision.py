"""Unit tests for the capability decision (process block (2))."""

import pytest

from repro.circuit import CircuitDAG, QuantumCircuit
from repro.circuit.gate import controlled_z
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
