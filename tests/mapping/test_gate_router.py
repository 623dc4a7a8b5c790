"""Unit tests for the gate-based SWAP router (Section 3.3.1)."""

import pytest

from repro.circuit import QuantumCircuit
from repro.mapping import GateRouter, MappingState, find_gate_position

import routing_reference


@pytest.fixture()
def router(small_architecture):
    return GateRouter(small_architecture, lookahead_weight=0.1, decay_rate=0.0,
                      recency_window=4)


class TestCandidates:
    def test_candidates_touch_front_gate_qubits(self, router, small_state):
        circuit = QuantumCircuit(12)
        circuit.cz(0, 11)
        front, lookahead = routing_reference.routing_layers(circuit)
        router.best_swap(small_state, front, lookahead, {})
        entries = router.table.entries
        assert entries
        front_qubits = {0, 11}
        for (low, high), (_, _, fields) in entries.items():
            qubit_a, _, _, _, site_a, site_b = fields
            assert qubit_a in front_qubits
            assert (low, high) == (min(site_a, site_b), max(site_a, site_b))
            assert small_state.connectivity.are_adjacent(site_a, site_b)

    def test_candidates_deduplicated(self, router, small_state):
        circuit = QuantumCircuit(12)
        circuit.cz(0, 1)   # adjacent qubits: their neighbourhoods overlap
        front, lookahead = routing_reference.routing_layers(circuit)
        router.best_swap(small_state, front, lookahead, {})
        expected = routing_reference.candidate_swaps(small_state, front)
        assert len(expected) == len({candidate.key() for candidate in expected})
        assert sorted(router.table.entries) == sorted(
            candidate.key() for candidate in expected)

    def test_no_candidates_without_front_gates(self, router, small_state):
        assert router.best_swap(small_state, [], [], {}) is None
        assert router.table.entries == {}


class TestCost:
    def test_distance_reducing_swap_preferred(self, router, small_state):
        circuit = QuantumCircuit(12)
        circuit.cz(0, 11)
        front, lookahead = routing_reference.routing_layers(circuit)
        best = router.best_swap(small_state, front, lookahead, {})
        assert best is not None
        # Without a lookahead layer or decay the cost is the front distance.
        delta_front, _, _ = router.table.entries[best.key()]
        assert delta_front <= 0

    def test_layer_distance_zero_when_all_gates_satisfied(self, small_state):
        circuit = QuantumCircuit(12)
        circuit.cz(0, 1).cz(2, 3)
        front, _ = routing_reference.routing_layers(circuit)
        table = routing_reference.fresh_table(small_state, front, [], {})
        assert table.baseline_front == 0

    def test_cost_includes_lookahead_with_weight(self, small_architecture, small_state):
        circuit = QuantumCircuit(12)
        circuit.cz(0, 11).cz(0, 9)
        front, lookahead = routing_reference.routing_layers(
            circuit, use_commutation=False)
        assert lookahead
        table = routing_reference.fresh_table(small_state, front, lookahead, {})
        assert table.baseline_lookahead > 0
        assert any(delta_lookahead != 0
                   for _, delta_lookahead, _ in table.entries.values())
        for weight in (0.0, 1.0):
            router = GateRouter(small_architecture, lookahead_weight=weight)
            assert router.best_swap(small_state, front, lookahead, {}) == \
                routing_reference.best_swap(router, small_state, front,
                                            lookahead, {})

    def test_position_distance_used_for_multiqubit_gates(self, small_state):
        circuit = QuantumCircuit(12)
        circuit.ccz(0, 5, 11)
        front, lookahead = routing_reference.routing_layers(circuit)
        node = front[0]
        position = find_gate_position(small_state, node.gate)
        assert position is not None
        positions = {node.index: position}
        table = routing_reference.fresh_table(small_state, front, lookahead,
                                              positions)
        assert table.baseline_front == routing_reference.layer_distance(
            small_state, front, positions)

    def test_invalid_parameters_rejected(self, small_architecture):
        with pytest.raises(ValueError):
            GateRouter(small_architecture, lookahead_weight=-1)
        with pytest.raises(ValueError):
            GateRouter(small_architecture, decay_rate=-1)
        with pytest.raises(ValueError):
            GateRouter(small_architecture, recency_window=-1)

    @pytest.mark.parametrize("weight", ["lookahead_weight", "decay_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_weights_rejected(self, small_architecture, weight,
                                         value):
        # NaN passes a ``< 0`` check, and a NaN cost would make the first
        # candidate SWAP win every round.
        with pytest.raises(ValueError, match="finite"):
            GateRouter(small_architecture, **{weight: value})


class TestRecency:
    def test_recency_score_decays_with_age(self, router, small_state):
        circuit = QuantumCircuit(12)
        circuit.cz(0, 11)
        front, _ = routing_reference.routing_layers(circuit)
        candidate = routing_reference.candidate_swaps(small_state, front)[0]
        assert router.recency(candidate) == 0
        router.note_swap_applied(small_state, candidate)
        assert router.recency(candidate) > 0

    def test_decay_rate_damps_recently_used_swaps(self, small_architecture, small_state):
        router = GateRouter(small_architecture, decay_rate=0.5, recency_window=4)
        circuit = QuantumCircuit(12)
        circuit.cz(0, 11)
        front, lookahead = routing_reference.routing_layers(circuit)
        candidate = routing_reference.candidate_swaps(small_state, front)[0]
        fresh_cost = routing_reference.swap_cost(router, small_state, candidate,
                                                 front, lookahead, {})
        router.note_swap_applied(small_state, candidate)
        damped_cost = routing_reference.swap_cost(
            router, small_state, candidate, front, lookahead, {})
        assert damped_cost >= fresh_cost
        assert router.best_swap(small_state, front, lookahead, {}) == \
            routing_reference.best_swap(router, small_state, front, lookahead,
                                        {})

    def test_reset_clears_history(self, router, small_state):
        circuit = QuantumCircuit(12)
        circuit.cz(0, 11)
        front, lookahead = routing_reference.routing_layers(circuit)
        candidate = routing_reference.candidate_swaps(small_state, front)[0]
        router.best_swap(small_state, front, lookahead, {})
        router.note_swap_applied(small_state, candidate)
        router.reset()
        assert router.recency(candidate) == 0
        assert router.table.entries == {}

    def test_inverse_of_last_swap_is_avoided(self, router, small_state):
        circuit = QuantumCircuit(12)
        circuit.cz(0, 11)
        front, lookahead = routing_reference.routing_layers(circuit)
        first = router.best_swap(small_state, front, lookahead, {})
        assert first is not None
        router.note_swap_applied(small_state, first)
        second = router.best_swap(small_state, front, lookahead, {})
        if second is not None:
            assert second.key() != first.key()


class TestForcedRouting:
    def test_forced_route_makes_gate_executable(self, router, small_architecture,
                                                small_connectivity):
        state = MappingState(small_architecture, 12, connectivity=small_connectivity)
        circuit = QuantumCircuit(12)
        circuit.cz(0, 11)
        gate = circuit[0]
        assert not state.gate_executable(gate)
        applied = router.forced_route_swaps(state, gate)
        assert applied
        assert state.gate_executable(gate)

    def test_forced_route_for_multiqubit_gate(self, router, small_architecture,
                                              small_connectivity):
        state = MappingState(small_architecture, 12, connectivity=small_connectivity)
        circuit = QuantumCircuit(12)
        circuit.ccz(0, 6, 11)
        gate = circuit[0]
        position = find_gate_position(state, gate)
        assert position is not None
        router.forced_route_swaps(state, gate, position)
        assert state.gate_executable(gate)

    def test_forced_route_on_executable_gate_is_a_no_op(self, router, small_state):
        circuit = QuantumCircuit(12)
        circuit.cz(0, 1)
        assert router.forced_route_swaps(small_state, circuit[0]) == []
