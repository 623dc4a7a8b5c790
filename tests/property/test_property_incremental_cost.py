"""Property tests: the per-qubit SWAP cost engine is exact.

The gate-based router scores candidates as ``baseline + delta``
(:class:`repro.mapping.SwapCandidateTable`), where the delta reads only the
per-qubit site terms of the two swapped qubits.  On random circuits,
lattices, and scrambled mapping states the table built for a round must
hold exactly the reference generator's candidates
(``routing_reference.candidate_swaps``), with the same orientation, and
each one's integer layer deltas must equal the naive full recomputation of
``tests/differential/routing_reference.py``, also on hand-crafted layers
that list a node more than once; :meth:`GateRouter.best_swap` must pick the
reference's candidate, so the float costs agree bit-for-bit.

The selection must also match the original selection loop, kept below
unchanged as a test-only reference.  Hand-picked rounds pin the cases
random draws rarely reach: a round whose only candidate is the last SWAP,
and 3-qubit gates (positioned, or position-less in the lookahead layer)
that hold both swapped qubits.  ``test_property_candidate_table.py`` checks
the table across the rounds of whole mapping runs.
"""

from typing import Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import QuantumCircuit
from repro.hardware import NeutralAtomArchitecture, SiteConnectivity, SquareLattice
from repro.mapping import (GateRouter, MappingState, SwapCandidate,
                           find_gate_position)

import routing_reference


ARCHITECTURE = NeutralAtomArchitecture(
    name="prop-cost", lattice=SquareLattice(6, 6, 3.0), num_atoms=18,
    interaction_radius=2.0, restriction_radius=2.0)
CONNECTIVITY = SiteConnectivity(ARCHITECTURE)
NUM_QUBITS = 10


@st.composite
def routing_scenario(draw):
    """A random entangling circuit plus a random legal state scramble."""
    circuit = QuantumCircuit(NUM_QUBITS, name="prop-cost")
    num_gates = draw(st.integers(1, 12))
    for _ in range(num_gates):
        width = draw(st.sampled_from([2, 2, 2, 3, 4, 5]))
        qubits = draw(st.lists(st.integers(0, NUM_QUBITS - 1), min_size=width,
                               max_size=width, unique=True))
        circuit.cz(*qubits)
    operations = draw(st.lists(st.tuples(st.sampled_from(["swap", "move"]),
                                         st.integers(0, 10_000)),
                               min_size=0, max_size=12))
    return circuit, operations


def assert_table_matches_reference(state, front, lookahead, positions):
    """A table built for this round holds the reference's candidates, in
    the reference's orientation, with the naive walks' layer deltas."""
    table = routing_reference.fresh_table(state, front, lookahead, positions)
    assert routing_reference.table_entries(table) == \
        routing_reference.reference_entries(state, front, lookahead, positions)
    assert table.baseline_front == routing_reference.layer_distance(
        state, front, positions)
    assert table.baseline_lookahead == routing_reference.layer_distance(
        state, lookahead, positions)
    return table


def reference_best_swap(router: GateRouter, state: MappingState,
                        front_nodes: Sequence, lookahead_nodes: Sequence,
                        positions) -> Optional[SwapCandidate]:
    """The original selection loop over the naive scorer."""
    candidates = routing_reference.candidate_swaps(state, front_nodes)
    if not candidates:
        return None
    if router._last_swap_key is not None and len(candidates) > 1:
        filtered = [c for c in candidates if c.key() != router._last_swap_key]
        if filtered:
            candidates = filtered
    best_candidate = None
    best_key: Optional[Tuple[float, Tuple[int, int]]] = None
    for candidate in candidates:
        cost = routing_reference.swap_cost(router, state, candidate,
                                           front_nodes, lookahead_nodes,
                                           positions)
        key = (cost, candidate.key())
        if best_key is None or key < best_key:
            best_key = key
            best_candidate = candidate
    return best_candidate


def scrambled_state(operations) -> MappingState:
    state = MappingState(ARCHITECTURE, NUM_QUBITS, connectivity=CONNECTIVITY)
    for kind, seed in operations:
        if kind == "swap":
            qubit = seed % NUM_QUBITS
            neighbours = state.vicinity_of_qubit(qubit)
            if not neighbours:
                continue
            partner_atom = state.atom_at_site(neighbours[seed % len(neighbours)])
            state.apply_swap_with_atom(qubit, partner_atom)
        else:
            atom = seed % ARCHITECTURE.num_atoms
            free = sorted(state.free_sites())
            destination = free[seed % len(free)]
            if destination != state.site_of_atom(atom):
                state.move_atom(atom, destination)
    return state


def routing_round(circuit, operations):
    """State, layers, and (multi-qubit) positions as the mapper would see them."""
    state = scrambled_state(operations)
    front, lookahead = routing_reference.routing_layers(circuit)
    positions = {}
    for node in front + lookahead:
        if node.gate.num_qubits >= 3:
            position = find_gate_position(state, node.gate)
            if position is not None:
                positions[node.index] = position
    return state, front, lookahead, positions


class TestDeltaCostExactness:
    @given(routing_scenario(), st.sampled_from([0.0, 0.1, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_incremental_cost_equals_naive_for_every_candidate(
            self, scenario, lookahead_weight):
        circuit, operations = scenario
        state, front, lookahead, positions = routing_round(circuit, operations)
        if not front:
            return
        assert_table_matches_reference(state, front, lookahead, positions)
        router = GateRouter(ARCHITECTURE, lookahead_weight=lookahead_weight)
        assert router.best_swap(state, front, lookahead, positions) == \
            routing_reference.best_swap(router, state, front, lookahead,
                                        positions)

    @given(routing_scenario())
    @settings(max_examples=60, deadline=None)
    def test_best_swap_matches_naive_reference(self, scenario):
        circuit, operations = scenario
        state, front, lookahead, positions = routing_round(circuit, operations)
        if not front:
            return
        router = GateRouter(ARCHITECTURE)
        fast = router.best_swap(state, front, lookahead, positions)
        naive = routing_reference.best_swap(router, state, front, lookahead,
                                            positions)
        assert fast == naive

    @given(routing_scenario(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_exactness_holds_under_recency_damping(self, scenario, num_applied):
        """decay_rate > 0 exercises the exponential recency factor."""
        circuit, operations = scenario
        state, front, lookahead, positions = routing_round(circuit, operations)
        if not front:
            return
        router = GateRouter(ARCHITECTURE, decay_rate=0.5, recency_window=4)
        candidates = routing_reference.candidate_swaps(state, front)
        for candidate in candidates[:num_applied]:
            router.note_swap_applied(state, candidate)
        assert router.best_swap(state, front, lookahead, positions) == \
            routing_reference.best_swap(router, state, front, lookahead,
                                        positions)

    @given(routing_scenario(), st.integers(0, 10_000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_candidates_match_reference_generator(self, scenario, pick,
                                                  after_swap):
        """The table holds the reference's candidates with the same
        orientation, the last SWAP's inverse included; only the selection
        skips that inverse, unless it is the one candidate."""
        circuit, operations = scenario
        state, front, lookahead, positions = routing_round(circuit, operations)
        expected = routing_reference.candidate_swaps(state, front)
        router = GateRouter(ARCHITECTURE)
        if after_swap and expected:
            router.note_swap_applied(state, expected[pick % len(expected)])
        best = router.best_swap(state, front, lookahead, positions)
        assert {pair: fields for pair, (fields, _, _) in
                routing_reference.table_entries(router.table).items()} == \
            {candidate.key(): tuple(candidate) for candidate in expected}
        if not expected:
            assert best is None
        elif len(expected) == 1:
            assert best == expected[0]
        else:
            assert best in expected
            assert best.key() != router._last_swap_key

    @given(routing_scenario(), st.integers(0, 10_000),
           st.sampled_from([0.0, 0.5]))
    @settings(max_examples=60, deadline=None)
    def test_best_swap_matches_reference_with_inverse_excluded(
            self, scenario, pick, decay_rate):
        """With ``_last_swap_key`` set, the inverse-SWAP filter engages."""
        circuit, operations = scenario
        state, front, lookahead, positions = routing_round(circuit, operations)
        candidates = routing_reference.candidate_swaps(state, front)
        if not candidates:
            return
        router = GateRouter(ARCHITECTURE, decay_rate=decay_rate)
        router.note_swap_applied(state, candidates[pick % len(candidates)])
        expected = reference_best_swap(router, state, front, lookahead,
                                       positions)
        assert expected is not None
        if len(candidates) > 1:
            assert expected.key() != router._last_swap_key
        fast = router.best_swap(state, front, lookahead, positions)
        assert fast == expected
        assert routing_reference.best_swap(router, state, front, lookahead,
                                           positions) == expected

    @given(routing_scenario(), st.lists(st.integers(0, 10_000), max_size=6),
           st.sampled_from([0.0, 0.1, 1.0]), st.sampled_from([0.0, 0.5]))
    @settings(max_examples=60, deadline=None)
    def test_duplicate_nodes_count_once_per_occurrence(
            self, scenario, picks, lookahead_weight, decay_rate):
        """Hand-crafted layers may list a node twice, in one layer or in
        both: each listing weighs in as often as the full walk counts it."""
        circuit, operations = scenario
        state, front, lookahead, positions = routing_round(circuit, operations)
        if not front:
            return
        nodes = front + lookahead
        front = front + [nodes[pick % len(nodes)] for pick in picks[::2]]
        lookahead = lookahead + [nodes[pick % len(nodes)]
                                 for pick in picks[1::2]]
        router = GateRouter(ARCHITECTURE, lookahead_weight=lookahead_weight,
                            decay_rate=decay_rate)
        candidates = routing_reference.candidate_swaps(state, front)
        if candidates:
            router.note_swap_applied(state, candidates[0])
        assert_table_matches_reference(state, front, lookahead, positions)
        assert router.best_swap(state, front, lookahead, positions) == \
            routing_reference.best_swap(router, state, front, lookahead,
                                        positions)

    def test_duplicate_front_node_doubles_its_distance(self):
        circuit = QuantumCircuit(NUM_QUBITS)
        circuit.cz(0, 9)
        state = MappingState(ARCHITECTURE, NUM_QUBITS, connectivity=CONNECTIVITY)
        front, _ = routing_reference.routing_layers(circuit)
        router = GateRouter(ARCHITECTURE)
        single = routing_reference.fresh_table(state, front, [], {})
        double = routing_reference.fresh_table(state, front + front, [], {})
        assert single.baseline_front > 0
        assert double.baseline_front == 2 * single.baseline_front
        assert single.entries.keys() == double.entries.keys()
        for pair, (delta_front, _, fields) in single.entries.items():
            assert double.entries[pair] == (2 * delta_front, 0, fields)
        assert router.best_swap(state, front + front, [], {}) == \
            routing_reference.best_swap(router, state, front + front, [], {})


def assert_round_matches_reference(router, state, front, lookahead, positions):
    """Every candidate's deltas and the selection equal the naive reference."""
    assert_table_matches_reference(state, front, lookahead, positions)
    best = router.best_swap(state, front, lookahead, positions)
    assert best == routing_reference.best_swap(router, state, front,
                                               lookahead, positions)
    return best


def swaps_both(state, front, qubits) -> bool:
    """True if some candidate swaps two of ``qubits`` with each other."""
    return any(candidate.qubit_b is not None
               and {candidate.qubit_a, candidate.qubit_b} <= set(qubits)
               for candidate in routing_reference.candidate_swaps(state, front))


class TestHandPickedRounds:
    """Rounds that random draws reach rarely or never."""

    def test_lone_candidate_is_the_last_swap(self):
        sparse = NeutralAtomArchitecture(
            name="prop-sparse", lattice=SquareLattice(6, 6, 3.0), num_atoms=4,
            interaction_radius=1.0, restriction_radius=1.0)
        # Qubits 0 and 1 sit on adjacent sites 0 and 1; the two auxiliary
        # atoms are out of reach, so the pair is the round's one candidate.
        state = MappingState(sparse, 2, initial_sites=[0, 1, 34, 35])
        circuit = QuantumCircuit(2)
        circuit.cz(0, 1)
        front, lookahead = routing_reference.routing_layers(circuit)
        (only,) = routing_reference.candidate_swaps(state, front)
        router = GateRouter(sparse)
        router.note_swap_applied(state, only)
        assert router._last_swap_key == only.key()
        assert assert_round_matches_reference(
            router, state, front, lookahead, {}) == only

    @pytest.mark.parametrize("decay_rate", [0.0, 0.5])
    def test_positioned_three_qubit_gate_holding_both_swapped_qubits(
            self, decay_rate):
        circuit = QuantumCircuit(NUM_QUBITS)
        circuit.ccz(0, 1, 9).cz(2, 8)
        state = MappingState(ARCHITECTURE, NUM_QUBITS, connectivity=CONNECTIVITY)
        front, lookahead = routing_reference.routing_layers(circuit)
        ccz = next(node for node in front if node.gate.num_qubits == 3)
        position = find_gate_position(state, ccz.gate)
        assert position is not None
        assert swaps_both(state, front, ccz.gate.qubits)
        router = GateRouter(ARCHITECTURE, lookahead_weight=1.0,
                            decay_rate=decay_rate)
        assert_round_matches_reference(router, state, front, lookahead,
                                       {ccz.index: position})

    @pytest.mark.parametrize("decay_rate", [0.0, 0.5])
    def test_positionless_lookahead_gate_holding_both_swapped_qubits(
            self, decay_rate):
        circuit = QuantumCircuit(NUM_QUBITS)
        # cx does not commute with the diagonal ccz on its target, so the
        # ccz waits in the lookahead layer.
        circuit.cx(0, 9).ccz(0, 1, 9)
        state = MappingState(ARCHITECTURE, NUM_QUBITS, connectivity=CONNECTIVITY)
        front, lookahead = routing_reference.routing_layers(circuit)
        assert [node.gate.num_qubits for node in lookahead] == [3]
        assert swaps_both(state, front, lookahead[0].gate.qubits)
        router = GateRouter(ARCHITECTURE, lookahead_weight=1.0,
                            decay_rate=decay_rate)
        assert_round_matches_reference(router, state, front, lookahead, {})

    def test_duplicate_front_listings_of_mixed_widths(self):
        circuit = QuantumCircuit(NUM_QUBITS)
        circuit.ccz(0, 1, 9).cz(2, 8).ccz(3, 4, 7)
        state = MappingState(ARCHITECTURE, NUM_QUBITS, connectivity=CONNECTIVITY)
        front, _ = routing_reference.routing_layers(circuit)
        assert len(front) == 3
        positioned = front[0]
        position = find_gate_position(state, positioned.gate)
        assert position is not None
        router = GateRouter(ARCHITECTURE, lookahead_weight=0.5)
        listed = front + front[::-1] + [positioned]
        assert_round_matches_reference(router, state, listed, front[1:],
                                       {positioned.index: position})
