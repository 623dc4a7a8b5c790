"""Property tests: the incremental delta-cost SWAP engine is exact.

The gate-based router scores candidates as ``baseline + delta``
(:class:`repro.mapping.SwapCostCache`), re-evaluating only the gates that
touch the two swapped qubits.  On random circuits, lattices, and scrambled
mapping states the incremental cost of *every* candidate must equal the
naive full recomputation of ``tests/differential/routing_reference.py``
bit-for-bit, also on hand-crafted layers that list a node more than once,
and :meth:`GateRouter.best_swap` must pick the reference's candidate.

Candidate generation and selection are also checked against the original
generator and selection loop, kept below unchanged as test-only references:
the candidate list must match element by element and in order, and the
selected SWAP must match with the inverse of the last SWAP excluded.
"""

from typing import List, Optional, Sequence, Set, Tuple

from hypothesis import given, settings, strategies as st

from repro.circuit import QuantumCircuit
from repro.hardware import NeutralAtomArchitecture, SiteConnectivity, SquareLattice
from repro.mapping import (GateRouter, LayerManager, MappingState,
                           SwapCandidate, SwapCostCache, find_gate_position)

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


def reference_candidate_swaps(state: MappingState,
                              front_nodes: Sequence) -> List[SwapCandidate]:
    """All SWAPs acting on a front-layer gate qubit and an adjacent atom."""
    seen: Set[Tuple[int, int]] = set()
    candidates: List[SwapCandidate] = []
    for node in front_nodes:
        for qubit in node.gate.qubits:
            atom_a = state.atom_of_qubit(qubit)
            site_a = state.site_of_atom(atom_a)
            for site_b in state.connectivity.interaction_neighbours(site_a):
                atom_b = state.atom_at_site(site_b)
                if atom_b is None:
                    continue
                key = (min(site_a, site_b), max(site_a, site_b))
                if key in seen:
                    continue
                seen.add(key)
                candidates.append(SwapCandidate(
                    qubit_a=qubit,
                    qubit_b=state.qubit_of_atom(atom_b),
                    atom_a=atom_a,
                    atom_b=atom_b,
                    site_a=site_a,
                    site_b=site_b,
                ))
    return candidates


def _fields(candidate: SwapCandidate) -> Tuple:
    return (candidate.qubit_a, candidate.qubit_b, candidate.atom_a,
            candidate.atom_b, candidate.site_a, candidate.site_b)


def reference_best_swap(router: GateRouter, state: MappingState,
                        front_nodes: Sequence, lookahead_nodes: Sequence,
                        positions) -> Optional[SwapCandidate]:
    """The original selection loop over the naive scorer."""
    candidates = reference_candidate_swaps(state, front_nodes)
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
    layers = LayerManager(circuit)
    front, lookahead = layers.layers()
    positions = {}
    for node in front + lookahead:
        if node.gate.num_qubits >= 3:
            position = find_gate_position(state, node.gate)
            if position is not None:
                positions[node.index] = position
    return state, layers, front, lookahead, positions


class TestDeltaCostExactness:
    @given(routing_scenario(), st.sampled_from([0.0, 0.1, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_incremental_cost_equals_naive_for_every_candidate(
            self, scenario, lookahead_weight):
        circuit, operations = scenario
        state, layers, front, lookahead, positions = routing_round(circuit, operations)
        if not front:
            return
        router = GateRouter(ARCHITECTURE, lookahead_weight=lookahead_weight)
        candidates = router.candidate_swaps(state, front)
        # Once with the LayerManager-maintained index, once self-built.
        for qubit_index in (layers.qubit_node_index(), None):
            cache = SwapCostCache(router, state, front, lookahead, positions,
                                  qubit_index=qubit_index)
            for candidate in candidates:
                naive = routing_reference.swap_cost(
                    router, state, candidate, front, lookahead, positions)
                assert cache.cost(candidate) == naive

    @given(routing_scenario())
    @settings(max_examples=60, deadline=None)
    def test_best_swap_matches_naive_reference(self, scenario):
        circuit, operations = scenario
        state, layers, front, lookahead, positions = routing_round(circuit, operations)
        if not front:
            return
        router = GateRouter(ARCHITECTURE)
        fast = router.best_swap(state, front, lookahead, positions,
                                qubit_index=layers.qubit_node_index())
        naive = routing_reference.best_swap(router, state, front, lookahead,
                                            positions)
        assert fast == naive

    @given(routing_scenario(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_exactness_holds_under_recency_damping(self, scenario, num_applied):
        """decay_rate > 0 exercises the exponential recency factor."""
        circuit, operations = scenario
        state, layers, front, lookahead, positions = routing_round(circuit, operations)
        if not front:
            return
        router = GateRouter(ARCHITECTURE, decay_rate=0.5, recency_window=4)
        candidates = router.candidate_swaps(state, front)
        for candidate in candidates[:num_applied]:
            router.note_swap_applied(state, candidate)
        cache = SwapCostCache(router, state, front, lookahead, positions,
                              qubit_index=layers.qubit_node_index())
        for candidate in candidates:
            naive = routing_reference.swap_cost(router, state, candidate,
                                                front, lookahead, positions)
            assert cache.cost(candidate) == naive

    @given(routing_scenario())
    @settings(max_examples=60, deadline=None)
    def test_candidates_match_reference_generator(self, scenario):
        circuit, operations = scenario
        state, layers, front, lookahead, positions = routing_round(circuit, operations)
        router = GateRouter(ARCHITECTURE)
        candidates = router.candidate_swaps(state, front)
        expected = reference_candidate_swaps(state, front)
        assert len(candidates) == len(expected)
        for candidate, reference in zip(candidates, expected):
            assert _fields(candidate) == _fields(reference)
            assert candidate.key() == reference.key()

    @given(routing_scenario(), st.integers(0, 10_000),
           st.sampled_from([0.0, 0.5]))
    @settings(max_examples=60, deadline=None)
    def test_best_swap_matches_reference_with_inverse_excluded(
            self, scenario, pick, decay_rate):
        """With ``_last_swap_key`` set, the inverse-SWAP filter engages."""
        circuit, operations = scenario
        state, layers, front, lookahead, positions = routing_round(circuit, operations)
        candidates = reference_candidate_swaps(state, front)
        if not candidates:
            return
        router = GateRouter(ARCHITECTURE, decay_rate=decay_rate)
        router.note_swap_applied(state, candidates[pick % len(candidates)])
        expected = reference_best_swap(router, state, front, lookahead,
                                       positions)
        assert expected is not None
        if len(candidates) > 1:
            assert expected.key() != router._last_swap_key
        fast = router.best_swap(state, front, lookahead, positions,
                                qubit_index=layers.qubit_node_index())
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
        state, layers, front, lookahead, positions = routing_round(circuit, operations)
        if not front:
            return
        nodes = front + lookahead
        front = front + [nodes[pick % len(nodes)] for pick in picks[::2]]
        lookahead = lookahead + [nodes[pick % len(nodes)]
                                 for pick in picks[1::2]]
        router = GateRouter(ARCHITECTURE, lookahead_weight=lookahead_weight,
                            decay_rate=decay_rate)
        candidates = router.candidate_swaps(state, front)
        if candidates:
            router.note_swap_applied(state, candidates[0])
        for qubit_index in (layers.qubit_node_index(), None):
            cache = SwapCostCache(router, state, front, lookahead, positions,
                                  qubit_index=qubit_index)
            for candidate in candidates:
                assert cache.cost(candidate) == routing_reference.swap_cost(
                    router, state, candidate, front, lookahead, positions)
            assert router.best_swap(
                state, front, lookahead, positions,
                qubit_index=qubit_index) == routing_reference.best_swap(
                    router, state, front, lookahead, positions)

    def test_duplicate_front_node_doubles_its_distance(self):
        circuit = QuantumCircuit(NUM_QUBITS)
        circuit.cz(0, 9)
        state = MappingState(ARCHITECTURE, NUM_QUBITS, connectivity=CONNECTIVITY)
        front, _ = LayerManager(circuit).layers()
        router = GateRouter(ARCHITECTURE)
        single = SwapCostCache(router, state, front, [], {})
        double = SwapCostCache(router, state, front + front, [], {})
        assert single.baseline_front > 0
        assert double.baseline_front == 2 * single.baseline_front
        for candidate in router.candidate_swaps(state, front):
            assert double.cost(candidate) == 2 * single.cost(candidate)
        assert router.best_swap(state, front + front, [], {}) == \
            routing_reference.best_swap(router, state, front + front, [], {})
