"""Unit tests for the shuttling-based router (Section 3.3.2)."""

import pytest

from repro.circuit import QuantumCircuit
from repro.hardware.presets import preset
from repro.mapping import (HybridMapper, MapperConfig, MappingState,
                           ShuttlingRouter)
from repro.mapping.replay import validate_stream
from repro.mapping.shuttling_router import build_qubit_node_index

import routing_reference


@pytest.fixture()
def router(small_architecture):
    return ShuttlingRouter(small_architecture, lookahead_weight=0.1, time_weight=0.1,
                           history_window=4)


def indexed(front, lookahead):
    """The layers as ``chain_cost`` takes them: qubit → node indices."""
    return build_qubit_node_index(front), build_qubit_node_index(lookahead)


class TestChainConstruction:
    def test_chain_makes_two_qubit_gate_executable(self, router, small_architecture,
                                                   small_connectivity):
        state = MappingState(small_architecture, 12, connectivity=small_connectivity)
        circuit = QuantumCircuit(12)
        circuit.cz(0, 11)
        front, _ = routing_reference.routing_layers(circuit)
        chains = router.candidate_chains(state, front[0])
        assert chains
        chain = chains[0]
        for move in chain:
            state.apply_move(move)
        assert state.gate_executable(circuit[0])

    def test_chain_length_respects_bound(self, router, small_state):
        circuit = QuantumCircuit(12)
        circuit.ccz(0, 6, 11)
        front, _ = routing_reference.routing_layers(circuit)
        for chain in router.candidate_chains(small_state, front[0]):
            assert len(chain) <= 2 * (3 - 1)

    def test_chain_moves_target_free_sites(self, router, small_state):
        circuit = QuantumCircuit(12)
        circuit.cz(0, 11)
        front, _ = routing_reference.routing_layers(circuit)
        chain = router.candidate_chains(small_state, front[0])[0]
        # Destination of the first move must be free in the current state.
        assert small_state.site_is_free(chain.moves[0].destination)

    def test_executable_gate_produces_no_chain(self, router, small_state):
        circuit = QuantumCircuit(12)
        circuit.cz(0, 1)
        front, _ = routing_reference.routing_layers(circuit)
        assert router.candidate_chains(small_state, front[0]) == []

    def test_move_away_emitted_when_vicinity_is_full(self):
        """With every site near both gate qubits occupied, a move-away is required."""
        from repro.hardware import NeutralAtomArchitecture, SquareLattice
        architecture = NeutralAtomArchitecture(
            name="dense", lattice=SquareLattice(5, 5, 3.0), num_atoms=24,
            interaction_radius=2.0, restriction_radius=2.0)
        router = ShuttlingRouter(architecture)
        # Sites 0..23 occupied, only the far corner (4,4) = site 24 stays free.
        state = MappingState(architecture, 24)
        circuit = QuantumCircuit(24)
        circuit.cz(0, 12)   # (0,0) and (2,2): not adjacent, vicinities fully occupied
        front, _ = routing_reference.routing_layers(circuit)
        chains = router.candidate_chains(state, front[0])
        assert chains
        assert all(chain.num_move_aways > 0 for chain in chains)
        # Applying the best chain makes the gate executable.
        chain = chains[0]
        for move in chain:
            state.apply_move(move)
        assert state.gate_executable(circuit[0])

    def test_invalid_parameters_rejected(self, small_architecture):
        with pytest.raises(ValueError):
            ShuttlingRouter(small_architecture, lookahead_weight=-1)
        with pytest.raises(ValueError):
            ShuttlingRouter(small_architecture, history_window=-1)

    @pytest.mark.parametrize("weight", ["lookahead_weight", "time_weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_weights_rejected(self, small_architecture, weight,
                                         value):
        # NaN passes a ``< 0`` check, and a NaN cost would make the first
        # candidate chain win every round.
        with pytest.raises(ValueError, match="finite"):
            ShuttlingRouter(small_architecture, **{weight: value})


class TestCost:
    def test_distance_reducing_chain_has_negative_cost(self, router, small_state):
        circuit = QuantumCircuit(12)
        circuit.cz(0, 11)
        front, lookahead = routing_reference.routing_layers(circuit)
        chain = router.candidate_chains(small_state, front[0])[0]
        cost = router.chain_cost(small_state, chain, *indexed(front, lookahead))
        assert cost < 0

    def test_parallel_compatible_history_is_cheaper(self, small_architecture, small_state):
        router_with_history = ShuttlingRouter(small_architecture, time_weight=1.0)
        circuit = QuantumCircuit(12)
        circuit.cz(0, 11)
        front, lookahead = routing_reference.routing_layers(circuit)
        chain = router_with_history.candidate_chains(small_state, front[0])[0]
        base_cost = router_with_history.chain_cost(small_state, chain,
                                                   *indexed(front, lookahead))
        # Record an incompatible move (opposite direction crossing) in history.
        blocker = small_state.make_move(19, sorted(small_state.free_sites())[-1])
        router_with_history.note_moves_applied([blocker])
        cost_with_history = router_with_history.chain_cost(
            small_state, chain, *indexed(front, lookahead))
        assert cost_with_history >= base_cost

    def test_history_window_is_bounded(self, router, small_state):
        moves = [small_state.make_move(atom, site)
                 for atom, site in zip(range(10, 16), sorted(small_state.free_sites()))]
        router.note_moves_applied(moves)
        assert len(router._recent_moves) <= router.history_window

    def test_reset_clears_history(self, router, small_state):
        move = small_state.make_move(10, sorted(small_state.free_sites())[0])
        router.note_moves_applied([move])
        router.reset()
        assert router.move_time_penalty(move) == 0.0


class TestSelection:
    def test_best_chain_selects_lowest_cost(self, router, small_state):
        circuit = QuantumCircuit(12)
        circuit.cz(0, 11).cz(1, 2)
        front, lookahead = routing_reference.routing_layers(circuit)
        best = router.best_chain(small_state, front, lookahead)
        assert best is not None
        # The chain must serve the non-executable gate.
        assert best.gate_index == 0

    def test_best_chain_none_when_everything_executable(self, router, small_state):
        circuit = QuantumCircuit(12)
        circuit.cz(0, 1)
        front, lookahead = routing_reference.routing_layers(circuit)
        assert router.best_chain(small_state, front, lookahead) is None


class TestForcedChain:
    def test_forced_chain_gathers_multiqubit_gate(self, router, small_architecture,
                                                  small_connectivity):
        state = MappingState(small_architecture, 12, connectivity=small_connectivity)
        circuit = QuantumCircuit(12)
        circuit.ccz(0, 6, 11)
        front, _ = routing_reference.routing_layers(circuit)
        chain = router.forced_chain(state, front[0])
        assert chain is not None
        for move in chain:
            state.apply_move(move)
        assert state.gate_executable(circuit[0])

    def test_forced_chain_handles_fully_occupied_cluster(self, small_architecture,
                                                         small_connectivity):
        router = ShuttlingRouter(small_architecture)
        state = MappingState(small_architecture, 20, connectivity=small_connectivity)
        circuit = QuantumCircuit(20)
        circuit.ccz(0, 13, 19)
        front, _ = routing_reference.routing_layers(circuit)
        chain = router.forced_chain(state, front[0])
        assert chain is not None
        for move in chain:
            state.apply_move(move)
        assert state.gate_executable(circuit[0])

    @pytest.mark.parametrize("config", (MapperConfig.shuttling_only(),
                                        MapperConfig.hybrid(1.0)),
                             ids=("shuttling_only", "hybrid"))
    def test_forced_chain_reaches_the_farthest_free_trap(self, config):
        """81 traps, 80 atoms: the only free trap (80) lies about eleven
        spacings from site 1, beyond ``max(rows, cols)`` spacings, so the
        move-away must search up to the lattice diagonal."""
        architecture = preset("shuttling", lattice_rows=9, num_atoms=80)
        circuit = QuantumCircuit(4)
        circuit.cz(0, 3)
        result = HybridMapper(architecture, config).map(circuit)
        assert validate_stream(result, architecture) == []
        assert result.op_stream_lines() == [
            "M a=1 1->80 away=1",
            "M a=3 3->1 away=0",
            "G 0 cz/cz q=(0, 3) p=[] a=(0, 3) s=(0, 1)",
        ]


class TestPairPenaltyCompatibilityParity:
    """The AOD-compatibility test inlined in ``move_time_penalty`` must
    agree with :func:`repro.shuttling.aod.moves_compatible` for every move
    pair — if the scheduler's batching rule ever changes, this fails loudly
    instead of letting the cost model drift silently."""

    def test_pair_penalty_matches_moves_compatible(self, small_architecture):
        from itertools import product

        from repro.shuttling.aod import moves_compatible
        from repro.shuttling.moves import Move

        lattice = small_architecture.lattice
        router = ShuttlingRouter(small_architecture)

        def make(atom, source, destination, away=False):
            return Move(atom=atom, source=source, destination=destination,
                        source_position=lattice.position(source),
                        destination_position=lattice.position(destination),
                        is_move_away=away)

        # Every ordered pair over a diverse move set: same/different atoms,
        # shared endpoints, same-row / same-column / diagonal displacements,
        # order-preserving and crossing combinations.
        moves = [
            make(0, 0, 1), make(0, 0, 7), make(1, 1, 0), make(1, 2, 3),
            make(2, 6, 13), make(3, 13, 6), make(4, 14, 8), make(5, 8, 14),
            make(6, 20, 27, away=True), make(7, 27, 20), make(8, 5, 35),
            make(9, 30, 0), make(2, 0, 1),
        ]
        checked = 0
        for move, recent in product(moves, moves):
            router._recent_moves = [recent]
            term = router.move_time_penalty(move)
            assert (term == 0.0) == moves_compatible(move, recent), \
                (move, recent)
            checked += 1
        assert checked == len(moves) ** 2


class TestBatchedTimePenalty:
    """The screen's `chain_screen.time_penalties` batch equals the scalar
    history walk `move_time_penalty` bit for bit, on inexact spacings and
    on corridor-penalised zoned travel (the screen's bound relies on it),
    for every history length up to the window."""

    @pytest.mark.parametrize("hardware, spacing, topology_kwargs", (
        ("mixed", 3.0, {}),
        ("mixed", 0.3, {}),
        ("mixed", 1.1, {}),
        ("zoned", 1.1, {"corridor_transit_um": 7.3}),
    ))
    def test_batch_matches_scalar_penalty(self, hardware, spacing,
                                          topology_kwargs):
        import random

        import numpy as np

        from repro.hardware.presets import preset
        from repro.mapping.chain_screen import _HISTORY_BLOCK, time_penalties

        architecture = preset(hardware, lattice_rows=5, spacing=spacing,
                              num_atoms=12, **topology_kwargs)
        topology = architecture.lattice
        assert topology.has_travel_penalties == bool(topology_kwargs)
        router = ShuttlingRouter(architecture, history_window=4)
        rng = random.Random(2024)
        sites = range(topology.num_sites)

        def random_move():
            # Few atoms on a small grid: shared atoms, endpoints, rows and
            # columns (every branch of the compatibility rule) are common.
            source, destination = rng.sample(sites, 2)
            return router._pooled_move(rng.randrange(6), source, destination,
                                       topology, is_move_away=False)

        # Every length the window allows, the empty history included, and
        # an unbounded history (window 0) longer than one broadcast block.
        lengths = list(range(router.history_window + 1))
        lengths.append(2 * _HISTORY_BLOCK + 3)
        filled = 0
        for length in lengths:
            for _round in range(12):
                router._recent_moves = [random_move() for _ in range(length)]
                moves = [random_move() for _ in range(rng.randint(1, 24))]
                batched = time_penalties(
                    architecture, router._recent_moves,
                    np.array([m.atom for m in moves], dtype=np.int64),
                    np.array([m.source for m in moves], dtype=np.int64),
                    np.array([m.destination for m in moves], dtype=np.int64),
                    np.array([m.source_position[0] for m in moves]),
                    np.array([m.source_position[1] for m in moves]),
                    np.array([m.destination_position[0] for m in moves]),
                    np.array([m.destination_position[1] for m in moves]),
                    np.array([m.rectangular_distance for m in moves]))
                assert batched.shape == (len(moves),)
                for move, value in zip(moves, batched.tolist()):
                    scalar = router.move_time_penalty(move)
                    assert value.hex() == scalar.hex(), (length, move, value,
                                                         scalar)
                    filled += 1
                if not length:
                    assert not batched.any()
        assert filled > 200


class TestTimePenaltyReference:
    """`move_time_penalty` walks the history once with the AOD rule inlined;
    it must equal, bit for bit, the sum of per-recent-move terms decided by
    :func:`repro.shuttling.aod.moves_compatible`, in history order."""

    @pytest.mark.parametrize("hardware, spacing, topology_kwargs", (
        ("mixed", 3.0, {}),
        ("mixed", 0.3, {}),
        ("mixed", 1.1, {}),
        ("zoned", 1.1, {"corridor_transit_um": 7.3}),
    ))
    def test_equals_moves_compatible_sum(self, hardware, spacing,
                                         topology_kwargs):
        import random

        from repro.hardware.presets import preset
        from repro.shuttling.aod import moves_compatible

        architecture = preset(hardware, lattice_rows=5, spacing=spacing,
                              num_atoms=12, **topology_kwargs)
        topology = architecture.lattice
        durations = architecture.durations
        router = ShuttlingRouter(architecture, history_window=4)
        rng = random.Random(f"{hardware}/{spacing}")
        sites = range(topology.num_sites)

        def random_move():
            source, destination = rng.sample(sites, 2)
            return router._pooled_move(rng.randrange(6), source, destination,
                                       topology, is_move_away=False)

        def reference(move):
            penalty = 0.0
            for recent in router._recent_moves:
                if moves_compatible(move, recent):
                    term = 0.0
                elif (abs(move.source_position[1]
                          - recent.source_position[1]) < 1e-9
                      or abs(move.source_position[0]
                             - recent.source_position[0]) < 1e-9):
                    term = durations.aod_activation + durations.aod_deactivation
                else:
                    term = (durations.aod_activation
                            + architecture.shuttle_move_duration(
                                move.rectangular_distance)
                            + durations.aod_deactivation)
                penalty += term
            return penalty

        terms = set()
        for _round in range(60):
            router.note_moves_applied(
                [random_move() for _ in range(rng.randint(1, 3))])
            for _ in range(rng.randint(1, 12)):
                move = random_move()
                expected = reference(move)
                assert router.move_time_penalty(move).hex() == \
                    expected.hex(), move
                terms.add(expected)
        # Sums of zero, shared and full terms all occur.
        assert len(terms) > 10
