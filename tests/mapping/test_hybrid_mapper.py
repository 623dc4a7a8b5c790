"""Integration-style unit tests for the full hybrid mapping process (Figure 4)."""

import pytest

from repro.circuit import QuantumCircuit, decompose_mcx_to_mcz
from repro.mapping import HybridMapper, MapperConfig, MappingResult
from repro.mapping.result import CircuitGateOp, ShuttleOp, SwapOp


def assert_valid_result(result: MappingResult, circuit: QuantumCircuit) -> None:
    """Common structural checks every mapping result must satisfy."""
    result.verify_complete()
    # Every emitted circuit gate preserves its gate identity.
    for op in result.circuit_gate_ops():
        assert op.gate is circuit[op.gate_index]
        assert len(op.atoms) == op.gate.num_qubits
        assert len(set(op.sites)) == len(op.sites)


class TestBasicMapping:
    def test_trivially_executable_circuit_needs_no_routing(self, small_architecture,
                                                           bell_circuit):
        mapper = HybridMapper(small_architecture, MapperConfig())
        result = mapper.map(bell_circuit)
        assert result.num_swaps == 0
        assert result.num_moves == 0
        assert result.num_trivially_executable == 1
        assert_valid_result(result, bell_circuit)

    def test_single_qubit_only_circuit(self, small_architecture):
        circuit = QuantumCircuit(5)
        for q in range(5):
            circuit.h(q).rz(0.3, q)
        result = HybridMapper(small_architecture).map(circuit)
        assert len(result.operations) == len(circuit)
        assert result.num_swaps == 0 and result.num_moves == 0

    def test_circuit_larger_than_atom_count_rejected(self, small_architecture):
        circuit = QuantumCircuit(small_architecture.num_atoms + 1)
        circuit.h(0)
        with pytest.raises(ValueError):
            HybridMapper(small_architecture).map(circuit)

    def test_mapping_records_initial_and_final_maps(self, small_architecture,
                                                    long_range_circuit):
        result = HybridMapper(small_architecture).map(long_range_circuit)
        assert set(result.initial_qubit_map) == set(range(long_range_circuit.num_qubits))
        assert set(result.final_qubit_map) == set(range(long_range_circuit.num_qubits))
        assert result.runtime_seconds > 0


class TestModes:
    def test_shuttling_only_never_inserts_swaps(self, small_architecture,
                                                long_range_circuit):
        result = HybridMapper(small_architecture,
                              MapperConfig.shuttling_only()).map(long_range_circuit)
        assert result.num_swaps == 0
        assert result.num_moves > 0
        assert result.mode == "shuttling_only"
        assert_valid_result(result, long_range_circuit)

    def test_gate_only_never_moves_atoms_for_two_qubit_circuits(self, small_architecture,
                                                                long_range_circuit):
        result = HybridMapper(small_architecture,
                              MapperConfig.gate_only()).map(long_range_circuit)
        assert result.num_moves == 0
        assert result.num_swaps > 0
        assert result.mode == "gate_only"
        assert_valid_result(result, long_range_circuit)

    def test_hybrid_routes_every_gate(self, small_architecture, long_range_circuit):
        result = HybridMapper(small_architecture,
                              MapperConfig.hybrid(1.0)).map(long_range_circuit)
        assert result.num_swaps + result.num_moves > 0
        assert_valid_result(result, long_range_circuit)

    def test_routed_gate_attribution_sums_to_entangling_count(self, small_architecture,
                                                              long_range_circuit):
        result = HybridMapper(small_architecture).map(long_range_circuit)
        routed = (result.num_gate_routed + result.num_shuttle_routed
                  + result.num_trivially_executable)
        assert routed == long_range_circuit.num_entangling_gates()


class TestEmittedStreams:
    def test_gates_emitted_at_interacting_sites(self, small_architecture,
                                                long_range_circuit, small_connectivity):
        result = HybridMapper(small_architecture).map(long_range_circuit)
        for op in result.circuit_gate_ops():
            if op.gate.is_entangling:
                assert small_connectivity.sites_mutually_interacting(op.sites)

    def test_swap_ops_connect_adjacent_sites(self, small_architecture,
                                             long_range_circuit, small_connectivity):
        result = HybridMapper(small_architecture,
                              MapperConfig.gate_only()).map(long_range_circuit)
        for op in result.swap_ops():
            assert small_connectivity.are_adjacent(op.site_a, op.site_b)

    def test_shuttle_ops_replay_onto_free_sites(self, small_architecture,
                                                long_range_circuit):
        """Replaying the operation stream never moves an atom onto an occupied trap."""
        from repro.mapping import MappingState
        result = HybridMapper(small_architecture,
                              MapperConfig.shuttling_only()).map(long_range_circuit)
        state = MappingState(small_architecture, long_range_circuit.num_qubits)
        for op in result.operations:
            if isinstance(op, ShuttleOp):
                assert state.site_is_free(op.move.destination)
                state.apply_move(op.move)
            elif isinstance(op, SwapOp):
                state.apply_swap_with_atom(op.qubit_a, op.atom_b)
            elif isinstance(op, CircuitGateOp) and op.gate.is_entangling:
                assert state.gate_executable(op.gate)

    def test_gate_order_respects_dependencies(self, small_architecture, small_qft_circuit):
        result = HybridMapper(small_architecture).map(small_qft_circuit)
        from repro.circuit import CircuitDAG
        dag = CircuitDAG(small_qft_circuit)
        emitted_order = {op.gate_index: position
                         for position, op in enumerate(result.circuit_gate_ops())}
        for node in dag.nodes:
            for predecessor in node.predecessors:
                assert emitted_order[predecessor] < emitted_order[node.index]


class TestMapperReuse:
    def test_second_circuit_maps_as_on_a_fresh_mapper(self, mixed_architecture,
                                                      small_qft_circuit,
                                                      small_graph_circuit):
        # ``reset()`` must clear every router state that outlives a map
        # call (the shuttling history above all): a reused mapper's stream
        # for circuit B may not depend on having mapped circuit A first.
        reused = HybridMapper(mixed_architecture, MapperConfig.hybrid(1.0))
        first = reused.map(small_qft_circuit)
        assert first.num_moves > 0
        second = reused.map(small_graph_circuit)
        fresh = HybridMapper(mixed_architecture,
                             MapperConfig.hybrid(1.0)).map(small_graph_circuit)
        assert second.operations == fresh.operations
        assert second.final_qubit_map == fresh.final_qubit_map
        assert second.final_atom_map == fresh.final_atom_map


class TestMultiQubitGates:
    @pytest.mark.parametrize("mode", ["gate_only", "shuttling_only", "hybrid"])
    def test_multiqubit_circuit_maps_in_every_mode(self, small_architecture,
                                                   multiqubit_circuit, mode):
        config = {"gate_only": MapperConfig.gate_only(),
                  "shuttling_only": MapperConfig.shuttling_only(),
                  "hybrid": MapperConfig.hybrid(1.0)}[mode]
        result = HybridMapper(small_architecture, config).map(multiqubit_circuit)
        assert_valid_result(result, multiqubit_circuit)

    def test_reversible_benchmark_maps(self, mixed_architecture):
        from repro.circuit.library import call
        circuit = decompose_mcx_to_mcz(call(num_qubits=12, seed=3))
        result = HybridMapper(mixed_architecture, MapperConfig.hybrid(1.0)).map(circuit)
        assert_valid_result(result, circuit)

    def test_gate_only_falls_back_when_no_position_exists(self):
        """Unplaceable multi-qubit gates re-route via shuttling even in gate-only mode.

        All atoms start on the first lattice row; with ``r_int = 1.5 d`` no
        three *occupied* sites are mutually interacting, so the CCZ has no
        gate-based position and must be realised by moving atoms off the row.
        """
        from repro.hardware import NeutralAtomArchitecture, SquareLattice
        from repro.mapping import MappingState
        architecture = NeutralAtomArchitecture(
            name="single-row", lattice=SquareLattice(8, 8, 3.0), num_atoms=8,
            interaction_radius=1.5, restriction_radius=1.5)
        initial = MappingState(architecture, 6, initial_sites=list(range(8)))
        circuit = QuantumCircuit(6)
        circuit.ccz(0, 2, 4)
        result = HybridMapper(architecture, MapperConfig.gate_only()).map(
            circuit, initial_state=initial)
        assert result.num_fallback_reroutes >= 1
        assert result.num_moves > 0
        assert_valid_result(result, circuit)


class TestCachedPositionInvalidation:
    """Regression tests for the cached multi-qubit position validation.

    A cached position used to be kept whenever its sites were occupied by
    *any* atoms; a shuttling move displacing a gate atom whose trap is then
    refilled by a foreign atom must invalidate the cache instead.
    """

    @staticmethod
    def _cache_position(mapper, state, circuit):
        from repro.circuit import CircuitDAG
        from repro.mapping.result import MappingResult
        node = CircuitDAG(circuit).nodes[0]
        positions = {}
        result = MappingResult(circuit=circuit)
        gate_nodes, _ = mapper._refresh_positions(
            state, [node], [], positions, set(), result)
        assert gate_nodes == [node]
        # A second validation round marks the qubits already sitting on
        # their assigned sites as arrived (mirrors the routing loop).
        mapper._refresh_positions(state, [node], [], positions, set(), result)
        return node, positions

    def test_displaced_gate_atom_invalidates_cached_position(
            self, small_architecture, small_connectivity):
        from repro.mapping import MappingState
        mapper = HybridMapper(small_architecture, MapperConfig.gate_only(),
                              connectivity=small_connectivity)
        state = MappingState(small_architecture, 12,
                             connectivity=small_connectivity)
        circuit = QuantumCircuit(12)
        circuit.ccz(0, 1, 2)
        node, positions = self._cache_position(mapper, state, circuit)
        cached = positions[node.index]

        arrived = next(qubit for qubit, site in cached.assignment.items()
                       if state.site_of_qubit(qubit) == site)
        vacated = cached.assignment[arrived]
        # Shuttle the arrived gate atom away, then refill its trap with a
        # foreign atom so every cached site is occupied again.
        free = next(iter(state.free_sites()))
        state.move_atom(state.atom_of_qubit(arrived), free)
        foreign = next(atom for atom in range(state.num_atoms)
                       if state.site_of_atom(atom) not in cached.sites
                       and state.qubit_of_atom(atom) is None)
        state.move_atom(foreign, vacated)

        assert all(not state.site_is_free(site) for site in cached.sites)
        assert not HybridMapper._cached_position_valid(state, cached)

        from repro.mapping.result import MappingResult
        mapper._refresh_positions(state, [node], [], positions, set(),
                                  MappingResult(circuit=circuit))
        assert positions[node.index] is not cached

    def test_occupied_unchanged_position_stays_cached(self, small_architecture,
                                                      small_connectivity):
        from repro.mapping import MappingState
        mapper = HybridMapper(small_architecture, MapperConfig.gate_only(),
                              connectivity=small_connectivity)
        state = MappingState(small_architecture, 12,
                             connectivity=small_connectivity)
        circuit = QuantumCircuit(12)
        circuit.ccz(0, 1, 2)
        node, positions = self._cache_position(mapper, state, circuit)
        cached = positions[node.index]

        from repro.mapping.result import MappingResult
        mapper._refresh_positions(state, [node], [], positions, set(),
                                  MappingResult(circuit=circuit))
        assert positions[node.index] is cached

    def test_freed_site_still_invalidates(self, small_architecture,
                                          small_connectivity):
        from repro.mapping import MappingState
        mapper = HybridMapper(small_architecture, MapperConfig.gate_only(),
                              connectivity=small_connectivity)
        state = MappingState(small_architecture, 12,
                             connectivity=small_connectivity)
        circuit = QuantumCircuit(12)
        circuit.ccz(0, 1, 2)
        node, positions = self._cache_position(mapper, state, circuit)
        cached = positions[node.index]

        occupied_site = next(site for site in cached.sites
                             if not state.site_is_free(site))
        free = next(iter(state.free_sites()))
        state.move_atom(state.atom_at_site(occupied_site), free)
        assert not HybridMapper._cached_position_valid(state, cached)


class TestBenchmarks:
    def test_small_graph_state_all_modes_agree_on_gate_count(self, mixed_architecture,
                                                             small_graph_circuit):
        for config in (MapperConfig.gate_only(), MapperConfig.shuttling_only(),
                       MapperConfig.hybrid(1.0)):
            result = HybridMapper(mixed_architecture, config).map(small_graph_circuit)
            assert len(result.circuit_gate_ops()) == len(small_graph_circuit)

    def test_qft_maps_on_all_three_presets(self, shuttling_architecture,
                                           gate_architecture, mixed_architecture,
                                           small_qft_circuit):
        for architecture in (shuttling_architecture, gate_architecture, mixed_architecture):
            result = HybridMapper(architecture, MapperConfig.hybrid(1.0)).map(small_qft_circuit)
            assert_valid_result(result, small_qft_circuit)


class TestShuttlingStepFallback:
    """``_shuttling_step`` falls back to the forced chain without a retry.

    On a 1x12 line with only the last trap free, no atom near the gates can
    be cleared within the move-away radius of four spacings, so no front
    gate has a greedy chain.  A whole-front ``best_chain`` of None implies
    that the oldest gate alone has none either, so the step must not ask
    again.
    """

    @staticmethod
    def _setup():
        from repro.circuit import CircuitDAG
        from repro.hardware import NeutralAtomArchitecture, SquareLattice
        from repro.mapping import MappingState
        architecture = NeutralAtomArchitecture(
            name="line", lattice=SquareLattice(1, 12, 3.0), num_atoms=11,
            interaction_radius=1.0, restriction_radius=1.0)
        mapper = HybridMapper(architecture, MapperConfig.shuttling_only())
        state = MappingState(architecture, 11)
        circuit = QuantumCircuit(11)
        circuit.cz(0, 5)
        circuit.cz(1, 4)
        nodes = CircuitDAG(circuit).nodes
        calls = {"best_chain": [], "forced_chain": []}
        router = mapper.shuttling_router
        for name in calls:
            original = getattr(router, name)

            def counted(state, nodes_or_node, *rest, _original=original,
                        _name=name):
                calls[_name].append(nodes_or_node)
                return _original(state, nodes_or_node, *rest)

            setattr(router, name, counted)
        return mapper, state, circuit, nodes, calls

    def test_unforced_step_goes_straight_to_forced_chain(self):
        mapper, state, circuit, nodes, calls = self._setup()
        result = MappingResult(circuit=circuit)
        assert mapper._shuttling_step(result, state, nodes, [], forced=False)
        assert calls["best_chain"] == [nodes]
        assert calls["forced_chain"] == [nodes[0]]
        assert result.num_moves > 0

    def test_forced_step_tries_the_oldest_gate_first(self):
        mapper, state, circuit, nodes, calls = self._setup()
        result = MappingResult(circuit=circuit)
        assert mapper._shuttling_step(result, state, nodes[::-1], [],
                                      forced=True)
        assert calls["best_chain"] == [[nodes[0]]]
        assert calls["forced_chain"] == [nodes[0]]
