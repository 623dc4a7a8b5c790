"""The SWAP candidate table never routes from stale contents.

``GateRouter`` keeps its :class:`~repro.mapping.SwapCandidateTable` across
rounds and learns what changed from the ``MappingState`` change log.  A
reused mapper, a caller-supplied initial state, a state copy and sharded
slice routing must each give the stream a fresh mapper gives, and the log
itself must record exactly the sites SWAPs and moves touch.
"""

from __future__ import annotations

import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.library.random_circuits import random_layered_circuit
from repro.hardware import SiteConnectivity
from repro.hardware.presets import mixed
from repro.mapping import (GateRouter, HybridMapper, MapperConfig, MappingState,
                           find_gate_position)
from repro.mapping.multiqubit import GatePosition

import routing_reference


def _circuit(seed: int, num_qubits: int = 12) -> QuantumCircuit:
    circuit = random_layered_circuit(num_qubits, 8, seed=seed)
    circuit.ccz(0, 5, 11).cz(1, 10)
    return circuit


def _scrambled(architecture, connectivity, num_qubits: int) -> MappingState:
    """A state whose qubits sit on shuffled atoms at shuffled sites."""
    sites = list(range(architecture.lattice.num_sites))[::-1]
    sites = sites[:architecture.num_atoms]
    atoms = list(range(num_qubits))[::-1]
    return MappingState(architecture, num_qubits, connectivity=connectivity,
                        initial_sites=sites, initial_qubit_map=atoms)


def _stream(result):
    return result.op_stream_lines(), result.op_stream_digest()


@pytest.fixture(scope="module")
def device():
    architecture = mixed(lattice_rows=7, num_atoms=30)
    return architecture, SiteConnectivity(architecture)


class TestChangeLog:
    def test_first_take_is_none_then_the_sites_since(self, small_state):
        reader = object()
        assert small_state.take_changed_sites(reader) is None
        assert small_state.take_changed_sites(reader) == set()
        small_state.apply_swap(0, 1)
        assert small_state.take_changed_sites(reader) == {0, 1}
        assert small_state.take_changed_sites(reader) == set()

    def test_swap_with_auxiliary_atom_logs_both_sites(self, small_state):
        reader = object()
        small_state.take_changed_sites(reader)
        qubit, site, auxiliary = next(
            (qubit, small_state.site_of_qubit(qubit), atom)
            for qubit in range(small_state.num_circuit_qubits)
            for neighbour in small_state.connectivity.interaction_neighbours(
                small_state.site_of_qubit(qubit))
            if (atom := small_state.atom_at_site(neighbour)) is not None
            and small_state.qubit_of_atom(atom) is None)
        auxiliary_site = small_state.site_of_atom(auxiliary)
        small_state.apply_swap_with_atom(qubit, auxiliary)
        assert small_state.take_changed_sites(reader) == {site, auxiliary_site}
        assert small_state.site_of_qubit(qubit) == auxiliary_site

    def test_move_logs_source_and_destination(self, small_state):
        reader = object()
        small_state.take_changed_sites(reader)
        source = small_state.site_of_atom(4)
        destination = min(small_state.free_sites())
        small_state.move_atom(4, destination)
        assert small_state.take_changed_sites(reader) == {source, destination}

    def test_another_reader_in_between_gives_none(self, small_state):
        first, second = object(), object()
        small_state.take_changed_sites(first)
        small_state.apply_swap(0, 1)
        assert small_state.take_changed_sites(second) is None
        small_state.apply_swap(0, 1)
        assert small_state.take_changed_sites(first) is None
        assert small_state.take_changed_sites(first) == set()

    def test_copy_does_not_share_the_log(self, small_state):
        reader = object()
        small_state.take_changed_sites(reader)
        small_state.apply_swap(2, 3)
        clone = small_state.copy()
        assert clone.take_changed_sites(reader) is None
        clone.apply_swap(0, 1)
        assert small_state.take_changed_sites(reader) == {2, 3}
        assert clone.take_changed_sites(reader) == {0, 1}


class TestStaleTableGuards:
    @pytest.mark.parametrize("config", [
        MapperConfig.gate_only(decay_rate=0.5), MapperConfig.hybrid(2.0)],
        ids=["gate_only", "hybrid"])
    def test_mapper_reused_for_two_circuits(self, device, config):
        architecture, connectivity = device
        reused = HybridMapper(architecture, config, connectivity=connectivity)
        for seed in (3, 4):
            circuit = _circuit(seed)
            fresh = HybridMapper(architecture, config,
                                 connectivity=connectivity).map(circuit)
            assert _stream(reused.map(circuit)) == _stream(fresh)

    def test_mapper_given_an_initial_state(self, device):
        architecture, connectivity = device
        config = MapperConfig.gate_only()
        reused = HybridMapper(architecture, config, connectivity=connectivity)
        reused.map(_circuit(5))
        circuit = _circuit(6)
        fresh = HybridMapper(architecture, config, connectivity=connectivity)
        expected = fresh.map(circuit, initial_state=_scrambled(
            architecture, connectivity, circuit.num_qubits))
        assert expected.num_swaps > 0
        state = _scrambled(architecture, connectivity, circuit.num_qubits)
        assert _stream(reused.map(circuit, initial_state=state)) == \
            _stream(expected)

    def test_router_moved_to_a_state_copy_and_back(self, device):
        architecture, connectivity = device
        circuit = _circuit(7)
        front, lookahead = routing_reference.routing_layers(circuit)
        state = MappingState(architecture, circuit.num_qubits,
                             connectivity=connectivity)
        router = GateRouter(architecture, lookahead_weight=0.5)

        def assert_fresh(target):
            chosen = router.best_swap(target, front, lookahead, {})
            fresh = routing_reference.fresh_table(target, front, lookahead, {})
            assert routing_reference.table_entries(router.table) == \
                routing_reference.table_entries(fresh)
            assert chosen == routing_reference.best_swap(
                router, target, front, lookahead, {})
            return chosen

        first = assert_fresh(state)
        clone = state.copy()
        # A SWAP applied to the copy only: the table, primed on ``state``,
        # must not carry its contents over.
        clone.apply_swap_with_atom(first.qubit_a, first.atom_b)
        router.note_swap_applied(clone, first)
        assert_fresh(clone)
        # Back on ``state``, which never saw that SWAP.
        assert_fresh(state)

    def test_front_order_permuted_between_rounds(self, small_state):
        """A hand-crafted layer may list the same nodes in another order:
        pairs of two front qubits then take the new first-visited qubit
        as ``qubit_a``."""
        circuit = QuantumCircuit(12)
        circuit.cz(0, 1).cz(2, 3).cz(4, 5)
        front, _ = routing_reference.routing_layers(circuit)
        router = GateRouter(small_state.architecture)
        for layer in (front, front[::-1], front[1:] + front[:1]):
            chosen = router.best_swap(small_state, layer, [], {})
            assert routing_reference.table_entries(router.table) == \
                routing_reference.table_entries(routing_reference.fresh_table(
                    small_state, layer, [], {}))
            assert chosen == routing_reference.best_swap(
                router, small_state, layer, [], {})

    def test_node_re_positioned_between_rounds(self, small_state):
        circuit = QuantumCircuit(12)
        circuit.ccz(0, 5, 11).cz(1, 10)
        front, lookahead = routing_reference.routing_layers(circuit)
        ccz = next(node for node in front if node.gate.num_qubits == 3)
        position = find_gate_position(small_state, ccz.gate)
        assert position is not None
        qubits = list(position.assignment)
        rotated = GatePosition(position.sites, dict(zip(
            qubits, [position.assignment[q] for q in qubits[1:] + qubits[:1]])),
            position.estimated_swaps)
        router = GateRouter(small_state.architecture, lookahead_weight=0.5)
        for chosen_position in (position, rotated, None):
            positions = ({} if chosen_position is None
                         else {ccz.index: chosen_position})
            chosen = router.best_swap(small_state, front, lookahead, positions)
            assert routing_reference.table_entries(router.table) == \
                routing_reference.reference_entries(small_state, front,
                                                    lookahead, positions)
            assert chosen == routing_reference.best_swap(
                router, small_state, front, lookahead, positions)

    def test_two_routers_sharing_one_state(self, device):
        architecture, connectivity = device
        circuit = _circuit(8)
        front, lookahead = routing_reference.routing_layers(circuit)
        state = MappingState(architecture, circuit.num_qubits,
                             connectivity=connectivity)
        routers = [GateRouter(architecture), GateRouter(architecture)]
        for step in range(6):
            router = routers[step % 2]
            chosen = router.best_swap(state, front, lookahead, {})
            assert routing_reference.table_entries(router.table) == \
                routing_reference.table_entries(routing_reference.fresh_table(
                    state, front, lookahead, {}))
            state.apply_swap_with_atom(chosen.qubit_a, chosen.atom_b)
            for other in routers:
                other.note_swap_applied(state, chosen)

    def test_sharded_mapper_reused(self, device):
        architecture, connectivity = device
        config = MapperConfig.gate_only(shard_routing=True, shard_min_slice=12)
        reused = HybridMapper(architecture, config, connectivity=connectivity)
        for seed in (9, 10):
            circuit = random_layered_circuit(16, 10, seed=seed)
            fresh = HybridMapper(architecture, config,
                                 connectivity=connectivity).map(circuit)
            assert fresh.shard_stats["num_slices"] >= 2
            assert fresh.num_swaps > 0
            assert _stream(reused.map(circuit)) == _stream(fresh)
