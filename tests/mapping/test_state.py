"""Unit tests for the two-fold mapping state (Figure 2 / Examples 3 and 4)."""

import pytest

from repro.circuit.gate import controlled_z
from repro.hardware import NeutralAtomArchitecture, SiteConnectivity, SquareLattice
from repro.mapping import MappingState


class TestConstruction:
    def test_identity_initialisation(self, small_state):
        for qubit in range(small_state.num_circuit_qubits):
            assert small_state.atom_of_qubit(qubit) == qubit
            assert small_state.site_of_qubit(qubit) == qubit
        small_state.consistency_check()

    def test_too_many_circuit_qubits_rejected(self, small_architecture):
        with pytest.raises(ValueError):
            MappingState(small_architecture, small_architecture.num_atoms + 1)

    def test_custom_initial_placement(self, small_architecture, small_connectivity):
        sites = list(range(5, 5 + small_architecture.num_atoms))
        state = MappingState(small_architecture, 4, connectivity=small_connectivity,
                             initial_sites=sites)
        assert state.site_of_atom(0) == 5
        state.consistency_check()

    def test_duplicate_initial_sites_rejected(self, small_architecture):
        sites = [0] * small_architecture.num_atoms
        with pytest.raises(ValueError):
            MappingState(small_architecture, 4, initial_sites=sites)

    def test_custom_qubit_map(self, small_architecture, small_connectivity):
        mapping = [3, 2, 1, 0]
        state = MappingState(small_architecture, 4, connectivity=small_connectivity,
                             initial_qubit_map=mapping)
        assert state.atom_of_qubit(0) == 3
        assert state.qubit_of_atom(0) == 3
        state.consistency_check()

    def test_duplicate_qubit_map_rejected(self, small_architecture):
        with pytest.raises(ValueError):
            MappingState(small_architecture, 3, initial_qubit_map=[0, 0, 1])


class TestLookups:
    def test_auxiliary_atoms_have_no_qubit(self, small_state):
        assert small_state.qubit_of_atom(small_state.num_circuit_qubits) is None

    def test_site_occupancy(self, small_state):
        occupied = small_state.occupied_sites()
        free = small_state.free_sites()
        assert len(occupied) == small_state.num_atoms
        assert occupied.isdisjoint(free)
        assert len(occupied) + len(free) == small_state.num_sites

    def test_gate_sites(self, small_state):
        gate = controlled_z((0, 5))
        assert small_state.gate_sites(gate) == (0, 5)

    def test_mapping_copies_are_snapshots(self, small_state):
        qmap = small_state.qubit_mapping()
        small_state.apply_swap(0, 1)
        assert qmap[0] == 0  # the copy does not change

    def test_occupancy_sets_are_snapshots_of_the_mask(self, small_state):
        occupied = small_state.occupied_sites()
        free = small_state.free_sites()
        destination = min(free)
        occupied.clear()  # the caller owns the snapshot
        small_state.move_atom(0, destination)
        assert destination in free  # it does not follow the move
        assert small_state.occupied_sites() == {
            site for site in range(small_state.num_sites)
            if not small_state.free_mask[site]}
        assert 0 in small_state.free_sites()
        small_state.consistency_check()


class TestConnectivityQueries:
    def test_adjacent_qubits(self, small_state):
        assert small_state.qubits_adjacent(0, 1)
        assert not small_state.qubits_adjacent(0, 11)

    def test_gate_executable_two_qubit(self, small_state):
        assert small_state.gate_executable(controlled_z((0, 1)))
        assert not small_state.gate_executable(controlled_z((0, 11)))

    def test_gate_executable_multi_qubit_needs_mutual_adjacency(self, small_state):
        # Qubits 0, 1, 2 sit on the first row within 2d of each other.
        assert small_state.gate_executable(controlled_z((0, 1, 2)))
        # 0 and 3 are 3 sites apart -> not executable.
        assert not small_state.gate_executable(controlled_z((0, 1, 3)))

    def test_single_qubit_gate_always_executable(self, small_state):
        from repro.circuit.gate import single_qubit_gate
        assert small_state.gate_executable(single_qubit_gate("h", 11))

    def test_swap_distance_adjacent_is_zero(self, small_state):
        assert small_state.swap_distance(0, 1) == 0
        assert small_state.swap_distance(0, 2) == 0  # still within 2d

    def test_swap_distance_grows_with_separation(self, small_state):
        assert small_state.swap_distance(0, 11) >= 1
        assert small_state.swap_distance(0, 11, exact=True) >= small_state.swap_distance(0, 11)

    def test_gate_swap_distance_sums_pairs(self, small_state):
        gate = controlled_z((0, 5, 11))
        assert small_state.gate_swap_distance(gate) >= small_state.swap_distance(0, 11)

    def test_vicinity_and_free_sites(self, small_state):
        vicinity = small_state.vicinity_of_qubit(0)
        assert all(not small_state.site_is_free(s) for s in vicinity)
        free_nearby = small_state.free_sites_near(small_state.site_of_qubit(0))
        assert all(small_state.site_is_free(s) for s in free_nearby)


class TestSwaps:
    def test_apply_swap_exchanges_qubits_not_atoms(self, small_state):
        site_q0 = small_state.site_of_qubit(0)
        site_q1 = small_state.site_of_qubit(1)
        small_state.apply_swap(0, 1)
        assert small_state.site_of_qubit(0) == site_q1
        assert small_state.site_of_qubit(1) == site_q0
        # atoms did not move
        assert small_state.occupied_sites() == set(range(small_state.num_atoms))
        assert small_state.num_swaps_applied == 1
        small_state.consistency_check()

    def test_swap_with_auxiliary_atom(self, small_state):
        # Atom 17 holds no circuit qubit and sits directly below qubit 11's atom.
        small_state.apply_swap_with_atom(11, 17)
        assert small_state.site_of_qubit(11) == 17
        assert small_state.qubit_of_atom(11) is None
        small_state.consistency_check()

    def test_swap_of_non_adjacent_qubits_rejected(self, small_state):
        with pytest.raises(ValueError):
            small_state.apply_swap(0, 11)

    def test_example4_swap_updates_connectivity(self, small_architecture,
                                                small_connectivity):
        # Example 4: a SWAP substitutes edges of the connectivity graph.
        state = MappingState(small_architecture, 4, connectivity=small_connectivity)
        assert state.gate_executable(controlled_z((0, 2)))
        state.apply_swap(0, 2)
        assert state.gate_executable(controlled_z((0, 2)))  # still adjacent, roles swapped
        assert state.site_of_qubit(0) == 2


class TestMoves:
    def test_move_atom_changes_atom_mapping_only(self, small_state):
        target = small_state.num_atoms + 2  # a free site on the second row
        assert small_state.site_is_free(target)
        small_state.move_atom(0, target)
        assert small_state.site_of_qubit(0) == target
        assert small_state.atom_of_qubit(0) == 0
        assert small_state.num_moves_applied == 1
        small_state.consistency_check()

    def test_move_to_occupied_site_rejected(self, small_state):
        with pytest.raises(ValueError):
            small_state.move_atom(0, 1)

    def test_move_to_same_site_rejected(self, small_state):
        with pytest.raises(ValueError):
            small_state.move_atom(0, 0)

    def test_move_outside_lattice_rejected(self, small_state):
        with pytest.raises(ValueError):
            small_state.move_atom(0, 10_000)

    def test_make_and_apply_move(self, small_state):
        free_site = sorted(small_state.free_sites())[0]
        move = small_state.make_move(3, free_site)
        assert move.atom == 3
        assert move.source == small_state.site_of_atom(3)
        small_state.apply_move(move)
        assert small_state.site_of_atom(3) == free_site

    def test_example4_shuttling_updates_connectivity(self, small_architecture,
                                                     small_connectivity):
        # Example 4 (shuttling branch): moving an atom changes which gates
        # are executable without touching the qubit mapping.
        state = MappingState(small_architecture, 3, connectivity=small_connectivity)
        far_gate = controlled_z((0, 2))
        assert state.gate_executable(far_gate)
        # Move qubit 2's atom to the far corner: the gate becomes impossible.
        corner = small_architecture.lattice.site_at(5, 5)
        state.move_atom(2, corner)
        assert not state.gate_executable(far_gate)
        assert state.atom_of_qubit(2) == 2


class TestConsistencyCheck:
    def test_detects_a_drifted_free_mask(self, small_state):
        small_state.free_mask[0] = 1  # site 0 holds atom 0
        with pytest.raises(AssertionError, match="free-site mask"):
            small_state.consistency_check()

    def test_detects_a_drifted_free_neighbour_count(self, small_state):
        small_state._free_near[0] += 1
        with pytest.raises(AssertionError, match="free-neighbour count"):
            small_state.consistency_check()


class TestCopy:
    def test_copy_is_deep(self, small_state):
        clone = small_state.copy()
        clone.apply_swap(0, 1)
        assert small_state.site_of_qubit(0) == 0
        assert clone.site_of_qubit(0) == 1
        assert clone.num_swaps_applied == small_state.num_swaps_applied + 1
