"""Unit tests for the site connectivity graph."""

import pytest

from repro.hardware import (TOPOLOGY_KINDS, NeutralAtomArchitecture,
                            SiteConnectivity, SquareLattice)
from repro.hardware.presets import gate_optimised, mixed, zoned


class TestAdjacency:
    def test_interaction_neighbours_bulk_count(self, small_architecture, small_connectivity):
        centre = small_architecture.lattice.site_at(3, 3)
        assert len(small_connectivity.interaction_neighbours(centre)) == 12

    def test_restriction_neighbours_superset(self, small_connectivity, small_architecture):
        # r_restr == r_int for this architecture -> identical neighbourhoods
        for site in range(small_architecture.lattice.num_sites):
            assert set(small_connectivity.restriction_neighbours(site)) == set(
                small_connectivity.interaction_neighbours(site))

    def test_restriction_radius_larger_than_interaction(self):
        arch = NeutralAtomArchitecture(
            lattice=SquareLattice(7, 7, 3.0), num_atoms=20,
            interaction_radius=1.0, restriction_radius=2.0)
        connectivity = SiteConnectivity(arch)
        centre = arch.lattice.site_at(3, 3)
        assert len(connectivity.restriction_neighbours(centre)) > len(
            connectivity.interaction_neighbours(centre))

    def test_are_adjacent_symmetric(self, small_connectivity):
        for a, b in [(0, 1), (0, 7), (10, 22), (5, 30)]:
            assert small_connectivity.are_adjacent(a, b) == small_connectivity.are_adjacent(b, a)

    def test_coordination_number(self, small_connectivity, small_architecture):
        corner = small_architecture.lattice.site_at(0, 0)
        centre = small_architecture.lattice.site_at(3, 3)
        assert small_connectivity.coordination_number(corner) < \
            small_connectivity.coordination_number(centre)

    def test_mutual_interaction_of_a_cluster(self, small_connectivity, small_architecture):
        lattice = small_architecture.lattice
        block = [lattice.site_at(2, 2), lattice.site_at(2, 3),
                 lattice.site_at(3, 2), lattice.site_at(3, 3)]
        assert small_connectivity.sites_mutually_interacting(block)
        far = block[:3] + [lattice.site_at(5, 5)]
        assert not small_connectivity.sites_mutually_interacting(far)

    def test_mutual_interaction_rejects_duplicates(self, small_connectivity):
        assert not small_connectivity.sites_mutually_interacting([3, 3])


class TestDistances:
    def test_hop_distance_adjacent(self, small_connectivity):
        assert small_connectivity.hop_distance(0, 1) == 1

    def test_hop_distance_across_lattice(self, small_connectivity, small_architecture):
        lattice = small_architecture.lattice
        a = lattice.site_at(0, 0)
        b = lattice.site_at(5, 5)
        hops = small_connectivity.hop_distance(a, b)
        # with r_int = 2d the maximum per-hop displacement is 2 in each axis
        assert 3 <= hops <= 5

    def test_hop_distance_is_chebyshev_with_diagonal_reach(self):
        # r_int = 1.5 d reaches the diagonal (sqrt(2) d) but not 2 d, so one
        # hop moves at most one row and one column.
        arch = NeutralAtomArchitecture(
            lattice=SquareLattice(4, 4, 1.0), num_atoms=15,
            interaction_radius=1.5, restriction_radius=1.5)
        connectivity = SiteConnectivity(arch)
        for a in range(16):
            for b in range(16):
                (ra, ca), (rb, cb) = arch.lattice.row_col(a), arch.lattice.row_col(b)
                assert connectivity.hop_distance(a, b) == max(abs(ra - rb), abs(ca - cb))

    def test_hop_distance_symmetric(self, small_connectivity):
        assert small_connectivity.hop_distance(2, 33) == small_connectivity.hop_distance(33, 2)

    def test_bfs_distances_respect_allowed_filter(self, small_connectivity,
                                                  small_architecture):
        lattice = small_architecture.lattice
        source = lattice.site_at(0, 0)
        # Only allow the first row: the far end of the row stays reachable but
        # needs strictly more hops than on the unrestricted lattice.
        allowed = {lattice.site_at(0, c) for c in range(lattice.cols)}
        restricted = small_connectivity.bfs_distances_from(source, allowed=allowed)
        unrestricted = small_connectivity.bfs_distances_from(source)
        target = lattice.site_at(0, 5)
        assert restricted[target] >= unrestricted[target]
        assert lattice.site_at(3, 3) not in restricted

    def test_shortest_path_endpoints_and_adjacency(self, small_connectivity):
        path = small_connectivity.shortest_path(0, 35)
        assert path is not None
        assert path[0] == 0 and path[-1] == 35
        for a, b in zip(path, path[1:]):
            assert small_connectivity.are_adjacent(a, b)

    def test_shortest_path_trivial(self, small_connectivity):
        assert small_connectivity.shortest_path(4, 4) == [4]

    def test_shortest_path_with_allowed_filter(self, small_connectivity, small_architecture):
        lattice = small_architecture.lattice
        allowed = {lattice.site_at(0, c) for c in range(lattice.cols)}
        path = small_connectivity.shortest_path(lattice.site_at(0, 0),
                                                lattice.site_at(0, 5), allowed=allowed)
        assert path is not None
        assert all(site in allowed for site in path)


class TestSwapRow:
    """``swap_row`` is the one SWAP-distance definition: the router's cost
    engine and the capability decider read it where they once applied the
    adjacency test and ``max(hop - 1, 0)`` by hand."""

    ARCHITECTURES = {
        "square": lambda: [mixed(lattice_rows=7, num_atoms=30),
                           gate_optimised(lattice_rows=7, num_atoms=30)],
        "rectangular": lambda: [mixed(lattice_rows=7, num_atoms=30,
                                      topology="rectangular", spacing_y=4.0)],
        "zoned": lambda: [zoned(lattice_rows=9, num_atoms=30)],
    }

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_equals_adjacency_and_hop_rule(self, kind):
        assert kind in self.ARCHITECTURES, (
            f"topology family {kind!r} has no architecture in this suite")
        for architecture in self.ARCHITECTURES[kind]():
            connectivity = SiteConnectivity(architecture)
            for a in range(connectivity.num_sites):
                row = connectivity.swap_row(a)
                assert connectivity.swap_row(a) is row
                for b in range(connectivity.num_sites):
                    if a == b or connectivity.are_adjacent(a, b):
                        expected = 0
                    else:
                        expected = max(connectivity.hop_distance(a, b) - 1, 0)
                    assert row[b] == expected
                    # The per-qubit SWAP scorer reads a moved qubit's row,
                    # where a full walk reads its partner's.
                    assert row[b] == connectivity.swap_row(b)[a]
