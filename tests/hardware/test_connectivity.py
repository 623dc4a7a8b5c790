"""Unit tests for the site connectivity graph."""

import random
from collections import Counter

import numpy as np
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


#: Devices per topology family for the table tests: the gate preset's
#: r_int = 4.5 gives the dense neighbourhoods, the zoned device has
#: storage sites without interaction partners and corridor penalties.
ARCHITECTURES = {
    "square": lambda: [mixed(lattice_rows=7, num_atoms=30),
                       gate_optimised(lattice_rows=7, num_atoms=30)],
    "rectangular": lambda: [mixed(lattice_rows=7, num_atoms=30,
                                  topology="rectangular", spacing_y=4.0)],
    "zoned": lambda: [zoned(lattice_rows=9, num_atoms=30)],
}


def test_every_topology_family_has_table_devices():
    assert sorted(ARCHITECTURES) == sorted(TOPOLOGY_KINDS)


class TestSwapRow:
    """``swap_row`` is the one SWAP-distance definition: the router's cost
    engine and the capability decider read it where they once applied the
    adjacency test and ``max(hop - 1, 0)`` by hand."""

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_equals_adjacency_and_hop_rule(self, kind):
        assert kind in ARCHITECTURES, (
            f"topology family {kind!r} has no architecture in this suite")
        for architecture in ARCHITECTURES[kind]():
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


def _intersect1d_fold(connectivity, sites):
    """The chain builder's former zone: a ``numpy.intersect1d`` fold."""
    zone = connectivity.interaction_array(sites[0])
    for site in sites[1:]:
        zone = np.intersect1d(zone, connectivity.interaction_array(site),
                              assume_unique=True)
    return zone


class TestCommonInteractionArray:
    """``common_interaction_array`` is the chain builder's gathering zone,
    cached per site pair: it must equal the ``intersect1d`` fold it
    replaced, for any order of the kept sites, and never be writeable."""

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_equals_the_intersect1d_fold(self, kind):
        rng = random.Random(kind)
        sizes = Counter()
        for architecture in ARCHITECTURES[kind]():
            connectivity = SiteConnectivity(architecture)
            num_sites = connectivity.num_sites
            for _ in range(300):
                count = rng.randint(1, 4)
                sites = [rng.randrange(num_sites)]
                while len(sites) < count:
                    # Mostly kept sets as the chain builder grows them (each
                    # site interacts with every earlier one), some at random.
                    zone = _intersect1d_fold(connectivity, sites).tolist()
                    if zone and rng.random() < 0.8:
                        sites.append(rng.choice(zone))
                    else:
                        sites.append(rng.randrange(num_sites))
                expected = _intersect1d_fold(connectivity, sites)
                for order in (sites, sites[::-1]):
                    actual = connectivity.common_interaction_array(order)
                    assert actual.dtype == expected.dtype
                    assert actual.tolist() == expected.tolist(), order
                    assert not actual.flags.writeable
                sizes[(count, bool(expected.size))] += 1
        # Every kept-set size, with empty and non-empty zones.
        assert all(sizes[(count, True)] for count in range(1, 5)), sizes
        assert any(sizes[(count, False)] for count in range(2, 5)), sizes

    def test_pairs_are_cached_unordered_and_read_only(self):
        connectivity = SiteConnectivity(gate_optimised(lattice_rows=7,
                                                       num_atoms=30))
        a, b = 10, 11
        zone = connectivity.common_interaction_array([a, b])
        assert connectivity.common_interaction_array([b, a]) is zone
        assert connectivity.common_interaction_array([a]) is \
            connectivity.interaction_array(a)
        with pytest.raises(ValueError):
            zone[0] = -1
        with pytest.raises(ValueError):
            connectivity.interaction_array(a)[0] = -1


class TestMoveAwayOrder:
    """``move_away_order`` lists the move-away discs in the order the
    innermost-disc-first scan visits them; the scan itself is compared with
    the scalar reference in ``tests/mapping/test_chain_builder_reference.py``."""

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_disc_then_travel_then_site(self, kind):
        for architecture in ARCHITECTURES[kind]():
            connectivity = SiteConnectivity(architecture)
            lattice = architecture.lattice
            for origin in range(0, connectivity.num_sites, 5):
                travel = lattice.rectangular_row(origin)
                for radius in (1, 2, 4, 9):
                    discs = [set(lattice.sites_within(
                        origin, disc * lattice.spacing + 1e-9))
                        for disc in range(1, radius + 1)]

                    def key(site):
                        innermost = next(index for index, disc
                                         in enumerate(discs) if site in disc)
                        return innermost, travel[site], site

                    order = connectivity.move_away_order(origin, radius)
                    assert not order.flags.writeable
                    assert connectivity.move_away_order(origin, radius) \
                        is order
                    assert order.tolist() == sorted(discs[-1], key=key)


class TestLaterAdjacentBits:
    """The clique search's bitsets mark exactly the later neighbours that
    interact with each neighbour of the anchor."""

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_bits_equal_the_adjacency_rule(self, kind):
        for architecture in ARCHITECTURES[kind]():
            connectivity = SiteConnectivity(architecture)
            for anchor in range(connectivity.num_sites):
                neighbours = connectivity.interaction_neighbours(anchor)
                bits = connectivity.later_adjacent_bits(anchor)
                assert connectivity.later_adjacent_bits(anchor) is bits
                assert len(bits) == len(neighbours)
                for j, site in enumerate(neighbours):
                    expected = sum(
                        1 << k for k in range(j + 1, len(neighbours))
                        if connectivity.are_adjacent(site, neighbours[k]))
                    assert bits[j] == expected, (anchor, j)
