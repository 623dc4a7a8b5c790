"""Property-based tests for lattice geometry and connectivity."""

import math

from hypothesis import given, settings, strategies as st

from repro.hardware import NeutralAtomArchitecture, SiteConnectivity, SquareLattice


lattice_strategy = st.builds(
    SquareLattice,
    st.integers(2, 9),
    st.integers(2, 9),
    st.floats(1.0, 5.0, allow_nan=False),
)


class TestLatticeProperties:
    @given(lattice_strategy, st.data())
    @settings(max_examples=60, deadline=None)
    def test_index_roundtrip(self, lattice, data):
        site = data.draw(st.integers(0, lattice.num_sites - 1))
        row, col = lattice.row_col(site)
        assert lattice.site_at(row, col) == site

    @given(lattice_strategy, st.data())
    @settings(max_examples=60, deadline=None)
    def test_metric_properties(self, lattice, data):
        a = data.draw(st.integers(0, lattice.num_sites - 1))
        b = data.draw(st.integers(0, lattice.num_sites - 1))
        c = data.draw(st.integers(0, lattice.num_sites - 1))
        euclid = lattice.euclidean_distance
        # symmetry, identity, triangle inequality
        assert euclid(a, b) == euclid(b, a)
        assert euclid(a, a) == 0.0
        assert euclid(a, c) <= euclid(a, b) + euclid(b, c) + 1e-9
        # rectangular distance dominates euclidean
        assert lattice.rectangular_distance(a, b) >= euclid(a, b) - 1e-9

    @given(lattice_strategy, st.data(), st.floats(0.5, 4.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_sites_within_radius_are_exactly_the_close_ones(self, lattice, data, factor):
        site = data.draw(st.integers(0, lattice.num_sites - 1))
        radius = factor * lattice.spacing
        within = set(lattice.sites_within(site, radius))
        for other in range(lattice.num_sites):
            if other == site:
                continue
            close = lattice.euclidean_distance(site, other) <= radius + 1e-9
            assert (other in within) == close


class TestConnectivityProperties:
    @given(st.integers(3, 7), st.floats(1.0, 3.0, allow_nan=False), st.data())
    @settings(max_examples=30, deadline=None)
    def test_hop_distance_is_a_metric_on_the_interaction_graph(self, rows, radius_factor, data):
        architecture = NeutralAtomArchitecture(
            name="prop", lattice=SquareLattice(rows, rows, 3.0),
            num_atoms=rows * rows - 1,
            interaction_radius=radius_factor, restriction_radius=radius_factor)
        connectivity = SiteConnectivity(architecture)
        a = data.draw(st.integers(0, architecture.lattice.num_sites - 1))
        b = data.draw(st.integers(0, architecture.lattice.num_sites - 1))
        assert connectivity.hop_distance(a, b) == connectivity.hop_distance(b, a)
        assert connectivity.hop_distance(a, a) == 0
        if a != b and connectivity.are_adjacent(a, b):
            assert connectivity.hop_distance(a, b) == 1

    @given(st.integers(3, 7), st.data())
    @settings(max_examples=30, deadline=None)
    def test_shortest_path_length_matches_hop_distance(self, rows, data):
        architecture = NeutralAtomArchitecture(
            name="prop", lattice=SquareLattice(rows, rows, 3.0),
            num_atoms=rows * rows - 1,
            interaction_radius=2.0, restriction_radius=2.0)
        connectivity = SiteConnectivity(architecture)
        a = data.draw(st.integers(0, architecture.lattice.num_sites - 1))
        b = data.draw(st.integers(0, architecture.lattice.num_sites - 1))
        path = connectivity.shortest_path(a, b)
        assert path is not None
        assert len(path) - 1 == connectivity.hop_distance(a, b)
        for u, v in zip(path, path[1:]):
            assert connectivity.are_adjacent(u, v)
