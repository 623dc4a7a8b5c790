"""Bit-compatibility of the numpy row-vector kernel with the scalar math.

The mapper's cost functions compare cached distance-row values against each
other, and the op stream must stay bit-identical across engine revisions —
so the numpy kernel in :class:`repro.hardware.topology.GridTopology` is only admissible if
its rows match the ``math.hypot`` / ``abs`` scalar formulas to the last
bit, and the vectorised neighbour tables match the per-site scans exactly.
These tests assert that on representative lattices and radii; on a platform
where the kernel diverged they would fail loudly rather than let results
drift silently.
"""

from __future__ import annotations

import math

import pytest

from repro.hardware import SiteConnectivity, SquareLattice
from repro.hardware.presets import preset

LATTICES = [
    SquareLattice(5, 5, 3.0),
    SquareLattice(9, 9, 3.0),
    SquareLattice(7, 12, 2.5),
    SquareLattice(16, 16, 3.0),
    # Non-exactly-representable spacings: these are the cases where a naive
    # vectorised sqrt(dx^2 + dy^2) diverges from math.hypot in the last bit,
    # so they pin the bit-identity contract hardest.
    SquareLattice(8, 8, 0.3),
    SquareLattice(6, 9, 1.1),
    SquareLattice(7, 7, 2.7),
]

RADII = (2.0, 3.0, 4.5, 6.0, 12.0 + 1e-9)


@pytest.mark.parametrize("lattice", LATTICES, ids=repr)
class TestDistanceRowKernel:
    def test_euclidean_rows_bit_identical_to_math_hypot(self, lattice):
        for site in range(lattice.num_sites):
            row = lattice.euclidean_row(site)
            x, y = lattice.position(site)
            for other, (px, py) in enumerate(lattice.positions()):
                assert row[other] == math.hypot(x - px, y - py)
                assert row[other] == lattice.euclidean_distance(site, other)

    def test_rectangular_rows_bit_identical_to_scalar_formula(self, lattice):
        for site in range(lattice.num_sites):
            row = lattice.rectangular_row(site)
            x, y = lattice.position(site)
            for other, (px, py) in enumerate(lattice.positions()):
                assert row[other] == abs(x - px) + abs(y - py)
                assert row[other] == lattice.rectangular_distance(site, other)


@pytest.mark.parametrize("lattice", LATTICES, ids=repr)
@pytest.mark.parametrize("radius", RADII)
class TestNeighbourTableKernel:
    def test_neighbour_table_matches_per_site_scan(self, lattice, radius):
        table = lattice.neighbour_table(radius)
        assert len(table) == lattice.num_sites
        for site in range(lattice.num_sites):
            assert list(table[site]) == lattice.sites_within(site, radius)


class TestConnectivityUsesKernel:
    @pytest.mark.parametrize("hardware", ("gate", "mixed", "shuttling"))
    def test_adjacency_matches_per_site_scan(self, hardware):
        architecture = preset(hardware, lattice_rows=8, num_atoms=30)
        connectivity = SiteConnectivity(architecture)
        lattice = architecture.lattice
        for site in range(lattice.num_sites):
            expected = lattice.sites_within(
                site, architecture.interaction_radius_um)
            assert list(connectivity.interaction_neighbours(site)) == expected
            row = connectivity.adjacency_row(site)
            assert [other for other in range(lattice.num_sites) if row[other]] \
                == sorted(expected)
            for other in expected:
                assert connectivity.are_adjacent(site, other)

    def test_restriction_neighbours_match_scan(self):
        architecture = preset("mixed", lattice_rows=7, num_atoms=20)
        connectivity = SiteConnectivity(architecture)
        lattice = architecture.lattice
        for site in range(lattice.num_sites):
            assert list(connectivity.restriction_neighbours(site)) == \
                lattice.sites_within(site, architecture.restriction_radius_um)
