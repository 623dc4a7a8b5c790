"""Unit tests for the square trap lattice."""

import math

import pytest

from repro.hardware import SquareLattice


class TestConstruction:
    def test_basic_properties(self):
        lattice = SquareLattice(3, 4, 2.0)
        assert lattice.num_sites == 12
        assert len(lattice) == 12
        assert list(lattice) == list(range(12))

    def test_square_default_columns(self):
        lattice = SquareLattice(5, spacing=3.0)
        assert lattice.rows == lattice.cols == 5

    @pytest.mark.parametrize("rows,cols,spacing", [(0, 3, 1.0), (3, 0, 1.0), (3, 3, 0.0)])
    def test_invalid_parameters(self, rows, cols, spacing):
        with pytest.raises(ValueError):
            SquareLattice(rows, cols, spacing)


class TestIndexing:
    def test_row_col_round_trip(self):
        lattice = SquareLattice(4, 5, 1.0)
        for site in lattice:
            row, col = lattice.row_col(site)
            assert lattice.site_at(row, col) == site

    def test_position_scales_with_spacing(self):
        lattice = SquareLattice(3, 3, 3.0)
        assert lattice.position(0) == (0.0, 0.0)
        assert lattice.position(4) == (3.0, 3.0)
        assert lattice.position(8) == (6.0, 6.0)

    def test_out_of_range_rejected(self):
        lattice = SquareLattice(2, 2, 1.0)
        with pytest.raises(ValueError):
            lattice.position(4)
        with pytest.raises(ValueError):
            lattice.site_at(2, 0)

    def test_positions_list(self):
        lattice = SquareLattice(2, 2, 1.0)
        assert lattice.positions() == [(0, 0), (1, 0), (0, 1), (1, 1)]


class TestDistances:
    def test_euclidean_distance(self):
        lattice = SquareLattice(3, 3, 3.0)
        assert lattice.euclidean_distance(0, 1) == pytest.approx(3.0)
        assert lattice.euclidean_distance(0, 4) == pytest.approx(3.0 * math.sqrt(2))
        assert lattice.euclidean_distance(0, 8) == pytest.approx(6.0 * math.sqrt(2))

    def test_rectangular_distance(self):
        lattice = SquareLattice(3, 3, 3.0)
        assert lattice.rectangular_distance(0, 8) == pytest.approx(12.0)
        assert lattice.rectangular_distance(0, 1) == pytest.approx(3.0)

    def test_distance_symmetry(self):
        lattice = SquareLattice(4, 4, 2.0)
        for a, b in [(0, 7), (3, 12), (5, 10)]:
            assert lattice.euclidean_distance(a, b) == lattice.euclidean_distance(b, a)
            assert lattice.rectangular_distance(a, b) == lattice.rectangular_distance(b, a)


class TestNeighbourhoods:
    def test_sites_within_radius_one_spacing(self):
        lattice = SquareLattice(5, 5, 3.0)
        centre = lattice.site_at(2, 2)
        neighbours = lattice.sites_within(centre, 3.0)
        assert len(neighbours) == 4  # von Neumann neighbourhood

    def test_sites_within_radius_two_spacings(self):
        lattice = SquareLattice(7, 7, 3.0)
        centre = lattice.site_at(3, 3)
        # r = 2d covers offsets with dr^2 + dc^2 <= 4: 12 sites
        assert len(lattice.sites_within(centre, 6.0)) == 12

    def test_sites_within_respects_boundaries(self):
        lattice = SquareLattice(5, 5, 3.0)
        corner = lattice.site_at(0, 0)
        assert len(lattice.sites_within(corner, 3.0)) == 2

    def test_zero_radius(self):
        lattice = SquareLattice(3, 3, 1.0)
        assert lattice.sites_within(4, 0.0) == []
        assert lattice.neighbourhood_size(0.0) == 0

    def test_neighbourhood_size_matches_bulk_site(self):
        lattice = SquareLattice(9, 9, 3.0)
        centre = lattice.site_at(4, 4)
        for radius in (3.0, 4.5, 6.0, 7.5):
            assert lattice.neighbourhood_size(radius) == len(lattice.sites_within(centre, radius))

    def test_neighbour_table_pair_count(self):
        lattice = SquareLattice(3, 3, 1.0)
        table = lattice.neighbour_table(1.0)
        pairs = {(site, other) for site, row in enumerate(table)
                 for other in row if site < other}
        assert len(pairs) == 12  # grid edges of a 3x3 lattice
