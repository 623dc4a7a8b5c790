"""Property suite over every trap topology kind.

The topology layer promises a small set of structural invariants that the
routing stack silently relies on; this suite pins them for every kind in
``TOPOLOGY_KINDS`` at once, so a new kind (or a regression in an existing
one) fails loudly:

* neighbour tables are symmetric (adjacency is an undirected relation),
* distance rows agree with the pairwise distance queries,
* the zone partition covers every site exactly once,
* numpy-kernel distance rows are bit-identical to the scalar formulas,
* vectorised neighbour tables equal per-site scans under the zone rules.
"""

from __future__ import annotations

import math

import pytest

from repro.hardware import (
    TOPOLOGY_KINDS,
    GridTopology,
    RectangularLattice,
    SquareLattice,
    Zone,
    ZonedTopology,
    banded_zone_layout,
    build_topology,
)

#: Representative instances per topology kind — every kind must appear
#: here (enforced by TestTopologyKinds.test_every_kind_is_covered).
SAMPLE_TOPOLOGIES = [
    SquareLattice(5, 5, 3.0),
    SquareLattice(7, 7, 0.3),
    SquareLattice(6, 9, 2.5),
    RectangularLattice(5, 9, spacing_x=3.0, spacing_y=2.0),
    RectangularLattice(8, 4, spacing_x=1.1, spacing_y=2.7),
    ZonedTopology(banded_zone_layout(9), 9, 3.0, corridor_transit_um=3.0),
    ZonedTopology((Zone("s", "storage", 2),
                   Zone("e1", "entangling", 3),
                   Zone("mid", "storage", 2),
                   Zone("e2", "entangling", 2, interaction_radius=1.5)),
                  7, 2.5, corridor_transit_um=5.0),
]

RADII = (2.0, 3.0, 4.5, 7.5)


def _ids(topology):
    return repr(topology)


class TestTopologyKinds:
    def test_every_kind_is_covered(self):
        covered = {type(topology).kind for topology in SAMPLE_TOPOLOGIES}
        assert covered == set(TOPOLOGY_KINDS)
        assert TOPOLOGY_KINDS == ("square", "rectangular", "zoned")

    def test_build_topology_round_trips_each_kind(self):
        square = build_topology("square", 6, spacing=2.0)
        assert square.kind == "square" and square.rows == square.cols == 6
        rect = build_topology("rectangular", 5, cols=8, spacing=3.0, spacing_y=1.5)
        assert rect.kind == "rectangular" and (rect.rows, rect.cols) == (5, 8)
        zoned = build_topology("zoned", 9, spacing=3.0)
        assert zoned.kind == "zoned" and zoned.rows == 9
        # Default corridor transit: one lattice constant per crossing.
        assert zoned.corridor_transit_um == 3.0
        for kind in TOPOLOGY_KINDS:
            assert build_topology(kind, 9).kind == kind
        with pytest.raises(ValueError) as error:
            build_topology("hexagonal", 5)
        assert str(error.value).endswith(
            f"choose from {list(TOPOLOGY_KINDS)}")

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_site_predicates_reject_sites_outside_the_lattice(self, kind):
        # Negative sites must not wrap to the last band and huge ones must
        # not slip through as entangling traps.
        topology = build_topology(kind, 9)
        for site in (-5, -1, topology.num_sites, 10**6):
            with pytest.raises(ValueError, match="outside lattice"):
                topology.is_entangling_site(site)
            with pytest.raises(ValueError, match="outside lattice"):
                topology.zone_of(site)
        last = topology.num_sites - 1
        assert topology.is_entangling_site(last) == (
            last in topology.entangling_sites())

    def test_isotropic_kinds_reject_anisotropic_spacing(self):
        # Silently dropping spacing_y would let unequal specs describe the
        # same physical device; isotropic families must refuse it.
        with pytest.raises(ValueError):
            build_topology("square", 6, spacing=3.0, spacing_y=2.0)
        with pytest.raises(ValueError):
            build_topology("zoned", 9, spacing=3.0, spacing_y=2.0)
        # An explicitly isotropic spacing_y is redundant but harmless.
        assert build_topology("square", 6, spacing=3.0, spacing_y=3.0).kind == "square"

    def test_storage_zone_rejects_positive_interaction_radius(self):
        # A band that hosts gates is an entangling band; storage traps with
        # interaction adjacency would contradict the zone predicates.
        with pytest.raises(ValueError, match="storage zone"):
            Zone("s", "storage", 3, interaction_radius=2.5)
        # Explicit zero is the storage default, spelled out.
        assert Zone("s", "storage", 3, interaction_radius=0.0).interaction_radius == 0.0

    def test_zoned_layout_must_agree_with_requested_rows(self):
        # A layout spanning fewer rows than requested must fail loudly at
        # the source instead of silently building a smaller device.
        with pytest.raises(ValueError, match="zone layout spans"):
            build_topology("zoned", 15,
                           zone_layout=(("storage", 3), ("entangling", 3),
                                        ("storage", 3)))
        agreeing = build_topology("zoned", 9,
                                  zone_layout=(("storage", 3), ("entangling", 3),
                                               ("storage", 3)))
        assert agreeing.rows == 9

    def test_cache_keys_distinguish_the_samples(self):
        keys = [topology.cache_key() for topology in SAMPLE_TOPOLOGIES]
        assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("topology", SAMPLE_TOPOLOGIES, ids=_ids)
class TestTopologyProperties:
    def test_neighbour_tables_symmetric(self, topology):
        for radius in RADII:
            table = topology.neighbour_table(radius)
            assert len(table) == topology.num_sites
            for site, neighbours in enumerate(table):
                for other in neighbours:
                    assert site != other
                    assert site in table[other], (
                        f"asymmetric neighbourhood at radius {radius}: "
                        f"{site} -> {other}")

    def test_interaction_tables_symmetric(self, topology):
        for radius in RADII:
            table = topology.interaction_neighbour_table(radius)
            for site, neighbours in enumerate(table):
                for other in neighbours:
                    assert site in table[other]

    def test_neighbour_table_rows_match_per_site_scan(self, topology):
        for radius in RADII:
            table = topology.neighbour_table(radius)
            for site in range(topology.num_sites):
                assert list(table[site]) == topology.sites_within(site, radius)

    def test_euclidean_rows_consistent_with_pairwise_distance(self, topology):
        for site in range(topology.num_sites):
            row = topology.euclidean_row(site)
            assert len(row) == topology.num_sites
            for other in range(topology.num_sites):
                assert row[other] == topology.euclidean_distance(site, other)
            assert row[site] == 0.0

    def test_rectangular_rows_consistent_with_pairwise_distance(self, topology):
        for site in range(topology.num_sites):
            row = topology.rectangular_row(site)
            for other in range(topology.num_sites):
                assert row[other] == topology.rectangular_distance(site, other)

    def test_euclidean_rows_bit_identical_to_scalar_formula(self, topology):
        positions = topology.positions()
        for site in range(topology.num_sites):
            row = topology.euclidean_row(site)
            x, y = positions[site]
            for other, (px, py) in enumerate(positions):
                assert row[other] == math.hypot(x - px, y - py)

    def test_plain_rectangular_metric_bit_identical_to_scalar_formula(self, topology):
        # The *grid* metric (numpy kernel vs scalar |dx|+|dy|).  Zoned
        # topologies layer corridor penalties on top; peel them off via the
        # documented crossing count so the base metric stays pinned.
        positions = topology.positions()
        for site in range(topology.num_sites):
            row = topology.rectangular_row(site)
            x, y = positions[site]
            for other, (px, py) in enumerate(positions):
                expected = abs(x - px) + abs(y - py)
                if isinstance(topology, ZonedTopology):
                    expected += (topology.corridor_transit_um
                                 * topology.zone_crossings(site, other))
                assert row[other] == expected

    def test_zone_partition_covers_every_site_exactly_once(self, topology):
        partition = topology.zone_partition()
        assert len(partition) == topology.num_zones
        seen = [site for group in partition for site in group]
        assert sorted(seen) == list(range(topology.num_sites))
        assert len(seen) == len(set(seen))
        for zone_index, group in enumerate(partition):
            for site in group:
                assert topology.zone_of(site) == zone_index

    def test_entangling_sites_consistent_with_predicate(self, topology):
        entangling = set(topology.entangling_sites())
        for site in range(topology.num_sites):
            assert (site in entangling) == topology.is_entangling_site(site)
        assert topology.all_sites_entangling == (
            len(entangling) == topology.num_sites)

    def test_interaction_predicate_matches_table(self, topology):
        for radius in RADII:
            table = topology.interaction_neighbour_table(radius)
            for site in range(topology.num_sites):
                members = set(table[site])
                for other in range(topology.num_sites):
                    if other == site:
                        continue
                    assert topology.can_interact_within(site, other, radius) == \
                        (other in members)

    def test_restriction_predicate_matches_table(self, topology):
        for radius in RADII:
            table = topology.restriction_neighbour_table(radius)
            assert len(table) == topology.num_sites
            for site in range(topology.num_sites):
                members = set(table[site])
                for other in members:
                    assert site in table[other]
                for other in range(topology.num_sites):
                    if other == site:
                        continue
                    assert topology.within_restriction_of(site, other, radius) == \
                        (other in members)


#: (kind, build_topology kwargs) per topology kind, at plain and
#: inexact spacings; the last zoned case overrides both radii per zone.
TABLE_CASES = [
    ("square", dict(spacing=3.0)),
    ("square", dict(spacing=0.3)),
    ("rectangular", dict(cols=9, spacing=3.0, spacing_y=2.0)),
    ("zoned", dict(spacing=3.0)),
    ("zoned", dict(spacing=1.1, zone_layout=(
        Zone("s", "storage", 2, restriction_radius=1.0),
        Zone("e1", "entangling", 3),
        Zone("e2", "entangling", 2, interaction_radius=1.5,
             restriction_radius=2.5)))),
]


def _zone_radius(topology, site: int, override: str, radius_um: float,
                 storage_default: float) -> float:
    """Effective radius of ``site`` under the zone rules: the zone's
    override in units of d, else the device radius (``storage_default``
    for storage traps)."""
    if not isinstance(topology, ZonedTopology):
        return radius_um
    zone = topology.zones[topology.zone_of(site)]
    value = getattr(zone, override)
    if value is not None:
        return value * topology.spacing
    return storage_default if zone.band_kind == "storage" else radius_um


class TestNeighbourTables:
    """Vectorised neighbour tables and distance rows against per-site
    scans, zone rules and the scalar rectangular formula."""

    def test_every_kind_is_covered(self):
        assert {kind for kind, _ in TABLE_CASES} == set(TOPOLOGY_KINDS)

    @pytest.mark.parametrize("kind,kwargs", TABLE_CASES)
    def test_tables_match_per_site_scans(self, kind, kwargs):
        topology = build_topology(kind, 7, **kwargs)
        sites = range(topology.num_sites)
        for radius in RADII:
            assert topology.neighbour_table(radius) == [
                tuple(topology.sites_within(site, radius)) for site in sites]
            interaction = []
            for site in sites:
                reach = _zone_radius(topology, site, "interaction_radius",
                                     radius, 0.0)
                interaction.append(tuple(
                    other for other in topology.sites_within(site, reach)
                    if topology.euclidean_distance(site, other) <= min(
                        reach, _zone_radius(topology, other,
                                            "interaction_radius", radius,
                                            0.0)) + 1e-9))
            assert topology.interaction_neighbour_table(radius) == interaction
            assert topology.restriction_neighbour_table(radius) == [
                tuple(topology.sites_within(site, _zone_radius(
                    topology, site, "restriction_radius", radius, radius)))
                for site in sites]

    @pytest.mark.parametrize("kind,kwargs", TABLE_CASES)
    def test_rectangular_rows_match_scalar_formula(self, kind, kwargs):
        topology = build_topology(kind, 7, **kwargs)
        positions = topology.positions()
        for site in range(topology.num_sites):
            row = topology.rectangular_row(site)
            x, y = positions[site]
            expected = []
            for other, (px, py) in enumerate(positions):
                value = abs(x - px) + abs(y - py)
                if topology.has_travel_penalties:
                    value += (topology.corridor_transit_um
                              * topology.zone_crossings(site, other))
                expected.append(value)
            assert [value.hex() for value in row] == \
                [value.hex() for value in expected]


class TestGridTopologyValidation:
    def test_rejects_degenerate_dimensions(self):
        with pytest.raises(ValueError):
            GridTopology(0, 5)
        with pytest.raises(ValueError):
            GridTopology(5, 0)
        with pytest.raises(ValueError):
            GridTopology(5, 5, spacing_x=0.0)
        with pytest.raises(ValueError):
            GridTopology(5, 5, spacing_x=3.0, spacing_y=-1.0)

    def test_anisotropic_positions(self):
        grid = RectangularLattice(4, 6, spacing_x=2.0, spacing_y=5.0)
        assert grid.position(0) == (0.0, 0.0)
        assert grid.position(grid.site_at(2, 3)) == (6.0, 10.0)
        assert grid.spacing == 2.0  # lattice constant d = min pitch

    def test_anisotropic_offsets_use_per_axis_pitch(self):
        grid = RectangularLattice(5, 5, spacing_x=1.0, spacing_y=10.0)
        centre = grid.site_at(2, 2)
        # radius 2 um reaches two columns but no other row
        neighbours = grid.sites_within(centre, 2.0)
        assert neighbours == [grid.site_at(2, 0), grid.site_at(2, 1),
                              grid.site_at(2, 3), grid.site_at(2, 4)]
