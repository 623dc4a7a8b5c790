"""Tests for the keyed per-architecture artifact cache."""

import pytest

from repro.service import ArchitectureCache, ArchitectureSpec
from repro.workloads import (
    PAPER_SIZES,
    lattice_rows_for,
    scaled_atom_count,
    scaled_register_size,
)


class TestArchitectureSpec:
    def test_build_matches_preset(self):
        spec = ArchitectureSpec("mixed", lattice_rows=7, num_atoms=30)
        architecture = spec.build()
        assert architecture.name == "mixed"
        assert architecture.lattice.rows == 7
        assert architecture.num_atoms == 30

    def test_scaled_spec_matches_shared_workload_sizing(self):
        spec = ArchitectureSpec.scaled("gate", 0.15)
        sizes = [scaled_register_size(name, 0.15) for name in PAPER_SIZES]
        assert spec.num_atoms == scaled_atom_count(0.15, sizes)
        assert spec.lattice_rows == lattice_rows_for(spec.num_atoms)
        built = spec.build()
        assert built.num_atoms == spec.num_atoms
        assert built.lattice.rows == spec.lattice_rows

    def test_spec_is_hashable_and_value_equal(self):
        a = ArchitectureSpec("mixed", lattice_rows=7, num_atoms=30)
        b = ArchitectureSpec("mixed", lattice_rows=7, num_atoms=30)
        assert a == b and hash(a) == hash(b)
        assert a != ArchitectureSpec("gate", lattice_rows=7, num_atoms=30)

    def test_unknown_preset_fails_at_build_time(self):
        with pytest.raises(ValueError):
            ArchitectureSpec("warp-drive").build()


class TestTopologyIdentityInCacheKey:
    """Regression: specs agreeing on hardware/scale but differing in trap
    topology must never collide in the architecture cache."""

    def test_square_and_zoned_specs_never_equal(self):
        square = ArchitectureSpec.scaled("mixed", 0.15)
        zoned = ArchitectureSpec.scaled("mixed", 0.15, topology="zoned")
        assert square != zoned
        assert hash(square) != hash(zoned)
        assert square.topology == "square" and zoned.topology == "zoned"

    def test_square_and_zoned_specs_get_distinct_cache_entries(self):
        cache = ArchitectureCache()
        square_arch, _ = cache.get(
            ArchitectureSpec("mixed", lattice_rows=9, num_atoms=30))
        zoned_arch, _ = cache.get(
            ArchitectureSpec("mixed", lattice_rows=9, num_atoms=30,
                             topology="zoned"))
        assert len(cache) == 2
        assert square_arch.lattice.kind == "square"
        assert zoned_arch.lattice.kind == "zoned"

    def test_zone_layout_and_corridor_are_part_of_the_key(self):
        base = ArchitectureSpec("mixed", lattice_rows=9, num_atoms=30,
                                topology="zoned")
        layout = ArchitectureSpec(
            "mixed", lattice_rows=9, num_atoms=30, topology="zoned",
            zone_layout=(("storage", 2), ("entangling", 5), ("storage", 2)))
        corridor = ArchitectureSpec("mixed", lattice_rows=9, num_atoms=30,
                                    topology="zoned", corridor_transit_um=9.0)
        assert len({base, layout, corridor}) == 3

    def test_rectangular_dims_and_spacing_are_part_of_the_key(self):
        square = ArchitectureSpec("mixed", lattice_rows=9, num_atoms=30)
        rect = ArchitectureSpec("mixed", lattice_rows=9, num_atoms=30,
                                topology="rectangular", lattice_cols=12,
                                spacing_y=2.0)
        assert square != rect
        architecture = rect.build()
        assert architecture.lattice.kind == "rectangular"
        assert architecture.lattice.cols == 12
        assert architecture.lattice.spacing_y == 2.0

    def test_isotropic_spellings_of_one_grid_share_one_entry(self):
        # spacing_y equal to spacing, and topology="rectangular" without
        # anisotropy, are alternate spellings of the plain square lattice;
        # all three must normalise to one spec, one cache entry and one
        # store key.
        plain = ArchitectureSpec("mixed", lattice_rows=9, num_atoms=30)
        spelled = ArchitectureSpec("mixed", lattice_rows=9, num_atoms=30,
                                   spacing_y=3.0)
        rect = ArchitectureSpec("mixed", lattice_rows=9, num_atoms=30,
                                topology="rectangular", spacing_y=3.0)
        assert plain == spelled == rect
        assert plain.topology == rect.topology == "square"
        assert plain.store_key() == rect.store_key()
        cache = ArchitectureCache()
        first, _ = cache.get(plain)
        second, _ = cache.get(rect)
        assert first is second and len(cache) == 1

    def test_anisotropic_grids_sharing_min_spacing_never_collide(self):
        # Both grids have min(spacing_x, spacing_y) == 2.0; folding the pair
        # into a single spacing would collide them.
        tall = ArchitectureSpec("mixed", lattice_rows=9, num_atoms=30,
                                topology="rectangular", spacing=2.0,
                                spacing_y=3.0)
        wide = ArchitectureSpec("mixed", lattice_rows=9, num_atoms=30,
                                topology="rectangular", spacing=3.0,
                                spacing_y=2.0)
        assert tall != wide
        assert tall.store_key() != wide.store_key()
        assert tall.build().lattice.cache_key() != wide.build().lattice.cache_key()

    def test_zoned_only_params_rejected_on_unzoned_topologies(self):
        # build_topology used to drop these silently, letting two unequal
        # specs build one physical device.
        with pytest.raises(ValueError, match="no zones"):
            ArchitectureSpec("mixed", lattice_rows=9, num_atoms=30,
                             zone_layout=(("storage", 3), ("entangling", 6)))
        with pytest.raises(ValueError, match="no zones"):
            ArchitectureSpec("mixed", lattice_rows=9, num_atoms=30,
                             topology="rectangular", spacing_y=2.0,
                             corridor_transit_um=9.0)

    def test_zoned_preset_spec_normalises_topology(self):
        # hardware="zoned" with the default topology and an explicit
        # topology="zoned" are the same device; they must hash equally.
        implicit = ArchitectureSpec("zoned", lattice_rows=9, num_atoms=30)
        explicit = ArchitectureSpec("zoned", lattice_rows=9, num_atoms=30,
                                    topology="zoned")
        assert implicit == explicit and hash(implicit) == hash(explicit)
        assert implicit.topology == "zoned"

    def test_spelled_out_defaults_alias_with_unset_fields(self):
        # The built-in defaults (corridor = one lattice constant, banded
        # storage/entangling/storage layout) build the identical device, so
        # the explicit and implicit spellings must share one cache entry.
        implicit = ArchitectureSpec("zoned", lattice_rows=9, num_atoms=30)
        explicit = ArchitectureSpec(
            "zoned", lattice_rows=9, num_atoms=30, corridor_transit_um=3.0,
            zone_layout=(("storage", 3), ("entangling", 3), ("storage", 3)))
        assert implicit == explicit and hash(implicit) == hash(explicit)
        cache = ArchitectureCache()
        first, _ = cache.get(implicit)
        second, _ = cache.get(explicit)
        assert first is second and len(cache) == 1

    def test_zone_layout_normalised_from_lists(self):
        from_lists = ArchitectureSpec(
            "mixed", lattice_rows=9, num_atoms=30, topology="zoned",
            zone_layout=[["storage", 3], ["entangling", 3], ["storage", 3]])
        from_tuples = ArchitectureSpec(
            "mixed", lattice_rows=9, num_atoms=30, topology="zoned",
            zone_layout=(("storage", 3), ("entangling", 3), ("storage", 3)))
        assert from_lists == from_tuples
        assert hash(from_lists) == hash(from_tuples)


class TestArchitectureCache:
    def test_same_spec_returns_identical_objects(self):
        cache = ArchitectureCache()
        spec = ArchitectureSpec("mixed", lattice_rows=6, num_atoms=20)
        first_arch, first_conn = cache.get(spec)
        second_arch, second_conn = cache.get(ArchitectureSpec(
            "mixed", lattice_rows=6, num_atoms=20))
        assert first_arch is second_arch
        assert first_conn is second_conn
        assert len(cache) == 1

    def test_distinct_specs_get_distinct_entries(self):
        cache = ArchitectureCache()
        cache.get(ArchitectureSpec("mixed", lattice_rows=6, num_atoms=20))
        cache.get(ArchitectureSpec("gate", lattice_rows=6, num_atoms=20))
        assert len(cache) == 2

    def test_prewarm_builds_everything(self):
        cache = ArchitectureCache()
        specs = [ArchitectureSpec("mixed", lattice_rows=6, num_atoms=20),
                 ArchitectureSpec("shuttling", lattice_rows=6, num_atoms=20)]
        cache.prewarm(specs)
        assert all(spec in cache for spec in specs)

    def test_clear_empties_the_cache(self):
        cache = ArchitectureCache()
        spec = ArchitectureSpec("mixed", lattice_rows=6, num_atoms=20)
        cache.get(spec)
        cache.clear()
        assert len(cache) == 0 and spec not in cache
