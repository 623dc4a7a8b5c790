"""Trap topologies: row-major grids of optical traps.

The paper evaluates the hybrid gate/shuttling trade-off on a regular square
lattice (Section 2.1).  The routers only consume *geometric queries* — site
positions, distances, radius neighbourhoods — plus, for multi-zone systems,
*zone capabilities* (which traps may host entangling gates, what extra
transit a shuttle pays for crossing a zone corridor).

Every layout is a :class:`GridTopology`:

* :class:`GridTopology` — the row-major grid (anisotropic ``spacing_x`` /
  ``spacing_y``) with its caches (positions, per-radius offset rings,
  lazily filled distance rows, vectorised neighbour tables) and zone hooks
  that default to the unzoned single-region behaviour.
* :class:`SquareLattice` — the paper's ``l x l`` lattice with lattice
  constant ``d``, kind ``"square"``.
* :class:`RectangularLattice` — ``rows != cols`` grids with anisotropic
  spacing, kind ``"rectangular"``.
* :class:`Zone` / :class:`ZonedTopology` — storage + entangling bands with
  per-zone interaction/restriction radii and a configurable corridor transit
  penalty, kind ``"zoned"``.  Storage traps hold atoms but cannot host
  entangling gates; the mapper shuttles gate qubits into an entangling zone
  (cf. multi-zone trap systems such as the AQT multi-zone router).

:func:`build_topology` instantiates one of :data:`TOPOLOGY_KINDS` from flat
parameters.

Bit-identity contract
---------------------
For isotropic grids every code path — offset rings, distance rows, the
numpy kernels — is the exact code the square lattice always ran, so the
golden op-stream digests of the square presets are unchanged.  Anisotropic
and zoned behaviour only engages through their own parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Tuple,
                    Union)

import numpy as _np

__all__ = [
    "Position",
    "GridTopology",
    "SquareLattice",
    "RectangularLattice",
    "Zone",
    "ZonedTopology",
    "TOPOLOGY_KINDS",
    "build_topology",
    "banded_zone_layout",
    "zones_from_layout",
    "ZoneLayout",
]

Position = Tuple[float, float]

#: Geometric tolerance shared by every radius predicate (matches the
#: historical square-lattice implementation bit for bit).
_EPSILON = 1e-9

#: Serialisable zone layout: ``((kind, rows), ...)`` or full ``Zone`` tuples.
ZoneLayout = Tuple[Tuple[str, int], ...]


class GridTopology:
    """Row-major ``rows x cols`` grid of optical traps.

    Coordinate indices run row-major: index ``alpha`` sits at row
    ``alpha // cols`` and column ``alpha % cols``, i.e. at physical position
    ``(col * spacing_x, row * spacing_y)`` in micrometres.  ``spacing`` (the
    lattice constant ``d`` used for radius conversions) is the smaller of
    the two pitches; for isotropic grids all three coincide and every code
    path below is exactly the historical square-lattice implementation.

    The zone hooks have single-region defaults, which :class:`ZonedTopology`
    overrides: every site may host entangling gates, the interaction and
    restriction neighbour tables are the plain geometric radius
    neighbourhoods, and travel distances carry no corridor penalties.
    """

    #: Topology family (one of :data:`TOPOLOGY_KINDS` for the subclasses).
    kind = "grid"

    def __init__(self, rows: int, cols: Optional[int] = None,
                 spacing_x: float = 3.0,
                 spacing_y: Optional[float] = None) -> None:
        if rows <= 0:
            raise ValueError("lattice needs at least one row")
        cols = cols if cols is not None else rows
        if cols <= 0:
            raise ValueError("lattice needs at least one column")
        spacing_y = spacing_y if spacing_y is not None else spacing_x
        if spacing_x <= 0 or spacing_y <= 0:
            raise ValueError("lattice spacing must be positive")
        self.rows = int(rows)
        self.cols = int(cols)
        self.spacing_x = float(spacing_x)
        self.spacing_y = float(spacing_y)
        #: Lattice constant ``d`` used to convert radii given in units of
        #: ``d`` to micrometres (the smaller pitch for anisotropic grids).
        self.spacing = min(self.spacing_x, self.spacing_y)
        self._num_sites = self.rows * self.cols
        # Geometry caches.  Site positions never change, so they are computed
        # once; radius neighbourhoods are memoised per (site, radius) because
        # the routers query the same few radii over and over.
        self._positions: List[Position] = [
            ((site % self.cols) * self.spacing_x,
             (site // self.cols) * self.spacing_y)
            for site in range(self._num_sites)
        ]
        self._sites_within_cache: Dict[Tuple[int, float], List[int]] = {}
        self._radius_offsets_cache: Dict[float, List[Tuple[int, int]]] = {}
        self._offset_arrays_cache: Dict[float, Tuple[Any, Any]] = {}
        self._neighbour_table_cache: Dict[float, List[Tuple[int, ...]]] = {}
        self._euclidean_rows: List[Optional[List[float]]] = [None] * self._num_sites
        self._rectangular_rows: List[Optional[List[float]]] = [None] * self._num_sites
        self._rect_row_arrays: Dict[int, Any] = {}
        # numpy row-vector kernel: per-axis coordinate arrays, used to fill
        # rectangular-distance rows in one vectorised expression (exact for
        # any spacing — see rectangular_row).  Euclidean rows intentionally
        # stay scalar: vectorised sqrt differs from math.hypot in the last
        # bit on non-representable coordinates.
        self._xs = _np.fromiter((p[0] for p in self._positions), dtype=_np.float64,
                                count=self._num_sites)
        self._ys = _np.fromiter((p[1] for p in self._positions), dtype=_np.float64,
                                count=self._num_sites)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_sites(self) -> int:
        """Total number of trap coordinates ``|C|``."""
        return self._num_sites

    def __len__(self) -> int:
        return self._num_sites

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._num_sites))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}({self.rows}x{self.cols}, "
                f"dx={self.spacing_x} um, dy={self.spacing_y} um)")

    def cache_key(self) -> Tuple:
        kind = self.kind
        if kind == "rectangular" and self.spacing_x == self.spacing_y:
            # An isotropic rectangular grid is physically a square lattice:
            # fold the family name so the two spellings of one device share
            # cache/store identities.  Anisotropic grids keep their own kind
            # (and both pitches are part of the key, so two grids sharing
            # only a minimum spacing never collide).
            kind = "square"
        return (kind, self.rows, self.cols, self.spacing_x, self.spacing_y)

    # ------------------------------------------------------------------
    # Index <-> geometry conversions
    # ------------------------------------------------------------------
    def row_col(self, site: int) -> Tuple[int, int]:
        """Return the ``(row, col)`` grid coordinates of a site index."""
        self._check_site(site)
        return divmod(site, self.cols)

    def site_at(self, row: int, col: int) -> int:
        """Return the site index at grid coordinates ``(row, col)``."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"grid coordinates ({row}, {col}) outside "
                             f"{self.rows}x{self.cols} lattice")
        return row * self.cols + col

    def position(self, site: int) -> Position:
        """Physical ``(x, y)`` position of a site in micrometres."""
        self._check_site(site)
        return self._positions[site]

    def positions(self) -> List[Position]:
        """Positions of all sites in index order."""
        return list(self._positions)

    def _check_site(self, site: int) -> None:
        if not 0 <= site < self._num_sites:
            raise ValueError(f"site {site} outside lattice with {self._num_sites} sites")

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def euclidean_distance(self, site_a: int, site_b: int) -> float:
        """Euclidean distance between two sites in micrometres."""
        if site_a < 0 or site_b < 0:  # list indexing would silently wrap
            self._check_site(site_a)
            self._check_site(site_b)
        xa, ya = self._positions[site_a]
        xb, yb = self._positions[site_b]
        return math.hypot(xa - xb, ya - yb)

    def rectangular_distance(self, site_a: int, site_b: int) -> float:
        """Manhattan (x-then-y) travel distance between two sites in micrometres.

        AOD moves displace the activated row and column independently, so the
        shuttling time of a single move is governed by this rectangular
        distance ``s(M)``.
        """
        if site_a < 0 or site_b < 0:  # list indexing would silently wrap
            self._check_site(site_a)
            self._check_site(site_b)
        xa, ya = self._positions[site_a]
        xb, yb = self._positions[site_b]
        return abs(xa - xb) + abs(ya - yb)

    def euclidean_row(self, site: int) -> List[float]:
        """Euclidean distances from ``site`` to every site (lazily cached row).

        Returned by reference for hot loops (the shuttling cost function
        evaluates millions of point distances); callers must not mutate it.
        The values are bit-identical to :meth:`euclidean_distance`.  The
        fill deliberately stays on ``math.hypot``: a vectorised
        ``sqrt(dx*dx + dy*dy)`` differs from ``hypot`` in the last bit for
        coordinates that are not exactly representable (e.g. spacing 0.3),
        which would shift routing decisions the golden digests pin.  Row
        construction is one-time per site, so the scalar loop costs nothing
        in the steady state.
        """
        self._check_site(site)
        row = self._euclidean_rows[site]
        if row is None:
            x, y = self._positions[site]
            row = [math.hypot(x - px, y - py) for px, py in self._positions]
            self._euclidean_rows[site] = row
        return row

    def rectangular_row(self, site: int) -> List[float]:
        """Rectangular (Manhattan) distances from ``site`` to every site (cached).

        The numpy kernel is exact here for any spacing: subtraction, ``abs``
        and addition are single correctly-rounded IEEE operations, so the
        vectorised row is bit-identical to the scalar formula (asserted by
        the hardware kernel tests).  Zoned topologies override this with
        the *travel* metric including corridor penalties; the plain grid
        metric and the travel metric coincide here.
        """
        self._check_site(site)
        row = self._rectangular_rows[site]
        if row is None:
            x, y = self._positions[site]
            row = (_np.abs(x - self._xs) + _np.abs(y - self._ys)).tolist()
            self._rectangular_rows[site] = row
        return row

    def rectangular_row_array(self, site: int):
        """:meth:`rectangular_row` as a cached float64 numpy array.

        Values are taken verbatim from the scalar row (bit-identical,
        including zoned travel penalties via the subclass override), so
        vectorised argmin/argsort selections over the array reproduce the
        scalar comparisons exactly.  Returned by reference; callers must
        not mutate it.
        """
        array = self._rect_row_arrays.get(site)
        if array is None:
            array = _np.asarray(self.rectangular_row(site), dtype=_np.float64)
            self._rect_row_arrays[site] = array
        return array

    # ------------------------------------------------------------------
    # Neighbourhoods
    # ------------------------------------------------------------------
    def _radius_offsets(self, radius: float) -> List[Tuple[int, int]]:
        """In-radius ``(dr, dc)`` grid offsets in scan order (memoised).

        The distance predicate is evaluated once per offset instead of once
        per (site, offset); the values and ordering are exactly those of the
        historical per-site bounding-box scan.  The isotropic branch keeps
        the historical formula ``hypot(dr, dc) * spacing`` verbatim — it is
        the reference the golden digests pin; the anisotropic branch scales
        each axis by its own pitch before the hypotenuse.
        """
        cached = self._radius_offsets_cache.get(radius)
        if cached is None:
            if self.spacing_x == self.spacing_y:
                spacing = self.spacing_x
                reach = int(math.floor(radius / spacing + _EPSILON))
                cached = [
                    (dr, dc)
                    for dr in range(-reach, reach + 1)
                    for dc in range(-reach, reach + 1)
                    if (dr, dc) != (0, 0)
                    and math.hypot(dr, dc) * spacing <= radius + _EPSILON
                ]
            else:
                reach_r = int(math.floor(radius / self.spacing_y + _EPSILON))
                reach_c = int(math.floor(radius / self.spacing_x + _EPSILON))
                cached = [
                    (dr, dc)
                    for dr in range(-reach_r, reach_r + 1)
                    for dc in range(-reach_c, reach_c + 1)
                    if (dr, dc) != (0, 0)
                    and math.hypot(dc * self.spacing_x,
                                   dr * self.spacing_y) <= radius + _EPSILON
                ]
            self._radius_offsets_cache[radius] = cached
        return cached

    def radius_offset_arrays(self, radius: float):
        """The in-radius ``(dr, dc)`` offsets as two int64 arrays, in scan order.

        Adding them to a site's ``(row, col)`` and dropping out-of-bounds
        results yields exactly :meth:`sites_within` in ascending site order,
        so a batch of neighbourhoods can be gathered without a per-site
        table.  Returned by reference; callers must not mutate them.
        """
        arrays = self._offset_arrays_cache.get(radius)
        if arrays is None:
            offsets = self._radius_offsets(radius) if radius > 0 else []
            arrays = (_np.fromiter((o[0] for o in offsets), dtype=_np.int64,
                                   count=len(offsets)),
                      _np.fromiter((o[1] for o in offsets), dtype=_np.int64,
                                   count=len(offsets)))
            self._offset_arrays_cache[radius] = arrays
        return arrays

    def sites_within(self, site: int, radius: float) -> List[int]:
        """All sites (excluding ``site`` itself) within Euclidean ``radius``.

        ``radius`` is in micrometres.  The scan is restricted to the shared
        in-radius offset table, so the cost is ``O((radius/d)^2)`` rather
        than the full lattice; results are memoised per ``(site, radius)``
        because the routers probe the same few radii millions of times.
        """
        self._check_site(site)
        if radius <= 0:
            return []
        cached = self._sites_within_cache.get((site, radius))
        if cached is not None:
            return list(cached)
        row, col = self.row_col(site)
        rows, cols = self.rows, self.cols
        found: List[int] = []
        for dr, dc in self._radius_offsets(radius):
            r, c = row + dr, col + dc
            if 0 <= r < rows and 0 <= c < cols:
                found.append(r * cols + c)
        self._sites_within_cache[(site, radius)] = found
        return list(found)

    def neighbour_table(self, radius: float) -> List[Tuple[int, ...]]:
        """:meth:`sites_within` for *every* site at once (memoised).

        The whole table is computed as one broadcast over the in-radius
        offsets (the row-vector kernel the connectivity construction uses).
        Ordering and membership are identical to :meth:`sites_within`.
        """
        cached = self._neighbour_table_cache.get(radius)
        if cached is not None:
            return cached
        drs, dcs = self.radius_offset_arrays(radius)
        if drs.size:
            sites = _np.arange(self._num_sites, dtype=_np.int64)
            r = sites[:, None] // self.cols + drs[None, :]
            c = sites[:, None] % self.cols + dcs[None, :]
            valid = ((r >= 0) & (r < self.rows) & (c >= 0) & (c < self.cols))
            neighbour = r * self.cols + c
            table = [tuple(neighbour[i, valid[i]].tolist())
                     for i in range(self._num_sites)]
        else:
            table = [() for _ in range(self._num_sites)]
        self._neighbour_table_cache[radius] = table
        return table

    def neighbourhood_size(self, radius: float) -> int:
        """Coordination number ``K_r`` of a bulk site for the given radius."""
        if radius <= 0:
            return 0
        return len(self._radius_offsets(radius))

    # ------------------------------------------------------------------
    # Zone hooks (single-region defaults; ZonedTopology overrides them)
    # ------------------------------------------------------------------
    @property
    def num_zones(self) -> int:
        return 1

    @property
    def all_sites_entangling(self) -> bool:
        """True when every trap may host entangling gates."""
        return True

    @property
    def has_travel_penalties(self) -> bool:
        """True when travel distances exceed the plain rectangular metric."""
        return False

    def zone_of(self, site: int) -> int:
        """Index of the zone containing ``site`` (0 for unzoned layouts)."""
        self._check_site(site)
        return 0

    def is_entangling_site(self, site: int) -> bool:
        """True if entangling (2Q+) gates may execute at ``site``."""
        self._check_site(site)
        return True

    def entangling_sites(self) -> Tuple[int, ...]:
        """All sites where entangling gates may execute, in index order."""
        return tuple(range(self._num_sites))

    def zone_partition(self) -> List[Tuple[int, ...]]:
        """Sites grouped by zone; the groups partition ``range(num_sites)``."""
        return [tuple(range(self._num_sites))]

    def interaction_neighbour_table(self, radius_um: float
                                    ) -> List[Tuple[int, ...]]:
        """Per-site interaction partners under the device radius ``radius_um``.

        The unzoned default is the plain geometric neighbourhood; zoned
        topologies restrict pairs by their zones' capabilities.
        """
        return self.neighbour_table(radius_um)

    def restriction_neighbour_table(self, radius_um: float
                                    ) -> List[Tuple[int, ...]]:
        """Per-site blocked partners when a gate executes at the site."""
        return self.neighbour_table(radius_um)

    def can_interact_within(self, site_a: int, site_b: int,
                            radius_um: float) -> bool:
        """True if atoms at the two sites may share a gate at ``radius_um``."""
        return self.euclidean_distance(site_a, site_b) <= radius_um + _EPSILON

    def within_restriction_of(self, site_a: int, site_b: int,
                              radius_um: float) -> bool:
        """True if an atom at ``site_b`` blocks a gate executing at ``site_a``."""
        return self.euclidean_distance(site_a, site_b) <= radius_um + _EPSILON


class SquareLattice(GridTopology):
    """The paper's regular ``rows x cols`` trap grid with spacing ``d``.

    Section 2.1 assumes the static SLM traps form an ``l x l`` square
    lattice with lattice constant ``d``; this is the isotropic grid
    (``spacing_x == spacing_y == d``).
    """

    kind = "square"

    def __init__(self, rows: int, cols: Optional[int] = None,
                 spacing: float = 3.0) -> None:
        super().__init__(rows, cols, spacing_x=spacing, spacing_y=spacing)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SquareLattice({self.rows}x{self.cols}, d={self.spacing} um)"


class RectangularLattice(GridTopology):
    """``rows x cols`` grid with independent per-axis spacing.

    The geometry generalises the square lattice along both axes: AOD travel
    still decomposes into an x shift and a y shift, so all distance metrics
    carry over unchanged; only the offset rings become anisotropic.
    """

    kind = "rectangular"

    def __init__(self, rows: int, cols: int, spacing_x: float = 3.0,
                 spacing_y: Optional[float] = None) -> None:
        super().__init__(rows, cols, spacing_x=spacing_x, spacing_y=spacing_y)


@dataclass(frozen=True)
class Zone:
    """One horizontal band of a :class:`ZonedTopology`.

    ``interaction_radius`` / ``restriction_radius`` are given in units of
    the lattice constant ``d`` (matching the device parameters); ``None``
    selects the architecture default — except that a storage zone with no
    explicit interaction radius gets ``0`` (its traps only store atoms, no
    entangling gates execute there).
    """

    name: str
    band_kind: str                  # "storage" | "entangling"
    rows: int
    interaction_radius: Optional[float] = None
    restriction_radius: Optional[float] = None

    def __post_init__(self) -> None:
        if self.band_kind not in ("storage", "entangling"):
            raise ValueError(
                f"zone kind must be 'storage' or 'entangling', got {self.band_kind!r}")
        if self.rows <= 0:
            raise ValueError("a zone needs at least one row")
        for field_name in ("interaction_radius", "restriction_radius"):
            value = getattr(self, field_name)
            if value is not None and value < 0:
                raise ValueError(f"zone {field_name} must be non-negative")
        if self.band_kind == "storage" and self.interaction_radius:
            # A storage band with interaction adjacency would let SWAP
            # pulses execute on traps the zone predicates report as
            # non-entangling — contradictory semantics.  A band that hosts
            # gates IS an entangling band; declare it as one.
            raise ValueError(
                "a storage zone cannot have a positive interaction radius; "
                "declare the band as 'entangling' instead")

    @property
    def is_entangling(self) -> bool:
        return self.band_kind == "entangling"


def banded_zone_layout(rows: int) -> Tuple[Zone, ...]:
    """Default storage / entangling / storage split of a ``rows``-row grid.

    The entangling band takes the middle third (rounded up); the storage
    bands flank it.  Requires at least three rows.
    """
    if rows < 3:
        raise ValueError("a banded zone layout needs at least three rows")
    storage = max(rows // 3, 1)
    entangling = rows - 2 * storage
    return (
        Zone("storage-top", "storage", storage),
        Zone("entangling", "entangling", entangling),
        Zone("storage-bottom", "storage", storage),
    )


def zones_from_layout(layout: Union[Sequence[Zone], ZoneLayout]) -> Tuple[Zone, ...]:
    """Normalise a zone layout: ``Zone`` instances pass through, ``(kind,
    rows)`` pairs become default-radius zones named ``<kind>-<index>``."""
    zones: List[Zone] = []
    for index, entry in enumerate(layout):
        if isinstance(entry, Zone):
            zones.append(entry)
        else:
            band_kind, band_rows = entry
            zones.append(Zone(f"{band_kind}-{index}", band_kind, int(band_rows)))
    return tuple(zones)


class ZonedTopology(GridTopology):
    """Grid split into horizontal storage and entangling bands.

    Semantics (cf. multi-zone neutral-atom trap systems):

    * **Entangling zones** host 2Q+ gates; their interaction radius is the
      zone override (in units of ``d``) or the architecture default.
    * **Storage zones** hold atoms but host no entangling gates: their
      effective interaction radius defaults to ``0``, so no interaction
      adjacency involves a storage trap and the executability predicate
      (``sites_mutually_interacting``) structurally confines gates to
      entangling zones.
    * A site pair interacts iff its distance is within **both** sites'
      effective radii (``min`` semantics — symmetric by construction).
    * The restriction neighbourhood of a site uses the *executing* site's
      zone radius: a gate firing in an entangling zone still blocks nearby
      storage traps.
    * **Corridor transit**: every zone boundary a shuttle crosses adds
      ``corridor_transit_um`` to its travel distance (and therefore
      ``corridor_transit_um / v`` to its duration).  The travel metric
      (:meth:`rectangular_distance` / :meth:`rectangular_row`) includes the
      penalty; the Euclidean metric stays pure geometry because it feeds
      the interaction-radius predicates.
    """

    kind = "zoned"

    def __init__(self, zones: Union[Sequence[Zone], ZoneLayout],
                 cols: Optional[int] = None, spacing: float = 3.0,
                 corridor_transit_um: float = 0.0) -> None:
        zone_tuple = zones_from_layout(zones)
        if not zone_tuple:
            raise ValueError("a zoned topology needs at least one zone")
        if not any(zone.is_entangling for zone in zone_tuple):
            raise ValueError("a zoned topology needs at least one entangling zone")
        if corridor_transit_um < 0:
            raise ValueError("corridor transit penalty must be non-negative")
        rows = sum(zone.rows for zone in zone_tuple)
        super().__init__(rows, cols if cols is not None else rows,
                         spacing_x=spacing, spacing_y=spacing)
        self.zones: Tuple[Zone, ...] = zone_tuple
        self.corridor_transit_um = float(corridor_transit_um)
        self._zone_of_row: List[int] = []
        for index, zone in enumerate(zone_tuple):
            self._zone_of_row.extend([index] * zone.rows)
        self._zone_of_site: List[int] = [
            self._zone_of_row[site // self.cols] for site in range(self.num_sites)]
        self._entangling_sites: Tuple[int, ...] = tuple(
            site for site in range(self.num_sites)
            if zone_tuple[self._zone_of_site[site]].is_entangling)
        self._travel_rows: List[Optional[List[float]]] = [None] * self.num_sites
        self._interaction_tables: Dict[float, List[Tuple[int, ...]]] = {}
        self._restriction_tables: Dict[float, List[Tuple[int, ...]]] = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bands = "+".join(f"{zone.band_kind[0]}{zone.rows}" for zone in self.zones)
        return (f"ZonedTopology({self.rows}x{self.cols}, d={self.spacing} um, "
                f"bands={bands}, corridor={self.corridor_transit_um} um)")

    def cache_key(self) -> Tuple:
        return (self.kind, self.rows, self.cols, self.spacing_x, self.spacing_y,
                self.corridor_transit_um,
                tuple((zone.band_kind, zone.rows, zone.interaction_radius,
                       zone.restriction_radius) for zone in self.zones))

    # ------------------------------------------------------------------
    # Zone structure
    # ------------------------------------------------------------------
    @property
    def num_zones(self) -> int:
        return len(self.zones)

    @property
    def all_sites_entangling(self) -> bool:
        return len(self._entangling_sites) == self.num_sites

    @property
    def has_travel_penalties(self) -> bool:
        return self.corridor_transit_um > 0 and self.num_zones > 1

    def zone_of(self, site: int) -> int:
        self._check_site(site)
        return self._zone_of_site[site]

    def zone(self, site: int) -> Zone:
        return self.zones[self.zone_of(site)]

    def is_entangling_site(self, site: int) -> bool:
        return self.zones[self.zone_of(site)].is_entangling

    def entangling_sites(self) -> Tuple[int, ...]:
        return self._entangling_sites

    def zone_partition(self) -> List[Tuple[int, ...]]:
        partition: List[List[int]] = [[] for _ in self.zones]
        for site, zone_index in enumerate(self._zone_of_site):
            partition[zone_index].append(site)
        return [tuple(sites) for sites in partition]

    def zone_crossings(self, site_a: int, site_b: int) -> int:
        """Number of zone corridors a shuttle between the sites crosses."""
        return abs(self._zone_of_site[site_a] - self._zone_of_site[site_b])

    # ------------------------------------------------------------------
    # Effective radii
    # ------------------------------------------------------------------
    def _zone_interaction_um(self, zone: Zone, default_um: float) -> float:
        if zone.interaction_radius is not None:
            return zone.interaction_radius * self.spacing
        return 0.0 if zone.band_kind == "storage" else default_um

    def _zone_restriction_um(self, zone: Zone, default_um: float) -> float:
        if zone.restriction_radius is not None:
            return zone.restriction_radius * self.spacing
        return default_um

    # ------------------------------------------------------------------
    # Capability-aware neighbour tables
    # ------------------------------------------------------------------
    def interaction_neighbour_table(self, radius_um: float
                                    ) -> List[Tuple[int, ...]]:
        cached = self._interaction_tables.get(radius_um)
        if cached is not None:
            return cached
        site_radius = [self._zone_interaction_um(self.zones[index], radius_um)
                       for index in self._zone_of_site]
        max_radius = max(site_radius, default=0.0)
        base = self.neighbour_table(max_radius) if max_radius > 0 else [
            () for _ in range(self.num_sites)]
        table: List[Tuple[int, ...]] = []
        for site in range(self.num_sites):
            radius_a = site_radius[site]
            if radius_a <= 0:
                table.append(())
                continue
            distances = self.euclidean_row(site)
            table.append(tuple(
                other for other in base[site]
                if distances[other] <= min(radius_a, site_radius[other]) + _EPSILON))
        self._interaction_tables[radius_um] = table
        return table

    def restriction_neighbour_table(self, radius_um: float
                                    ) -> List[Tuple[int, ...]]:
        cached = self._restriction_tables.get(radius_um)
        if cached is not None:
            return cached
        table = [tuple(self.sites_within(
            site, self._zone_restriction_um(self.zones[self._zone_of_site[site]],
                                            radius_um)))
            for site in range(self.num_sites)]
        self._restriction_tables[radius_um] = table
        return table

    def can_interact_within(self, site_a: int, site_b: int,
                            radius_um: float) -> bool:
        radius = min(
            self._zone_interaction_um(self.zones[self._zone_of_site[site_a]], radius_um),
            self._zone_interaction_um(self.zones[self._zone_of_site[site_b]], radius_um))
        if radius <= 0:
            return False
        return self.euclidean_distance(site_a, site_b) <= radius + _EPSILON

    def within_restriction_of(self, site_a: int, site_b: int,
                              radius_um: float) -> bool:
        radius = self._zone_restriction_um(
            self.zones[self._zone_of_site[site_a]], radius_um)
        if radius <= 0:
            return False
        return self.euclidean_distance(site_a, site_b) <= radius + _EPSILON

    # ------------------------------------------------------------------
    # Travel metric with corridor penalties
    # ------------------------------------------------------------------
    def rectangular_distance(self, site_a: int, site_b: int) -> float:
        base = super().rectangular_distance(site_a, site_b)
        if not self.has_travel_penalties:
            return base
        return base + self.corridor_transit_um * self.zone_crossings(site_a, site_b)

    def rectangular_row(self, site: int) -> List[float]:
        if not self.has_travel_penalties:
            return super().rectangular_row(site)
        self._check_site(site)
        row = self._travel_rows[site]
        if row is None:
            base = super().rectangular_row(site)
            corridor = self.corridor_transit_um
            zone_of_site = self._zone_of_site
            band = zone_of_site[site]
            # Scalar on purpose: row construction is one-time per site, and
            # the scalar composition is the reference the zoned tests pin.
            row = [value + corridor * abs(zone_of_site[other] - band)
                   for other, value in enumerate(base)]
            self._travel_rows[site] = row
        return row


#: The topology families :func:`build_topology` constructs.
TOPOLOGY_KINDS: Tuple[str, ...] = ("square", "rectangular", "zoned")


def build_topology(kind: str, rows: int, *, cols: Optional[int] = None,
                   spacing: float = 3.0, spacing_y: Optional[float] = None,
                   zone_layout: Optional[Union[Sequence[Zone], ZoneLayout]] = None,
                   corridor_transit_um: Optional[float] = None) -> GridTopology:
    """Instantiate one of :data:`TOPOLOGY_KINDS` from flat parameters.

    The flat signature mirrors :class:`~repro.service.cache.ArchitectureSpec`
    so specs stay picklable; ``corridor_transit_um`` defaults to one lattice
    constant per crossed corridor for zoned layouts.
    """
    lowered = kind.lower()
    if lowered != "zoned" and (zone_layout is not None
                               or corridor_transit_um is not None):
        # Dropping these silently would let two unequal parameter sets build
        # the same physical device (and a corridor sweep report constant
        # results); unzoned families reject them instead.
        raise ValueError(
            f"topology {lowered!r} has no zones; zone_layout and "
            f"corridor_transit_um apply to topology='zoned' only")
    if lowered in ("square", "zoned") and spacing_y is not None \
            and spacing_y != spacing:
        # Silently ignoring the pitch would let two unequal specs describe
        # the same physical device (and a spacing_y sweep report constant
        # results); isotropic families reject it instead.
        raise ValueError(
            f"topology {lowered!r} is isotropic; it cannot honour "
            f"spacing_y={spacing_y} (use topology='rectangular')")
    if lowered == "square":
        return SquareLattice(rows, cols if cols is not None else rows, spacing)
    if lowered == "rectangular":
        return RectangularLattice(rows, cols if cols is not None else rows,
                                  spacing_x=spacing, spacing_y=spacing_y)
    if lowered == "zoned":
        zones = (zones_from_layout(zone_layout) if zone_layout is not None
                 else banded_zone_layout(rows))
        layout_rows = sum(zone.rows for zone in zones)
        if layout_rows != rows:
            # Building with the layout's row count while the caller (and any
            # spec keyed on it) believes in ``rows`` would silently measure
            # a different geometry; fail at the source instead.
            raise ValueError(
                f"zone layout spans {layout_rows} rows but rows={rows} was "
                f"requested; make them agree")
        corridor = corridor_transit_um if corridor_transit_um is not None else spacing
        return ZonedTopology(zones, cols, spacing=spacing,
                             corridor_transit_um=corridor)
    raise ValueError(
        f"unknown topology kind {kind!r}; choose from {list(TOPOLOGY_KINDS)}")
