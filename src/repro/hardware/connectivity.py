"""Connectivity graph over trap sites.

For a fixed atom mapping, the paper defines the connectivity graph
``G = (P, E)`` over the *physical qubits*; two atoms are connected when their
Euclidean distance is at most the interaction radius.  Because atoms move
(shuttling) and swap logical assignments (SWAP gates), the reproduction keeps
the *site-level* adjacency — which never changes — in this module; the
routers read it against the current occupancy held by
:class:`~repro.mapping.state.MappingState`.

:class:`SiteConnectivity` precomputes, for every trap site, the neighbouring
sites within the interaction radius and within the restriction radius, plus an
all-pairs hop-distance table on the site graph.  The hop distance between the
sites of two atoms minus one is the textbook lower bound on the number of
SWAPs required to make them adjacent, which both cost functions use.

Cost-engine caches
------------------
Because the trap lattice is immutable, every cache in this module is
write-once and never invalidated:

* ``are_adjacent`` is O(1) via a dense boolean adjacency matrix (one
  ``bytearray`` row per site) instead of scanning the neighbour tuple;
* ``interaction_set`` exposes each neighbourhood as a ``frozenset`` for O(1)
  membership tests (read by ``MappingState.consistency_check``);
* the all-pairs hop-distance table is a preallocated list of per-source rows,
  each filled by a single BFS on first use (``hop_row``) and then shared by
  the gate-based router, the shuttling router, and the multi-qubit position
  finder.  Hot loops fetch a whole row once and index it directly rather than
  calling :meth:`hop_distance` per pair;
* ``swap_row`` is the SWAP-distance row ``max(hop - 1, 0)`` derived from a
  hop row on first use: the one definition of "SWAPs needed to make two
  sites adjacent", read by the gate-based router's cost engine and the
  capability decider.  It is 0 exactly for the site itself and its
  interaction neighbours, since both tables come from the same neighbour
  lists (adjacent ⇔ hop 1);
* ``common_interaction_array`` is the sorted zone interacting with every
  site of a kept set, read by the shuttling chain builder.  It is cached
  per unordered site pair (the first two kept sites, which are adjacent,
  so the cache is bounded by the adjacency size); further sites are
  intersected on top;
* ``move_away_order`` lists, per (origin, radius), the sites of the
  move-away discs ordered as the innermost-disc-first scan visits them:
  innermost disc, then the topology's ``rectangular_row`` travel distance,
  then site index.  The first free, non-forbidden site of the order is the
  move-away destination;
* ``later_adjacent_bits`` holds, per anchor, one bitset per interaction
  neighbour marking the *later* neighbours (neighbour-table order) adjacent
  to it: O(coordination) ints per anchor, the whole table the multi-qubit
  position finder's clique search needs.

Every table is built on first use, never in ``__init__``, and every array
it hands out is read-only.

Only the *site-level* structure is cached here; anything that depends on the
mutable atom occupancy (BFS over occupied sites, shortest paths with an
``allowed`` set) is recomputed per query against the caller-supplied
occupancy view maintained incrementally by
:class:`~repro.mapping.state.MappingState`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as _np

from .architecture import NeutralAtomArchitecture
from .topology import _EPSILON

__all__ = ["SiteConnectivity"]


class SiteConnectivity:
    """Precomputed geometric adjacency of the trap topology.

    Parameters
    ----------
    architecture:
        The device description supplying the topology and both radii.
    """

    def __init__(self, architecture: NeutralAtomArchitecture) -> None:
        self.architecture = architecture
        topology = architecture.lattice
        self.num_sites = topology.num_sites

        # Neighbour tables come from the topology.  Unzoned topologies
        # resolve these to the plain geometric radius neighbourhoods built
        # by the numpy row-vector kernel — one broadcast over the in-radius
        # offsets instead of a python scan per site, with
        # membership and ordering identical to per-site ``sites_within``
        # calls.  Zoned topologies additionally restrict pairs by zone
        # capability (storage traps have no interaction partners), so the
        # whole routing stack inherits the zone semantics through this one
        # construction point.
        self._interaction_neighbours: List[Tuple[int, ...]] = list(
            topology.interaction_neighbour_table(architecture.interaction_radius_um))
        self._restriction_neighbours: List[Tuple[int, ...]] = list(
            topology.restriction_neighbour_table(architecture.restriction_radius_um))

        # O(1) adjacency: a dense boolean matrix (bytearray rows) plus the
        # neighbourhoods as frozensets for set algebra.
        self._interaction_sets: List[FrozenSet[int]] = [
            frozenset(neighbours) for neighbours in self._interaction_neighbours]
        # One scatter per site into a reused row buffer: no transient
        # num_sites x num_sites matrix alongside the bytearray rows.
        self._adjacent_rows: List[bytearray] = []
        row_buffer = _np.zeros(self.num_sites, dtype=_np.uint8)
        for neighbours in self._interaction_neighbours:
            row_buffer[:] = 0
            if neighbours:
                row_buffer[list(neighbours)] = 1
            self._adjacent_rows.append(bytearray(row_buffer))

        # Preallocated all-pairs hop-distance table; each row is filled by a
        # single BFS on first use (see hop_row) and reused forever after.
        self._hop_rows: List[Optional[List[int]]] = [None] * self.num_sites
        # Lazy SWAP-distance rows, derived from the hop rows (see swap_row).
        self._swap_rows: List[Optional[List[int]]] = [None] * self.num_sites

        # Lazy per-site interaction neighbourhoods as sorted int64 arrays,
        # for the vectorised chain kernel.
        self._interaction_arrays: List = [None] * self.num_sites
        # Lazy multi-qubit routing tables (see the module docstring).
        self._pair_zones: Dict[Tuple[int, int], _np.ndarray] = {}
        self._move_away_orders: Dict[Tuple[int, int], _np.ndarray] = {}
        self._later_adjacent: List[Optional[Tuple[int, ...]]] = \
            [None] * self.num_sites

    # ------------------------------------------------------------------
    # Adjacency queries
    # ------------------------------------------------------------------
    def interaction_neighbours(self, site: int) -> Tuple[int, ...]:
        """Sites whose atoms could take part in a gate with an atom at ``site``."""
        return self._interaction_neighbours[site]

    def restriction_neighbours(self, site: int) -> Tuple[int, ...]:
        """Sites whose atoms are blocked by a gate executing at ``site``."""
        return self._restriction_neighbours[site]

    def interaction_set(self, site: int) -> FrozenSet[int]:
        """The interaction neighbourhood of ``site`` as a frozenset."""
        return self._interaction_sets[site]

    def interaction_array(self, site: int):
        """The interaction neighbourhood of ``site`` as a sorted int64 array.

        Lazily built from the neighbour tuple (which the topology emits in
        ascending site order — the scan order of ``sites_within``) and cached
        forever; returned by reference and read-only.  Used by the
        vectorised chain kernel for batched occupancy gathers.
        """
        array = self._interaction_arrays[site]
        if array is None:
            array = _np.asarray(self._interaction_neighbours[site],
                                dtype=_np.int64)
            array.flags.writeable = False
            self._interaction_arrays[site] = array
        return array

    def common_interaction_array(self, sites: Sequence[int]):
        """Sorted sites interacting with *every* site of ``sites`` (read-only).

        The intersection of the sites' :meth:`interaction_array` — the zone
        a gathering chain may move the next gate qubit into.  One site reads
        its own array.  The zone of the first two sites is cached per
        unordered pair; any further site is intersected on top, uncached.
        The intersection is order-independent and the arrays are sorted and
        unique, so the result is the same set in the same ascending order
        as any fold of ``numpy.intersect1d`` over the sites.
        """
        first = sites[0]
        if len(sites) == 1:
            return self.interaction_array(first)
        second = sites[1]
        key = (first, second) if first < second else (second, first)
        zone = self._pair_zones.get(key)
        if zone is None:
            zone = _np.intersect1d(self.interaction_array(first),
                                   self.interaction_array(second),
                                   assume_unique=True)
            zone.flags.writeable = False
            self._pair_zones[key] = zone
        for site in sites[2:]:
            if not zone.size:
                break
            zone = _np.intersect1d(zone, self.interaction_array(site),
                                   assume_unique=True)
            zone.flags.writeable = False
        return zone

    def move_away_order(self, origin: int, radius: int):
        """Move-away destinations of ``origin`` in scan order (read-only).

        The sites within ``radius`` lattice spacings of ``origin`` (origin
        excluded), ordered by the innermost disc of ``1 .. radius`` spacings
        that holds them, then by the topology's ``rectangular_row`` travel
        distance from ``origin``, then by site index.  The scan "innermost
        non-empty disc first, nearest site, lowest index" over any set of
        admissible sites therefore returns the first admissible site of this
        order.  Discs are the topology's ``sites_within`` discs of radius
        ``r * spacing + 1e-9``.  Built once per (origin, radius).
        """
        key = (origin, radius)
        order = self._move_away_orders.get(key)
        if order is None:
            lattice = self.architecture.lattice
            row, col = divmod(origin, lattice.cols)
            # Outermost disc first, so each site keeps its innermost label.
            disc_of = _np.zeros(self.num_sites, dtype=_np.int64)
            for disc in range(radius, 0, -1):
                rows, cols = lattice.radius_offset_arrays(
                    disc * lattice.spacing + _EPSILON)
                rows = rows + row
                cols = cols + col
                inside = ((rows >= 0) & (rows < lattice.rows)
                          & (cols >= 0) & (cols < lattice.cols))
                disc_of[rows[inside] * lattice.cols + cols[inside]] = disc
            sites = disc_of.nonzero()[0]
            travel = lattice.rectangular_row_array(origin)[sites]
            order = sites[_np.lexsort((sites, travel, disc_of[sites]))]
            order.flags.writeable = False
            self._move_away_orders[key] = order
        return order

    def later_adjacent_bits(self, anchor: int) -> Tuple[int, ...]:
        """Per interaction neighbour of ``anchor``, its later adjacent neighbours.

        Entry ``j`` has bit ``k`` set exactly when ``k > j`` and the
        anchor's ``j``-th and ``k``-th interaction neighbours (neighbour-table
        order) interact.  The multi-qubit clique search extends a partial
        set by the candidates of one such bitset.  Built on first use.
        """
        bits = self._later_adjacent[anchor]
        if bits is None:
            neighbours = self._interaction_neighbours[anchor]
            count = len(neighbours)
            if count:
                adjacent = _np.frombuffer(
                    b"".join(self._adjacent_rows[site] for site in neighbours),
                    dtype=_np.uint8).reshape(count, self.num_sites)
                later = _np.triu(adjacent[:, list(neighbours)], 1)
                packed = _np.packbits(later, axis=1, bitorder="little")
                bits = tuple(int.from_bytes(row.tobytes(), "little")
                             for row in packed)
            else:
                bits = ()
            self._later_adjacent[anchor] = bits
        return bits

    def adjacency_row(self, site: int) -> bytearray:
        """Dense boolean adjacency row of ``site`` (index by partner site).

        Returned by reference for hot loops; callers must not mutate it.
        """
        return self._adjacent_rows[site]

    def are_adjacent(self, site_a: int, site_b: int) -> bool:
        """True if the two sites are within the interaction radius (O(1))."""
        return self._adjacent_rows[site_a][site_b] != 0

    def coordination_number(self, site: int) -> int:
        """``K_{r_int}`` of the given site."""
        return len(self._interaction_neighbours[site])

    def sites_mutually_interacting(self, sites: Sequence[int]) -> bool:
        """True if *every pair* of the given sites is within the interaction radius.

        This is the executability condition for an ``m``-qubit gate
        (Section 2.1): all participating qubits must lie within ``r_int`` of
        each other.
        """
        site_list = list(sites)
        adjacent_rows = self._adjacent_rows
        for i, site_a in enumerate(site_list):
            row = adjacent_rows[site_a]
            for site_b in site_list[i + 1:]:
                if site_a == site_b or not row[site_b]:
                    return False
        return True

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def hop_distance(self, site_a: int, site_b: int) -> int:
        """Hop distance between two sites on the full site graph.

        Computed lazily with one BFS per source and cached.  A value of
        ``num_sites`` (unreachable) is only possible for degenerate radii.
        """
        row = self._hop_rows[site_a]
        if row is None:
            row = self._bfs_row(site_a)
        return row[site_b]

    def hop_row(self, source: int) -> List[int]:
        """Full hop-distance row of ``source`` (index by target site).

        Shared by both routers; returned by reference, so callers must treat
        it as read-only.  Fetching the row once and indexing it directly
        avoids a method call per site pair in the routing hot loops.
        """
        row = self._hop_rows[source]
        if row is None:
            row = self._bfs_row(source)
        return row

    def swap_row(self, source: int) -> List[int]:
        """SWAP-distance row of ``source``: ``max(hop - 1, 0)`` per target.

        The number of SWAPs that makes the atoms at ``source`` and at the
        target adjacent along a shortest site path: 0 for ``source`` itself
        and for its interaction neighbours.  Built lazily from
        :meth:`hop_row` and returned by reference; read-only.
        """
        row = self._swap_rows[source]
        if row is None:
            row = [hops - 1 if hops > 1 else 0 for hops in self.hop_row(source)]
            self._swap_rows[source] = row
        return row

    def _bfs_row(self, source: int) -> List[int]:
        distances = [self.num_sites] * self.num_sites
        distances[source] = 0
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for neighbour in self._interaction_neighbours[current]:
                if distances[neighbour] > distances[current] + 1:
                    distances[neighbour] = distances[current] + 1
                    queue.append(neighbour)
        self._hop_rows[source] = distances
        return distances

    def bfs_distances_from(self, source: int,
                           allowed: Optional[Set[int]] = None) -> Dict[int, int]:
        """BFS hop distances from ``source``.

        If ``allowed`` is given, the search only traverses sites contained in
        it (the source is always traversable).  This is the primitive used to
        compute SWAP distances over *occupied* sites only.
        """
        distances = {source: 0}
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for neighbour in self._interaction_neighbours[current]:
                if neighbour in distances:
                    continue
                if allowed is not None and neighbour not in allowed:
                    continue
                distances[neighbour] = distances[current] + 1
                queue.append(neighbour)
        return distances

    def shortest_path(self, site_a: int, site_b: int,
                      allowed: Optional[Set[int]] = None) -> Optional[List[int]]:
        """Shortest site path from ``site_a`` to ``site_b`` (inclusive), or ``None``.

        Traversal is restricted to ``allowed`` sites if given (the endpoints
        are always traversable).
        """
        if site_a == site_b:
            return [site_a]
        parents: Dict[int, int] = {site_a: site_a}
        queue = deque([site_a])
        while queue:
            current = queue.popleft()
            for neighbour in self._interaction_neighbours[current]:
                if neighbour in parents:
                    continue
                if allowed is not None and neighbour not in allowed and neighbour != site_b:
                    continue
                parents[neighbour] = current
                if neighbour == site_b:
                    path = [site_b]
                    while path[-1] != site_a:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                queue.append(neighbour)
        return None
