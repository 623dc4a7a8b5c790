"""Multi-qubit gate position finding (Section 3.1.3, process block (3)).

For gates on three or more qubits, driving the qubits pairwise closer can end
in a dead end: with a small interaction radius only specific geometric
arrangements allow every pair to be within ``r_int`` simultaneously
(Example 7).  Instead, the gate-based router searches the occupied lattice for
an explicit *position* — a set of ``m`` mutually interacting occupied sites —
that can host the gate, and then drives every gate qubit towards its assigned
target site with SWAPs.

Search order
------------
The search is a best-first expansion started simultaneously from all gate
qubits.  Anchor sites leave a heap in order of increasing *priority* — the
summed hop distance to the gate qubits' current sites, ties by site index —
and the interaction neighbours of each popped anchor join the heap.  At most
``_MAX_EXPLORED_ANCHORS`` (64) anchors are popped, and the search stops
early once an anchor's priority reaches the incumbent's estimate plus
``2 m``.

For each occupied anchor, the candidate positions are the ``m``-sets made of
the anchor and ``m - 1`` of its first 24 occupied interaction neighbours
(neighbour-table order) that are mutually interacting; at most 8 of them
are taken per anchor.  The candidates are a bitset over the anchor's
neighbour-table positions, and the clique search extends a partial set
through the connectivity's per-anchor ``later_adjacent_bits`` (one bitset
per neighbour, marking the later neighbours adjacent to it), built once
per site on first use.  Each set is first checked against the incumbent
with a per-set lower bound (below), summed qubit by qubit and abandoned as
soon as it reaches the incumbent's estimate; only a set that survives gets
a distance matrix and a greedy matching, which is cheap and within one SWAP
of an optimal one in practice: all (qubit, site) pairs in qubit-major, then
set order, stably sorted by hop distance, are taken whenever both ends are
still unmatched.  The estimate is the summed distance of the matched pairs,
and ``assignment`` keeps the order in which qubits were matched (the forced
router drives the first pending qubit first, so that order reaches the op
stream).  A set replaces the incumbent only with a strictly smaller
estimate; an estimate of 0 returns at once.

Why the pruned search returns what the exhaustive one did
---------------------------------------------------------
* The sets are found by a depth-first clique search over the candidate
  bitset: the lowest remaining position is taken first, and a partial set
  is extended only by the remaining candidates that are later neighbours
  adjacent to the site just chosen — ANDed into the parent's candidates, so
  adjacent to every site chosen so far.  That visits index combinations in
  lexicographic order, i.e. in ``itertools.combinations`` order, and it
  drops only combinations with a non-adjacent pair — exactly those the
  filter "every pair interacts" rejects.  The 24-neighbour cap clears the
  candidate bits after the 24th occupied neighbour, so the first 8 sets,
  and their order, are the same.  Per-anchor clique lists are deliberately
  not stored: with the gate preset's ``r_int = 4.5`` a site has about 60
  neighbours, and its 4- and 5-cliques explode.
* A set is skipped, unscored, when the sum over qubits of the minimum hop
  distance to its sites is at least the incumbent's estimate: every matching
  pays at least that, so the set could not have replaced the incumbent.
  Stopping the sum once it reaches the estimate skips the same sets, since
  every term is non-negative.
* An anchor's sets are not searched at all when its priority is at least
  the incumbent's estimate plus ``m``: every site of such a set is the
  anchor or one hop from it, so each qubit is at most one hop closer to the
  set than to the anchor, and no set of the anchor can beat the incumbent.
  Its neighbours still join the heap, so later anchors are unchanged.
* Distances come from one hop-distance row per gate qubit, fetched once
  per call.  The site graph is undirected, so the rows also give every
  anchor priority.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

import numpy as _np

from ..circuit.gate import Gate
from .state import MappingState

__all__ = ["GatePosition", "find_gate_position"]

#: Occupied interaction neighbours of an anchor considered for its subsets.
_MAX_NEIGHBOURS = 24
#: Mutually interacting subsets evaluated per anchor.
_MAX_SUBSETS = 8
#: Anchors popped from the best-first heap per search.
_MAX_EXPLORED_ANCHORS = 64


class GatePosition:
    """A feasible placement of a multi-qubit gate.

    Attributes
    ----------
    sites:
        The ``m`` mutually interacting occupied sites hosting the gate.
    assignment:
        Mapping from gate qubit to its target site (an optimal matching by
        SWAP-distance is chosen greedily).
    estimated_swaps:
        Total estimated number of SWAPs to realise the assignment.
    arrived:
        Gate qubits that have been observed sitting on their assigned site
        while this position was cached.  Maintained by the mapper's cache
        validation: once a qubit has arrived, a later displacement (e.g. by
        a shuttling move) invalidates the cached position even if a foreign
        atom refills the trap.
    """

    __slots__ = ("sites", "assignment", "estimated_swaps", "arrived")

    def __init__(self, sites: Tuple[int, ...], assignment: Dict[int, int],
                 estimated_swaps: int) -> None:
        self.sites = sites
        self.assignment = assignment
        self.estimated_swaps = estimated_swaps
        self.arrived: Set[int] = set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"GatePosition(sites={self.sites}, swaps={self.estimated_swaps})")


def _popcount(bits: int) -> int:
    """Number of set bits (``int.bit_count`` needs Python 3.10)."""
    return bin(bits).count("1")


def _interacting_subsets(state: MappingState, anchor: int,
                         size: int) -> List[Tuple[int, ...]]:
    """Occupied, mutually interacting site sets of ``size`` containing ``anchor``.

    A depth-first clique search over the first ``_MAX_NEIGHBOURS`` occupied
    interaction neighbours of ``anchor``, as bitsets over the anchor's
    neighbour-table positions: a partial set is extended, lowest position
    first, by the remaining candidates that are later neighbours adjacent
    to every site chosen so far (the candidate set ANDed with
    :meth:`~repro.hardware.connectivity.SiteConnectivity.later_adjacent_bits`).
    At most ``_MAX_SUBSETS`` sets are returned (see the module docstring for
    why the order is that of ``itertools.combinations``).
    """
    connectivity = state.connectivity
    occupied = state.free_mask[connectivity.interaction_array(anchor)] == 0
    positions = occupied.nonzero()[0]
    if positions.size < size - 1:
        return []
    if positions.size > _MAX_NEIGHBOURS:
        occupied[positions[_MAX_NEIGHBOURS]:] = False
    candidates = int.from_bytes(
        _np.packbits(occupied, bitorder="little").tobytes(), "little")
    neighbours = connectivity.interaction_neighbours(anchor)
    later_adjacent = connectivity.later_adjacent_bits(anchor)
    subsets: List[Tuple[int, ...]] = []

    def extend(chosen: Tuple[int, ...], candidates: int, missing: int) -> bool:
        """Append completions of ``chosen``; True once the cap is reached."""
        while candidates:
            lowest = candidates & -candidates
            candidates ^= lowest
            position = lowest.bit_length() - 1
            extended = chosen + (neighbours[position],)
            if missing == 1:
                subsets.append(extended)
                if len(subsets) >= _MAX_SUBSETS:
                    return True
                continue
            later = candidates & later_adjacent[position]
            if _popcount(later) >= missing - 1 and \
                    extend(extended, later, missing - 1):
                return True
        return False

    extend((anchor,), candidates, size - 1)
    return subsets


def _bound_reaches(rows: List[List[int]], sites: Tuple[int, ...],
                   limit: int) -> bool:
    """True if the summed per-qubit distance to the nearest of ``sites``
    reaches ``limit``; summed qubit by qubit, stopping once it does."""
    bound = 0
    for row in rows:
        bound += min(map(row.__getitem__, sites))
        if bound >= limit:
            return True
    return False


def find_gate_position(state: MappingState,
                       gate: Gate) -> Optional[GatePosition]:
    """Find a feasible position for a multi-qubit gate, or ``None``.

    The returned position minimises the estimated SWAP count among the
    explored anchor candidates.  ``None`` means gate-based mapping cannot
    realise the gate and the mapper must fall back to shuttling
    (Section 3.1.3).
    """
    qubits = gate.qubits
    size = len(qubits)
    if size < 3:
        raise ValueError("find_gate_position is only meaningful for gates with m >= 3")

    connectivity = state.connectivity
    interaction_neighbours = connectivity.interaction_neighbours
    site_is_free = state.site_is_free
    # One hop-distance row per gate qubit, indexed by target site: the
    # distance of that qubit to any candidate site.  Hop distances are
    # symmetric, so the rows' sum is every site's anchor priority.
    gate_sites = [state.site_of_qubit(qubit) for qubit in qubits]
    rows = [connectivity.hop_row(site) for site in gate_sites]
    priorities = list(map(sum, zip(*rows)))

    # Best-first expansion, seeded with the gate qubits' own sites.
    heap: List[Tuple[int, int]] = []
    seen: Set[int] = set()
    for site in gate_sites:
        if site not in seen:
            seen.add(site)
            heapq.heappush(heap, (priorities[site], site))

    best: Optional[GatePosition] = None
    explored = 0
    while heap and explored < _MAX_EXPLORED_ANCHORS:
        priority, anchor = heapq.heappop(heap)
        explored += 1
        if best is not None and priority >= best.estimated_swaps + size * 2:
            # Anchors are popped in increasing priority; once they are clearly
            # worse than the incumbent the search can stop.
            break
        # Every site of an anchor's subsets is the anchor or adjacent to it,
        # hence at most one hop closer to each qubit: no subset of an anchor
        # with priority >= incumbent + size can improve on the incumbent.
        if not site_is_free(anchor) and (
                best is None or priority < best.estimated_swaps + size):
            for sites in _interacting_subsets(state, anchor, size):
                # Every qubit needs at least its distance to the nearest
                # site of the set: a set whose bound already reaches the
                # incumbent's estimate cannot replace it.
                if best is not None and \
                        _bound_reaches(rows, sites, best.estimated_swaps):
                    continue
                distances = [[row[site] for site in sites] for row in rows]
                # Greedy matching by increasing distance; ties keep the
                # (qubit, site) order in which the pairs are listed.
                pairs = sorted((distance, qubit_index, site_index)
                               for qubit_index, row in enumerate(distances)
                               for site_index, distance in enumerate(row))
                assignment: Dict[int, int] = {}
                used_sites: Set[int] = set()
                swaps = 0
                for distance, qubit_index, site_index in pairs:
                    qubit = qubits[qubit_index]
                    if qubit in assignment or site_index in used_sites:
                        continue
                    assignment[qubit] = sites[site_index]
                    used_sites.add(site_index)
                    swaps += distance
                    if len(assignment) == size:
                        break
                if best is None or swaps < best.estimated_swaps:
                    best = GatePosition(sites, assignment, swaps)
                    if swaps == 0:
                        return best
        for neighbour in interaction_neighbours(anchor):
            if neighbour not in seen:
                seen.add(neighbour)
                heapq.heappush(heap, (priorities[neighbour], neighbour))
    return best
