"""Reference oracle for the multi-qubit position search.

:func:`repro.mapping.find_gate_position` is a pruned rewrite of the
original exhaustive search, which is kept below, unchanged, as a test-only
reference.  The rewrite must return exactly what the reference returns:
the same sites, the same assignment *in the same insertion order* (the
forced router drives ``pending[0]`` first, so the order is observable in
the op stream) and the same SWAP estimate — or ``None`` for both.

The matrix covers gate widths 3-5, sparse and dense occupancies, every
topology family, the hostile lattice constants of the kernel
differential suite and architectures where no position exists.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple
from unittest import mock

import pytest

from repro.circuit.gate import Gate, controlled_z
from repro.hardware import (TOPOLOGY_KINDS, NeutralAtomArchitecture,
                            SiteConnectivity, SquareLattice)
from repro.hardware.presets import preset
from repro.mapping import GatePosition, MappingState, find_gate_position
from repro.mapping import multiqubit
from repro.mapping.multiqubit import _interacting_subsets


# ----------------------------------------------------------------------
# Reference implementation: the original position search, unchanged.
# ----------------------------------------------------------------------
def _site_distance(state: MappingState, qubit: int, site: int) -> int:
    """Hop distance from a qubit's current site to a target site."""
    origin = state.site_of_qubit(qubit)
    if origin == site:
        return 0
    return state.connectivity.hop_distance(origin, site)


def _greedy_assignment(state: MappingState, qubits: Sequence[int],
                       sites: Sequence[int]) -> Tuple[Dict[int, int], int]:
    """Assign gate qubits to target sites greedily by increasing distance.

    For the gate widths of interest (m <= 5) a full optimal assignment would
    also be feasible, but the greedy matching is within one SWAP of optimal in
    practice and keeps the inner loop cheap.
    """
    remaining_sites = list(sites)
    assignment: Dict[int, int] = {}
    total = 0
    pairs = sorted(
        ((_site_distance(state, qubit, site), qubit, site)
         for qubit in qubits for site in sites),
        key=lambda item: item[0])
    assigned_qubits: Set[int] = set()
    used_sites: Set[int] = set()
    for distance, qubit, site in pairs:
        if qubit in assigned_qubits or site in used_sites:
            continue
        assignment[qubit] = site
        assigned_qubits.add(qubit)
        used_sites.add(site)
        total += max(distance - 0, 0)
        if len(assigned_qubits) == len(qubits):
            break
    # Subtract the "already there" hops: a qubit sitting on its target needs 0
    # swaps, a qubit one hop away needs 1, etc.  The raw hop count is already
    # that estimate, so no further correction is needed.
    return assignment, total


def _mutually_interacting_subsets(state: MappingState, anchor: int, size: int,
                                  max_candidates: int = 24) -> List[Tuple[int, ...]]:
    """Occupied, mutually interacting site sets of the given size containing ``anchor``."""
    connectivity = state.connectivity
    neighbours = [s for s in connectivity.interaction_neighbours(anchor)
                  if not state.site_is_free(s)]
    if len(neighbours) < size - 1:
        return []
    neighbours = neighbours[:max_candidates]
    subsets: List[Tuple[int, ...]] = []
    for combo in itertools.combinations(neighbours, size - 1):
        sites = (anchor,) + combo
        if connectivity.sites_mutually_interacting(sites):
            subsets.append(sites)
            if len(subsets) >= 8:
                break
    return subsets


def reference_find_gate_position(state: MappingState, gate: Gate, *,
                                 max_explored_anchors: int = 64
                                 ) -> Optional[GatePosition]:
    """Find a feasible position for a multi-qubit gate, or ``None``.

    The returned position minimises the estimated SWAP count among the
    explored anchor candidates.  ``None`` means gate-based mapping cannot
    realise the gate and the mapper must fall back to shuttling
    (Section 3.1.3).
    """
    qubits = list(gate.qubits)
    size = len(qubits)
    if size < 3:
        raise ValueError("find_gate_position is only meaningful for gates with m >= 3")

    connectivity = state.connectivity
    # Multi-source BFS priority: explore anchors by summed hop distance to the
    # gate qubits' current sites.
    gate_sites = [state.site_of_qubit(q) for q in qubits]

    def anchor_priority(site: int) -> int:
        return sum(connectivity.hop_distance(site, gs) for gs in gate_sites)

    # Seed the exploration with the gate sites themselves plus their occupied
    # neighbourhoods, expanding outward in priority order.
    heap: List[Tuple[int, int]] = []
    seen: Set[int] = set()
    for site in gate_sites:
        if site not in seen:
            seen.add(site)
            heapq.heappush(heap, (anchor_priority(site), site))

    best: Optional[GatePosition] = None
    explored = 0
    while heap and explored < max_explored_anchors:
        priority, anchor = heapq.heappop(heap)
        explored += 1
        if best is not None and priority >= best.estimated_swaps + size * 2:
            # Anchors are popped in increasing priority; once they are clearly
            # worse than the incumbent the search can stop.
            break
        if not state.site_is_free(anchor):
            for sites in _mutually_interacting_subsets(state, anchor, size):
                assignment, swaps = _greedy_assignment(state, qubits, sites)
                if len(assignment) != size:
                    continue
                if best is None or swaps < best.estimated_swaps:
                    best = GatePosition(tuple(sites), assignment, swaps)
                    if swaps == 0:
                        return best
        for neighbour in connectivity.interaction_neighbours(anchor):
            if neighbour not in seen:
                seen.add(neighbour)
                heapq.heappush(heap, (anchor_priority(neighbour), neighbour))
    return best


# ----------------------------------------------------------------------
# Oracle comparison
# ----------------------------------------------------------------------
def _summary(position: Optional[GatePosition]):
    if position is None:
        return None
    return (position.sites, list(position.assignment.items()),
            position.estimated_swaps)


def assert_matches_reference(state: MappingState, gate: Gate, **kwargs):
    """Compare one search against the reference; return the reference result.

    A ``max_explored_anchors`` keyword caps both searches: the reference's
    argument and the mapper's module constant ``_MAX_EXPLORED_ANCHORS``.
    """
    expected = reference_find_gate_position(state, gate, **kwargs)
    cap = kwargs.get("max_explored_anchors",
                     multiqubit._MAX_EXPLORED_ANCHORS)
    with mock.patch.object(multiqubit, "_MAX_EXPLORED_ANCHORS", cap):
        actual = find_gate_position(state, gate)
    assert _summary(actual) == _summary(expected), (gate.qubits, kwargs)
    return expected


#: Lattice constants of the kernel differential suite whose float
#: expansions are inexact, next to the presets' own 3 um pitch.
SPACINGS = (3.0, 0.3, 1.1)

#: (name, architecture factory) per topology family; the square
#: family runs all three device presets, because the gate preset's radius
#: gives every site more occupied neighbours than the 24-neighbour cap.
ARCHITECTURES = {
    "square": [
        (hardware, lambda spacing, atoms, hardware=hardware: preset(
            hardware, lattice_rows=7, spacing=spacing, num_atoms=atoms))
        for hardware in ("gate", "mixed", "shuttling")
    ],
    "rectangular": [
        ("mixed", lambda spacing, atoms: preset(
            "mixed", lattice_rows=7, spacing=spacing, num_atoms=atoms,
            topology="rectangular", spacing_y=spacing * 4 / 3)),
    ],
    "zoned": [
        ("zoned", lambda spacing, atoms: preset(
            "zoned", lattice_rows=9, spacing=spacing, num_atoms=atoms)),
    ],
}

#: Fill factors of the trap array: sparse leaves most traps free (few
#: occupied neighbours, many failed cliques), dense nearly fills it.
OCCUPANCIES = {"sparse": 0.35, "dense": 0.9}


def _random_state(architecture: NeutralAtomArchitecture,
                  connectivity: SiteConnectivity,
                  rng: random.Random) -> MappingState:
    """Random atom placement and qubit mapping, leaving a few aux atoms."""
    num_sites = architecture.lattice.num_sites
    sites = rng.sample(range(num_sites), architecture.num_atoms)
    num_qubits = max(5, architecture.num_atoms - 3)
    qubit_map = rng.sample(range(architecture.num_atoms), num_qubits)
    return MappingState(architecture, num_qubits, connectivity=connectivity,
                        initial_sites=sites, initial_qubit_map=qubit_map)


def test_every_topology_family_is_covered():
    assert sorted(ARCHITECTURES) == sorted(TOPOLOGY_KINDS)


@pytest.mark.parametrize("occupancy", sorted(OCCUPANCIES))
@pytest.mark.parametrize("spacing", SPACINGS)
@pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
def test_position_search_matches_reference(kind, spacing, occupancy):
    for name, factory in ARCHITECTURES[kind]:
        num_sites = factory(spacing, 8).lattice.num_sites
        architecture = factory(spacing,
                               int(num_sites * OCCUPANCIES[occupancy]))
        connectivity = SiteConnectivity(architecture)
        rng = random.Random(f"{kind}/{name}/{spacing}/{occupancy}")
        found = 0
        for _ in range(6):
            state = _random_state(architecture, connectivity, rng)
            for width in (3, 4, 5):
                for _ in range(3):
                    qubits = rng.sample(range(state.num_circuit_qubits), width)
                    gate = controlled_z(qubits)
                    found += assert_matches_reference(state, gate) is not None
                    assert_matches_reference(state, gate,
                                             max_explored_anchors=6)
        assert found, f"no position found on {kind}/{name}: oracle is vacuous"


@pytest.mark.parametrize("width", (3, 4, 5))
def test_identity_layout_matches_reference(small_state, width):
    """The mapper's default identity placement, gate qubits near and far."""
    rng = random.Random(width)
    for _ in range(20):
        qubits = rng.sample(range(small_state.num_circuit_qubits), width)
        assert_matches_reference(small_state, controlled_z(qubits))


@pytest.mark.parametrize("width", (4, 5))
def test_no_position_matches_reference(width):
    """With r_int = d no clique of four exists: both searches give ``None``."""
    architecture = NeutralAtomArchitecture(
        name="tiny-radius", lattice=SquareLattice(5, 5, 3.0), num_atoms=12,
        interaction_radius=1.0, restriction_radius=1.0)
    state = MappingState(architecture, 8)
    rng = random.Random(width)
    for _ in range(10):
        qubits = rng.sample(range(8), width)
        assert assert_matches_reference(state, controlled_z(qubits)) is None


def test_storage_stranded_gate_matches_reference():
    """Zoned storage traps have no interaction partners: a gate whose
    qubits all sit in storage with the entangling band empty has no
    position."""
    architecture = preset("zoned", lattice_rows=9, num_atoms=8)
    connectivity = SiteConnectivity(architecture)
    storage = [site for site in range(architecture.lattice.num_sites)
               if not connectivity.interaction_neighbours(site)]
    assert len(storage) >= 8
    state = MappingState(architecture, 5, connectivity=connectivity,
                         initial_sites=storage[:8])
    for width in (3, 4, 5):
        gate = controlled_z(tuple(range(width)))
        assert assert_matches_reference(state, gate) is None


@pytest.mark.parametrize("occupancy", sorted(OCCUPANCIES))
@pytest.mark.parametrize("spacing", SPACINGS)
def test_bitset_clique_search_matches_reference(spacing, occupancy):
    """The bitset DFS returns the reference's subsets, in order, for every
    occupied anchor and widths 3-5.  On the gate preset (r_int = 4.5) a
    dense fill leaves anchors with more than 24 occupied neighbours, so the
    neighbour cap binds; the 8-set cap binds too."""
    architecture = preset("gate", lattice_rows=7, spacing=spacing,
                          num_atoms=int(49 * OCCUPANCIES[occupancy]))
    connectivity = SiteConnectivity(architecture)
    rng = random.Random(f"cliques/{spacing}/{occupancy}")
    capped = full = found = 0
    for _ in range(3):
        state = _random_state(architecture, connectivity, rng)
        for anchor in range(connectivity.num_sites):
            if state.site_is_free(anchor):
                continue
            occupied = sum(not state.site_is_free(site) for site in
                           connectivity.interaction_neighbours(anchor))
            capped += occupied > 24
            for size in (3, 4, 5):
                expected = _mutually_interacting_subsets(state, anchor, size)
                assert _interacting_subsets(state, anchor, size) == expected, \
                    (anchor, size)
                found += bool(expected)
                full += len(expected) == 8
    assert found and full
    if occupancy == "dense":
        assert capped, "the 24-neighbour cap never binds: oracle is vacuous"


def test_bitset_clique_search_honours_the_exact_neighbour_cap():
    """A 9x9 gate-preset fill (found by search; such states are rare) where
    the 24th occupied neighbour enters an anchor's first 8 sets, so that a
    cap of 23 would return other sets: the cap's exact value is checked."""
    architecture = preset("gate", lattice_rows=9, num_atoms=48)
    connectivity = SiteConnectivity(architecture)
    rng = random.Random("9/0.6/15")
    sites = rng.sample(range(architecture.lattice.num_sites), 48)
    state = MappingState(architecture, 5, connectivity=connectivity,
                         initial_sites=sites)
    observable = 0
    for anchor in sites:
        for size in (3, 4, 5):
            expected = _mutually_interacting_subsets(state, anchor, size)
            assert _interacting_subsets(state, anchor, size) == expected
            observable += expected != _mutually_interacting_subsets(
                state, anchor, size, max_candidates=23)
    assert observable
