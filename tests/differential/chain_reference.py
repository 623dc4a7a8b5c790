"""Scalar chain construction: the test-only reference for the chain kernel.

``ShuttlingRouter`` builds move chains with numpy gathers, ``argmin`` and
stable ``argsort`` selections that must resolve every tie exactly as the
scalar ``min``/``sorted`` loops below.  These loops are the original scalar
builders, kept here unchanged as an independent oracle.  Each function takes
the router as its first argument, so :func:`patched_router` can install
them as methods for the reference arm of the kernel differential.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Set

import pytest

from repro.circuit.gate import Gate
from repro.mapping.shuttling_router import _EPSILON, ShuttlingRouter
from repro.mapping.state import MappingState
from repro.shuttling.moves import Move, MoveChain


def _build_chain(self, state: MappingState, gate: Gate, anchor: int,
                 gate_index: int) -> Optional[MoveChain]:
    """Gather all gate qubits around ``anchor`` with direct/move-away moves.

    Two-qubit gates dispatch to :func:`_build_chain_2q`; the generic path
    handles them too.  On a zoned topology an anchor stranded on a
    non-entangling site takes the generic path, which relocates the anchor
    into an entangling zone before gathering (the 2q specialisation assumes
    the anchor stays put).
    """
    if len(gate.qubits) == 2:
        if (not self._zone_aware
                or self.architecture.is_entangling_site(
                    state.site_of_qubit(anchor))):
            return _build_chain_2q(self, state, gate, anchor, gate_index)
    return _build_chain_generic(self, state, gate, anchor, gate_index)


def _build_chain_generic(self, state: MappingState, gate: Gate, anchor: int,
                         gate_index: int) -> Optional[MoveChain]:
    """Anchor-gathering chain construction for any gate width.

    Scalar reference of ``ShuttlingRouter._build_chain_generic_kernel``.
    """
    connectivity = state.connectivity
    lattice = self.architecture.lattice
    anchor_site = state.site_of_qubit(anchor)

    # Locally simulated occupancy so consecutive moves in the chain see
    # the effects of earlier ones.  Copy-on-write: most candidate chains
    # are rejected (or keep every qubit in place) before any simulated
    # move, so the live occupancy view is only copied once the first
    # move is recorded.
    occupied: Set[int] = state.occupied_sites()
    owns_occupied = False
    kept_sites: List[int] = [anchor_site]
    moves: List[Move] = []
    gate_atom_sites = {state.site_of_qubit(q) for q in gate.qubits}

    # Zoned topologies: an anchor on a storage trap cannot host the
    # gate, so it is relocated onto the nearest free entangling trap
    # first and the gathering happens around the new site.
    if self._zone_aware and not self.architecture.is_entangling_site(anchor_site):
        relocation = self._anchor_relocation(state, anchor, anchor_site)
        if relocation is None:
            return None
        moves.append(relocation)
        occupied = set(occupied)
        owns_occupied = True
        occupied.discard(anchor_site)
        occupied.add(relocation.destination)
        anchor_site = relocation.destination
        kept_sites[0] = anchor_site

    # Gather the remaining qubits, nearest to the anchor first, so that
    # already-adjacent qubits claim their sites before far ones move in.
    anchor_row = lattice.euclidean_row(anchor_site)
    others = sorted(
        (q for q in gate.qubits if q != anchor),
        key=lambda q: anchor_row[state.site_of_qubit(q)])

    for qubit in others:
        current_site = state.site_of_qubit(qubit)
        if self._site_fits(connectivity, current_site, kept_sites):
            kept_sites.append(current_site)
            continue

        # Candidate destination sites: must interact with every kept site.
        zone = _target_zone(connectivity, kept_sites)
        zone.discard(current_site)
        zone -= set(kept_sites)
        if not zone:
            return None

        current_row = lattice.rectangular_row(current_site)
        if owns_occupied:
            free_candidates = {site for site in zone if site not in occupied}
        else:
            # Occupancy is still the live view: one C-level difference
            # against the incrementally maintained free-site set.
            free_candidates = zone & state.free_sites()
        if free_candidates:
            destination = min(free_candidates,
                              key=lambda site: (current_row[site], site))
            moves.append(self._make_move(state, qubit, current_site, destination,
                                         lattice, is_move_away=False))
            if not owns_occupied:
                occupied = set(occupied)
                owns_occupied = True
            occupied.discard(current_site)
            occupied.add(destination)
            kept_sites.append(destination)
            continue

        # No free site in the zone: free one with a move-away first.
        blocked_candidates = sorted(
            (site for site in zone
             if site in occupied and site not in gate_atom_sites),
            key=lambda site: (current_row[site], site))
        move_away = None
        freed_site = None
        for blocked in blocked_candidates:
            blocking_atom = state.atom_at_site(blocked)
            if blocking_atom is None:
                continue
            away_destination = _nearest_free_site(
                self, state, connectivity, lattice, blocked, occupied,
                forbidden=set(kept_sites) | {current_site})
            if away_destination is None:
                continue
            move_away = self._pooled_move(blocking_atom, blocked,
                                          away_destination, lattice,
                                          is_move_away=True)
            freed_site = blocked
            break
        if move_away is None or freed_site is None:
            return None
        moves.append(move_away)
        if not owns_occupied:
            occupied = set(occupied)
            owns_occupied = True
        occupied.discard(freed_site)
        occupied.add(move_away.destination)
        moves.append(self._make_move(state, qubit, current_site, freed_site,
                                     lattice, is_move_away=False))
        occupied.discard(current_site)
        occupied.add(freed_site)
        kept_sites.append(freed_site)

    if not moves:
        return None
    return MoveChain(moves=moves, gate_index=gate_index)


def _build_chain_2q(self, state: MappingState, gate: Gate, anchor: int,
                    gate_index: int) -> Optional[MoveChain]:
    """Two-qubit specialisation of :func:`_build_chain`.

    With a single gathering qubit there is never a second iteration, so
    no occupancy simulation is needed: the chain is either one direct
    move into the anchor's free zone, or a move-away plus the direct
    move onto the freed site.  Control flow and tie-breaking replicate
    the generic path exactly.  Scalar reference of
    ``ShuttlingRouter._build_chain_2q_kernel``.
    """
    connectivity = state.connectivity
    lattice = self.architecture.lattice
    anchor_site = state.site_of_qubit(anchor)
    qubit = gate.qubits[1] if gate.qubits[0] == anchor else gate.qubits[0]
    current_site = state.site_of_qubit(qubit)
    if connectivity.are_adjacent(current_site, anchor_site):
        return None

    zone = connectivity.interaction_set(anchor_site).difference(
        (current_site, anchor_site))
    occupied = state.occupied_sites()
    if not zone:
        return None

    current_row = lattice.rectangular_row(current_site)
    free_candidates = zone & state.free_sites()
    if free_candidates:
        destination = min(free_candidates,
                          key=lambda site: (current_row[site], site))
        move = self._pooled_move(state.atom_of_qubit(qubit), current_site,
                                 destination, lattice, is_move_away=False)
        return MoveChain(moves=[move], gate_index=gate_index)

    # No free site in the zone (the zone already excludes both gate
    # sites, so every member is a blocking atom): free one with a
    # move-away first.
    blocked_candidates = sorted(
        zone, key=lambda site: (current_row[site], site))
    forbidden = {anchor_site, current_site}
    for blocked in blocked_candidates:
        blocking_atom = state.atom_at_site(blocked)
        if blocking_atom is None:
            continue
        away_destination = _nearest_free_site(
            self, state, connectivity, lattice, blocked, occupied,
            forbidden=forbidden)
        if away_destination is None:
            continue
        move_away = self._pooled_move(blocking_atom, blocked,
                                      away_destination, lattice,
                                      is_move_away=True)
        direct = self._pooled_move(state.atom_of_qubit(qubit), current_site,
                                   blocked, lattice, is_move_away=False)
        return MoveChain(moves=[move_away, direct], gate_index=gate_index)
    return None


def _target_zone(connectivity, kept_sites: Sequence[int]) -> Set[int]:
    """Sites within the interaction radius of *all* kept sites."""
    zone: Optional[Set[int]] = None
    for kept in kept_sites:
        neighbours = connectivity.interaction_set(kept)
        zone = set(neighbours) if zone is None else (zone & neighbours)
        if not zone:
            return set()
    return zone or set()


def _anchor_relocation(self, state: MappingState, anchor: int,
                       anchor_site: int) -> Optional[Move]:
    """Direct move of a storage-stranded anchor into an entangling zone.

    The destination is the free gate-capable site nearest to the
    anchor's current trap (travel metric, deterministic site-index
    tie-break).
    """
    candidates = self._gate_capable_sites(state.connectivity)
    lattice = self.architecture.topology
    free = candidates & state.free_sites()
    if not free:
        return None
    row = lattice.rectangular_row(anchor_site)
    destination = min(free, key=lambda site: (row[site], site))
    return self._pooled_move(state.atom_of_qubit(anchor), anchor_site,
                             destination, lattice, is_move_away=False)


def _nearest_free_site(self, state: MappingState, connectivity, lattice,
                       origin: int, occupied: Set[int], forbidden: Set[int],
                       max_radius: int = 4) -> Optional[int]:
    """Closest free site to ``origin`` outside ``forbidden`` (for move-aways)."""
    live = occupied is state.occupied_sites()
    origin_row = lattice.rectangular_row(origin)
    live_free = state.free_sites() if live else None
    for radius in range(1, max_radius + 1):
        disc = lattice.sites_within_set(origin, radius * lattice.spacing + _EPSILON)
        if live_free is not None:
            candidates = (disc & live_free) - forbidden
        else:
            candidates = {site for site in disc
                          if site not in occupied and site not in forbidden}
        if candidates:
            return min(candidates,
                       key=lambda site: (origin_row[site], site))
    return None


@contextmanager
def patched_router() -> Iterator[None]:
    """Route with the scalar reference builders while the context is open.

    Chain construction, anchor relocation and the move-away search run the
    scalar loops above.  Chain costs need no patch: the router scores every
    move with the scalar history walk ``move_time_penalty``.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ShuttlingRouter, "_build_chain", _build_chain)
        patch.setattr(ShuttlingRouter, "_anchor_relocation",
                      _anchor_relocation)
        patch.setattr(ShuttlingRouter, "_nearest_free_site",
                      _nearest_free_site)
        yield
