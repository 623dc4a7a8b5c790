"""Scalar chain construction: the test-only reference for the chain builder.

``ShuttlingRouter`` builds every move chain with one numpy builder whose
gathers, ``argmin`` and stable ``argsort`` selections must resolve every tie
exactly as the scalar ``min``/``sorted`` loops below.  These loops are the
original scalar builders, kept as an independent oracle: a two-qubit
specialisation, the any-width gathering walk and the forced fallback chain,
all simulating occupancy with site sets.  The builders and the anchor
relocation take the router as their first argument, so
:func:`patched_router` can install them as methods for the reference arm of
the differentials; :func:`_nearest_free_site` is installed as a static
method with the router's signature.
"""

from __future__ import annotations

import math
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
    handles them too, and is the router's only one.  On a zoned topology an
    anchor stranded on a non-entangling site takes the generic path, which
    relocates the anchor into an entangling zone before gathering (the 2q
    specialisation assumes the anchor stays put).
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

    Scalar reference of ``ShuttlingRouter._build_chain``.
    """
    connectivity = state.connectivity
    lattice = self.architecture.lattice
    anchor_site = state.site_of_qubit(anchor)

    # Locally simulated occupancy (a snapshot the state does not share),
    # so consecutive moves in the chain see the effects of earlier ones.
    occupied: Set[int] = state.occupied_sites()
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
        free_candidates = {site for site in zone if site not in occupied}
        if free_candidates:
            destination = min(free_candidates,
                              key=lambda site: (current_row[site], site))
            moves.append(self._pooled_move(state.atom_of_qubit(qubit),
                                           current_site, destination, lattice,
                                           is_move_away=False))
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
                _mask(state, occupied), state.connectivity, blocked,
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
        occupied.discard(freed_site)
        occupied.add(move_away.destination)
        moves.append(self._pooled_move(state.atom_of_qubit(qubit),
                                       current_site, freed_site, lattice,
                                       is_move_away=False))
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
    the generic path exactly.
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
            state.free_mask, state.connectivity, blocked, forbidden=forbidden)
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
    lattice = self.architecture.lattice
    free = candidates & state.free_sites()
    if not free:
        return None
    row = lattice.rectangular_row(anchor_site)
    destination = min(free, key=lambda site: (row[site], site))
    return self._pooled_move(state.atom_of_qubit(anchor), anchor_site,
                             destination, lattice, is_move_away=False)


def _nearest_free_site(free_mask, connectivity, origin: int,
                       forbidden: Set[int],
                       max_radius: int = 4) -> Optional[int]:
    """Closest free site to ``origin`` outside ``forbidden`` (for move-aways).

    A scalar set scan of the discs, innermost first; ``free_mask[site]`` is
    nonzero for a free site.  Only ``connectivity``'s lattice is read.
    """
    lattice = connectivity.architecture.lattice
    origin_row = lattice.rectangular_row(origin)
    for radius in range(1, max_radius + 1):
        disc = set(lattice.sites_within(origin, radius * lattice.spacing + _EPSILON))
        candidates = {site for site in disc
                      if free_mask[site] and site not in forbidden}
        if candidates:
            return min(candidates,
                       key=lambda site: (origin_row[site], site))
    return None


def _mask(state: MappingState, occupied: Set[int]) -> List[int]:
    """The free mask of the simulated occupancy ``occupied``."""
    return [0 if site in occupied else 1 for site in range(state.num_sites)]


def forced_chain(self, state: MappingState, node) -> Optional[MoveChain]:
    """Fallback chain onto an explicit target cluster.

    Scalar reference of ``ShuttlingRouter.forced_chain``: the occupancy is
    simulated with a site set, and move-aways may reach every trap.
    """
    gate: Gate = node.gate
    lattice = self.architecture.lattice
    reach = math.ceil(math.hypot((lattice.rows - 1) * lattice.spacing_y,
                                 (lattice.cols - 1) * lattice.spacing_x)
                      / lattice.spacing)

    for anchor in gate.qubits:
        anchor_site = state.site_of_qubit(anchor)
        cluster = self._find_target_cluster(state, anchor_site, gate.num_qubits)
        if cluster is None:
            continue
        occupied: Set[int] = state.occupied_sites()
        gate_sites = {state.site_of_qubit(q) for q in gate.qubits}
        moves: List[Move] = []

        # Qubits already sitting on cluster sites keep their place.
        free_cluster_sites = [site for site in cluster if site not in gate_sites]
        movers = [q for q in gate.qubits
                  if state.site_of_qubit(q) not in cluster]
        if len(movers) > len(free_cluster_sites):
            continue

        feasible = True
        for qubit, target in zip(movers, free_cluster_sites):
            source = state.site_of_qubit(qubit)
            if target in occupied:
                blocking_atom = state.atom_at_site(target)
                if blocking_atom is None:
                    feasible = False
                    break
                away = _nearest_free_site(
                    _mask(state, occupied), state.connectivity, target,
                    forbidden=set(cluster) | gate_sites, max_radius=reach)
                if away is None:
                    feasible = False
                    break
                moves.append(self._pooled_move(blocking_atom, target, away,
                                               lattice, is_move_away=True))
                occupied.discard(target)
                occupied.add(away)
            moves.append(self._pooled_move(state.atom_of_qubit(qubit), source,
                                           target, lattice, is_move_away=False))
            occupied.discard(source)
            occupied.add(target)
        if feasible and moves:
            return MoveChain(moves=moves, gate_index=node.index)
    return None


@contextmanager
def patched_router() -> Iterator[None]:
    """Route with the scalar reference builders while the context is open.

    Chain construction, the forced fallback chain, anchor relocation and the
    move-away search run the scalar loops above.  Chain costs need no patch:
    the router scores every move with the scalar history walk
    ``move_time_penalty``.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ShuttlingRouter, "_build_chain", _build_chain)
        patch.setattr(ShuttlingRouter, "forced_chain", forced_chain)
        patch.setattr(ShuttlingRouter, "_anchor_relocation",
                      _anchor_relocation)
        patch.setattr(ShuttlingRouter, "_nearest_free_site",
                      staticmethod(_nearest_free_site))
        yield
