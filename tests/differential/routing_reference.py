"""Naive routing-cost scorers: the test-only reference for both routers.

``GateRouter.best_swap`` selects from a ``SwapCandidateTable`` that keeps
every SWAP candidate's integer layer deltas across rounds, and
``ShuttlingRouter.best_chain`` walks per-round qubit → node indices and
screens wide fronts.  The functions below are the original naive scorers,
kept as an independent oracle: SWAP candidates are listed by their own
generator and each one's cost re-walks both layers gate by gate with the
original distance rules (adjacency test, then ``max(hop - 1, 0)``), a
chain's distance terms walk every node of both layers, and the chain scan
builds and ranks the candidates of every front node.  Every function that
reads router settings takes the router as its first argument;
:func:`reference_routers` installs both selections on a mapper for the
reference arm of the op-stream equivalence tests, and
:func:`reference_entries` is what a candidate table must hold.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import pytest

from repro.circuit.dag import CircuitDAG
from repro.circuit.gate import Gate
from repro.mapping.gate_router import (GateRouter, SwapCandidate,
                                      SwapCandidateTable)
from repro.mapping.multiqubit import GatePosition
from repro.mapping.shuttling_router import _EPSILON, ShuttlingRouter
from repro.mapping.state import MappingState
from repro.shuttling.moves import Move, MoveChain


def routing_layers(circuit, **dag_options) -> Tuple[List, List]:
    """``(front, lookahead)`` of ``circuit``'s first routing round.

    The ready single-qubit gates are drained first, as the mapper does.
    """
    dag = CircuitDAG(circuit, **dag_options)
    dag.drain_trivial()
    return dag.front_layer(), dag.lookahead_layer()


def candidate_swaps(state: MappingState,
                    front_nodes: Sequence) -> List[SwapCandidate]:
    """All SWAPs acting on a front-layer gate qubit and an adjacent atom.

    Listed by front qubit (layer order), then by partner site in neighbour
    order; each site pair appears once, under the front qubit visited
    first.
    """
    seen: Set[Tuple[int, int]] = set()
    candidates: List[SwapCandidate] = []
    for node in front_nodes:
        for qubit in node.gate.qubits:
            atom_a = state.atom_of_qubit(qubit)
            site_a = state.site_of_atom(atom_a)
            for site_b in state.connectivity.interaction_neighbours(site_a):
                atom_b = state.atom_at_site(site_b)
                if atom_b is None:
                    continue
                key = (min(site_a, site_b), max(site_a, site_b))
                if key in seen:
                    continue
                seen.add(key)
                candidates.append(SwapCandidate(
                    qubit_a=qubit, qubit_b=state.qubit_of_atom(atom_b),
                    atom_a=atom_a, atom_b=atom_b, site_a=site_a,
                    site_b=site_b))
    return candidates


def gate_distance(state: MappingState, gate: Gate,
                  candidate: Optional[SwapCandidate],
                  position: Optional[GatePosition]) -> int:
    """Remaining routing distance of one gate, optionally after a SWAP."""
    connectivity = state.connectivity

    def site_after(qubit: int) -> int:
        if candidate is not None:
            if qubit == candidate.qubit_a:
                return candidate.site_b
            if candidate.qubit_b is not None and qubit == candidate.qubit_b:
                return candidate.site_a
        return state.site_of_qubit(qubit)

    total = 0
    if position is not None:
        for qubit, target in position.assignment.items():
            origin = site_after(qubit)
            if origin != target:
                total += connectivity.hop_distance(origin, target)
        return total
    sites = [site_after(qubit) for qubit in gate.qubits]
    for i, site_a in enumerate(sites):
        for site_b in sites[i + 1:]:
            if site_a == site_b or connectivity.are_adjacent(site_a, site_b):
                continue
            total += max(connectivity.hop_distance(site_a, site_b) - 1, 0)
    return total


def layer_distance(state: MappingState, nodes: Sequence,
                   positions: Dict[int, GatePosition],
                   candidate: Optional[SwapCandidate] = None) -> int:
    """Summed remaining routing distance of a layer (front or lookahead)."""
    return sum(gate_distance(state, node.gate, candidate,
                             positions.get(node.index))
               for node in nodes)


def swap_cost(router: GateRouter, state: MappingState,
              candidate: SwapCandidate, front_nodes: Sequence,
              lookahead_nodes: Sequence,
              positions: Dict[int, GatePosition]) -> float:
    """Cost of one SWAP candidate according to Eq. (2)/(3), walking both
    layers in full."""
    front_cost = layer_distance(state, front_nodes, positions, candidate)
    lookahead_cost = layer_distance(state, lookahead_nodes, positions,
                                    candidate)
    base = front_cost + router.lookahead_weight * lookahead_cost
    if router.decay_rate == 0.0:
        return base
    return base * math.exp(router.decay_rate * router.recency(candidate))


def best_swap(router: GateRouter, state: MappingState, front_nodes: Sequence,
              lookahead_nodes: Sequence, positions: Dict[int, GatePosition]
              ) -> Optional[SwapCandidate]:
    """``GateRouter.best_swap`` over :func:`candidate_swaps` and
    :func:`swap_cost`."""
    candidates = candidate_swaps(state, front_nodes)
    if not candidates:
        return None
    last = router._last_swap_key
    if last is not None and len(candidates) > 1:
        filtered = [c for c in candidates
                    if c.site_a not in last or c.site_b not in last]
        if filtered:
            candidates = filtered
    best_candidate = None
    best_key: Optional[Tuple[float, Tuple[int, int]]] = None
    for candidate in candidates:
        cost = swap_cost(router, state, candidate, front_nodes,
                         lookahead_nodes, positions)
        key = (cost, candidate.key())
        if best_key is None or key < best_key:
            best_key = key
            best_candidate = candidate
    return best_candidate


def reference_entries(state: MappingState, front_nodes: Sequence,
                      lookahead_nodes: Sequence,
                      positions: Dict[int, GatePosition]) -> Dict:
    """What a candidate table must hold for this round.

    Maps each candidate's site pair to ``(candidate fields, delta front,
    delta lookahead)``, the deltas from full walks of both layers.
    """
    front = layer_distance(state, front_nodes, positions)
    lookahead = layer_distance(state, lookahead_nodes, positions)
    return {candidate.key(): (
        tuple(candidate),
        layer_distance(state, front_nodes, positions, candidate) - front,
        layer_distance(state, lookahead_nodes, positions, candidate)
        - lookahead)
        for candidate in candidate_swaps(state, front_nodes)}


def table_entries(table: SwapCandidateTable) -> Dict:
    """A table's entries in the form of :func:`reference_entries`."""
    return {pair: (tuple(candidate), delta_front, delta_lookahead)
            for pair, (delta_front, delta_lookahead, candidate)
            in table.entries.items()}


def fresh_table(state: MappingState, front_nodes: Sequence,
                lookahead_nodes: Sequence,
                positions: Dict[int, GatePosition]) -> SwapCandidateTable:
    """A table built from nothing for this round, on a copy of ``state``
    so that the copy's change log, not ``state``'s, is taken."""
    table = SwapCandidateTable()
    table.update(state.copy(), front_nodes, lookahead_nodes, positions)
    return table


def distance_change(router: ShuttlingRouter, state: MappingState, move: Move,
                    nodes: Sequence) -> float:
    """Summed change in gate distance over ``nodes`` caused by ``move``."""
    moved_qubit = state.qubit_of_atom(move.atom)
    if moved_qubit is None:
        return 0.0
    lattice = router.architecture.lattice
    source_row = lattice.euclidean_row(move.source)
    destination_row = lattice.euclidean_row(move.destination)
    change = 0.0
    for node in nodes:
        qubits = node.gate.qubits
        if moved_qubit not in qubits:
            continue
        before = 0.0
        after = 0.0
        for other in qubits:
            if other == moved_qubit:
                continue
            other_site = state.site_of_qubit(other)
            before += source_row[other_site]
            after += destination_row[other_site]
        change += after - before
    return change / max(lattice.spacing, _EPSILON)


def chain_cost(router: ShuttlingRouter, state: MappingState, chain: MoveChain,
               front_nodes: Sequence, lookahead_nodes: Sequence) -> float:
    """Total cost of a chain according to Eq. (4)/(5), walking both layers."""
    total = 0.0
    for move in chain:
        total += (distance_change(router, state, move, front_nodes)
                  + router.lookahead_weight * distance_change(
                      router, state, move, lookahead_nodes)
                  + router.time_weight * router.move_time_penalty(move))
    total += 0.25 * chain.num_move_aways
    return total


def best_chain(router: ShuttlingRouter, state: MappingState,
               front_nodes: Sequence,
               lookahead_nodes: Sequence) -> Optional[MoveChain]:
    """The unscreened scan: every front node's chains, ranked by
    ``(chain_cost, length)`` in front order."""
    best: Optional[MoveChain] = None
    best_rank: Optional[Tuple[float, int]] = None
    for node in front_nodes:
        for chain in router.candidate_chains(state, node):
            rank = (chain_cost(router, state, chain, front_nodes,
                               lookahead_nodes), len(chain.moves))
            if best_rank is None or rank < best_rank:
                best = chain
                best_rank = rank
    return best


@contextmanager
def reference_routers(mapper) -> Iterator[None]:
    """Route ``mapper``'s rounds through :func:`best_swap` and
    :func:`best_chain` instead of the routers' own selections."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mapper.gate_router, "best_swap",
                      functools.partial(best_swap, mapper.gate_router))
        patch.setattr(mapper.shuttling_router, "best_chain",
                      functools.partial(best_chain, mapper.shuttling_router))
        yield
