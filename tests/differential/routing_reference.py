"""Naive routing-cost scorers: the test-only reference for both routers.

``GateRouter.best_swap`` scores every SWAP candidate of a round as
``baseline + delta`` through one ``SwapCostCache``, and
``ShuttlingRouter.best_chain`` walks per-round qubit → node indices and
screens wide fronts.  The functions below are the original naive scorers,
kept as an independent oracle: a SWAP's cost re-walks both layers in full,
a chain's distance terms walk every node of both layers, and the chain scan
builds and ranks the candidates of every front node.  Each function takes
the router as its first argument; :func:`reference_routers` installs both
selections on a mapper for the reference arm of the op-stream equivalence
tests.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence, Tuple

import pytest

from repro.mapping.gate_router import GateRouter, SwapCandidate
from repro.mapping.multiqubit import GatePosition
from repro.mapping.shuttling_router import _EPSILON, ShuttlingRouter
from repro.mapping.state import MappingState
from repro.shuttling.moves import Move, MoveChain


def layer_distance(router: GateRouter, state: MappingState, nodes: Sequence,
                   positions: Dict[int, GatePosition],
                   candidate: Optional[SwapCandidate] = None) -> int:
    """Summed remaining routing distance of a layer (front or lookahead)."""
    total = 0
    for node in nodes:
        position = positions.get(node.index)
        total += router._gate_distance(state, node.gate, candidate, position)
    return total


def swap_cost(router: GateRouter, state: MappingState,
              candidate: SwapCandidate, front_nodes: Sequence,
              lookahead_nodes: Sequence,
              positions: Dict[int, GatePosition]) -> float:
    """Cost of one SWAP candidate according to Eq. (2)/(3), walking both
    layers in full."""
    front_cost = layer_distance(router, state, front_nodes, positions,
                                candidate)
    lookahead_cost = layer_distance(router, state, lookahead_nodes, positions,
                                    candidate)
    base = front_cost + router.lookahead_weight * lookahead_cost
    if router.decay_rate == 0.0:
        return base
    return base * math.exp(router.decay_rate * router.recency(candidate))


def best_swap(router: GateRouter, state: MappingState, front_nodes: Sequence,
              lookahead_nodes: Sequence, positions: Dict[int, GatePosition],
              *, qubit_index=None) -> Optional[SwapCandidate]:
    """``GateRouter.best_swap`` over :func:`swap_cost` (``qubit_index`` is
    accepted for call compatibility and ignored)."""
    candidates = router.candidate_swaps(state, front_nodes)
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
