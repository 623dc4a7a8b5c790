"""Per-move chain-screen costs and the set-based pruning filter: the
test-only reference for the screened ``best_chain`` round.

``ChainScreen._move_costs`` evaluates each distinct ``(atom, destination)``
move once and gathers the rows back, and
``ShuttlingRouter._screened_candidates`` walks a keep-mask over the front.
The two functions below are the earlier forms, kept as an independent
oracle: :func:`move_costs` expands every move row into its qubit's partner
entries, duplicates included, and :func:`screened_candidates` collects the
pruned positions in a set and filters the whole front against it.  Both
take the screen or router as their first argument, so they can be
installed as methods for the reference arm of the differentials.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as _np

from repro.mapping.chain_screen import _EPSILON, _euclidean, time_penalties
from repro.shuttling.moves import MoveChain


def move_costs(self, qubit_sites, entries, move_qubits, move_atoms,
               move_src, move_dst, time_weight: float,
               recent_moves: Sequence):
    """Per-move ``(contribution, magnitude, partner terms)`` arrays, one
    expansion per move row."""
    owners, partners, weights = entries
    num_qubits = qubit_sites.size
    xs, ys = self.xs, self.ys
    scale = max(self.spacing, _EPSILON)
    counts = _np.bincount(owners, minlength=num_qubits + 1)
    starts = counts.cumsum() - counts
    partner_x, partner_y = xs[partners], ys[partners]
    owner_sites = qubit_sites[owners]
    before = _np.bincount(
        owners, weights * _euclidean(xs[owner_sites] - partner_x,
                                     ys[owner_sites] - partner_y),
        minlength=num_qubits + 1)

    # Expand each move into its moved qubit's partner entries.
    qubit_index = _np.where(move_qubits < 0, num_qubits, move_qubits)
    per_move = counts[qubit_index]
    num_moves = move_qubits.size
    ends = per_move.cumsum()
    entry = (_np.arange(ends[-1] if num_moves else 0)
             + _np.repeat(starts[qubit_index] + per_move - ends, per_move))
    after = _np.bincount(
        _np.repeat(_np.arange(num_moves), per_move),
        weights[entry] * _euclidean(
            _np.repeat(xs[move_dst], per_move) - partner_x[entry],
            _np.repeat(ys[move_dst], per_move) - partner_y[entry]),
        minlength=num_moves)
    before = before[qubit_index]
    contribution = (after - before) / scale
    magnitude = (after + before) / scale
    if recent_moves:
        sx, sy = xs[move_src], ys[move_src]
        ex, ey = xs[move_dst], ys[move_dst]
        penalty = time_weight * time_penalties(
            self.architecture, recent_moves, move_atoms, move_src,
            move_dst, sx, sy, ex, ey, _np.abs(ex - sx) + _np.abs(ey - sy))
        contribution += penalty
        magnitude += penalty
    return contribution, magnitude, per_move


def screened_candidates(self, state, front_nodes: Sequence,
                        lookahead_nodes: Sequence, cost_of
                        ) -> List[List[MoveChain]]:
    """Candidate chains of the front nodes that can hold the best chain,
    filtered against the set of pruned positions."""
    positions, bounds = self.screen_bounds(state, front_nodes,
                                           lookahead_nodes)
    node_bounds = bounds.min(axis=1)
    built: Dict[int, List[MoveChain]] = {}
    incumbent = _np.inf
    if node_bounds.size:
        best = int(node_bounds.argmin())
        if node_bounds[best] < _np.inf:
            position = positions[best]
            chains = self.candidate_chains(state, front_nodes[position])
            built[position] = chains
            for chain in chains:
                incumbent = min(incumbent, cost_of(chain))
    pruned = {positions[index]
              for index in (node_bounds > incumbent).nonzero()[0]}
    return [built[position] if position in built
            else self.candidate_chains(state, node)
            for position, node in enumerate(front_nodes)
            if position not in pruned]
