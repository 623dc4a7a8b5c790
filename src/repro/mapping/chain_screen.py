"""Exact screen for the shuttling router's per-round chain selection.

:meth:`ShuttlingRouter.best_chain <repro.mapping.shuttling_router.ShuttlingRouter.best_chain>`
ranks one candidate chain per (front gate, anchor) by the Eq. (4)/(5) cost,
yet applies a single chain per round.  :class:`ChainScreen` computes, in one
numpy pass over the whole front, a lower bound on the cost of every
two-qubit candidate, so the router builds and scores chains only for the
gates whose bound can still reach the best exact cost.

The bound is the candidate's cost itself, evaluated in batch:

* the destination is the one the chain builder picks for a two-qubit gate
  — a masked argmin over the anchor's interaction zone (ascending site
  order, so the first minimum is the builder's ``(distance, site)``
  tie-break) — and, when
  the zone is full, the first blocked zone site in the same order that has
  a free trap within ``MOVE_AWAY_RADIUS`` lattice spacings, cleared by a
  move-away onto the nearest such trap (innermost disc first, then travel
  distance, then site: the order of the connectivity's ``move_away_order``
  that the router's ``_nearest_free_site`` reads);
* the distance terms sum the front and lookahead partner distances of each
  moved qubit, and the ``C_t_parallel`` penalty is batched against the
  recent-move history bit for bit as the scalar ``move_time_penalty``
  walks it.  These are evaluated once per distinct move: every screened
  move starts at its atom's current site (a direct or onto-move at the
  mover's, a move-away at the blocked site, which holds the blocking
  atom), so ``(atom, destination)`` fixes the source, the moved qubit and
  every term, and candidates that share a move share its cost row.  The
  key is the atom, not the qubit: atoms without a circuit qubit share no
  distance terms but differ in their history penalties;
* a rigorous float slack is subtracted: the scalar cost and the batched one
  evaluate the same real-valued sum of ``n`` partner terms in a different
  order, and each differs from it by at most ``(n + 8) u A`` with
  ``u = 2**-53`` and ``A`` the sum of the absolute terms (recursive
  summation plus a few operations rounded to within two ulps — the
  partner distances, the spacing division, the weightings).  The slack
  ``(n + 8) 2**-50 (A + 1)`` is four times the worst case of the
  difference.

Everything about a site's neighbourhood is fixed for the device, so the
screen builds it once, as write-once per-site tables: each site's
interaction zone and move-away disc (gathered from the topology's ``(row,
col)`` offsets, :meth:`~repro.hardware.topology.GridTopology.radius_offset_arrays`,
padded to one width with a valid mask) and the rectangular distances from a
site to its disc.  A round gathers their rows by index; only occupancy, the
placement and the layers are read per round.  The screen covers unzoned
grid topologies only; zoned devices relocate anchors and charge corridor
penalties, which the screen does not model, so the router never consults
it there.
"""

from __future__ import annotations

from itertools import chain as _chain
from typing import List, Sequence, Tuple

import numpy as _np

from ..hardware.topology import ZonedTopology

__all__ = ["ChainScreen", "MOVE_AWAY_RADIUS", "time_penalties"]

_EPSILON = 1e-9
#: Eight times float64's unit roundoff ``2**-53`` (see the module docstring).
_SLACK_PER_TERM = 2.0 ** -50
#: How far, in lattice spacings, a move-away may carry a blocking atom: the
#: shuttling router's ``_nearest_free_site`` lookup and the screen's model of
#: it share this value.
MOVE_AWAY_RADIUS = 4
#: Recent moves per broadcast pass of :func:`time_penalties`: the default
#: history window in one pass, and bounded temporaries for an unbounded
#: history (``history_window=0``).
_HISTORY_BLOCK = 8


def time_penalties(architecture, recent_moves: Sequence, atom, src, dst,
                   sx, sy, ex, ey, distance):
    """``C_t_parallel`` of a batch of moves against the recent-move history.

    Every elementwise operation mirrors the scalar history walk
    ``ShuttlingRouter.move_time_penalty``: the compatibility predicate and
    the row/column checks are boolean, the durations compose left-to-right
    in the scalar evaluation order, and the history accumulates in order
    (``x + 0.0 == x`` covers the scalar walk skipping compatible moves), so
    each entry is bit-identical to the scalar sum.  ``distance`` is each move's
    ``rectangular_distance``.  The terms are evaluated in one broadcast
    ``(history, moves)`` pass per block of ``_HISTORY_BLOCK`` recent moves,
    which covers the whole capped history, and the rows are then added in
    history order.
    """
    penalty = _np.zeros(len(atom))
    if not recent_moves:
        return penalty
    durations = architecture.durations
    activation = durations.aod_activation
    deactivation = durations.aod_deactivation
    # Scalar order: (activation + distance / speed) + deactivation.
    full = (activation + distance / architecture.shuttling_speed) \
        + deactivation
    shared = activation + deactivation
    for start in range(0, len(recent_moves), _HISTORY_BLOCK):
        block = recent_moves[start:start + _HISTORY_BLOCK]
        r_atom, r_src, r_dst = _np.array(
            [(recent.atom, recent.source, recent.destination)
             for recent in block], dtype=_np.int64).T[:, :, None]
        r_sx, r_sy, r_ex, r_ey = _np.array(
            [recent.source_position + recent.destination_position
             for recent in block]).T[:, :, None]
        sdx = sx - r_sx
        sdy = sy - r_sy
        edx = ex - r_ex
        edy = ey - r_ey
        near_sx = abs(sdx) < _EPSILON
        near_sy = abs(sdy) < _EPSILON
        ordering = ((near_sx | (abs(edx) < _EPSILON)
                     | ((sdx > 0) == (edx > 0)))
                    & (near_sy | (abs(edy) < _EPSILON)
                       | ((sdy > 0) == (edy > 0))))
        compatible = ((atom != r_atom) & (dst != r_dst) & (dst != r_src)
                      & (src != r_dst) & ordering)
        terms = _np.where(compatible, 0.0,
                          _np.where(near_sy | near_sx, shared, full))
        for row in terms:
            penalty += row
    return penalty


class ChainScreen:
    """Batched lower bounds on the two-qubit chain costs of one round.

    Parameters
    ----------
    architecture:
        The device; its topology must satisfy :meth:`supports`.
    """

    def __init__(self, architecture) -> None:
        topology = architecture.lattice
        if not self.supports(topology):
            raise ValueError("the chain screen needs an unzoned grid topology")
        self.architecture = architecture
        self.rows = topology.rows
        self.cols = topology.cols
        self.spacing = topology.spacing
        positions = topology.positions()
        self.xs = _np.array([p[0] for p in positions])
        self.ys = _np.array([p[1] for p in positions])
        self.zone_offsets = topology.radius_offset_arrays(
            architecture.interaction_radius_um)
        # The move-away disc of radius MOVE_AWAY_RADIUS, each offset
        # labelled with the innermost scan radius whose disc contains it.
        radii = [radius * self.spacing + _EPSILON
                 for radius in range(1, MOVE_AWAY_RADIUS + 1)]
        discs = [set(_offset_pairs(topology.radius_offset_arrays(radius)))
                 for radius in radii]
        self.disc_offsets = topology.radius_offset_arrays(radii[-1])
        self.disc_ring = _np.array(
            [next(ring for ring, disc in enumerate(discs, 1) if offset in disc)
             for offset in _offset_pairs(self.disc_offsets)],
            dtype=_np.int64)
        self._num_sites = topology.num_sites
        # Write-once per-site tables: row ``s`` of a site table is site
        # ``s``'s neighbourhood, gathered from the offsets above, and the
        # rounds gather rows by anchor or blocked site.
        sites = _np.arange(self._num_sites, dtype=_np.int64)
        self.zone_sites, self.zone_valid = self._neighbourhoods(
            sites, self.zone_offsets)
        self.disc_sites, self.disc_valid = self._neighbourhoods(
            sites, self.disc_offsets)
        self.disc_rect = self._rect(sites, self.disc_sites)

    @staticmethod
    def supports(topology) -> bool:
        """True for the topologies the screen models exactly."""
        return not isinstance(topology, ZonedTopology)

    def _neighbourhoods(self, sites, offsets):
        """Padded neighbourhoods of ``sites``: ``(site table, valid mask)``.

        Column ``j`` is offset ``j``.  Valid entries of a row are
        ascending; invalid ones hold site 0.
        """
        dr, dc = offsets
        rows = sites[:, None] // self.cols + dr
        cols = sites[:, None] % self.cols + dc
        valid = (rows >= 0) & (rows < self.rows) & (cols >= 0) & (cols < self.cols)
        return _np.where(valid, rows * self.cols + cols, 0), valid

    def _rect(self, origins, table):
        """Rectangular distances from ``origins`` to each row of ``table``.

        The same elementwise operations as ``GridTopology.rectangular_row``,
        so the values are bit-identical to the kernel's row gathers.
        """
        return (_np.abs(self.xs[origins][:, None] - self.xs[table])
                + _np.abs(self.ys[origins][:, None] - self.ys[table]))

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------
    def bounds(self, state, front_nodes: Sequence, lookahead_nodes: Sequence,
               *, lookahead_weight: float, time_weight: float,
               recent_moves: Sequence) -> Tuple[List[int], "_np.ndarray"]:
        """Lower bounds on the chain cost of every two-qubit front candidate.

        Returns ``(positions, bounds)``: the front positions of the
        two-qubit gates, and a ``(len(positions), 2)`` array whose column
        ``a`` bounds the chain anchored on the gate's qubit ``a``.  A
        candidate without a chain (partner already adjacent, empty zone,
        or no clearable zone site) has bound ``inf``.
        """
        positions, front_pairs, front_wide = _split_layer(front_nodes)
        if not positions or not self.zone_offsets[0].size:
            # An interaction radius below one spacing leaves every zone
            # empty, and no candidate has a chain.
            return positions, _np.full((len(positions), 2), _np.inf)
        qubit_atoms, qubit_sites, site_atoms, atom_qubits = \
            state.placement_arrays()
        movers = front_pairs[:, ::-1].reshape(-1)
        anchor_sites = qubit_sites[front_pairs.reshape(-1)]
        mover_sites = qubit_sites[movers]

        zone = self.zone_sites[anchor_sites]
        valid = self.zone_valid[anchor_sites]
        adjacent = (valid & (zone == mover_sites[:, None])).any(axis=1)
        free = valid & (state.free_mask[zone] != 0)
        free &= ~adjacent[:, None]
        distance = self._rect(mover_sites, zone)

        # Direct moves onto the nearest free zone site.
        has_free = free.any(axis=1)
        direct = has_free.nonzero()[0]
        destination = zone[direct, _np.where(free[direct], distance[direct],
                                             _np.inf).argmin(axis=1)]

        # Full zones: a move-away clears the nearest clearable zone site.
        full = (valid.any(axis=1) & ~adjacent & ~has_free).nonzero()[0]
        blocked = away = _np.empty(0, dtype=_np.int64)
        if full.size:
            full, blocked, away = self._move_aways(
                state, zone[full], valid[full], distance[full], full)

        # One row per move: direct moves of the direct candidates, direct
        # moves onto the cleared sites, then the move-aways.
        num_direct, num_full = direct.size, full.size
        blocking_atoms = site_atoms[blocked]
        move_qubits = _np.concatenate((movers[direct], movers[full],
                                       atom_qubits[blocking_atoms]))
        move_atoms = _np.concatenate((qubit_atoms[movers[direct]],
                                      qubit_atoms[movers[full]],
                                      blocking_atoms))
        move_src = _np.concatenate((mover_sites[direct], mover_sites[full],
                                    blocked))
        move_dst = _np.concatenate((destination, blocked, away))

        _, lookahead_pairs, lookahead_wide = _split_layer(lookahead_nodes)
        entries = _partner_table(
            qubit_sites,
            ((front_pairs, front_wide, 1.0),
             (lookahead_pairs, lookahead_wide, lookahead_weight)))
        contribution, magnitude, terms = self._move_costs(
            qubit_sites, entries, move_qubits, move_atoms, move_src,
            move_dst, time_weight, recent_moves)

        count = movers.size
        cost = _np.full(count, _np.inf)
        size = _np.zeros(count)
        term_count = _np.zeros(count)
        cost[direct] = contribution[:num_direct]
        size[direct] = magnitude[:num_direct]
        term_count[direct] = terms[:num_direct]
        if num_full:
            onto = slice(num_direct, num_direct + num_full)
            aways = slice(num_direct + num_full, None)
            cost[full] = contribution[aways] + contribution[onto] + 0.25
            size[full] = magnitude[aways] + magnitude[onto] + 0.25
            term_count[full] = terms[aways] + terms[onto]
        bounds = cost - (term_count + 8.0) * _SLACK_PER_TERM * (size + 1.0)
        return positions, bounds.reshape(-1, 2)

    def _move_aways(self, state, zone, valid, distance, rows):
        """Kernel move-aways for candidates whose whole zone is occupied.

        Returns ``(rows, blocked, away)`` restricted to the candidates that
        have a clearable zone site: the first zone site in ``(distance,
        site)`` order with a free trap within ``MOVE_AWAY_RADIUS`` spacings, and
        that trap — the free site of the innermost non-empty disc nearest
        to the blocked site, lowest index first.
        """
        # The distinct zone sites, ascending, and each one's row among them.
        seen = _np.zeros(self._num_sites, dtype=bool)
        seen[zone[valid]] = True
        origins = seen.nonzero()[0]
        row_of = _np.zeros(self._num_sites, dtype=_np.int64)
        row_of[origins] = _np.arange(origins.size)
        disc = self.disc_sites[origins]
        disc_free = self.disc_valid[origins] & (state.free_mask[disc] != 0)
        innermost = _np.where(disc_free, self.disc_ring,
                              MOVE_AWAY_RADIUS + 1).min(axis=1)
        clearable = innermost <= MOVE_AWAY_RADIUS
        nearest = disc[_np.arange(origins.size),
                       _np.where(disc_free & (self.disc_ring == innermost[:, None]),
                                 self.disc_rect[origins], _np.inf).argmin(axis=1)]
        lookup = row_of[zone]
        usable = valid & clearable[lookup]
        found = usable.any(axis=1)
        choice = _np.where(usable, distance, _np.inf).argmin(axis=1)[found]
        picked = lookup[found][_np.arange(choice.size), choice]
        return rows[found], origins[picked], nearest[picked]

    def _move_costs(self, qubit_sites, entries, move_qubits, move_atoms,
                    move_src, move_dst, time_weight: float,
                    recent_moves: Sequence):
        """Per-move ``(contribution, magnitude, partner terms)`` arrays.

        ``contribution`` is the move's Eq. (4)/(5) term — front distance
        change, weighted lookahead change and weighted ``C_t_parallel`` —
        and ``magnitude`` the same sum over absolute values, for the slack.
        Every move starts from its atom's current site, so the distance
        sum before the move is one value per qubit, and a move's row is
        fixed by its ``(atom, destination)``: the terms are evaluated once
        per distinct pair and gathered back.  A move of an atom without a
        circuit qubit (``move_qubits == -1``) has no distance terms.
        """
        _, distinct, inverse = _np.unique(
            move_atoms * self._num_sites + move_dst,
            return_index=True, return_inverse=True)
        move_qubits, move_atoms = move_qubits[distinct], move_atoms[distinct]
        move_src, move_dst = move_src[distinct], move_dst[distinct]

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

        # Expand each distinct move into its moved qubit's partner entries.
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
        return contribution[inverse], magnitude[inverse], per_move[inverse]


def _offset_pairs(offsets):
    """The ``(dr, dc)`` tuples of an offset-array pair."""
    return zip(offsets[0].tolist(), offsets[1].tolist())


def _euclidean(dx, dy):
    """``sqrt(dx**2 + dy**2)``: within two ulps of ``math.hypot``, which the
    slack absorbs, and cheaper than ``numpy.hypot``."""
    return _np.sqrt(dx * dx + dy * dy)


def _split_layer(nodes: Sequence):
    """``(positions, pairs, wide)`` of a layer.

    ``positions`` are the indices of its two-qubit gates, ``pairs`` their
    qubits as a ``(len(positions), 2)`` array, and ``wide`` the qubit
    tuples of its gates on three or more qubits.
    """
    gates = [node.gate.qubits for node in nodes]
    positions = [position for position, qubits in enumerate(gates)
                 if len(qubits) == 2]
    wide = [qubits for qubits in gates if len(qubits) > 2]
    if len(positions) < len(gates):
        gates = [gates[position] for position in positions]
    pairs = _np.fromiter(_chain.from_iterable(gates), dtype=_np.int64,
                         count=2 * len(positions))
    return positions, pairs.reshape(-1, 2), wide


def _partner_table(qubit_sites, layers):
    """``(owners, partner sites, weights)`` of every partner entry, sorted
    by owner qubit.

    ``layers`` holds ``(pairs, wide, weight)`` per layer: each two-qubit
    gate makes each of its qubits the other's partner, and a wider gate
    lists every other gate qubit as a partner of each of its qubits.
    """
    owners: List = []
    partners: List = []
    weights: List = []
    for pairs, wide, weight in layers:
        layer_owners = [pairs[:, 0], pairs[:, 1]]
        layer_partners = [pairs[:, 1], pairs[:, 0]]
        if wide:
            wide_owners = [qubit for qubits in wide for qubit in qubits
                           for other in qubits if other != qubit]
            wide_partners = [other for qubits in wide for qubit in qubits
                             for other in qubits if other != qubit]
            layer_owners.append(_np.array(wide_owners, dtype=_np.int64))
            layer_partners.append(_np.array(wide_partners, dtype=_np.int64))
        layer_owners = _np.concatenate(layer_owners)
        owners.append(layer_owners)
        partners.append(_np.concatenate(layer_partners))
        weights.append(_np.full(layer_owners.size, weight))
    owners = _np.concatenate(owners)
    order = owners.argsort(kind="stable")
    return (owners[order], qubit_sites[_np.concatenate(partners)[order]],
            _np.concatenate(weights)[order])
