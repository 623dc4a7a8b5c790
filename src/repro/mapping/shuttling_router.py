"""Shuttling-based routing (process block (4), Section 3.3.2).

The shuttling router gathers the qubits of a front-layer gate by physically
moving atoms.  Because considering every possible rearrangement is infeasible
(Section 3.1.1), only two kinds of moves are generated:

* a **direct move** ``M`` of a gate qubit onto a free site in the target
  region, or
* a **move-away combination** ``(M_away, M)`` that first relocates a blocking
  atom to a nearby free site and then performs the direct move onto the freed
  site.

The moves for one gate form a *move chain* bounded by ``2 (m - 1)`` moves.
Chains are built per anchor qubit — the gate qubit the others gather around —
by one builder, :meth:`ShuttlingRouter._build_chain`, for every gate width m,
and evaluated with the cost function of Eq. (4)/(5):

``C_s(M) = C_f_s(M) + w_l * C_l_s(M) + w_t * C_t_parallel(M)``

summed over all moves of the chain.  ``C_f_s``/``C_l_s`` measure the change
in routing distance of the front and lookahead shuttling layers caused by the
move, and ``C_t_parallel`` charges the extra time a move costs on top of the
last ``history_window`` moves depending on whether it can share their AOD
batch (parallel loading and shuttling), only their activation window
(parallel loading), or nothing.

Occupancy: a chain reads the state's free-site mask, then a private copy
that its simulated moves update, so the later qubits of a wide gate see the
earlier moves; the move-away search and :meth:`ShuttlingRouter.forced_chain`
do the same.  Only the occupancy is per call: the facts that depend on the
topology alone are lazily built, write-once tables of
:class:`~repro.hardware.connectivity.SiteConnectivity`.  The zone that
interacts with every kept site is ``common_interaction_array`` (cached per
site pair), and a move-away destination is the first free, non-forbidden
site of ``move_away_order`` — the move-away discs in scan order, innermost
disc, then travel distance, then site — for the chain builder's
``MOVE_AWAY_RADIUS`` and for the forced chain's lattice-wide reach alike.

Cost evaluation: :meth:`ShuttlingRouter.chain_cost` is the one scoring
path.  Only gates acting on the moved atom's circuit qubit can change their
distance, so :meth:`ShuttlingRouter.best_chain` builds a qubit → node index
over both layers once per routing round and the per-move distance terms walk
just the touched gates, in node order; ``C_t_parallel``
(:meth:`ShuttlingRouter.move_time_penalty`) is one walk over the recent-move
history with the AOD compatibility rule inlined and the full-shuttle term
computed at most once per move.  Nothing is memoised across chains or
rounds: once the screen below drops the chains that cannot win, a round
scores too few moves for a cost memo to pay.  Site geometry (neighbourhood
rings, hop-distance rows) comes from the shared
:class:`~repro.hardware.connectivity.SiteConnectivity` /
:class:`~repro.hardware.topology.GridTopology` caches, which the gate-based
router uses as well.

Screening: a round applies a single chain, so on fronts wider than
``_SCREEN_FRONT_WIDTH`` nodes :meth:`ShuttlingRouter.best_chain` does not
build every candidate.  :class:`~repro.mapping.chain_screen.ChainScreen`
bounds the cost of every (two-qubit gate, anchor) candidate from below in
one numpy pass — the chain builder's own destination or move-away, the exact
partner distances and ``C_t_parallel``, minus a rigorous float slack.  The
node with the smallest bound is built and costed exactly; only nodes whose
bound does not exceed that incumbent's cost are built and ranked.  Every
dropped chain costs strictly more than the incumbent, so it could neither
win nor tie, and the unchanged ``(cost, length)`` loop over the survivors
selects exactly the chain of the full scan.  Gates on three or more qubits
are never screened, nor are zoned topologies.  Narrow fronts skip the
screen because its fixed per-round cost exceeds what it saves there.  The
unscreened scan over plain layer walks lives on as the test-only reference
in ``tests/differential/routing_reference.py``.

Zoned topologies: entangling gates only execute inside entangling zones
(the zone-filtered connectivity encodes that), so a gate whose anchor qubit
is stranded in a storage zone cannot gather partners around its current
site.  The chain construction then *relocates the anchor first* — one extra
direct move onto the nearest free entangling trap — and gathers the
remaining qubits around the new site; travel distances include the
topology's corridor-transit penalties through the pooled moves.  On unzoned
topologies none of these paths engage and chain construction is exactly the
historical square-lattice behaviour.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as _np

from ..circuit.dag import DAGNode
from ..circuit.gate import Gate
from ..hardware.architecture import NeutralAtomArchitecture
from ..shuttling.moves import Move, MoveChain
from .chain_screen import MOVE_AWAY_RADIUS, ChainScreen
from .state import MappingState

__all__ = ["ShuttlingRouter"]

_EPSILON = 1e-9

#: ``best_chain`` screens a round only when its front holds more nodes than
#: this.  Screening costs a fixed numpy pass per round, which narrow fronts
#: do not repay (measured on the perfbench workloads, see CHANGES.md).
_SCREEN_FRONT_WIDTH = 16


def build_qubit_node_index(nodes: Sequence[DAGNode]
                           ) -> Dict[int, List[DAGNode]]:
    """Inverted index: circuit qubit → nodes acting on it, in node order.

    Node order is preserved so float sums taken over a qubit's nodes are
    bit-identical to iterating the original layer list.  A qubit's list is
    created by its first node, so no call allocates a list it then drops.
    """
    index: Dict[int, List[DAGNode]] = {}
    for node in nodes:
        for qubit in node.gate.qubits:
            bucket = index.get(qubit)
            if bucket is None:
                index[qubit] = [node]
            else:
                bucket.append(node)
    return index


def _simulate(free_mask, live_mask, moves: Sequence[Move]):
    """``free_mask`` after ``moves``; ``live_mask`` itself is copied, never written."""
    if free_mask is live_mask:
        free_mask = free_mask.copy()
    for move in moves:
        free_mask[move.source] = 1
        free_mask[move.destination] = 0
    return free_mask


class ShuttlingRouter:
    """Move-chain router with lookahead and AOD-parallelism awareness.

    :meth:`best_chain` scores chains through the round's qubit → node
    indices and screens wide fronts on unzoned grids.
    """

    def __init__(self, architecture: NeutralAtomArchitecture, *,
                 lookahead_weight: float = 0.1, time_weight: float = 0.1,
                 history_window: int = 4) -> None:
        # A NaN weight passes a ``< 0`` check and makes every cost
        # comparison false, so the first chain would win silently.
        if not (math.isfinite(lookahead_weight) and math.isfinite(time_weight)
                and lookahead_weight >= 0 and time_weight >= 0):
            raise ValueError("cost weights must be finite and non-negative")
        if history_window < 0:
            raise ValueError("history window must be non-negative")
        self.architecture = architecture
        self.lookahead_weight = lookahead_weight
        self.time_weight = time_weight
        self.history_window = history_window
        # Zone capability of the trap topology: on zoned devices anchors
        # stranded in storage zones are relocated into an entangling zone
        # first, and pooled moves carry the corridor-penalised travel
        # distance.  Both flags are False for unzoned topologies, keeping
        # every hot path byte-identical to the square-lattice behaviour.
        topology = architecture.lattice
        self._zone_aware = not topology.all_sites_entangling
        self._has_travel_penalty = topology.has_travel_penalties
        self._gate_capable_cache: Optional[frozenset] = None
        # The exact best_chain screen (unzoned grids; built on first use).
        self._screenable = ChainScreen.supports(topology)
        self._screen: Optional[ChainScreen] = None
        self._gate_capable_array = None
        self._recent_moves: List[Move] = []
        # Moves are immutable values fully determined by (atom, source,
        # destination, is_move_away); the same candidate move is rebuilt
        # thousands of times across rounds, so instances are pooled.
        self._move_pool: Dict[Tuple[int, int, int, bool], Move] = {}

    # ------------------------------------------------------------------
    # History bookkeeping
    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._recent_moves.clear()
        self._move_pool.clear()

    def note_moves_applied(self, moves: Sequence[Move]) -> None:
        """Record executed moves for the parallelism term of the cost function."""
        if not moves:
            return
        self._recent_moves.extend(moves)
        if self.history_window and len(self._recent_moves) > self.history_window:
            self._recent_moves = self._recent_moves[-self.history_window:]

    # ------------------------------------------------------------------
    # Chain construction
    # ------------------------------------------------------------------
    def candidate_chains(self, state: MappingState, node) -> List[MoveChain]:
        """Move chains that make the gate of ``node`` executable.

        One chain is proposed per anchor qubit; chains are sorted by length
        so that minimal-length chains are preferred, following the intuition
        that two moves are unlikely to beat one direct move even when they
        can be shuttled in parallel.
        """
        gate: Gate = node.gate
        chains: List[MoveChain] = []
        for anchor in gate.qubits:
            chain = self._build_chain(state, gate, anchor, node.index)
            if chain is not None:
                if gate.num_qubits > 2:
                    # Two-qubit chains (at most a move-away plus a direct
                    # move onto the freed site) satisfy the invariants by
                    # construction; wider gates keep the safety check.  The
                    # bound only widens when a zoned anchor relocation was
                    # actually prepended (anchor on a storage trap), so the
                    # 2(m-1) invariant stays tight everywhere else.
                    relocated = (self._zone_aware
                                 and not self.architecture.is_entangling_site(
                                     state.site_of_qubit(anchor)))
                    chain.validate(max_gate_width=gate.num_qubits,
                                   extra_moves=1 if relocated else 0)
                chains.append(chain)
        if not chains:
            return chains
        chains.sort(key=len)
        shortest = len(chains[0])
        return [chain for chain in chains if len(chain) <= shortest + 1]

    def _build_chain(self, state: MappingState, gate: Gate, anchor: int,
                     gate_index: int) -> Optional[MoveChain]:
        """Gather all gate qubits around ``anchor`` with direct/move-away moves.

        For every gate width, the other qubits, nearest to the anchor
        first, stay put if they interact with every kept site, or else move
        onto the nearest free site of the zone interacting with all of
        them; a full zone's nearest site is cleared by a move-away first.
        On a zoned topology a storage-stranded anchor is relocated first.

        Each selection is a numpy gather that breaks ties as the scalar
        loops of ``tests/differential/chain_reference.py`` do: the zone
        arrays (``common_interaction_array``) stay sorted ascending, so
        argmin's first minimum is the scalar ``(row[site], site)``
        tie-break; the row arrays hold the scalar rows' floats verbatim;
        the order in which full-zone sites are tried for a move-away is a
        stable argsort over the same values.  Occupancy is ``state.free_mask``
        until the chain's first simulated move, then a private copy.  The
        last qubit's moves are not simulated (nothing reads them), so a
        two-qubit chain never copies the mask.
        """
        connectivity = state.connectivity
        lattice = self.architecture.lattice
        live_mask = state.free_mask
        free_mask = live_mask
        anchor_site = state.site_of_qubit(anchor)
        kept_sites: List[int] = [anchor_site]
        moves: List[Move] = []

        if self._zone_aware and not self.architecture.is_entangling_site(anchor_site):
            relocation = self._anchor_relocation(state, anchor, anchor_site)
            if relocation is None:
                return None
            moves.append(relocation)
            free_mask = _simulate(free_mask, live_mask, moves)
            anchor_site = relocation.destination
            kept_sites[0] = anchor_site

        others = [qubit for qubit in gate.qubits if qubit != anchor]
        if len(others) > 1:
            anchor_row = lattice.euclidean_row(anchor_site)
            others.sort(key=lambda qubit: anchor_row[state.site_of_qubit(qubit)])

        remaining = len(others)
        for qubit in others:
            remaining -= 1
            current_site = state.site_of_qubit(qubit)
            if self._site_fits(connectivity, current_site, kept_sites):
                kept_sites.append(current_site)
                continue

            # No site neighbours itself and current_site misses some kept
            # site's neighbourhood, so the zone holds neither.
            zone = connectivity.common_interaction_array(kept_sites)
            if not zone.size:
                return None

            row = lattice.rectangular_row_array(current_site)
            free_candidates = zone[free_mask[zone].nonzero()[0]]
            if free_candidates.size:
                destination = int(
                    free_candidates[row[free_candidates].argmin()])
                new_moves: List[Move] = []
            else:
                # The zone is full: clear its nearest site that is not a
                # gate qubit's with a move-away first.
                gate_sites = {state.site_of_qubit(q) for q in gate.qubits}
                forbidden = {current_site, *kept_sites}
                for index in row[zone].argsort(kind="stable"):
                    destination = int(zone[index])
                    if destination in gate_sites:
                        continue
                    blocking_atom = state.atom_at_site(destination)
                    if blocking_atom is None:
                        continue
                    away = self._nearest_free_site(free_mask, connectivity,
                                                   destination, forbidden)
                    if away is not None:
                        break
                else:
                    return None
                new_moves = [self._pooled_move(blocking_atom, destination,
                                               away, lattice,
                                               is_move_away=True)]
            new_moves.append(self._pooled_move(state.atom_of_qubit(qubit),
                                               current_site, destination,
                                               lattice, is_move_away=False))
            moves.extend(new_moves)
            kept_sites.append(destination)
            if remaining:
                free_mask = _simulate(free_mask, live_mask, new_moves)

        if not moves:
            return None
        return MoveChain(moves=moves, gate_index=gate_index)

    @staticmethod
    def _site_fits(connectivity, site: int, kept_sites: Sequence[int]) -> bool:
        """True if ``site`` interacts with every already-kept site."""
        return all(connectivity.are_adjacent(site, kept) for kept in kept_sites)

    def _gate_capable_sites(self, connectivity) -> frozenset:
        """Entangling-zone sites that actually have interaction partners.

        The gathering construction needs a gate-capable destination for a
        relocated anchor; an entangling site with an empty interaction
        neighbourhood (degenerate radii) could never host a partner, so it
        is excluded.  Pure topology — computed once per router.
        """
        cached = self._gate_capable_cache
        if cached is None:
            cached = frozenset(
                site for site in self.architecture.entangling_sites()
                if connectivity.coordination_number(site) > 0)
            self._gate_capable_cache = cached
        return cached

    def _anchor_relocation(self, state: MappingState, anchor: int,
                           anchor_site: int) -> Optional[Move]:
        """Direct move of a storage-stranded anchor into an entangling zone.

        The destination is the free gate-capable site nearest to the
        anchor's current trap (travel metric, deterministic site-index
        tie-break).
        """
        candidates = self._gate_capable_sites(state.connectivity)
        lattice = self.architecture.lattice
        # Relocation is always the chain's first move, so the scan runs
        # against the live occupancy: one masked gather over the cached
        # sorted candidate array, with the ascending order making argmin
        # the scalar (row, site) tie-break.
        array = self._gate_capable_array
        if array is None:
            array = _np.fromiter(sorted(candidates), dtype=_np.int64,
                                 count=len(candidates))
            self._gate_capable_array = array
        free = array[state.free_mask[array].nonzero()[0]]
        if not free.size:
            return None
        row = lattice.rectangular_row_array(anchor_site)
        destination = int(free[row[free].argmin()])
        return self._pooled_move(state.atom_of_qubit(anchor), anchor_site,
                                 destination, lattice, is_move_away=False)

    @staticmethod
    def _nearest_free_site(free_mask, connectivity, origin: int,
                           forbidden: Set[int],
                           max_radius: int = MOVE_AWAY_RADIUS) -> Optional[int]:
        """Closest free site to ``origin`` outside ``forbidden`` (for move-aways).

        ``free_mask`` is the occupancy to search (uint8, 1 = free): the live
        ``state.free_mask`` or a chain's simulated copy.  The scan — discs
        of 1 to ``max_radius`` lattice spacings, innermost first, nearest
        site by travel distance, lowest index on ties — is one masked
        gather over the cached
        :meth:`~repro.hardware.connectivity.SiteConnectivity.move_away_order`:
        its first free site outside ``forbidden`` is the answer.  At most
        ``len(forbidden)`` free sites are forbidden, so that site is among
        the first ``len(forbidden) + 1`` free ones.
        """
        order = connectivity.move_away_order(origin, max_radius)
        candidates = order[free_mask[order].nonzero()[0]]
        for site in candidates[:len(forbidden) + 1].tolist():
            if site not in forbidden:
                return site
        return None

    def _pooled_move(self, atom: int, source: int, destination: int, lattice, *,
                     is_move_away: bool) -> Move:
        """Shared :class:`Move` instance for the given value (pooled).

        Moves are frozen dataclasses whose fields are fully determined by the
        arguments, so reusing one instance is observationally identical to
        constructing a fresh one — and orders of magnitude cheaper in the
        chain-construction hot loop.
        """
        key = (atom, source, destination, is_move_away)
        move = self._move_pool.get(key)
        if move is None:
            travel = (lattice.rectangular_row(source)[destination]
                      if self._has_travel_penalty else None)
            move = Move(
                atom=atom,
                source=source,
                destination=destination,
                source_position=lattice.position(source),
                destination_position=lattice.position(destination),
                is_move_away=is_move_away,
                travel_distance_um=travel,
            )
            self._move_pool[key] = move
        return move

    # ------------------------------------------------------------------
    # Cost evaluation
    # ------------------------------------------------------------------
    def move_time_penalty(self, move: Move) -> float:
        """``C_t_parallel`` contribution of one move against the recent-move history.

        One walk over the history, in order.  A recent move that can share
        the move's AOD batch adds nothing: the rule of
        :func:`repro.shuttling.aod.moves_compatible` (distinct atoms, no
        shared destination, neither destination the other's source, both
        axis orderings preserved) is inlined, since this runs ~10^5 times
        per mapping at scale.  One that shares a source row or column adds
        the activation window; any other adds a full shuttle, whose term is
        computed at most once per move.  The terms are added in history
        order, so the screen's batch
        (:func:`~repro.mapping.chain_screen.time_penalties`) reproduces the
        sum bit for bit.  ``test_pair_penalty_matches_moves_compatible``
        guards the inlined rule against the scheduler's.
        """
        penalty = 0.0
        full = None
        durations = self.architecture.durations
        atom = move.atom
        source = move.source
        destination = move.destination
        sx, sy = move.source_position
        ex, ey = move.destination_position
        for recent in self._recent_moves:
            rsx, rsy = recent.source_position
            dsx = sx - rsx
            dsy = sy - rsy
            if (atom != recent.atom
                    and destination != recent.destination
                    and destination != recent.source
                    and recent.destination != source):
                rex, rey = recent.destination_position
                dex = ex - rex
                dey = ey - rey
                if ((abs(dsx) < _EPSILON or abs(dex) < _EPSILON
                     or (dsx > 0) == (dex > 0))
                        and (abs(dsy) < _EPSILON or abs(dey) < _EPSILON
                             or (dsy > 0) == (dey > 0))):
                    # Parallel loading & shuttling: shares the whole AOD
                    # batch (adding 0.0 would not change the sum).
                    continue
            if abs(dsy) < _EPSILON or abs(dsx) < _EPSILON:
                # Parallel loading only: the activation window is shared,
                # but the shuttle itself needs its own
                # deactivation/activation.
                penalty += durations.aod_activation + durations.aod_deactivation
            else:
                if full is None:
                    full = (durations.aod_activation
                            + self.architecture.shuttle_move_duration(
                                move.rectangular_distance)
                            + durations.aod_deactivation)
                penalty += full
        return penalty

    def _distance_change(self, state: MappingState, move: Move,
                         node_index: Dict[int, Sequence]) -> float:
        """Summed change in gate distance caused by ``move`` over a layer.

        Only gates involving the moved atom's circuit qubit can change their
        direct distance; the (rarer) indirect conflicts of Example 6 are
        handled by re-validating cached positions in the mapper rather than
        inside this per-move cost.  ``node_index`` is the layer's qubit →
        nodes index (:func:`build_qubit_node_index`),
        so the walk visits just the touched gates, in layer order.
        """
        moved_qubit = state.qubit_of_atom(move.atom)
        if moved_qubit is None:
            return 0.0
        nodes = node_index.get(moved_qubit)
        if not nodes:
            # Nothing to walk: ``0.0 / spacing`` would be 0.0 as well.
            return 0.0
        lattice = self.architecture.lattice
        source_row = lattice.euclidean_row(move.source)
        destination_row = lattice.euclidean_row(move.destination)
        site_of_qubit = state.site_of_qubit
        change = 0.0
        for node in nodes:
            qubits = node.gate.qubits
            before = 0.0
            after = 0.0
            for other in qubits:
                if other == moved_qubit:
                    continue
                other_site = site_of_qubit(other)
                before += source_row[other_site]
                after += destination_row[other_site]
            change += after - before
        return change / max(lattice.spacing, _EPSILON)

    def chain_cost(self, state: MappingState, chain: MoveChain,
                   front_index: Dict[int, Sequence],
                   lookahead_index: Dict[int, Sequence]) -> float:
        """Total cost of a chain according to Eq. (4)/(5).

        Each move contributes its front distance change, plus ``w_l`` times
        its lookahead distance change, plus ``w_t`` times its
        ``C_t_parallel`` penalty, summed in that order.  The layers come as
        their qubit → node indices (see :meth:`_distance_change`).  This is
        the only cost composition the router has, so the screen's bound and
        the golden op streams both pin its evaluation order.
        """
        total = 0.0
        for move in chain:
            total += (self._distance_change(state, move, front_index)
                      + self.lookahead_weight * self._distance_change(
                          state, move, lookahead_index)
                      + self.time_weight * self.move_time_penalty(move))
        # Move-aways carry no distance benefit of their own; penalise longer
        # chains slightly so that, all else equal, minimal chains win.
        total += 0.25 * chain.num_move_aways
        return total

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def best_chain(self, state: MappingState, front_nodes: Sequence,
                   lookahead_nodes: Sequence) -> Optional[MoveChain]:
        """Best move chain over all front-layer shuttling gates.

        Ranks the candidate chains of every front node, in front order, by
        ``(chain_cost, length)`` and returns the first minimum.  The distance
        terms walk the round's qubit → node indices, and on fronts wider
        than ``_SCREEN_FRONT_WIDTH`` the two-qubit gates are screened first
        (:meth:`_screened_candidates`), so chains are built and costed only
        for the nodes that can still win.  Neither shortcut changes the
        selected chain.
        """
        front_index = build_qubit_node_index(front_nodes)
        lookahead_index = build_qubit_node_index(lookahead_nodes)

        def cost_of(chain: MoveChain) -> float:
            return self.chain_cost(state, chain, front_index, lookahead_index)

        if self._screenable and len(front_nodes) > _SCREEN_FRONT_WIDTH:
            chains_by_node = self._screened_candidates(
                state, front_nodes, lookahead_nodes, cost_of)
        else:
            chains_by_node = (self.candidate_chains(state, node)
                              for node in front_nodes)
        best_chain: Optional[MoveChain] = None
        best_rank: Optional[Tuple[float, int]] = None
        for chains in chains_by_node:
            for chain in chains:
                rank = (cost_of(chain), len(chain.moves))
                if best_rank is None or rank < best_rank:
                    best_chain = chain
                    best_rank = rank
        return best_chain

    def screen_bounds(self, state: MappingState, front_nodes: Sequence,
                      lookahead_nodes: Sequence):
        """The screen's ``(positions, bounds)`` for one round (see
        :meth:`ChainScreen.bounds <repro.mapping.chain_screen.ChainScreen.bounds>`)."""
        if self._screen is None:
            self._screen = ChainScreen(self.architecture)
        return self._screen.bounds(
            state, front_nodes, lookahead_nodes,
            lookahead_weight=self.lookahead_weight,
            time_weight=self.time_weight, recent_moves=self._recent_moves)

    def _screened_candidates(self, state: MappingState, front_nodes: Sequence,
                             lookahead_nodes: Sequence, cost_of
                             ) -> List[List[MoveChain]]:
        """Candidate chains of the front nodes that can hold the best chain.

        The screen bounds every two-qubit candidate from below.  The node
        with the smallest bound is built and costed exactly, and its
        cheapest chain is the incumbent.  A two-qubit node whose bounds
        all exceed the incumbent's cost only has chains strictly more
        expensive than the incumbent: they can neither win nor tie, so
        the node is dropped.  Every other node — wider gates included —
        keeps its chains, in front order, for the ranking loop.  The kept
        positions come from a keep-mask over the front that is cleared at
        the pruned positions, so only the kept nodes are walked; wider
        gates have no screen position and are never cleared.
        """
        positions, bounds = self.screen_bounds(state, front_nodes,
                                               lookahead_nodes)
        node_bounds = bounds.min(axis=1)
        built_position = -1
        built: List[MoveChain] = []
        incumbent = _np.inf
        if node_bounds.size:
            best = int(node_bounds.argmin())
            if node_bounds[best] < _np.inf:
                built_position = positions[best]
                built = self.candidate_chains(state,
                                              front_nodes[built_position])
                for chain in built:
                    incumbent = min(incumbent, cost_of(chain))
        # Strictly above only: a node whose bound equals the incumbent's
        # cost may hold a chain that ties it and wins on front order.
        pruned = _np.array(positions, dtype=_np.int64)[node_bounds > incumbent]
        keep = _np.ones(len(front_nodes), dtype=bool)
        keep[pruned] = False
        return [built if position == built_position
                else self.candidate_chains(state, front_nodes[position])
                for position in keep.nonzero()[0].tolist()]

    # ------------------------------------------------------------------
    # Deterministic fallback
    # ------------------------------------------------------------------
    def forced_chain(self, state: MappingState, node) -> Optional[MoveChain]:
        """Exhaustive fallback chain used when greedy chain construction fails.

        The method picks an explicit target cluster — the anchor's site plus
        the nearest sites forming a mutually interacting set of the gate's
        width — and moves every gate qubit that is not already on a cluster
        site onto it, clearing occupied cluster sites with move-aways whose
        destination may be anywhere on the lattice.  Each step sees the
        occupancy the earlier steps leave, simulated on a copy of the free
        mask.  The resulting chain can exceed the ``2 (m - 1)`` bound (it is
        only used as a safety valve) but always exists as long as a single
        free trap remains.
        """
        gate: Gate = node.gate
        lattice = self.architecture.lattice
        # A move-away may reach every trap: the lattice diagonal, in
        # spacings of the finer pitch.
        reach = math.ceil(math.hypot((lattice.rows - 1) * lattice.spacing_y,
                                     (lattice.cols - 1) * lattice.spacing_x)
                          / lattice.spacing)

        for anchor in gate.qubits:
            anchor_site = state.site_of_qubit(anchor)
            cluster = self._find_target_cluster(state, anchor_site, gate.num_qubits)
            if cluster is None:
                continue
            gate_sites = {state.site_of_qubit(q) for q in gate.qubits}
            forbidden = set(cluster) | gate_sites

            # Qubits already sitting on cluster sites keep their place.
            free_cluster_sites = [site for site in cluster if site not in gate_sites]
            movers = [q for q in gate.qubits
                      if state.site_of_qubit(q) not in cluster]
            if len(movers) > len(free_cluster_sites):
                continue

            free_mask = state.free_mask
            moves: List[Move] = []
            for qubit, target in zip(movers, free_cluster_sites):
                step: List[Move] = []
                if not free_mask[target]:
                    blocking_atom = state.atom_at_site(target)
                    if blocking_atom is None:
                        break
                    away = self._nearest_free_site(
                        free_mask, state.connectivity, target, forbidden,
                        max_radius=reach)
                    if away is None:
                        break
                    step.append(self._pooled_move(blocking_atom, target, away,
                                                  lattice, is_move_away=True))
                step.append(self._pooled_move(state.atom_of_qubit(qubit),
                                              state.site_of_qubit(qubit),
                                              target, lattice,
                                              is_move_away=False))
                moves.extend(step)
                free_mask = _simulate(free_mask, state.free_mask, step)
            else:
                if moves:
                    return MoveChain(moves=moves, gate_index=node.index)
        return None

    def _find_target_cluster(self, state: MappingState, anchor_site: int,
                             size: int) -> Optional[List[int]]:
        """Sites forming a mutually interacting set of ``size`` containing the anchor.

        On a zoned topology an anchor on a storage trap cannot seed a
        cluster (no interaction partners), so the seed is redirected to the
        nearest gate-capable site; the forced chain then moves every gate
        qubit — the anchor included — onto the cluster.
        """
        connectivity = state.connectivity
        lattice = self.architecture.lattice
        if self._zone_aware and not self.architecture.is_entangling_site(anchor_site):
            capable = self._gate_capable_sites(connectivity)
            if not capable:
                return None
            row = lattice.rectangular_row(anchor_site)
            anchor_site = min(capable, key=lambda site: (row[site], site))
        cluster = [anchor_site]
        anchor_row = lattice.euclidean_row(anchor_site)
        candidates = sorted(
            connectivity.interaction_neighbours(anchor_site),
            key=lambda site: (anchor_row[site], site))
        for site in candidates:
            if len(cluster) == size:
                break
            if all(connectivity.are_adjacent(site, kept) for kept in cluster):
                cluster.append(site)
        if len(cluster) < size:
            return None
        return cluster
