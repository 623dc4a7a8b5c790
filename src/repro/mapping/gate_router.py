"""Gate-based routing (process block (3), Section 3.3.1).

The gate-based router inserts SWAP gates to modify the qubit mapping until at
least one front-layer gate becomes executable.  Candidate SWAPs are all swaps
between a front-layer gate qubit and an atom within its interaction radius.
Each candidate is scored with the cost function of Eq. (2)/(3):

``C_g(S) = exp(-lambda_t * t(S)) * [ C_f(S) + w_l * C_l(S) ]``

where ``C_f``/``C_l`` aggregate, over the gate-based front and lookahead
layers, the routing distance that remains after hypothetically applying the
SWAP ``S`` (two-qubit gates measure the distance between their qubits;
multi-qubit gates measure the distance of every gate qubit to its assigned
site in the precomputed :class:`~repro.mapping.multiqubit.GatePosition`).

``t(S)`` is a recency score: SWAPs whose qubits took part in one of the last
``recency_window`` routing operations (including qubits merely *restricted*
by them, the NA-specific extension the paper describes) receive a larger
``t(S)``, and with ``lambda_t > 0`` the exponential factor damps their score,
steering the router towards SWAPs on fresh qubits and therefore towards more
parallelism.  The paper's evaluation uses ``lambda_t = 0`` where the factor
is exactly 1.

Interpretation note: Eq. (3) is stated in terms of the *difference* in SWAP
count caused by ``S``.  Because every candidate is compared on the same layer
set, ranking by remaining distance and ranking by difference are equivalent;
the implementation uses the remaining distance so that the cost is
non-negative and the exponential damping acts in the intended direction.

Candidate table
---------------
:class:`SwapCandidateTable` holds every candidate of the current round and
lives for a whole routing run (:meth:`GateRouter.reset` drops it).  It
keeps:

* per node of the front and lookahead layers: its gate, its
  :class:`~repro.mapping.multiqubit.GatePosition` object, how often each
  layer lists it (hand-crafted layers may list a node twice), and its
  routing distance; the layer baselines are the count-weighted sums;
* per qubit a front or lookahead gate acts on, its *per-qubit terms*: one
  distance row per listing of a partner in a two-qubit or position-less
  multi-qubit gate (the partner site's
  :meth:`~repro.hardware.connectivity.SiteConnectivity.swap_row`,
  ``max(hop - 1, 0)``, the two-qubit distance rule) and per listing of an
  assigned target of a positioned gate (the target's ``hop_row``), and
  both sums ``S_q(site)`` at the qubit's current site.  The site graph is
  undirected, so a row read at ``site`` is the distance from ``site``;
* per candidate site pair, the SWAP's orientation and its integer
  ``(delta front, delta lookahead)``.

A SWAP moving ``a`` from ``s_a`` to ``s_b`` and ``b`` from ``s_b`` to
``s_a`` changes a layer's distance by exactly ``[S_a(s_b) - S_a(s_a)] +
[S_b(s_a) - S_b(s_b)]``.  A gate pair holding both swapped qubits
contributes ``0 - 0`` to each side, because candidate sites are adjacent,
and position terms are additive per qubit.

Cache invalidation: each round diffs the front and lookahead node lists,
and every node's ``GatePosition`` identity, against the previous round,
and takes the sites changed since then from the
:class:`~repro.mapping.state.MappingState` change log (SWAPs, forced
routes and shuttle moves all log there).  A qubit is *dirty* when it sits
on a changed site, when it shares a position-less gate with such a qubit,
or when a node it belongs to entered, left, changed its listing counts or
was re-positioned.  Only the dirty qubits' terms and the distances of
nodes holding a moved qubit are rebuilt, and only the site pairs touching
a changed site or a dirty qubit's site are re-enumerated and rescored.
The orientation (the front qubit visited first is ``qubit_a``) is
re-derived for those pairs, and for every pair when the visit order of
the clean front qubits changed (the mapper's layers keep circuit order,
so only a hand-crafted layer does that).  The first round, a different
state object, or a change log another reader took rebuilds the table
from nothing through the same path, with every qubit dirty.

Selection: :meth:`GateRouter.best_swap` loops over the stored pairs once
and evaluates ``(B_f + delta_f) + w_l * (B_l + delta_l)`` on the integers,
times ``exp(lambda_t * t(S))`` with the recency recomputed per round when
``lambda_t > 0``.  Every term is an integer, so the float costs are
bit-identical to re-walking both layers in full, and the
``(cost, lower site, higher site)`` key is a total order that does not
depend on the loop order; the inverse of the last SWAP stands only when
it is the one candidate.  ``tests/differential/routing_reference.py``
keeps the naive walk, with its own candidate generator, as the test-only
reference.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..circuit.gate import Gate
from ..hardware.architecture import NeutralAtomArchitecture
from .multiqubit import GatePosition
from .state import MappingState

__all__ = ["SwapCandidate", "SwapCandidateTable", "GateRouter"]

#: The per-qubit terms of a qubit no front or lookahead gate acts on.
_NO_TERMS = ((), (), 0, 0)


class SwapCandidate(NamedTuple):
    """A candidate SWAP between the atoms at two adjacent sites.

    ``qubit_a`` is always a circuit qubit of a front-layer gate; ``qubit_b``
    is the circuit qubit held by the partner atom or ``None`` when the
    partner is an auxiliary (unassigned) atom.  A named tuple, because
    every routing round builds one per (front qubit, partner atom) pair.
    """

    qubit_a: int
    qubit_b: Optional[int]
    atom_a: int
    atom_b: int
    site_a: int
    site_b: int

    def key(self) -> Tuple[int, int]:
        """Canonical identity used for deduplication."""
        return (min(self.site_a, self.site_b), max(self.site_a, self.site_b))


class SwapCandidateTable:
    """The SWAP candidates of a routing run, kept across rounds.

    :meth:`update` brings the table in line with one round's state, layers
    and positions, rescoring only what changed since the previous round
    (see the module docstring).  :attr:`entries` then maps every candidate
    site pair ``(lower, higher)`` to ``(delta front, delta lookahead,
    fields)``, ``fields`` being the :class:`SwapCandidate` field tuple; a
    candidate's layer distances are the baselines plus its deltas.
    """

    __slots__ = ("_reader", "_state", "_front", "_lookahead", "_nodes",
                 "_qubit_nodes", "_terms", "_rank", "entries", "baseline_front",
                 "baseline_lookahead", "rescored")

    def __init__(self) -> None:
        # Identifies this table to MappingState.take_changed_sites; a bare
        # token rather than the table, so the state holds no reference
        # back to the table (and through it to the state itself).
        self._reader = object()
        self.clear()

    def clear(self) -> None:
        """Forget everything; the next :meth:`update` rebuilds the table."""
        self._state: Optional[MappingState] = None
        self._front: list = []
        self._lookahead: list = []
        # node index -> [gate, position, front count, lookahead count,
        #                distance]
        self._nodes: Dict[int, list] = {}
        # qubit -> indices of the nodes whose gate acts on it
        self._qubit_nodes: Dict[int, Set[int]] = {}
        # qubit -> (front rows, lookahead rows, front sum here,
        #           lookahead sum here); a row per partner or target listing
        self._terms: Dict[int, tuple] = {}
        # front qubit -> its place in the visit order
        self._rank: Dict[int, int] = {}
        self.entries: Dict[Tuple[int, int], Tuple[int, int, tuple]] = {}
        self.baseline_front = 0
        self.baseline_lookahead = 0
        # Pairs enumerated and scored by the last update.
        self.rescored = 0

    def update(self, state: MappingState, front_nodes: Sequence,
               lookahead_nodes: Sequence,
               positions: Dict[int, GatePosition]) -> None:
        """Bring the table in line with this round."""
        changed = state.take_changed_sites(self._reader)
        if changed is None or state is not self._state:
            self.clear()
            self._state = state
            changed = ()
        connectivity = state.connectivity
        swap_row = connectivity.swap_row
        hop_row = connectivity.hop_row
        site_of_qubit = state.site_of_qubit
        site_atoms = state.site_atoms
        atom_qubits = state.atom_qubits
        nodes = self._nodes
        qubit_nodes = self._qubit_nodes

        # (1) Diff the layers and the positions against the previous round.
        front = list(front_nodes)
        lookahead = list(lookahead_nodes)
        added: List[tuple] = []
        dropped: List[int] = []
        old_rank = rank = self._rank
        # Most rounds follow a SWAP and list the very same nodes; then only
        # a position can have changed.
        if front == self._front and lookahead == self._lookahead:
            for index, entry in nodes.items():
                position = positions.get(index)
                if position is not entry[1]:
                    dropped.append(index)
                    added.append((index, entry[0], position, entry[2],
                                  entry[3]))
        else:
            # node index -> [gate, front count, lookahead count]: a node
            # listed more than once weighs in once per listing, as a full
            # walk of the layers counts it.
            listed: Dict[int, list] = {}
            for slot, layer in ((1, front), (2, lookahead)):
                for node in layer:
                    entry = listed.get(node.index)
                    if entry is None:
                        entry = listed[node.index] = [node.gate, 0, 0]
                    entry[slot] += 1
            for index in nodes:
                if index not in listed:
                    dropped.append(index)
            for index, (gate, in_front, in_lookahead) in listed.items():
                position = positions.get(index)
                old = nodes.get(index)
                if old is not None:
                    if (old[0] is gate and old[1] is position
                            and old[2] == in_front and old[3] == in_lookahead):
                        continue
                    dropped.append(index)
                added.append((index, gate, position, in_front, in_lookahead))
            rank = {}
            for node in front:
                for qubit in node.gate.qubits:
                    if qubit not in rank:
                        rank[qubit] = len(rank)
            self._rank = rank
            self._front = front
            self._lookahead = lookahead

        dirty: Set[int] = set()
        for index in dropped:
            gate, _, in_front, in_lookahead, distance = nodes.pop(index)
            self.baseline_front -= in_front * distance
            self.baseline_lookahead -= in_lookahead * distance
            for qubit in gate.qubits:
                indices = qubit_nodes[qubit]
                indices.discard(index)
                if not indices:
                    del qubit_nodes[qubit]
                dirty.add(qubit)
        # (2) A qubit on a changed site moved: its nodes' distances change,
        # and so do the terms of every qubit sharing a position-less gate
        # with it.
        resized: Set[int] = set()
        for site in changed:
            atom = site_atoms[site]
            if atom < 0:
                continue
            qubit = atom_qubits[atom]
            if qubit < 0:
                continue
            dirty.add(qubit)
            for index in qubit_nodes.get(qubit, ()):
                resized.add(index)
                entry = nodes[index]
                if entry[1] is None:
                    dirty.update(entry[0].qubits)
        for index, gate, position, in_front, in_lookahead in added:
            nodes[index] = [gate, position, in_front, in_lookahead, 0]
            resized.add(index)
            for qubit in gate.qubits:
                indices = qubit_nodes.get(qubit)
                if indices is None:
                    indices = qubit_nodes[qubit] = set()
                indices.add(index)
                dirty.add(qubit)

        # (3) Node distances and the baselines.
        for index in resized:
            entry = nodes[index]
            gate, position, in_front, in_lookahead, old = entry
            distance = 0
            if position is not None:
                for qubit, target in position.assignment.items():
                    distance += hop_row(site_of_qubit(qubit))[target]
            else:
                sites = [site_of_qubit(qubit) for qubit in gate.qubits]
                for i, site in enumerate(sites):
                    row = swap_row(site)
                    for other in sites[i + 1:]:
                        distance += row[other]
            entry[4] = distance
            self.baseline_front += in_front * (distance - old)
            self.baseline_lookahead += in_lookahead * (distance - old)

        # (4) The dirty qubits' terms.  The site graph is undirected, so the
        # partner's (target's) row read at a site is the distance from it.
        terms = self._terms
        touched = set(changed)
        for qubit in dirty:
            here = site_of_qubit(qubit)
            touched.add(here)
            indices = qubit_nodes.get(qubit)
            if not indices:
                terms.pop(qubit, None)
                continue
            front_rows: List[List[int]] = []
            look_rows: List[List[int]] = []
            for index in indices:
                gate, position, in_front, in_lookahead, _ = nodes[index]
                if position is not None:
                    target = position.assignment.get(qubit)
                    if target is None:
                        continue
                    rows = [hop_row(target)]
                else:
                    rows = [swap_row(site_of_qubit(other))
                            for other in gate.qubits if other != qubit]
                front_rows.extend(rows * in_front)
                look_rows.extend(rows * in_lookahead)
            terms[qubit] = (front_rows, look_rows,
                            sum(row[here] for row in front_rows),
                            sum(row[here] for row in look_rows))

        # (5) Re-enumerate and rescore the pairs around touched sites, each
        # pair once, from its lower touched site.
        entries = self.entries
        interaction_neighbours = connectivity.interaction_neighbours
        rescored = 0
        for site in touched:
            neighbours = [neighbour for neighbour in interaction_neighbours(site)
                          if neighbour > site or neighbour not in touched]
            atom = site_atoms[site]
            if atom < 0:
                for neighbour in neighbours:
                    entries.pop((site, neighbour) if site < neighbour
                                else (neighbour, site), None)
                continue
            qubit = atom_qubits[atom]
            qubit_rank = rank.get(qubit)
            front_rows, look_rows, front_here, look_here = terms.get(
                qubit, _NO_TERMS)
            for neighbour in neighbours:
                pair = ((site, neighbour) if site < neighbour
                        else (neighbour, site))
                other_atom = site_atoms[neighbour]
                if other_atom < 0:
                    entries.pop(pair, None)
                    continue
                other = atom_qubits[other_atom]
                other_rank = rank.get(other)
                if qubit_rank is None and other_rank is None:
                    entries.pop(pair, None)
                    continue
                # [S_a(s_b) - S_a(s_a)] + [S_b(s_a) - S_b(s_b)] per layer.
                delta_front = -front_here
                for row in front_rows:
                    delta_front += row[neighbour]
                delta_lookahead = -look_here
                for row in look_rows:
                    delta_lookahead += row[neighbour]
                other_terms = terms.get(other)
                if other_terms is not None:
                    other_front, other_look, other_front_here, \
                        other_look_here = other_terms
                    delta_front -= other_front_here
                    for row in other_front:
                        delta_front += row[site]
                    delta_lookahead -= other_look_here
                    for row in other_look:
                        delta_lookahead += row[site]
                # The front qubit visited first is qubit_a.
                if qubit_rank is not None and (other_rank is None
                                               or qubit_rank < other_rank):
                    fields = (qubit, other if other >= 0 else None, atom,
                              other_atom, site, neighbour)
                else:
                    fields = (other, qubit if qubit >= 0 else None, other_atom,
                              atom, neighbour, site)
                entries[pair] = (delta_front, delta_lookahead, fields)
                rescored += 1
        self.rescored = rescored

        # (6) Pairs of two front qubits that were not re-enumerated keep
        # their orientation unless the visit order of clean qubits changed
        # (only a hand-crafted layer reorders its nodes).
        if rank is not old_rank and [
                qubit for qubit in rank if qubit not in dirty] != [
                qubit for qubit in old_rank if qubit not in dirty]:
            for pair, (delta_front, delta_lookahead, fields) in \
                    entries.items():
                qubit_a, qubit_b, atom_a, atom_b, site_a, site_b = fields
                rank_b = rank.get(qubit_b)
                if rank_b is not None and rank_b < rank[qubit_a]:
                    entries[pair] = (delta_front, delta_lookahead, (
                        qubit_b, qubit_a, atom_b, atom_a, site_b, site_a))


class GateRouter:
    """SWAP-insertion router with lookahead and recency damping.

    :meth:`best_swap` selects from one :class:`SwapCandidateTable` that
    lives until :meth:`reset`.
    """

    def __init__(self, architecture: NeutralAtomArchitecture, *,
                 lookahead_weight: float = 0.1, decay_rate: float = 0.0,
                 recency_window: int = 4) -> None:
        # A NaN weight passes a ``< 0`` check and makes every cost
        # comparison false, so the first candidate would win silently.
        if not math.isfinite(lookahead_weight) or lookahead_weight < 0:
            raise ValueError("lookahead weight must be finite and non-negative")
        if not math.isfinite(decay_rate) or decay_rate < 0:
            raise ValueError("decay rate must be finite and non-negative")
        if recency_window < 0:
            raise ValueError("recency window must be non-negative")
        self.architecture = architecture
        self.lookahead_weight = lookahead_weight
        self.decay_rate = decay_rate
        self.recency_window = recency_window
        self._step = 0
        self._last_used: Dict[int, int] = {}
        self._last_swap_key: Optional[Tuple[int, int]] = None
        self.table = SwapCandidateTable()

    # ------------------------------------------------------------------
    # Recency bookkeeping
    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._step = 0
        self._last_used.clear()
        self._last_swap_key = None
        self.table.clear()

    def note_swap_applied(self, state: MappingState, candidate: SwapCandidate) -> None:
        """Record a SWAP execution for the recency score.

        Besides the two swapped qubits, every qubit within the restriction
        radius of the SWAP is recorded as "used": those atoms cannot take part
        in a parallel gate anyway, so preferring other qubits next increases
        parallelism (the NA-specific extension of the Li et al. decay).
        """
        self._step += 1
        self._last_swap_key = candidate.key()
        for site in (candidate.site_a, candidate.site_b):
            atom = state.atom_at_site(site)
            if atom is not None:
                qubit = state.qubit_of_atom(atom)
                if qubit is not None:
                    self._last_used[qubit] = self._step
            for neighbour in state.connectivity.restriction_neighbours(site):
                neighbour_atom = state.atom_at_site(neighbour)
                if neighbour_atom is None:
                    continue
                neighbour_qubit = state.qubit_of_atom(neighbour_atom)
                if neighbour_qubit is not None:
                    # Always record the newer step: with setdefault a
                    # previously-seen qubit would never refresh its last-used
                    # step and the decay damping would silently weaken over
                    # long runs.
                    self._last_used[neighbour_qubit] = self._step

    def recency(self, candidate: SwapCandidate) -> int:
        """Recency score ``t(S)`` in ``[0, recency_window]`` (0 = long unused).

        ``candidate`` may also be a candidate's plain field tuple.
        """
        score = 0
        for qubit in (candidate[0], candidate[1]):
            if qubit is None or qubit not in self._last_used:
                continue
            age = self._step - self._last_used[qubit]
            score = max(score, max(self.recency_window - age, 0))
        return score

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def best_swap(self, state: MappingState, front_nodes: Sequence,
                  lookahead_nodes: Sequence,
                  positions: Dict[int, GatePosition]
                  ) -> Optional[SwapCandidate]:
        """Return the lowest-cost SWAP candidate (ties broken deterministically).

        Candidates are all SWAPs between a front-layer gate qubit and an
        atom at an adjacent site, each site pair once, under the front
        qubit visited first.  The exact inverse of the most recently
        applied SWAP is excluded (as long as another candidate exists):
        with ``lambda_t = 0`` a cost tie between doing and undoing a SWAP
        would otherwise ping-pong forever.
        """
        table = self.table
        table.update(state, front_nodes, lookahead_nodes, positions)
        entries = table.entries
        last = self._last_swap_key
        inverse = entries.pop(last, None) if last is not None else None
        baseline_front = table.baseline_front
        baseline_lookahead = table.baseline_lookahead
        lookahead_weight = self.lookahead_weight
        decay_rate = self.decay_rate
        best: Optional[tuple] = None
        best_cost = math.inf
        best_pair = (0, 0)
        # The key (cost, lower site, higher site), compared as the tuple
        # would be; ``best is None`` admits a first candidate of cost inf/NaN.
        for pair, (delta_front, delta_lookahead, fields) in entries.items():
            cost = ((baseline_front + delta_front)
                    + lookahead_weight * (baseline_lookahead + delta_lookahead))
            if decay_rate != 0.0:
                cost *= math.exp(decay_rate * self.recency(fields))
            if (cost < best_cost or (cost == best_cost and pair < best_pair)
                    or best is None):
                best = fields
                best_cost = cost
                best_pair = pair
        if inverse is not None:
            entries[last] = inverse
            if best is None:
                # The inverse of the last SWAP stands only when it is the one
                # candidate.
                best = inverse[2]
        return SwapCandidate(*best) if best is not None else None

    # ------------------------------------------------------------------
    # Deterministic fallback routing
    # ------------------------------------------------------------------
    def forced_route_swaps(self, state: MappingState, gate: Gate,
                           position: Optional[GatePosition] = None,
                           max_iterations: Optional[int] = None
                           ) -> List[SwapCandidate]:
        """Route one gate to executability along explicit shortest paths.

        Used as a safety valve when greedy cost minimisation stalls (the best
        SWAP oscillates without ever executing a gate).  The returned SWAP
        sequence is *already applied* to ``state``; the caller only has to
        record the candidates in the output stream and update the recency
        bookkeeping.  The routine is guaranteed to terminate: every SWAP moves
        one unsatisfied qubit one hop closer to its destination along a path
        over occupied sites, and paths avoid displacing already-satisfied
        gate qubits whenever possible.
        """
        connectivity = state.connectivity
        applied: List[SwapCandidate] = []
        if max_iterations is None:
            max_iterations = 4 * (state.architecture.lattice.rows
                                  + state.architecture.lattice.cols) * gate.num_qubits + 20

        def targets() -> List:
            if position is not None:
                return [(qubit, site) for qubit, site in position.assignment.items()
                        if state.site_of_qubit(qubit) != site]
            qubit_a, qubit_b = gate.qubits[0], gate.qubits[-1]
            if state.qubits_adjacent(qubit_a, qubit_b):
                return []
            return [(qubit_a, state.site_of_qubit(qubit_b))]

        iterations = 0
        while not state.gate_executable(gate):
            pending = targets()
            if not pending:
                break
            qubit, destination = pending[0]
            origin = state.site_of_qubit(qubit)
            occupied = state.occupied_sites()
            # Prefer paths that do not pass through other gate qubits' sites so
            # that routing one qubit does not undo another one's placement.
            protected = {state.site_of_qubit(q) for q in gate.qubits if q != qubit}
            path = connectivity.shortest_path(origin, destination,
                                              allowed=occupied - protected)
            if path is None or len(path) < 2:
                path = connectivity.shortest_path(origin, destination, allowed=occupied)
            if path is None or len(path) < 2:
                break
            next_site = path[1]
            partner_atom = state.atom_at_site(next_site)
            if partner_atom is None:
                break
            candidate = SwapCandidate(
                qubit_a=qubit,
                qubit_b=state.qubit_of_atom(partner_atom),
                atom_a=state.atom_of_qubit(qubit),
                atom_b=partner_atom,
                site_a=origin,
                site_b=next_site,
            )
            state.apply_swap_with_atom(candidate.qubit_a, candidate.atom_b)
            applied.append(candidate)
            iterations += 1
            if iterations > max_iterations:
                break
        return applied
