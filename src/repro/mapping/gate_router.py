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

Cost engine
-----------
A SWAP only changes the sites of ``qubit_a`` and ``qubit_b``, so
:class:`SwapCostCache` is the one scoring path: it computes each layer's
baseline distance *once per routing round* and scores every candidate as
``baseline + delta(candidate)``, where the delta re-evaluates only the gates
touching the two swapped qubits — found through the qubit → node inverted
index that :class:`~repro.mapping.layers.LayerManager` maintains (or one
built on the fly from the node lists).  All per-gate distances are integers,
so ``baseline + delta`` is *bit-identical* to re-walking both layers in
full; ``tests/differential/routing_reference.py`` keeps that naive walk as
the test-only reference.

Cache invalidation: a :class:`SwapCostCache` is valid for one routing round
only — it snapshots per-node baseline distances against the current mapping
state and the current ``positions`` dict, and is discarded after the round's
SWAP is chosen.  Within the round it memoises, per qubit, the nodes acting
on it (with their gate, position, baseline and per-layer counts), so each
qubit's inverted-index lookup and filtering happen once however many
candidates move it.  The site-level adjacency and hop-distance tables it
leans on live in :class:`~repro.hardware.connectivity.SiteConnectivity` and
are immutable.

Candidate generation stays cheap because a round produces one candidate
per (front qubit, occupied neighbour site) pair: :class:`SwapCandidate` is a
named tuple, :meth:`GateRouter.candidate_swaps` visits each front qubit
once (a qubit shared by commuting front gates yields no new site pair), and
:meth:`GateRouter.best_swap` compares ``(cost, lower site, higher site)``
tuples built inline — the same order as ``(cost, candidate.key())``.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..circuit.gate import Gate
from ..hardware.architecture import NeutralAtomArchitecture
from .layers import build_qubit_node_index
from .multiqubit import GatePosition
from .state import MappingState

__all__ = ["SwapCandidate", "SwapCostCache", "GateRouter"]


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


class SwapCostCache:
    """One routing round's incremental scorer for SWAP candidates.

    Snapshots the per-gate baseline distances of the front and lookahead
    layers against the current state, then scores each candidate as
    ``baseline + delta``, re-evaluating only the gates that touch the two
    swapped qubits.  Valid for a single routing round: discard after the
    round's SWAP has been applied (the state, layers, or positions may have
    changed).

    ``qubit_index`` may be the (possibly larger) inverted index maintained by
    :class:`~repro.mapping.layers.LayerManager`; nodes it lists that are not
    part of the given layers are ignored.  Without it, an index over the
    given nodes is built on the fly.
    """

    __slots__ = ("_router", "_state", "_nodes", "_qubit_index", "_touched",
                 "baseline_front", "baseline_lookahead")

    def __init__(self, router: "GateRouter", state: MappingState,
                 front_nodes: Sequence, lookahead_nodes: Sequence,
                 positions: Dict[int, GatePosition],
                 qubit_index: Optional[Dict[int, Sequence]] = None) -> None:
        self._router = router
        self._state = state
        # node index -> [gate, position, baseline distance, front count,
        # lookahead count].  LayerManager lists a node once in one layer;
        # hand-crafted layers may list it more often, and the counts weigh
        # its delta once per listed occurrence, as a full walk counts it.
        self._nodes: Dict[int, list] = {}
        baselines = [0, 0]
        gate_distance = router._gate_distance
        for slot, nodes in ((0, front_nodes), (1, lookahead_nodes)):
            for node in nodes:
                entry = self._nodes.get(node.index)
                if entry is None:
                    position = positions.get(node.index)
                    entry = [node.gate, position,
                             gate_distance(state, node.gate, None, position),
                             0, 0]
                    self._nodes[node.index] = entry
                entry[3 + slot] += 1
                baselines[slot] += entry[2]
        self.baseline_front, self.baseline_lookahead = baselines
        # Without an externally maintained index, build one over the given
        # layers; either way lookups are filtered against the known nodes
        # (the LayerManager index may list shuttle-assigned nodes too).
        self._qubit_index = (qubit_index if qubit_index is not None
                             else build_qubit_node_index(front_nodes,
                                                         lookahead_nodes))
        self._touched: Dict[int, Dict[int, list]] = {}

    def _touched_nodes(self, qubit: int) -> Dict[int, list]:
        """This round's nodes acting on ``qubit``, memoised per qubit."""
        touched = self._touched.get(qubit)
        if touched is None:
            known = self._nodes
            touched = {node.index: known[node.index]
                       for node in self._qubit_index.get(qubit, ())
                       if node.index in known}
            self._touched[qubit] = touched
        return touched

    def cost(self, candidate: SwapCandidate) -> float:
        """Cost of ``candidate`` according to Eq. (2)/(3)."""
        touched = self._touched_nodes(candidate.qubit_a)
        if candidate.qubit_b is not None:
            touched_b = self._touched_nodes(candidate.qubit_b)
            if touched_b:
                touched = {**touched, **touched_b}
        front_delta = lookahead_delta = 0
        state = self._state
        router = self._router
        gate_distance = router._gate_distance
        for gate, position, base, in_front, in_lookahead in touched.values():
            delta = gate_distance(state, gate, candidate, position) - base
            front_delta += in_front * delta
            lookahead_delta += in_lookahead * delta
        front_cost = self.baseline_front + front_delta
        lookahead_cost = self.baseline_lookahead + lookahead_delta
        base = front_cost + router.lookahead_weight * lookahead_cost
        if router.decay_rate == 0.0:
            return base
        return base * math.exp(router.decay_rate * router.recency(candidate))


class GateRouter:
    """SWAP-insertion router with lookahead and recency damping.

    :meth:`best_swap` scores every candidate of a round through one
    :class:`SwapCostCache`.
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

    # ------------------------------------------------------------------
    # Recency bookkeeping
    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._step = 0
        self._last_used.clear()
        self._last_swap_key = None

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
        """Recency score ``t(S)`` in ``[0, recency_window]`` (0 = long unused)."""
        score = 0
        for qubit in (candidate.qubit_a, candidate.qubit_b):
            if qubit is None or qubit not in self._last_used:
                continue
            age = self._step - self._last_used[qubit]
            score = max(score, max(self.recency_window - age, 0))
        return score

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    def candidate_swaps(self, state: MappingState,
                        front_nodes: Sequence) -> List[SwapCandidate]:
        """All SWAPs acting on a front-layer gate qubit and an adjacent atom.

        Candidates are listed by front qubit (first occurrence in layer
        order), then by partner site in neighbour order; each site pair
        appears once, under the front qubit visited first.
        """
        interaction_neighbours = state.connectivity.interaction_neighbours
        atom_of_qubit = state.atom_of_qubit
        site_of_atom = state.site_of_atom
        atom_at_site = state.atom_at_site
        qubit_of_atom = state.qubit_of_atom
        visited: Set[int] = set()
        seen: Set[Tuple[int, int]] = set()
        candidates: List[SwapCandidate] = []
        for node in front_nodes:
            for qubit in node.gate.qubits:
                # A qubit shared by commuting front gates adds nothing the
                # first visit did not.
                if qubit in visited:
                    continue
                visited.add(qubit)
                atom_a = atom_of_qubit(qubit)
                site_a = site_of_atom(atom_a)
                for site_b in interaction_neighbours(site_a):
                    atom_b = atom_at_site(site_b)
                    if atom_b is None:
                        continue
                    key = (site_a, site_b) if site_a < site_b else (site_b, site_a)
                    if key in seen:
                        continue
                    seen.add(key)
                    candidates.append(SwapCandidate(
                        qubit, qubit_of_atom(atom_b), atom_a, atom_b,
                        site_a, site_b))
        return candidates

    # ------------------------------------------------------------------
    # Cost evaluation
    # ------------------------------------------------------------------
    def _gate_distance(self, state: MappingState, gate: Gate,
                       candidate: Optional[SwapCandidate],
                       position: Optional[GatePosition]) -> int:
        """Remaining routing distance of one gate, optionally after a SWAP."""
        connectivity = state.connectivity
        site_of_qubit = state.site_of_qubit
        if candidate is None:
            swapped_a = swapped_b = None
            swap_site_a = swap_site_b = -1
        else:
            swapped_a = candidate.qubit_a
            swapped_b = candidate.qubit_b
            swap_site_a = candidate.site_a
            swap_site_b = candidate.site_b

        if position is not None:
            total = 0
            hop_row = connectivity.hop_row
            for qubit, target in position.assignment.items():
                if qubit == swapped_a:
                    origin = swap_site_b
                elif swapped_b is not None and qubit == swapped_b:
                    origin = swap_site_a
                else:
                    origin = site_of_qubit(qubit)
                if origin != target:
                    total += hop_row(origin)[target]
            return total

        qubits = gate.qubits
        if len(qubits) == 2:
            qubit_a, qubit_b = qubits
            if qubit_a == swapped_a:
                site_a = swap_site_b
            elif swapped_b is not None and qubit_a == swapped_b:
                site_a = swap_site_a
            else:
                site_a = site_of_qubit(qubit_a)
            if qubit_b == swapped_a:
                site_b = swap_site_b
            elif swapped_b is not None and qubit_b == swapped_b:
                site_b = swap_site_a
            else:
                site_b = site_of_qubit(qubit_b)
            if site_a == site_b or connectivity.adjacency_row(site_a)[site_b]:
                return 0
            return max(connectivity.hop_row(site_a)[site_b] - 1, 0)

        sites = []
        for qubit in qubits:
            if qubit == swapped_a:
                sites.append(swap_site_b)
            elif swapped_b is not None and qubit == swapped_b:
                sites.append(swap_site_a)
            else:
                sites.append(site_of_qubit(qubit))
        total = 0
        hop_row = connectivity.hop_row
        adjacency_row = connectivity.adjacency_row
        for i, site_a in enumerate(sites):
            adjacent = adjacency_row(site_a)
            for site_b in sites[i + 1:]:
                if site_a == site_b or adjacent[site_b]:
                    continue
                total += max(hop_row(site_a)[site_b] - 1, 0)
        return total

    def best_swap(self, state: MappingState, front_nodes: Sequence,
                  lookahead_nodes: Sequence,
                  positions: Dict[int, GatePosition], *,
                  qubit_index: Optional[Dict[int, Sequence]] = None
                  ) -> Optional[SwapCandidate]:
        """Return the lowest-cost SWAP candidate (ties broken deterministically).

        The exact inverse of the most recently applied SWAP is excluded (as
        long as another candidate exists): with ``lambda_t = 0`` a cost tie
        between doing and undoing a SWAP would otherwise ping-pong forever.

        ``qubit_index`` is the optional qubit → node inverted index from
        :meth:`~repro.mapping.layers.LayerManager.qubit_node_index`; it lets
        :class:`SwapCostCache` skip building its own per-round index.
        """
        candidates = self.candidate_swaps(state, front_nodes)
        if not candidates:
            return None
        last = self._last_swap_key
        if last is not None and len(candidates) > 1:
            # A candidate's key equals the sorted ``last`` pair exactly when
            # both of its (distinct) sites are in it.
            filtered = [c for c in candidates
                        if c.site_a not in last or c.site_b not in last]
            if filtered:
                candidates = filtered
        cost_of = SwapCostCache(self, state, front_nodes, lookahead_nodes,
                                positions, qubit_index).cost
        best_candidate = None
        # (cost, lower site, higher site): the cost, then candidate.key().
        best_key: Optional[Tuple[float, int, int]] = None
        for candidate in candidates:
            cost = cost_of(candidate)
            site_a = candidate.site_a
            site_b = candidate.site_b
            key = ((cost, site_a, site_b) if site_a < site_b
                   else (cost, site_b, site_a))
            if best_key is None or key < best_key:
                best_key = key
                best_candidate = candidate
        return best_candidate

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
