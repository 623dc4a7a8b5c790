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
:class:`SwapCostCache` is the one scoring path: once per routing round it
computes each layer's baseline distance and, for every qubit a front or
lookahead gate acts on, that qubit's *per-qubit terms*:

* the sites of its partners in two-qubit and position-less multi-qubit
  gates, read against :meth:`~repro.hardware.connectivity.SiteConnectivity.swap_row`
  (``max(hop - 1, 0)``, the two-qubit distance rule);
* the assigned target sites of its positioned multi-qubit gates
  (:class:`~repro.mapping.multiqubit.GatePosition`), read against
  ``hop_row``;
* both sums ``S_q(site)`` evaluated at the qubit's current site.

Each node is counted once per listing in the front or lookahead layer
(hand-crafted layers may list a node twice), so a SWAP moving ``a`` from
``s_a`` to ``s_b`` and ``b`` from ``s_b`` to ``s_a`` changes a layer's
distance by exactly ``[S_a(s_b) - S_a(s_a)] + [S_b(s_a) - S_b(s_b)]``.
A gate pair holding both swapped qubits contributes ``0 - 0`` to each
side, because candidate sites are adjacent, and position terms are
additive per qubit.  Every term is an integer, so ``baseline + delta`` is
*bit-identical* to re-walking both layers in full;
``tests/differential/routing_reference.py`` keeps that naive walk, with its
own candidate generator, as the test-only reference.

Cache invalidation: a :class:`SwapCostCache` is valid for one routing round
only — it snapshots the per-qubit terms against the current mapping state
and the current ``positions`` dict, and is discarded after the round's SWAP
is chosen.  The row tables it reads live in
:class:`~repro.hardware.connectivity.SiteConnectivity` and are immutable.

Fused scan: :meth:`GateRouter.best_swap` walks the front qubits (each once,
first occurrence in layer order) and then their occupied neighbour sites
in neighbour order, skips site pairs already seen and the inverse of the
last SWAP in line, and scores each pair as it goes.  It compares
``(cost, lower site, higher site)`` tuples and builds a
:class:`SwapCandidate` only for the winner (and, with ``lambda_t > 0``, for
the recency score).
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..circuit.gate import Gate
from ..hardware.architecture import NeutralAtomArchitecture
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
    """One routing round's per-qubit scorer for SWAP candidates.

    Snapshots the baseline distances of the front and lookahead layers and
    every touched qubit's per-qubit terms (see the module docstring), then
    scores a candidate from the terms of its two qubits alone.  Valid for a
    single routing round: discard after the round's SWAP has been applied
    (the state, layers, or positions may have changed).
    """

    __slots__ = ("_router", "_swap_row", "_hop_row", "_terms",
                 "baseline_front", "baseline_lookahead")

    def __init__(self, router: "GateRouter", state: MappingState,
                 front_nodes: Sequence, lookahead_nodes: Sequence,
                 positions: Dict[int, GatePosition]) -> None:
        self._router = router
        connectivity = state.connectivity
        self._swap_row = swap_row = connectivity.swap_row
        self._hop_row = hop_row = connectivity.hop_row
        # node index -> [gate, position, front count, lookahead count]: a
        # node listed more than once weighs in once per listing, as a full
        # walk of the layers counts it.
        nodes: Dict[int, list] = {}
        for slot, layer in ((2, front_nodes), (3, lookahead_nodes)):
            for node in layer:
                entry = nodes.get(node.index)
                if entry is None:
                    entry = [node.gate, positions.get(node.index), 0, 0]
                    nodes[node.index] = entry
                entry[slot] += 1

        site_of_qubit = state.site_of_qubit
        # qubit -> (front partner sites, front target sites,
        #           lookahead partner sites, lookahead target sites)
        lists: Dict[int, Tuple[list, list, list, list]] = {}
        baseline_front = baseline_lookahead = 0
        for gate, position, in_front, in_lookahead in nodes.values():
            distance = 0
            if position is not None:
                for qubit, target in position.assignment.items():
                    distance += hop_row(site_of_qubit(qubit))[target]
                    terms = lists.get(qubit)
                    if terms is None:
                        terms = lists[qubit] = ([], [], [], [])
                    terms[1].extend((target,) * in_front)
                    terms[3].extend((target,) * in_lookahead)
            else:
                qubits = gate.qubits
                sites = [site_of_qubit(qubit) for qubit in qubits]
                for i, qubit in enumerate(qubits):
                    row = swap_row(sites[i])
                    for other in sites[i + 1:]:
                        distance += row[other]
                    partners = sites[:i] + sites[i + 1:]
                    terms = lists.get(qubit)
                    if terms is None:
                        terms = lists[qubit] = ([], [], [], [])
                    terms[0].extend(partners * in_front)
                    terms[2].extend(partners * in_lookahead)
            baseline_front += in_front * distance
            baseline_lookahead += in_lookahead * distance
        self.baseline_front = baseline_front
        self.baseline_lookahead = baseline_lookahead

        # qubit -> (front partners, front targets, front sum here,
        #           lookahead partners, lookahead targets, lookahead sum here)
        site_sum = self._site_sum
        self._terms: Dict[int, tuple] = {}
        for qubit, (front_p, front_t, look_p, look_t) in lists.items():
            here = site_of_qubit(qubit)
            self._terms[qubit] = (
                front_p, front_t, site_sum(front_p, front_t, here),
                look_p, look_t, site_sum(look_p, look_t, here))

    def _site_sum(self, partners: List[int], targets: List[int],
                  site: int) -> int:
        """``S_q(site)``: one qubit's summed distance terms were it at ``site``."""
        total = 0
        if partners:
            row = self._swap_row(site)
            for partner in partners:
                total += row[partner]
        if targets:
            row = self._hop_row(site)
            for target in targets:
                total += row[target]
        return total

    def layer_costs(self, qubit_a: int, qubit_b: Optional[int], site_a: int,
                    site_b: int) -> Tuple[int, int]:
        """Front and lookahead distances after swapping the atoms at
        ``site_a`` (holding ``qubit_a``) and ``site_b`` (holding ``qubit_b``,
        ``None`` for an auxiliary atom)."""
        front = self.baseline_front
        lookahead = self.baseline_lookahead
        terms = self._terms
        site_sum = self._site_sum
        for qubit, there in ((qubit_a, site_b), (qubit_b, site_a)):
            entry = terms.get(qubit)
            if entry is None:
                continue
            front_p, front_t, front_here, look_p, look_t, look_here = entry
            if front_p or front_t:
                front += site_sum(front_p, front_t, there) - front_here
            if look_p or look_t:
                lookahead += site_sum(look_p, look_t, there) - look_here
        return front, lookahead

    def cost(self, candidate: SwapCandidate) -> float:
        """Cost of ``candidate`` according to Eq. (2)/(3)."""
        front, lookahead = self.layer_costs(candidate.qubit_a,
                                            candidate.qubit_b,
                                            candidate.site_a, candidate.site_b)
        router = self._router
        base = front + router.lookahead_weight * lookahead
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
        layer_costs = SwapCostCache(self, state, front_nodes, lookahead_nodes,
                                    positions).layer_costs
        lookahead_weight = self.lookahead_weight
        decay_rate = self.decay_rate
        last = self._last_swap_key
        interaction_neighbours = state.connectivity.interaction_neighbours
        atom_of_qubit = state.atom_of_qubit
        site_of_atom = state.site_of_atom
        atom_at_site = state.atom_at_site
        qubit_of_atom = state.qubit_of_atom
        visited: Set[int] = set()
        seen: Set[Tuple[int, int]] = set()
        # (cost, lower site, higher site): the cost, then candidate.key().
        best_key: Optional[Tuple[float, int, int]] = None
        best: Optional[SwapCandidate] = None
        inverse: Optional[SwapCandidate] = None
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
                    pair = (site_a, site_b) if site_a < site_b else (site_b, site_a)
                    if pair in seen:
                        continue
                    seen.add(pair)
                    qubit_b = qubit_of_atom(atom_b)
                    if pair == last:
                        inverse = SwapCandidate(qubit, qubit_b, atom_a, atom_b,
                                                site_a, site_b)
                        continue
                    front, lookahead = layer_costs(qubit, qubit_b, site_a, site_b)
                    cost = front + lookahead_weight * lookahead
                    candidate = None
                    if decay_rate != 0.0:
                        candidate = SwapCandidate(qubit, qubit_b, atom_a,
                                                  atom_b, site_a, site_b)
                        cost *= math.exp(decay_rate * self.recency(candidate))
                    key = (cost, pair[0], pair[1])
                    if best_key is None or key < best_key:
                        best_key = key
                        best = candidate or SwapCandidate(
                            qubit, qubit_b, atom_a, atom_b, site_a, site_b)
        # The inverse of the last SWAP stands only when it is the one candidate.
        return best if best is not None else inverse

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
