"""The hybrid mapping process (Section 3.2, Figure 4).

:class:`HybridMapper` ties the five building blocks together:

1. **Layer creation** — :class:`~repro.circuit.dag.CircuitDAG` drains the
   gates that need no routing and keeps the commutation-aware front and
   lookahead layers of entangling gates.
2. **Capability decision** — :class:`~repro.mapping.decision.CapabilityDecider`
   assigns every front/lookahead gate to gate-based or shuttling-based
   mapping by weighing approximate success probabilities with
   ``alpha_g``/``alpha_s``.
3. **Gate-based mapping** — :class:`~repro.mapping.gate_router.GateRouter`
   selects SWAPs; multi-qubit gates first receive an explicit target
   position via :func:`~repro.mapping.multiqubit.find_gate_position` and fall
   back to shuttling when no position exists.
4. **Shuttling-based mapping** —
   :class:`~repro.mapping.shuttling_router.ShuttlingRouter` builds and ranks
   move chains.  Following the paper, shuttling is only performed once the
   gate-based front layer is empty, so the two capabilities cannot conflict
   within one routing round.
5. **Processing to hardware operations** — performed downstream by
   :mod:`repro.scheduling`; the mapper emits the operation stream
   (:class:`~repro.mapping.result.MappingResult`) it consumes.

The mapper additionally implements a deterministic fallback: if the greedy
cost minimisation fails to execute any gate for ``stall_threshold``
consecutive routing operations, the oldest front-layer gate is routed
explicitly along shortest paths (or via a forced move chain), which
guarantees termination.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set

from ..circuit.circuit import QuantumCircuit
from ..circuit.dag import CircuitDAG, DAGNode
from ..circuit.gate import GateKind
from ..hardware.architecture import NeutralAtomArchitecture
from ..hardware.connectivity import SiteConnectivity
from ..telemetry import tracing
from .config import MapperConfig
from .decision import CapabilityDecider
from .gate_router import GateRouter, SwapCandidate
from .multiqubit import GatePosition, find_gate_position
from .result import CircuitGateOp, MappingResult, ShuttleOp, SwapOp
from .shuttling_router import ShuttlingRouter
from .state import MappingState

__all__ = ["HybridMapper", "MappingError"]


class MappingError(RuntimeError):
    """Raised when the mapper cannot make progress within its safety bounds."""


class HybridMapper:
    """Hybrid gate/shuttling circuit mapper for neutral-atom hardware.

    Parameters
    ----------
    architecture:
        Target device description.
    config:
        Mapper parameters; defaults to the paper's hybrid configuration.
    connectivity:
        Optional pre-built :class:`SiteConnectivity` shared across runs.
    """

    def __init__(self, architecture: NeutralAtomArchitecture,
                 config: Optional[MapperConfig] = None,
                 connectivity: Optional[SiteConnectivity] = None) -> None:
        self.architecture = architecture
        self.config = config or MapperConfig()
        self.connectivity = connectivity or SiteConnectivity(architecture)
        self.decider = CapabilityDecider(
            architecture,
            alpha_gate=self.config.alpha_gate,
            alpha_shuttling=self.config.alpha_shuttling,
        )
        self.gate_router = GateRouter(
            architecture,
            lookahead_weight=self.config.lookahead_weight,
            decay_rate=self.config.decay_rate,
            recency_window=self.config.history_window,
        )
        self.shuttling_router = ShuttlingRouter(
            architecture,
            lookahead_weight=self.config.lookahead_weight,
            time_weight=self.config.time_weight,
            history_window=self.config.history_window,
        )
        # No cross-round cache: the layer probes read hit/miss counters
        # from this attribute and skip it while it is None.
        self.region_cache = None

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def map(self, circuit: QuantumCircuit,
            initial_state: Optional[MappingState] = None) -> MappingResult:
        """Map ``circuit`` onto the architecture and return the operation stream."""
        with tracing.span("mapper.map", circuit=circuit.name,
                          mode=self.config.mode,
                          num_qubits=circuit.num_qubits):
            return self._map_impl(circuit, initial_state)

    def _map_impl(self, circuit: QuantumCircuit,
                  initial_state: Optional[MappingState]) -> MappingResult:
        start_time = time.perf_counter()
        if circuit.num_qubits > self.architecture.num_atoms:
            raise ValueError(
                f"circuit needs {circuit.num_qubits} qubits but the architecture "
                f"provides only {self.architecture.num_atoms} atoms")

        if self.config.shard_routing:
            from .shard import ShardedRouter

            sharded = ShardedRouter(self.architecture, self.config,
                                    self.connectivity)
            result = sharded.map(circuit, initial_state=initial_state)
            if result is not None:
                return result
            # Fewer than two slices: fall through to the serial path below,
            # which stays bit-identical to the shard_routing=False stream
            # (the serial-fallback guard of the sharding contract).

        state = initial_state or MappingState(
            self.architecture, circuit.num_qubits, connectivity=self.connectivity)
        dag = CircuitDAG(circuit, use_commutation=self.config.use_commutation,
                         lookahead_depth=self.config.lookahead_depth)
        result = MappingResult(
            circuit=circuit,
            mode=self.config.mode,
            initial_qubit_map=state.qubit_mapping(),
            initial_atom_map=state.atom_mapping(),
        )

        self.gate_router.reset()
        self.shuttling_router.reset()

        positions: Dict[int, GatePosition] = {}
        routed_by: Dict[int, str] = {}
        shuttle_forced: Set[int] = set()
        stall_threshold = self._stall_threshold()
        max_steps = self._max_routing_steps(circuit)
        routing_steps = 0
        steps_since_execution = 0
        # Front gates the last scans found not executable, and how many ops
        # the stream held after the last scan.
        unsatisfied: Set[int] = set()
        scanned_ops = 0

        while not dag.is_finished():
            # (1) Forward gates that need no routing.
            for node in dag.drain_trivial():
                self._emit_circuit_gate(result, state, node)
            if dag.is_finished():
                break

            front = dag.front_layer()
            if not front:
                continue

            # Execute every front gate that is already satisfied.  A gate
            # found unsatisfied stays so until one of its qubits moves:
            # gate_executable reads only the sites of the gate's own qubits
            # and the static connectivity, and every site change is emitted
            # as a SwapOp or ShuttleOp.  So only those gates are re-checked.
            moved = self._moved_qubits(state, result.operations, scanned_ops)
            executed_any = False
            for node in front:
                if node.index in unsatisfied and moved.isdisjoint(node.gate.qubits):
                    continue
                if not state.gate_executable(node.gate):
                    unsatisfied.add(node.index)
                    continue
                unsatisfied.discard(node.index)
                self._emit_circuit_gate(result, state, node)
                dag.execute(node.index)
                positions.pop(node.index, None)
                capability = routed_by.pop(node.index, None)
                if capability == "gate":
                    result.num_gate_routed += 1
                elif capability == "shuttle":
                    result.num_shuttle_routed += 1
                else:
                    result.num_trivially_executable += 1
                executed_any = True
            scanned_ops = len(result.operations)
            if executed_any:
                steps_since_execution = 0
                continue

            lookahead = dag.lookahead_layer()

            # (2) Decide the mapping capability per gate.
            gate_nodes, shuttle_nodes = self.decider.split_layers(state, front)
            gate_lookahead, shuttle_lookahead = self.decider.split_layers(state, lookahead)
            gate_nodes, shuttle_nodes = self._apply_forced_shuttle(
                gate_nodes, shuttle_nodes, shuttle_forced)

            # (3a) Multi-qubit gate positions; fall back to shuttling when none exists.
            gate_nodes, shuttle_nodes = self._refresh_positions(
                state, gate_nodes, shuttle_nodes, positions, shuttle_forced, result)

            for node in gate_nodes:
                routed_by.setdefault(node.index, "gate")
            for node in shuttle_nodes:
                routed_by[node.index] = "shuttle"

            forced = steps_since_execution >= stall_threshold

            # (3) Gate-based mapping has priority; (4) shuttling runs only when
            # the gate-based front layer is empty.
            if gate_nodes:
                progressed = self._gate_based_step(
                    result, state, gate_nodes, gate_lookahead, positions, forced)
                if not progressed:
                    # No SWAP candidate at all (isolated atom): re-route the
                    # offending gates via shuttling on the next iteration.
                    for node in gate_nodes:
                        shuttle_forced.add(node.index)
                        result.num_fallback_reroutes += 1
            elif shuttle_nodes:
                progressed = self._shuttling_step(
                    result, state, shuttle_nodes, shuttle_lookahead, forced)
                if not progressed:
                    raise MappingError(
                        "shuttling router could not construct any move chain; "
                        "the lattice has no reachable free trap")
            else:  # pragma: no cover - defensive
                raise MappingError("front layer is non-empty but no capability was selected")

            routing_steps += 1
            steps_since_execution += 1
            if routing_steps > max_steps:
                raise MappingError(
                    f"exceeded the safety bound of {max_steps} routing operations; "
                    "the mapping process is not converging")

        result.verify_complete()
        result.final_qubit_map = state.qubit_mapping()
        result.final_atom_map = state.atom_mapping()
        result.runtime_seconds = time.perf_counter() - start_time
        return result

    @staticmethod
    def _moved_qubits(state: MappingState, operations: Sequence,
                      start: int) -> Set[int]:
        """Circuit qubits moved by the SWAPs and moves in ``operations[start:]``."""
        moved: Set[int] = set()
        for index in range(start, len(operations)):
            op = operations[index]
            if isinstance(op, SwapOp):
                moved.add(op.qubit_a)
                if op.qubit_b >= 0:
                    moved.add(op.qubit_b)
            elif isinstance(op, ShuttleOp):
                qubit = state.qubit_of_atom(op.move.atom)
                if qubit is not None:
                    moved.add(qubit)
        return moved

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------
    def _emit_circuit_gate(self, result: MappingResult, state: MappingState,
                           node: DAGNode) -> None:
        gate = node.gate
        if gate.kind == GateKind.BARRIER:
            return
        atoms = tuple(state.atom_of_qubit(q) for q in gate.qubits)
        sites = tuple(state.site_of_atom(a) for a in atoms)
        result.append(CircuitGateOp(gate=gate, gate_index=node.index,
                                    atoms=atoms, sites=sites))

    # ------------------------------------------------------------------
    # Capability bookkeeping
    # ------------------------------------------------------------------
    @staticmethod
    def _apply_forced_shuttle(gate_nodes: List[DAGNode], shuttle_nodes: List[DAGNode],
                              shuttle_forced: Set[int]):
        """Move gates that previously failed gate-based mapping to the shuttling layer."""
        if not shuttle_forced:
            return gate_nodes, shuttle_nodes
        still_gate = [node for node in gate_nodes if node.index not in shuttle_forced]
        forced = [node for node in gate_nodes if node.index in shuttle_forced]
        return still_gate, shuttle_nodes + forced

    def _refresh_positions(self, state: MappingState, gate_nodes: List[DAGNode],
                           shuttle_nodes: List[DAGNode],
                           positions: Dict[int, GatePosition],
                           shuttle_forced: Set[int],
                           result: MappingResult):
        """(Re)compute target positions for multi-qubit gate-based gates.

        A cached position is invalidated when one of its sites lost its atom,
        or when a gate qubit that had already reached its assigned site was
        displaced again (both can happen through shuttling moves — the
        mapping-conflict challenge of Section 3.1.2; see
        :meth:`_cached_position_valid`).  Gates without any feasible position
        are transferred to the shuttling layer, unless shuttling is disabled
        entirely, in which case the mapper keeps trying gate-based routing
        and will raise if it cannot make progress.
        """
        remaining_gate_nodes: List[DAGNode] = []
        for node in gate_nodes:
            gate = node.gate
            if gate.num_qubits < 3:
                remaining_gate_nodes.append(node)
                continue
            cached = positions.get(node.index)
            if cached is not None and self._cached_position_valid(state, cached):
                remaining_gate_nodes.append(node)
                continue
            position = find_gate_position(state, gate)
            if position is not None:
                positions[node.index] = position
                remaining_gate_nodes.append(node)
                continue
            positions.pop(node.index, None)
            # Even in gate-only mode an unplaceable multi-qubit gate must
            # fall back to shuttling — the paper prescribes exactly this
            # (Section 3.1.3); it is counted as a fallback re-route.
            shuttle_forced.add(node.index)
            shuttle_nodes = shuttle_nodes + [node]
            result.num_fallback_reroutes += 1
        return remaining_gate_nodes, shuttle_nodes

    @staticmethod
    def _cached_position_valid(state: MappingState, position: GatePosition) -> bool:
        """Whether a cached multi-qubit position may be reused this round.

        Occupancy alone is not enough: after a shuttling move displaced a
        gate atom off its assigned site, a *different* atom can refill the
        trap, so "all sites occupied" would keep a stale assignment and the
        SWAP router would drive the displaced qubit to a position computed
        for a layout that no longer exists.  The cache therefore tracks
        which gate qubits have reached their assigned site (``arrived``) and
        invalidates as soon as one of them is found elsewhere.
        """
        for site in position.sites:
            if state.site_is_free(site):
                return False
        for qubit, site in position.assignment.items():
            at_assigned_site = state.site_of_qubit(qubit) == site
            if not at_assigned_site and qubit in position.arrived:
                return False
            if at_assigned_site:
                position.arrived.add(qubit)
        return True

    # ------------------------------------------------------------------
    # Routing steps
    # ------------------------------------------------------------------
    def _gate_based_step(self, result: MappingResult, state: MappingState,
                         gate_nodes: Sequence[DAGNode],
                         lookahead_nodes: Sequence[DAGNode],
                         positions: Dict[int, GatePosition],
                         forced: bool) -> bool:
        """Insert one SWAP (or, when forced, a whole deterministic SWAP path).

        Returns False if no candidate exists at all.
        """
        if forced:
            oldest = min(gate_nodes, key=lambda node: node.index)
            applied = self.gate_router.forced_route_swaps(
                state, oldest.gate, positions.get(oldest.index))
            if applied:
                for candidate in applied:
                    self.gate_router.note_swap_applied(state, candidate)
                    self._record_swap(result, candidate)
                return True
        candidate = self.gate_router.best_swap(
            state, gate_nodes, lookahead_nodes, positions)
        if candidate is None:
            return False
        state.apply_swap_with_atom(candidate.qubit_a, candidate.atom_b)
        self.gate_router.note_swap_applied(state, candidate)
        self._record_swap(result, candidate)
        return True

    @staticmethod
    def _record_swap(result: MappingResult, candidate: SwapCandidate) -> None:
        result.append(SwapOp(
            qubit_a=candidate.qubit_a,
            qubit_b=candidate.qubit_b if candidate.qubit_b is not None else -1,
            atom_a=candidate.atom_a,
            atom_b=candidate.atom_b,
            site_a=candidate.site_a,
            site_b=candidate.site_b,
        ))

    def _shuttling_step(self, result: MappingResult, state: MappingState,
                        shuttle_nodes: Sequence[DAGNode],
                        lookahead_nodes: Sequence[DAGNode],
                        forced: bool) -> bool:
        """Execute one move chain; returns False if no chain could be built.

        A stalled (``forced``) step first tries the greedy chain of the
        oldest gate alone.  When the whole-front ``best_chain`` finds
        nothing, every front gate had no candidate chain — the oldest
        included — so the step goes straight to the forced chain.
        """
        oldest = min(shuttle_nodes, key=lambda node: node.index)
        if forced:
            chain = self.shuttling_router.best_chain(state, [oldest], lookahead_nodes)
        else:
            chain = self.shuttling_router.best_chain(state, shuttle_nodes, lookahead_nodes)
        if chain is None:
            chain = self.shuttling_router.forced_chain(state, oldest)
        if chain is None:
            return False
        applied = []
        for move in chain:
            state.apply_move(move)
            result.append(ShuttleOp(move=move))
            applied.append(move)
        self.shuttling_router.note_moves_applied(applied)
        return True

    # ------------------------------------------------------------------
    # Safety bounds
    # ------------------------------------------------------------------
    def _stall_threshold(self) -> int:
        if self.config.stall_threshold is not None:
            return self.config.stall_threshold
        topology = self.architecture.lattice
        return (topology.rows + topology.cols) + 10

    def _max_routing_steps(self, circuit: QuantumCircuit) -> int:
        if self.config.max_routing_steps is not None:
            return self.config.max_routing_steps
        topology = self.architecture.lattice
        per_gate = 8 * (topology.rows + topology.cols) + 50
        return max(per_gate * max(circuit.num_entangling_gates(), 1), 10_000)
