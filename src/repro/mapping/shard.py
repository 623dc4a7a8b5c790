"""Sharded intra-circuit routing: chained slice routing + streaming emission.

The batch layer (:mod:`repro.service.batch`) and the serving gateway
parallelise *across* circuits; one large circuit still routes in one pass.
:class:`ShardedRouter` splits the pass *within* a circuit:

1. **Partition** — :func:`repro.mapping.partition.partition_circuit` cuts the
   gate list into weakly-coupled slices by recursive min-cut: any segment
   above ``4 * shard_min_slice`` gates is split at its minimum-crossing
   frontier, and the split recurses into both halves.
2. **Chained slice routing** — each slice is routed as a full-width
   subcircuit by an ordinary serial
   :class:`~repro.mapping.hybrid_mapper.HybridMapper`, one after another in
   circuit order, each starting from the true mapping state its predecessor
   left behind.  There is no speculation and no seam repair; slicing pays
   off because a slice caps the front layer the router scores every round.
3. **Streaming emission** — each slice's operations are yielded (gate
   indices shifted to the whole circuit) as soon as the slice is routed,
   and the slice result is dropped before the next one routes, so exactly
   one slice result is alive at any moment.  With ``retain=False``
   (:meth:`ShardedRouter.stream`) nothing accumulates into a whole-circuit
   :class:`MappingResult`, which bounds peak RSS on 1000+-qubit circuits.
   :meth:`ShardedRouter.map` is simply the stream drained into a result.

Contract: sharded routing is **not** bit-identical to serial routing.  It is
gated by *metrics parity* (ΔCZ / ΔT / move counts within bounds) plus full
replay validity (:mod:`repro.mapping.replay`), enforced by
``tests/differential/test_differential_shard.py``.  The emitted stream is a
deterministic function of the circuit, the architecture and the
fingerprinted config.
"""

from __future__ import annotations

import time
from dataclasses import replace as dataclass_replace
from typing import Dict, Iterator, Optional

from ..circuit.circuit import QuantumCircuit
from ..circuit.gate import GateKind
from ..hardware.architecture import NeutralAtomArchitecture
from ..hardware.connectivity import SiteConnectivity
from ..telemetry import tracing
from ..telemetry.registry import get_registry
from .config import MapperConfig
from .partition import PartitionPlan, partition_circuit, slice_subcircuit
from .result import CircuitGateOp, MappedOperation, MappingResult
from .state import MappingState

__all__ = ["ShardedRouter", "StitchStream"]


class ShardedRouter:
    """Partition → chained slice routing → streaming emission.

    Constructed by :meth:`HybridMapper.map` when ``config.shard_routing`` is
    set; :meth:`map` returns ``None`` when the circuit partitions into fewer
    than two slices, which tells the caller to take the ordinary serial path
    (bit-identical to the committed goldens — the serial-fallback guard).
    :meth:`stream` exposes the same pipeline as an incremental operation
    generator with bounded slice-result memory.
    """

    def __init__(self, architecture: NeutralAtomArchitecture,
                 config: MapperConfig,
                 connectivity: Optional[SiteConnectivity] = None) -> None:
        self.architecture = architecture
        self.config = config
        self.connectivity = connectivity or SiteConnectivity(architecture)
        # Slice routing always runs the plain serial mapper — the override
        # is what keeps the mutual recursion between HybridMapper and
        # ShardedRouter one level deep.
        self._serial_config = config.with_overrides(shard_routing=False)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def map(self, circuit: QuantumCircuit,
            initial_state: Optional[MappingState] = None
            ) -> Optional[MappingResult]:
        """Sharded mapping of ``circuit``; ``None`` = caller routes serially."""
        stream = self.stream(circuit, initial_state=initial_state)
        if stream is None:
            return None
        with tracing.span("shard.map", circuit=circuit.name,
                          num_slices=stream.stats.get("num_slices")):
            for _ in stream:
                pass
        return stream.result

    def stream(self, circuit: QuantumCircuit,
               initial_state: Optional[MappingState] = None,
               retain: bool = True) -> Optional["StitchStream"]:
        """Streaming stitcher over ``circuit``; ``None`` = route serially.

        The returned :class:`StitchStream` yields merged operations in
        final stream order while slices are still being routed.  With
        ``retain=False`` nothing is accumulated into a
        :class:`MappingResult` — the caller owns each yielded op and the
        stream's live memory stays bounded by one slice result
        (validity can be checked on the fly with
        :class:`repro.mapping.replay.StreamValidator`).
        """
        start_time = time.perf_counter()
        if circuit.num_entangling_gates() == 0:
            # Nothing to route — the serial path is pure emission; slicing
            # it would add overhead for a workload with no routing at all.
            return None
        with tracing.span("shard.partition", circuit=circuit.name):
            plan = partition_circuit(circuit,
                                     min_slice=self.config.shard_min_slice)
        if plan.num_slices < 2:
            return None
        state = initial_state or MappingState(
            self.architecture, circuit.num_qubits,
            connectivity=self.connectivity)
        return StitchStream(self, plan, state, retain=retain,
                            start_time=start_time)


class StitchStream:
    """One in-flight sharded mapping, consumed as an operation iterator.

    Iterate to drain; ``stats`` (and with ``retain=True`` the filled
    ``result``) are complete once exhaustion finishes the bookkeeping.
    ``final_qubit_map`` / ``final_atom_map`` hold the end-of-stream mapping
    state either way.  Single use: iterating twice raises.
    """

    def __init__(self, router: ShardedRouter, plan: PartitionPlan,
                 state: MappingState, *, retain: bool,
                 start_time: float) -> None:
        self._router = router
        self._plan = plan
        self._state = state
        self._start_time = start_time
        self._started = False
        self.initial_qubit_map = state.qubit_mapping()
        self.initial_atom_map = state.atom_mapping()
        self.final_qubit_map: Optional[Dict[int, int]] = None
        self.final_atom_map: Optional[Dict[int, int]] = None
        self.result: Optional[MappingResult] = None
        if retain:
            self.result = MappingResult(
                circuit=plan.circuit,
                mode=router._serial_config.mode,
                initial_qubit_map=self.initial_qubit_map,
                initial_atom_map=self.initial_atom_map,
            )
            self._coverage: Optional[bytearray] = None
        else:
            self._coverage = bytearray(len(plan.circuit))
        self.stats: Dict[str, object] = plan.summary()

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[MappedOperation]:
        if self._started:
            raise RuntimeError("a StitchStream can only be consumed once")
        self._started = True
        return self._run()

    def _emit(self, op: MappedOperation) -> MappedOperation:
        if self.result is not None:
            self.result.append(op)
        elif isinstance(op, CircuitGateOp) and self._coverage[op.gate_index] < 2:
            self._coverage[op.gate_index] += 1
        return op

    # ------------------------------------------------------------------
    def _run(self) -> Iterator[MappedOperation]:
        """Route slices in circuit order, each from the state its
        predecessor left behind.

        Each slice result is fully drained (and dropped) before the next
        slice routes, so exactly one lives at any moment.
        """
        from .hybrid_mapper import HybridMapper

        router, state = self._router, self._state
        for piece in self._plan.slices:
            subcircuit = slice_subcircuit(self._plan.circuit, piece)
            mapper = HybridMapper(router.architecture, router._serial_config,
                                  router.connectivity)
            slice_result = mapper.map(subcircuit, initial_state=state)
            for op in slice_result.operations:
                if isinstance(op, CircuitGateOp):
                    op = dataclass_replace(
                        op, gate_index=op.gate_index + piece.start)
                yield self._emit(op)
            if self.result is not None:
                _merge_counters(self.result, slice_result)
        self._finalise()

    def _finalise(self) -> None:
        self.final_qubit_map = self._state.qubit_mapping()
        self.final_atom_map = self._state.atom_mapping()
        get_registry().counter(
            "repro_shard_runs_total",
            help="Sharded mapping runs completed").inc()
        if self.result is not None:
            self.result.verify_complete()
            self.result.final_qubit_map = self.final_qubit_map
            self.result.final_atom_map = self.final_atom_map
            self.result.shard_stats = self.stats
            self.result.runtime_seconds = time.perf_counter() - self._start_time
        else:
            missing = [index for index, gate in enumerate(self._plan.circuit)
                       if gate.kind != GateKind.BARRIER
                       and self._coverage[index] != 1]
            if missing:
                raise AssertionError(
                    f"streamed stitch incomplete: gates {missing[:10]} not "
                    "emitted exactly once")


def _merge_counters(result: MappingResult, part: MappingResult) -> None:
    """Aggregate capability-attribution counters from one slice route.

    Exact: every gate routes through exactly one slice mapper.
    ``num_swaps``/``num_moves`` are counted by ``append`` instead.
    """
    result.num_gate_routed += part.num_gate_routed
    result.num_shuttle_routed += part.num_shuttle_routed
    result.num_trivially_executable += part.num_trivially_executable
    result.num_fallback_reroutes += part.num_fallback_reroutes
