"""Layer probes: time the program's layers from outside, through public calls.

Nothing here edits the program.  A probed compile runs the stock pipeline
with three kinds of benchmark-owned wrappers:

* every pass of :func:`repro.pipeline.default_passes` is wrapped in a
  :class:`TimedPass` that delegates to it;
* the schedule pass is replaced by :class:`ProbedSchedulePass`, which calls
  the public ``Scheduler.schedule_circuit`` / ``Scheduler.schedule_result``
  exactly as ``SchedulePass`` does, timing each call;
* the routing pass gets a ``mapper_factory`` that builds a stock
  :class:`~repro.mapping.HybridMapper` and wraps public methods of its
  components (decider, gate router, shuttling router) on that instance,
  plus ``find_gate_position`` where the mapper module resolves it.

Wrappers pass arguments and results through untouched, so a probed
compile must emit the byte-identical op stream of an unprobed one; the
benchmark checks that digest for digest, and checks that a probed pass
over a set sums to the same quality (ΔCZ, ΔT, δF) as an unprobed one,
which the schedules feed.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional

from repro.circuit import decompose_mcx_to_mcz
from repro.mapping import HybridMapper
from repro.mapping import hybrid_mapper as _hybrid_mapper_module
from repro.pipeline import (
    CompilationPass,
    PassManager,
    RoutingPass,
    SchedulePass,
    default_passes,
)
from repro.scheduling.scheduler import Scheduler

__all__ = ["LayerProbe", "TimedPass", "ProbedSchedulePass", "probed_pipeline",
           "MAPPER_TIMERS"]

#: Wrapped mapper calls that do not nest inside each other; their sum is
#: subtracted from the routing pass to give ``mapper.unattributed_s``.
#: (``candidate_chains`` runs inside ``best_chain`` and is only counted.)
MAPPER_TIMERS = ("decision.split_s", "gate_router.best_swap_s",
                 "gate_router.forced_route_s", "shuttling_router.best_chain_s",
                 "shuttling_router.forced_chain_s", "multiqubit.find_position_s")


class LayerProbe:
    """Per-layer seconds and counts accumulated over probed compiles."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.front_widths: List[int] = []
        self.lookahead_widths: List[int] = []
        self._mappers: List[HybridMapper] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def timed(self, fn: Callable, seconds_key: str, calls_key: str = "",
              observe: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to book its wall time (and calls, and result)."""
        seconds = self.seconds
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds[seconds_key] += time.perf_counter() - tick
            if calls_key:
                counts[calls_key] += 1
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def counted(self, fn: Callable, observe: Callable) -> Callable:
        """``fn`` wrapped to observe its result without timing it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(args, result)
            return result
        return wrapper

    def attach(self, mapper: HybridMapper) -> HybridMapper:
        """Wrap the public methods of ``mapper``'s components in place."""
        decider = mapper.decider
        # HybridMapper decides each routing round with two split_layers
        # calls, front layer first and lookahead layer second.
        parity = [0]

        def on_split(args, result) -> None:
            width = len(args[1])
            if parity[0] == 0:
                self.counts["layers.rounds"] += 1
                self.front_widths.append(width)
            else:
                self.lookahead_widths.append(width)
            parity[0] ^= 1

        decider.split_layers = self.timed(
            decider.split_layers, "decision.split_s", observe=on_split)

        gate_router = mapper.gate_router
        gate_router.best_swap = self.timed(
            gate_router.best_swap, "gate_router.best_swap_s",
            "gate_router.best_swap_calls")
        gate_router.forced_route_swaps = self.timed(
            gate_router.forced_route_swaps, "gate_router.forced_route_s",
            "gate_router.forced_route_calls")

        shuttling_router = mapper.shuttling_router
        shuttling_router.best_chain = self.timed(
            shuttling_router.best_chain, "shuttling_router.best_chain_s",
            "shuttling_router.best_chain_calls")
        shuttling_router.forced_chain = self.timed(
            shuttling_router.forced_chain, "shuttling_router.forced_chain_s",
            "shuttling_router.forced_chain_calls")

        def on_chains(args, chains) -> None:
            self.counts["shuttling_router.chains_built"] += len(chains)

        shuttling_router.candidate_chains = self.counted(
            shuttling_router.candidate_chains, on_chains)
        self._mappers.append(mapper)
        return mapper

    def mapper_factory(self, architecture, config, connectivity=None):
        """``RoutingPass`` factory: a stock mapper with probed components."""
        return self.attach(HybridMapper(architecture, config,
                                        connectivity=connectivity))

    @contextlib.contextmanager
    def find_position_probe(self) -> Iterator[None]:
        """Time ``find_gate_position`` as the mapper module resolves it."""
        original = _hybrid_mapper_module.find_gate_position

        def on_position(args, position) -> None:
            if position is None:
                self.counts["multiqubit.no_position"] += 1

        _hybrid_mapper_module.find_gate_position = self.timed(
            original, "multiqubit.find_position_s",
            "multiqubit.find_position_calls", observe=on_position)
        try:
            yield
        finally:
            _hybrid_mapper_module.find_gate_position = original

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def collect_compile(self, context) -> None:
        """Fold one finished compile's mapper-side counters into the probe."""
        result = context.require_result()
        metrics = context.require_metrics()
        self.counts["decision.gate_routed"] += result.num_gate_routed
        self.counts["decision.shuttle_routed"] += result.num_shuttle_routed
        self.counts["quality.num_swaps"] += result.num_swaps
        self.counts["quality.num_moves"] += result.num_moves
        self.counts["quality.delta_cz"] += metrics.delta_cz
        for mapper in self._mappers:
            if mapper.region_cache is not None:
                for name, value in mapper.region_cache.stats().items():
                    self.counts[f"regioncache.{name}"] += value
        self._mappers.clear()


class TimedPass(CompilationPass):
    """Delegates to a stock pass, booking its wall time as ``pass.<name>_s``."""

    def __init__(self, inner: CompilationPass, probe: LayerProbe) -> None:
        self.inner = inner
        self.name = inner.name
        self.probe = probe

    def run(self, context) -> None:
        tick = time.perf_counter()
        try:
            self.inner.run(context)
        finally:
            self.probe.seconds[f"pass.{self.name}_s"] += (
                time.perf_counter() - tick)


class ProbedSchedulePass(CompilationPass):
    """``SchedulePass`` with its two public scheduler calls timed separately."""

    name = SchedulePass.name

    def __init__(self, probe: LayerProbe) -> None:
        self.probe = probe

    def run(self, context) -> None:
        probe = self.probe
        result = context.require_result()
        scheduler = Scheduler(context.architecture,
                              connectivity=context.ensure_connectivity())
        tick = time.perf_counter()
        context.reference_schedule = scheduler.schedule_circuit(
            decompose_mcx_to_mcz(context.circuit))
        middle = time.perf_counter()
        context.mapped_schedule = scheduler.schedule_result(result)
        probe.seconds["scheduler.reference_s"] += middle - tick
        probe.seconds["scheduler.mapped_s"] += time.perf_counter() - middle
        probe.counts["scheduler.ops"] += (len(context.reference_schedule)
                                          + len(context.mapped_schedule))


def probed_pipeline(probe: LayerProbe) -> PassManager:
    """The stock pass list with every pass timed and the mapper probed."""
    passes = []
    for stock in default_passes():
        if isinstance(stock, RoutingPass):
            stock = RoutingPass(mapper_factory=probe.mapper_factory)
        elif isinstance(stock, SchedulePass):
            stock = ProbedSchedulePass(probe)
        passes.append(TimedPass(stock, probe))
    return PassManager(passes)
