"""Compile passes over a circuit set, untraced or probed, and their metrics."""

from __future__ import annotations

import contextlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.pipeline import compile_circuit, default_passes
from repro.service import ARCHITECTURE_CACHE

from checks import StreamChecker
from measure import SpeedSampler, median, ratio, tail_percentile
from probes import MAPPER_TIMERS, LayerProbe, probed_pipeline
from workloads import Entry

__all__ = ["PassRun", "build_devices", "compile_pass", "compile_metrics",
           "layer_metrics", "check_traced_quality", "PASS_NAMES"]

PASS_NAMES = tuple(stock.name for stock in default_passes())


@dataclass
class PassRun:
    """One pass over a circuit set: per-compile latencies and summed quality."""

    latencies: List[float] = field(default_factory=list)
    raw_latencies: List[float] = field(default_factory=list)
    replay_s: float = 0.0
    quality: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    probe: Optional[LayerProbe] = None

    @property
    def wall(self) -> float:
        """Compile time of the pass, scaled to the reference host speed."""
        return sum(self.latencies)

    @property
    def raw_wall(self) -> float:
        """Unscaled compile time of the pass, including speed sampling."""
        return sum(self.raw_latencies)


def build_devices(entries: Sequence[Entry]) -> Dict:
    """``spec -> (architecture, connectivity)`` through ``ARCHITECTURE_CACHE``."""
    return {entry.spec: ARCHITECTURE_CACHE.get(entry.spec) for entry in entries}


def compile_pass(entries: Sequence[Entry], devices: Dict,
                 checker: StreamChecker, sampler: SpeedSampler,
                 probe: Optional[LayerProbe] = None) -> PassRun:
    """Compile every entry once; only the compile calls are timed.

    With a ``probe`` the stock pipeline runs with the layer wrappers of
    :mod:`probes`; without one it is the untouched default pipeline.  Each
    compile is timed under ``sampler``, which scales it to the reference
    host speed.
    """
    run = PassRun(probe=probe)
    pass_manager = probed_pipeline(probe) if probe is not None else None
    position_probe = (probe.find_position_probe() if probe is not None
                      else contextlib.nullcontext())
    with position_probe:
        for entry in entries:
            architecture, connectivity = devices[entry.spec]
            try:
                with sampler.timed() as span:
                    context = compile_circuit(
                        entry.circuit, architecture, entry.config(),
                        connectivity=connectivity,
                        alpha_ratio=entry.alpha_ratio,
                        pass_manager=pass_manager)
            except Exception as exc:  # noqa: BLE001 - a failed compile is data
                checker.fail(entry.label, f"{type(exc).__name__}: {exc}")
                continue
            run.raw_latencies.append(span.raw_s)
            run.latencies.append(span.seconds)
            failed_before = checker.failed
            run.replay_s += checker.check(entry.label, context, architecture,
                                          connectivity)
            if checker.failed != failed_before:
                continue
            if probe is not None:
                probe.collect_compile(context)
            metrics = context.metrics
            quality = run.quality
            quality["delta_cz"] += metrics.delta_cz
            quality["delta_t_us"] += metrics.delta_t_us
            quality["original_makespan_us"] += metrics.original_makespan_us
            quality["delta_fidelity"] += metrics.delta_fidelity
            quality["num_swaps"] += metrics.num_swaps
            quality["num_moves"] += metrics.num_moves
    return run


def check_traced_quality(checker: StreamChecker, traced: Sequence[PassRun],
                         untraced: Sequence[PassRun]) -> None:
    """Make the run incorrect if a traced pass's quality differs.

    Op-stream digests do not cover the schedules, so this is the check
    that :class:`probes.ProbedSchedulePass` still schedules exactly as the
    stock ``SchedulePass`` does.
    """
    expected = dict(untraced[0].quality)
    for run in traced:
        if dict(run.quality) != expected:
            checker.diverged.append("traced quality")
            checker.log(f"TRACED QUALITY DIFFERS: {dict(run.quality)} "
                        f"!= untraced {expected}")
            return


def quality_metrics(quality: Dict[str, float]) -> Dict[str, float]:
    """End-to-end and report-only quality metrics of one pass."""
    return {
        "delta_t_pct": 100.0 * ratio(quality["delta_t_us"],
                                     quality["original_makespan_us"]),
        "delta_fidelity": quality["delta_fidelity"],
        "routing_ops": quality["num_swaps"] + quality["num_moves"],
        "delta_cz": quality["delta_cz"],
        "delta_t_us": quality["delta_t_us"],
        "num_swaps": quality["num_swaps"],
        "num_moves": quality["num_moves"],
    }


def compile_metrics(runs: Sequence[PassRun]) -> Dict[str, float]:
    """``compile_s`` and the request metrics of untraced passes.

    A compile workload's request is one pass over its set, so latency is
    pass time.  With a few passes per run the p90 has fewer than ten
    samples beyond it; the serving workload is the one with a real tail.
    """
    walls = [run.wall for run in runs]
    compile_s = median(walls)
    return {
        "compile_s": compile_s,
        "requests_per_s": 1.0 / compile_s,
        "latency_p50_ms": 1000.0 * compile_s,
        "latency_p90_ms": 1000.0 * tail_percentile(walls, 0.9, min_beyond=0),
    }


def layer_metrics(traced: Sequence[PassRun],
                  untraced: Sequence[PassRun]) -> Dict[str, float]:
    """Per-layer metrics of the median traced pass (by wall time).

    Layer seconds are scaled like the pass's wall time: to the reference
    host speed, without the share the speed samples took.
    """
    chosen = sorted(traced, key=lambda run: run.wall)[len(traced) // 2]
    probe = chosen.probe
    scale = ratio(chosen.wall, chosen.raw_wall)
    seconds = defaultdict(float, {name: value * scale
                                  for name, value in probe.seconds.items()})
    counts = probe.counts
    values: Dict[str, float] = {}
    for name in PASS_NAMES:
        values[f"pass.{name}_s"] = seconds[f"pass.{name}_s"]
    values["pass.unattributed_s"] = chosen.wall - sum(
        seconds[f"pass.{name}_s"] for name in PASS_NAMES)
    values["trace.compile_s"] = chosen.wall
    values["trace.overhead_s"] = (median([run.wall for run in traced])
                                  - median([run.wall for run in untraced]))
    fronts, lookaheads = probe.front_widths, probe.lookahead_widths
    values["layers.rounds"] = counts["layers.rounds"]
    values["layers.front_width_mean"] = ratio(sum(fronts), len(fronts))
    values["layers.front_width_max"] = max(fronts, default=0)
    values["layers.lookahead_width_mean"] = ratio(sum(lookaheads),
                                                  len(lookaheads))
    for kind in ("decision", "chain"):
        hits = counts[f"regioncache.{kind}_hits"]
        lookups = hits + counts[f"regioncache.{kind}_misses"]
        values[f"regioncache.{kind}_hit_ratio"] = ratio(hits, lookups)
        values[f"regioncache.{kind}_lookups"] = lookups
    for name in MAPPER_TIMERS + ("scheduler.reference_s", "scheduler.mapped_s"):
        values[name] = seconds[name]
    for name in ("decision.gate_routed", "decision.shuttle_routed",
                 "shuttling_router.best_chain_calls",
                 "shuttling_router.chains_built",
                 "shuttling_router.forced_chain_calls",
                 "gate_router.best_swap_calls", "gate_router.forced_route_calls",
                 "multiqubit.find_position_calls", "multiqubit.no_position",
                 "scheduler.ops", "quality.delta_cz", "quality.num_swaps",
                 "quality.num_moves"):
        values[name] = counts[name]
    values["mapper.unattributed_s"] = seconds["pass.routing_s"] - sum(
        seconds[name] for name in MAPPER_TIMERS)
    values["check.replay_s"] = chosen.replay_s * scale
    return values
