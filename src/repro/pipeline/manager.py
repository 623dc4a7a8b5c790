"""The pass manager: ordered pass execution with per-pass telemetry.

:func:`compile_circuit` is the canonical single-circuit entry point of the
reproduction — every harness (Table-1 regeneration, pytest benchmarks, perf
report, batch service, examples) routes through it, so there is exactly one
compile path to maintain and instrument.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from ..circuit.circuit import QuantumCircuit
from ..hardware.architecture import NeutralAtomArchitecture
from ..hardware.connectivity import SiteConnectivity
from ..mapping.config import MapperConfig
from ..telemetry import tracing
from ..telemetry.registry import get_registry
from .context import CompilationContext
from .passes import (
    CompilationPass,
    DecomposePass,
    EvaluatePass,
    InitialLayoutPass,
    RoutingPass,
    SchedulePass,
)

__all__ = ["PassManager", "default_passes", "default_pipeline", "compile_circuit"]


class PassManager:
    """Runs an ordered sequence of passes over a compilation context.

    The pass list is plain and public: consumers compose pipelines by
    slicing, inserting or replacing entries before calling :meth:`run`.
    """

    def __init__(self, passes: Sequence[CompilationPass]) -> None:
        self.passes: List[CompilationPass] = list(passes)

    def run(self, context: CompilationContext) -> CompilationContext:
        """Execute every pass in order, timing each one.

        Pass time is recorded in exactly two places: a ``pass.<name>`` span
        when a trace is active, and an observation in the always-on
        ``repro_pass_seconds`` histogram (labelled by pass name).  Both
        close in a ``finally`` block, so a raising pass still books its own
        elapsed time under its own name instead of vanishing from reports.
        Telemetry reads the clock and nothing else — it cannot influence
        the passes, so op streams are identical with it on or off.
        """
        registry = get_registry()
        for pipeline_pass in self.passes:
            tick = time.perf_counter()
            try:
                with tracing.span(f"pass.{pipeline_pass.name}"):
                    pipeline_pass.run(context)
            finally:
                registry.histogram(
                    "repro_pass_seconds",
                    help="Wall time per compilation pass",
                    labels={"pass": pipeline_pass.name}).observe(
                        time.perf_counter() - tick)
        return context

    def pass_names(self) -> List[str]:
        return [pipeline_pass.name for pipeline_pass in self.passes]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PassManager({self.pass_names()})"


def default_passes(*, layout: str = "identity",
                   evaluate: bool = True) -> List[CompilationPass]:
    """The canonical decompose → layout → route [→ schedule → evaluate] flow."""
    passes: List[CompilationPass] = [
        DecomposePass(),
        InitialLayoutPass(layout),
        RoutingPass(),
    ]
    if evaluate:
        passes.append(SchedulePass())
        passes.append(EvaluatePass())
    return passes


def default_pipeline(*, layout: str = "identity",
                     evaluate: bool = True) -> PassManager:
    """A :class:`PassManager` over :func:`default_passes`."""
    return PassManager(default_passes(layout=layout, evaluate=evaluate))


def compile_circuit(circuit: QuantumCircuit,
                    architecture: NeutralAtomArchitecture,
                    config: Optional[MapperConfig] = None, *,
                    connectivity: Optional[SiteConnectivity] = None,
                    alpha_ratio: Optional[float] = None,
                    layout: str = "identity",
                    evaluate: bool = True,
                    pass_manager: Optional[PassManager] = None
                    ) -> CompilationContext:
    """Compile one circuit through the (default or given) pipeline.

    Returns the finished :class:`CompilationContext`; the mapped operation
    stream is ``context.result`` and, when ``evaluate`` is on, the Table-1a
    metrics are ``context.metrics``.
    """
    context = CompilationContext(
        circuit=circuit,
        architecture=architecture,
        config=config or MapperConfig(),
        connectivity=connectivity,
        alpha_ratio=alpha_ratio,
    )
    manager = pass_manager or default_pipeline(layout=layout, evaluate=evaluate)
    return manager.run(context)
