"""Shared state threaded through a compilation pipeline run.

A :class:`CompilationContext` carries everything one compilation needs — the
circuit being lowered, the target architecture and mapper configuration, the
shared immutable artifacts (site connectivity), and the products each pass
leaves behind (mapping result, schedules, metrics, per-pass timings).  Passes
communicate exclusively through the context, which is what makes the pipeline
composable: a consumer can drop, replace or insert passes without touching
the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..circuit.circuit import QuantumCircuit
from ..evaluation.metrics import EvaluationMetrics
from ..hardware.architecture import NeutralAtomArchitecture
from ..hardware.connectivity import SiteConnectivity
from ..mapping.config import MapperConfig
from ..mapping.result import MappingResult
from ..mapping.state import MappingState
from ..scheduling.schedule import Schedule

__all__ = ["CompilationContext", "PipelineError"]


class PipelineError(RuntimeError):
    """Raised when a pass runs before the passes it depends on."""


@dataclass
class CompilationContext:
    """Mutable state of one circuit compilation.

    Attributes
    ----------
    circuit:
        The circuit in its current lowering state; rewriting passes replace
        it (the original input is preserved in ``source_circuit``).
    architecture / config / connectivity:
        The compilation target.  ``connectivity`` may be shared across many
        contexts (it is immutable); :meth:`ensure_connectivity` builds it on
        first use when the caller did not supply one.
    alpha_ratio:
        Decision ratio recorded on the metrics (hybrid sweeps).
    initial_state:
        Mapping state the routing pass starts from (layout pass product).
    result / mapped_schedule / reference_schedule / metrics:
        Products of the routing, scheduling and evaluation passes.
    artifacts:
        Free-form side channel for custom passes.

    Pass timing is not stored here: :class:`~repro.pipeline.manager.PassManager`
    records it as ``pass.<name>`` spans and in the ``repro_pass_seconds``
    histogram.
    """

    circuit: QuantumCircuit
    architecture: NeutralAtomArchitecture
    config: MapperConfig
    connectivity: Optional[SiteConnectivity] = None
    alpha_ratio: Optional[float] = None
    source_circuit: Optional[QuantumCircuit] = None
    initial_state: Optional[MappingState] = None
    result: Optional[MappingResult] = None
    mapped_schedule: Optional[Schedule] = None
    reference_schedule: Optional[Schedule] = None
    metrics: Optional[EvaluationMetrics] = None
    artifacts: Dict[str, Any] = field(default_factory=dict)

    def ensure_connectivity(self) -> SiteConnectivity:
        """The shared :class:`SiteConnectivity`, building it on first use."""
        if self.connectivity is None:
            self.connectivity = SiteConnectivity(self.architecture)
        return self.connectivity

    def require_result(self) -> MappingResult:
        if self.result is None:
            raise PipelineError(
                "no mapping result in the context; run a RoutingPass first")
        return self.result

    def require_schedules(self) -> "tuple[Schedule, Schedule]":
        if self.reference_schedule is None or self.mapped_schedule is None:
            raise PipelineError(
                "no schedules in the context; run a SchedulePass first")
        return self.reference_schedule, self.mapped_schedule

    def require_metrics(self) -> EvaluationMetrics:
        if self.metrics is None:
            raise PipelineError(
                "no metrics in the context; run an EvaluatePass first")
        return self.metrics
