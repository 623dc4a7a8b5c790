"""End-to-end evaluation of a mapping run (the columns of Table 1a).

:func:`evaluate` takes an input circuit, its mapping result and the target
architecture, schedules both the original and the mapped realisation, and
reports:

* ``delta_cz`` — additional native CZ gates contributed by inserted SWAPs,
* ``delta_t_us`` — increase in total circuit execution time,
* ``delta_fidelity`` — the fidelity decrease ``delta_F`` (Eq. 1 based),
* ``runtime_seconds`` — mapper wall-clock time (the RT column),
* move/swap statistics useful for the analysis plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..circuit.circuit import QuantumCircuit
from ..circuit.decompose import decompose_mcx_to_mcz
from ..hardware.architecture import NeutralAtomArchitecture
from ..hardware.connectivity import SiteConnectivity
from ..mapping.result import MappingResult
from ..scheduling.scheduler import Scheduler
from .fidelity import analyse

__all__ = ["EvaluationMetrics", "evaluate", "metrics_from_schedules"]


@dataclass(frozen=True)
class EvaluationMetrics:
    """Headline metrics of one mapping run (one cell block of Table 1a)."""

    circuit_name: str
    mode: str
    hardware_name: str
    num_qubits: int
    delta_cz: int
    delta_t_us: float
    delta_fidelity: float
    runtime_seconds: float
    num_swaps: int
    num_moves: int
    mapped_makespan_us: float
    original_makespan_us: float
    mapped_log_success: float
    original_log_success: float
    alpha_ratio: Optional[float] = None

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary row for table rendering / CSV export."""
        return {
            "hardware": self.hardware_name,
            "circuit": self.circuit_name,
            "mode": self.mode,
            "n": self.num_qubits,
            "delta_cz": self.delta_cz,
            "delta_t_us": round(self.delta_t_us, 1),
            "delta_fidelity": round(self.delta_fidelity, 2),
            "runtime_s": round(self.runtime_seconds, 2),
            "num_swaps": self.num_swaps,
            "num_moves": self.num_moves,
            "alpha": self.alpha_ratio,
        }


def evaluate(circuit: QuantumCircuit, result: MappingResult,
             architecture: NeutralAtomArchitecture,
             connectivity: Optional[SiteConnectivity] = None,
             alpha_ratio: Optional[float] = None) -> EvaluationMetrics:
    """Schedule the original and mapped circuits and compute the Table 1a metrics.

    The original circuit is normalised to the native gate set (``C^{m-1}X``
    decomposed to ``C^{m-1}Z``) before scheduling so that both sides are
    measured in the same pulse vocabulary — the same normalisation the mapper
    input receives.
    """
    scheduler = Scheduler(architecture, connectivity=connectivity)

    native_original = decompose_mcx_to_mcz(circuit)
    original_schedule = scheduler.schedule_circuit(native_original)
    mapped_schedule = scheduler.schedule_result(result)
    return metrics_from_schedules(circuit, result, architecture,
                                  original_schedule, mapped_schedule,
                                  alpha_ratio=alpha_ratio)


def metrics_from_schedules(circuit: QuantumCircuit, result: MappingResult,
                           architecture: NeutralAtomArchitecture,
                           original_schedule, mapped_schedule,
                           alpha_ratio: Optional[float] = None
                           ) -> EvaluationMetrics:
    """Compute the Table 1a metrics from already-built schedules.

    Used by the compilation pipeline's evaluate pass, which owns the schedule
    construction (so timing attribution per pass stays accurate) and only
    needs the metric arithmetic from this module.  Each schedule is analysed
    once: ΔT and both makespans come from the two breakdowns, and ΔF is
    :func:`~repro.evaluation.fidelity.fidelity_decrease`'s
    ``log P_original - log P_mapped`` taken from them.
    """
    original_breakdown = analyse(original_schedule, architecture)
    mapped_breakdown = analyse(mapped_schedule, architecture)

    delta_cz = mapped_schedule.num_cz_gates() - original_schedule.num_cz_gates()
    delta_t = mapped_breakdown.makespan_us - original_breakdown.makespan_us
    delta_f = (original_breakdown.log_success_probability
               - mapped_breakdown.log_success_probability)

    return EvaluationMetrics(
        circuit_name=circuit.name,
        mode=result.mode,
        hardware_name=architecture.name,
        num_qubits=circuit.num_qubits,
        delta_cz=delta_cz,
        delta_t_us=delta_t,
        delta_fidelity=delta_f,
        runtime_seconds=result.runtime_seconds,
        num_swaps=result.num_swaps,
        num_moves=result.num_moves,
        mapped_makespan_us=mapped_breakdown.makespan_us,
        original_makespan_us=original_breakdown.makespan_us,
        mapped_log_success=mapped_breakdown.log_success_probability,
        original_log_success=original_breakdown.log_success_probability,
        alpha_ratio=alpha_ratio,
    )
