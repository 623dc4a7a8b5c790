"""Approximate success probability (Eq. 1) and derived fidelity measures.

The paper evaluates mapping quality with the approximate success probability

``P = exp(-t_idle / T_eff) * prod_O F_O``,   ``T_eff = T1 T2 / (T1 + T2)``,

where the product runs over every circuit operation and ``t_idle`` is the
total idle time of the scheduled circuit.  Because ``P`` underflows to zero
for the larger benchmarks, all computations are carried out in log space and
the exported quantity is ``log P``; the fidelity-decrease measure of
Table 1a, ``delta_F = -log(P_mapped / P_original)``, is then simply
``log P_original - log P_mapped``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..hardware.architecture import NeutralAtomArchitecture
from ..scheduling.schedule import Schedule

__all__ = ["FidelityBreakdown", "log_success_probability", "success_probability",
           "fidelity_decrease"]


@dataclass(frozen=True)
class FidelityBreakdown:
    """Decomposition of the (log) success probability of one schedule."""

    log_operation_fidelity: float
    log_idle_factor: float
    idle_time_us: float
    makespan_us: float
    num_operations: int

    @property
    def log_success_probability(self) -> float:
        return self.log_operation_fidelity + self.log_idle_factor

    @property
    def success_probability(self) -> float:
        """The linear-scale probability (may underflow to 0.0 for large circuits)."""
        return math.exp(self.log_success_probability)


def analyse(schedule: Schedule, architecture: NeutralAtomArchitecture) -> FidelityBreakdown:
    """Compute the fidelity breakdown of a schedule.

    The makespan is scanned once and shared with the idle time.
    """
    log_fidelity = 0.0
    for operation in schedule:
        log_fidelity += math.log(operation.fidelity)
    makespan = schedule.makespan
    idle = schedule.idle_time(makespan=makespan)
    t_eff = architecture.effective_decoherence_time
    return FidelityBreakdown(
        log_operation_fidelity=log_fidelity,
        log_idle_factor=-idle / t_eff,
        idle_time_us=idle,
        makespan_us=makespan,
        num_operations=len(schedule),
    )


def log_success_probability(schedule: Schedule,
                            architecture: NeutralAtomArchitecture) -> float:
    """Natural logarithm of the approximate success probability ``P`` (Eq. 1)."""
    return analyse(schedule, architecture).log_success_probability


def success_probability(schedule: Schedule,
                        architecture: NeutralAtomArchitecture) -> float:
    """Approximate success probability ``P`` on the linear scale."""
    return analyse(schedule, architecture).success_probability


def fidelity_decrease(mapped: Schedule, original: Schedule,
                      architecture: NeutralAtomArchitecture) -> float:
    """``delta_F = -log(P_mapped / P_original)`` (smaller is better, 0 = lossless).

    Both schedules are evaluated in log space, so the ratio never underflows.
    """
    log_mapped = log_success_probability(mapped, architecture)
    log_original = log_success_probability(original, architecture)
    return log_original - log_mapped
