"""repro.resilience — supervision, failure taxonomy and fault injection.

The robustness layer of the serving stack (ROADMAP item 1's supervision
sub-bullet):

* :mod:`~repro.resilience.errors` — the retryable / permanent / shed error
  taxonomy carried on the wire as ``error_class``,
* :mod:`~repro.resilience.policy` — :class:`RetryPolicy` (bounded attempts,
  exponential backoff, deterministic jitter) and :func:`tightest` budgets,
* :mod:`~repro.resilience.breaker` — a three-state :class:`CircuitBreaker`
  over pool-level failures,
* :mod:`~repro.resilience.supervisor` — :class:`SupervisedPool`, the
  self-healing worker pool (dead workers reaped and replaced, crashed
  tasks re-dispatched under the retry budget, hung tasks deadline-killed
  with their worker recycled),
* :mod:`~repro.resilience.faults` — :class:`FaultPlan`, deterministic
  ledger-based fault injection driving ``tests/chaos`` and the
  ``python -m repro.server --self-test --chaos`` smoke.
"""

from .breaker import CircuitBreaker
from .errors import (
    PERMANENT,
    RETRYABLE,
    SHED,
    CompileFailed,
    DeadlineExceeded,
    LoadShed,
    PoolUnavailable,
    ServingFault,
    WorkerCrashed,
    classify_error,
)
from .faults import FaultPlan, FaultSpec, FaultyCompile
from .policy import RetryPolicy, tightest
from .supervisor import PoolStats, SupervisedPool

__all__ = [
    "RETRYABLE",
    "PERMANENT",
    "SHED",
    "ServingFault",
    "WorkerCrashed",
    "DeadlineExceeded",
    "PoolUnavailable",
    "LoadShed",
    "CompileFailed",
    "classify_error",
    "RetryPolicy",
    "tightest",
    "CircuitBreaker",
    "SupervisedPool",
    "PoolStats",
    "FaultPlan",
    "FaultSpec",
    "FaultyCompile",
]
