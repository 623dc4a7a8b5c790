"""Parallel batch compilation of independent circuits.

The service workload of the roadmap: many independent circuits compiled
against a handful of device configurations.  :class:`BatchCompiler` fans
:class:`CompilationTask`s out over a **supervised** process pool
(:class:`~repro.resilience.SupervisedPool` — a dead worker is replaced and
its task re-dispatched under a bounded retry budget instead of poisoning
the whole batch; mapping is pure-Python CPU work, so threads would
serialise on the GIL), shares the immutable
per-architecture artifacts through the keyed
:data:`~repro.service.cache.ARCHITECTURE_CACHE` — pre-warmed in the parent so
forked workers inherit them copy-on-write — and collects a structured
:class:`BatchResult` with per-task metrics and failures.

Every task runs the exact same pass pipeline as a serial
:func:`repro.pipeline.compile_circuit` call, so batch output is equivalent
stream-for-stream to serial compilation (enforced by the service tests).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence

from ..resilience import RetryPolicy, ServingFault, SupervisedPool

from ..circuit.circuit import QuantumCircuit
from ..circuit.library import get_benchmark
from ..circuit.qasm import loads as qasm_loads
from ..evaluation.metrics import EvaluationMetrics
from ..mapping.config import MapperConfig
from ..mapping.result import MappingResult
from ..pipeline.manager import compile_circuit
from ..store import CompiledArtifact, ResultStore, StoreKey, compute_store_key
from ..telemetry import tracing
from .cache import ARCHITECTURE_CACHE, ArchitectureSpec

__all__ = ["CompilationTask", "TaskResult", "BatchResult", "BatchCompiler",
           "lookup_task", "compile_task_to_artifact"]


def lookup_task(task: "CompilationTask", store: Optional[ResultStore],
                evaluate: bool):
    """Front-end read half of the store contract: ``(circuit, key, hit)``.

    ``hit`` is ``None`` on a miss or without a ``store``; under
    ``evaluate`` a metrics-less entry is a miss (``require_metrics``).
    The circuit and key stay memoised on ``task``, so the compile of a
    miss reuses them.
    """
    key = task.store_key
    return task.circuit, key, (store.get(key, require_metrics=evaluate)
                               if store is not None else None)


def compile_task_to_artifact(task: "CompilationTask", *,
                             store: Optional[ResultStore] = None,
                             evaluate: bool = True):
    """The one canonical compile → persist flow of a pool job.

    Write half of the store contract the batch service and the serving
    gateway share (:func:`lookup_task` is the read half), so the two paths
    cannot diverge; a store write failure degrades to an unpersisted
    success.  It never reads: the front-end looked the key up already.
    Returns ``(artifact, context)``; ``artifact`` is ``None`` when no
    store asked for one (the batch path skips op-stream serialisation).
    The circuit and key come from ``task``'s memo: a task the front-end
    looked up (and, on a process pool, pickled with its memo) is neither
    built nor keyed again.
    """
    with tracing.span("compile_task", task_id=task.task_id):
        architecture, connectivity = ARCHITECTURE_CACHE.get(task.architecture)
        context = compile_circuit(
            task.circuit, architecture, task.build_config(),
            connectivity=connectivity, alpha_ratio=task.alpha_ratio,
            evaluate=evaluate)
        artifact: Optional[CompiledArtifact] = None
        if store is not None:
            artifact = CompiledArtifact.from_context(context)
            try:
                store.put(task.store_key, artifact)
            except OSError:
                pass
        return artifact, context


@dataclass(frozen=True)
class CompilationTask:
    """One circuit to compile against one device configuration.

    The circuit payload is either a benchmark-library reference
    (``circuit_name`` + ``num_qubits`` + ``seed``) or an explicit OpenQASM
    document (``qasm``); both forms are cheap to pickle to worker processes.
    :attr:`circuit` and :attr:`store_key` memoise the built circuit and its
    key on the task object; a pickled task carries them along.
    """

    task_id: str
    architecture: ArchitectureSpec
    circuit_name: Optional[str] = None
    num_qubits: Optional[int] = None
    seed: int = 2024
    qasm: Optional[str] = None
    mode: str = "hybrid"
    alpha: float = 1.0

    def build_circuit(self) -> QuantumCircuit:
        """Instantiate the task's circuit (library benchmark or QASM payload)."""
        if self.qasm is not None:
            return qasm_loads(self.qasm, name=self.task_id)
        if self.circuit_name is None:
            raise ValueError(
                f"task {self.task_id!r} carries neither a circuit_name nor a "
                "qasm payload")
        return get_benchmark(self.circuit_name, num_qubits=self.num_qubits,
                             seed=self.seed)

    def build_config(self) -> MapperConfig:
        return MapperConfig.for_mode(self.mode, self.alpha)

    @cached_property
    def circuit(self) -> QuantumCircuit:
        """The task's circuit, built once per task object."""
        return self.build_circuit()

    @cached_property
    def store_key(self) -> StoreKey:
        """The task's persistent-store key, hashed once per task object."""
        return compute_store_key(self.circuit, self.architecture,
                                 self.build_config())

    @property
    def alpha_ratio(self) -> Optional[float]:
        """The ratio recorded on the metrics (hybrid tasks only)."""
        return self.alpha if self.mode == "hybrid" else None


@dataclass
class TaskResult:
    """Outcome of one :class:`CompilationTask`."""

    task: CompilationTask
    ok: bool
    metrics: Optional[EvaluationMetrics] = None
    result: Optional[MappingResult] = None
    error: Optional[str] = None
    wall_seconds: float = 0.0
    worker_pid: int = 0
    #: True when the result was served from the persistent store instead of
    #: being compiled (identical by the bit-identity contract).
    from_store: bool = False


@dataclass
class BatchResult:
    """Structured outcome of one :meth:`BatchCompiler.compile` call."""

    results: List[TaskResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    num_workers: int = 1

    @property
    def succeeded(self) -> List[TaskResult]:
        return [entry for entry in self.results if entry.ok]

    @property
    def failed(self) -> List[TaskResult]:
        return [entry for entry in self.results if not entry.ok]

    @property
    def ok(self) -> bool:
        return not self.failed

    def circuits_per_second(self) -> float:
        """Batch throughput: completed tasks per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.succeeded) / self.wall_seconds

    @property
    def from_store(self) -> List[TaskResult]:
        return [entry for entry in self.results if entry.from_store]

    def summary(self) -> Dict[str, object]:
        return {
            "num_tasks": len(self.results),
            "num_succeeded": len(self.succeeded),
            "num_failed": len(self.failed),
            "num_from_store": len(self.from_store),
            "num_workers": self.num_workers,
            "wall_seconds": round(self.wall_seconds, 4),
            "circuits_per_second": round(self.circuits_per_second(), 4),
            "failures": {entry.task.task_id: entry.error for entry in self.failed},
        }


def _execute_task(task: CompilationTask, *, keep_result: bool = False,
                  evaluate: bool = True,
                  store: Optional[ResultStore] = None) -> TaskResult:
    """Worker entry point: compile one task and persist it to ``store``.

    The caller has already served store hits, so this always compiles.
    All failures are captured as a failed :class:`TaskResult` so one bad
    task never takes down the batch (or the pool); store write failures
    degrade to an uncached success rather than a task failure.
    """
    start = time.perf_counter()
    try:
        _, context = compile_task_to_artifact(task, store=store,
                                              evaluate=evaluate)
        return _task_result(task, start, ok=True, metrics=context.metrics,
                            result=context.result if keep_result else None)
    except Exception as exc:  # noqa: BLE001 - failures are data, not crashes
        return _task_result(task, start, ok=False,
                            error=f"{type(exc).__name__}: {exc}")


def _task_result(task: CompilationTask, start: float, **fields) -> TaskResult:
    """A result of ``task`` settled in this process, timed from ``start``."""
    return TaskResult(task=task, wall_seconds=time.perf_counter() - start,
                      worker_pid=os.getpid(), **fields)


class BatchCompiler:
    """Compiles many independent circuits, optionally in parallel.

    Parameters
    ----------
    max_workers:
        Worker process count; ``None`` uses the CPU count, ``1`` compiles
        serially in-process (no pool, useful for debugging and as the
        throughput baseline).
    keep_results:
        Attach the full :class:`MappingResult` (operation stream) to every
        task result.  Off by default: streams are large, and for throughput
        workloads the metrics are what matters.
    evaluate:
        Run the schedule + evaluate passes per task (on by default); off,
        tasks stop after routing and carry no metrics.
    store:
        Optional :class:`~repro.store.ResultStore`, read once per task in
        the calling process before dispatch: a stored key is served
        without compiling (``from_store=True`` on its result; compilation
        is bit-identical either way, so served metrics equal compiled
        metrics), and only misses reach a worker, which compiles and
        persists.  Store reads are skipped under ``keep_results``, since a
        hit carries no :class:`MappingResult`.
    deadline_s:
        Per-task wall-clock budget enforced by the supervised pool: a task
        whose worker hangs past it is killed, its worker recycled, and the
        task recorded as a failed :class:`TaskResult` (``None`` disables).
    retry_policy:
        Bounded crash re-dispatch budget (see
        :class:`~repro.resilience.RetryPolicy`).  A worker that dies
        mid-task no longer fails the batch — the task is retried on a
        replacement worker with exponential backoff.
    fault_plan:
        Chaos-test seam (:class:`~repro.resilience.FaultPlan`): faults at
        the ``worker`` point fire *before* the task executes, so injected
        crashes hit the supervision machinery instead of being swallowed
        into a failed :class:`TaskResult`.  Never set in production.
    """

    def __init__(self, max_workers: Optional[int] = None, *,
                 keep_results: bool = False, evaluate: bool = True,
                 store: Optional[ResultStore] = None,
                 deadline_s: Optional[float] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 fault_plan=None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers
        self.keep_results = keep_results
        self.evaluate = evaluate
        self.store = store
        self.deadline_s = deadline_s
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan

    def resolved_workers(self, num_tasks: int) -> int:
        workers = self.max_workers or os.cpu_count() or 1
        return max(1, min(workers, num_tasks))

    def compile(self, tasks: Sequence[CompilationTask]) -> BatchResult:
        """Compile every task; results come back in task order."""
        tasks = list(tasks)
        if not tasks:
            return BatchResult(results=[], wall_seconds=0.0, num_workers=1)
        duplicates = _duplicate_ids(tasks)
        if duplicates:
            raise ValueError(f"duplicate task ids in batch: {sorted(duplicates)}")

        workers = self.resolved_workers(len(tasks))
        # Build every distinct architecture once in the parent so forked
        # workers inherit the artifacts instead of rebuilding them.
        ARCHITECTURE_CACHE.prewarm({task.architecture for task in tasks})

        start = time.perf_counter()
        if workers == 1:
            # One task at a time: a repeated key is served by its compile.
            results = [self._lookup(task) or _execute_task(
                task, keep_result=self.keep_results, evaluate=self.evaluate,
                store=self.store) for task in tasks]
        else:
            settled = [self._lookup(task) for task in tasks]
            misses = [task for task, done in zip(tasks, settled)
                      if done is None]
            compiled = iter(self._run_pool(
                misses, self.resolved_workers(len(misses))) if misses else ())
            results = [done or next(compiled) for done in settled]
        wall = time.perf_counter() - start
        return BatchResult(results=results, wall_seconds=wall,
                           num_workers=workers)

    def _lookup(self, task: CompilationTask) -> Optional[TaskResult]:
        """The one store read of ``task``: its result when the store
        settles it (a hit, or a task that cannot even be keyed), ``None``
        when it must compile."""
        if self.store is None or self.keep_results:
            return None
        start = time.perf_counter()
        try:
            circuit, _, artifact = lookup_task(task, self.store, self.evaluate)
        except Exception as exc:  # noqa: BLE001 - failures are data
            return _task_result(task, start, ok=False,
                                error=f"{type(exc).__name__}: {exc}")
        if artifact is None:
            return None
        return _task_result(task, start, ok=True, from_store=True,
                            metrics=artifact.metrics_for(circuit.name))

    def _run_pool(self, tasks: Sequence[CompilationTask],
                  workers: int) -> List[TaskResult]:
        """Fan tasks over a supervised process pool, keeping task order.

        Pool-level failures (crash budget exhausted, deadline kill, pool
        shut down) become failed :class:`TaskResult`s — same shape as a
        task that raised on its own input — so the batch always returns
        one result per task.
        """
        store_spec = self.store.spec if self.store is not None else None
        job = _BoundExecute(self.keep_results, self.evaluate, store_spec,
                            self.fault_plan)
        results: List[Optional[TaskResult]] = [None] * len(tasks)
        with SupervisedPool(workers, kind="process",
                            deadline_s=self.deadline_s,
                            retry_policy=self.retry_policy) as pool:
            futures = [pool.submit(job, task, label=task.task_id,
                                   token=task.task_id) for task in tasks]
            for index, (task, future) in enumerate(zip(tasks, futures)):
                try:
                    results[index] = future.result()
                except ServingFault as exc:
                    results[index] = TaskResult(
                        task=task, ok=False,
                        error=f"{type(exc).__name__}: {exc}")
        return results


class _BoundExecute:
    """Picklable callable binding the compiler flags for ``pool.map``.

    Carries the store as its picklable ``(root, max_bytes)`` spec; each
    worker process persists its compiles through its one handle on it
    (:meth:`~repro.store.ResultStore.from_spec`).  The parent has already
    served the hits, so the job never reads the store.

    An attached fault plan fires *before* :func:`_execute_task` runs:
    ``_execute_task`` converts every exception into a failed
    :class:`TaskResult`, so an injected crash raised inside it would never
    reach the supervision machinery the chaos suite is exercising.
    """

    def __init__(self, keep_result: bool, evaluate: bool,
                 store_spec=None, fault_plan=None) -> None:
        self.keep_result = keep_result
        self.evaluate = evaluate
        self.store_spec = store_spec
        self.fault_plan = fault_plan

    def __call__(self, task: CompilationTask) -> TaskResult:
        if self.fault_plan is not None:
            self.fault_plan.fire_worker_fault(task.task_id)
        store = (ResultStore.from_spec(self.store_spec)
                 if self.store_spec is not None else None)
        return _execute_task(task, keep_result=self.keep_result,
                             evaluate=self.evaluate, store=store)


def _duplicate_ids(tasks: Sequence[CompilationTask]) -> set:
    seen: set = set()
    duplicates: set = set()
    for task in tasks:
        if task.task_id in seen:
            duplicates.add(task.task_id)
        seen.add(task.task_id)
    return duplicates
