"""Async serving gateway: compile-once / serve-many in front of the pipeline.

The gateway is the long-lived process of the ROADMAP's north star.  For each
compile request it

1. computes the persistent :class:`~repro.store.StoreKey` of the request,
2. serves a **store hit** directly from the :class:`~repro.store.ResultStore`
   without touching the worker pool,
3. **coalesces** identical in-flight requests: the first miss for a key
   starts exactly one compile; requests for the same key arriving while it
   runs await the same future instead of compiling again,
4. runs misses on a **supervised** worker pool
   (:class:`~repro.resilience.SupervisedPool`: dead workers reaped and
   replaced, crashed tasks re-dispatched with bounded retry + backoff, hung
   tasks deadline-killed) behind an **admission limit**: beyond
   ``max_pending`` concurrent compiles new keys are rejected with a
   structured error instead of queueing unboundedly, and
5. isolates failures per request: a failing compile fails its own waiters,
   is *not* cached, and leaves the gateway serving.

Robustness layers on top (:mod:`repro.resilience`):

* every failure response carries an ``error_class`` from the
  retryable / permanent / shed taxonomy so clients know whether to retry;
* per-request deadlines are the tightest of the gateway's default budget
  and the client's ``timeout_s``, enforced by the pool (the worker is
  killed and recycled, the request fails retryable);
* a :class:`~repro.resilience.CircuitBreaker` watches *pool-level*
  failures (worker crash budgets exhausted, pool gone) — task-level
  compile errors never trip it.  While open, requests bypass the pool;
* **graceful degradation**: when the pool is unusable the gateway falls
  back to a bounded in-process serial compile lane, so correct answers
  keep flowing (slowly) instead of erroring; beyond the lane's bound
  requests are shed;
* **drain-based shutdown**: :meth:`drain` stops admissions and waits for
  in-flight compiles, so an operator stop never abandons accepted work.

Correctness rests on the repo's bit-identity contract (differential + golden
harnesses): a store/coalesced/degraded artifact is byte-identical to what a
fresh compile of the same request would emit, which the serving and chaos
tests assert digest-for-digest.
"""

from __future__ import annotations

import asyncio
import dataclasses
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Optional, Tuple

from ..resilience import (
    LoadShed,
    PERMANENT,
    SHED,
    CircuitBreaker,
    DeadlineExceeded,
    PoolUnavailable,
    RetryPolicy,
    SupervisedPool,
    WorkerCrashed,
    classify_error,
    tightest,
)
from ..service.batch import (
    CompilationTask,
    compile_task_to_artifact,
    lookup_task,
)
from ..store import CompiledArtifact, ResultStore
from ..telemetry import tracing
from ..telemetry.registry import CounterSet, get_registry

__all__ = ["GatewayStats", "ServingGateway", "compile_task_artifact"]


class GatewayStats(CounterSet):
    """Request-path counters of one gateway instance.

    Registry-backed (``repro_gateway_*_total`` series, one ``instance``
    label per gateway); attribute reads and ``+=`` writes keep working.
    Every admitted request lands in exactly one outcome bucket:
    ``store_hits + coalesced + compiles + degraded + failures + rejected +
    shed == requests`` once the request path has quiesced (asserted by
    ``tests/server/test_gateway_counters.py``).
    """

    PREFIX = "repro_gateway"
    FIELDS = ("requests", "store_hits", "coalesced", "compiles", "failures",
              "rejected", "degraded", "shed")
    HELP = {
        "requests": "Compile requests received",
        "store_hits": "Requests served from the persistent result store",
        "coalesced": "Requests that joined an identical in-flight compile",
        "compiles": "Requests served by a fresh pool compile",
        "failures": "Requests that failed (task error or deadline)",
        "rejected": "Requests rejected by the admission limit",
        "degraded": "Requests served by the in-process fallback lane",
        "shed": "Requests shed (draining, or fallback lane full)",
    }


def compile_task_artifact(task: CompilationTask,
                          store_spec: Optional[Tuple[str, Optional[int]]] = None,
                          evaluate: bool = True) -> CompiledArtifact:
    """Pool job: pipeline-compile ``task`` into an artifact and persist it.

    Module-level and argument-picklable so it runs on a process pool.  The
    gateway looked the key up before dispatch, so this only compiles and
    persists, through the shared
    :func:`~repro.service.batch.compile_task_to_artifact` (the batch and
    serving paths cannot diverge) and this process's one handle on
    ``store_spec``.
    """
    store = ResultStore.from_spec(store_spec) if store_spec is not None else None
    artifact, context = compile_task_to_artifact(task, store=store,
                                                 evaluate=evaluate)
    if artifact is None:
        # Store-less gateway: the caller still needs the serialisable form.
        artifact = CompiledArtifact.from_context(context)
    return artifact


def _in_request_trace(name: str, task: CompilationTask,
                      job: Callable[[], object]) -> Callable[[], object]:
    """``job`` run under a ``name`` span of the calling request's trace.

    ``run_in_executor`` does not propagate contextvars, so the trace is
    captured here and re-activated on the executor thread; its spans reach
    the request tree through the global ``TRACER``.
    """
    trace_ctx = tracing.current_context()

    def run():
        sink = []
        try:
            with tracing.activate(trace_ctx, sink=sink):
                with tracing.span(name, task_id=task.task_id):
                    return job()
        finally:
            if sink:
                tracing.TRACER.ingest(sink)
    return run


class ServingGateway:
    """Asynchronous request front-end over the compile pipeline.

    Parameters
    ----------
    store:
        Optional :class:`~repro.store.ResultStore` consulted before (and
        populated after) every compile.  Without one the gateway still
        coalesces in-flight duplicates but recompiles across time.
    max_workers / pool:
        Worker pool sizing and kind (``"process"`` or ``"thread"``).
    max_pending:
        Admission bound on *concurrent primary compiles*; coalesced waiters
        ride along for free.  Requests beyond the bound receive a failed
        :class:`~repro.server.protocol.ServeResponse` whose error starts
        with ``"rejected"``.
    evaluate:
        Run schedule + evaluate per compile (metrics on every response).
    compile_fn:
        Injection point for tests: ``(task, store_spec, evaluate) ->
        CompiledArtifact``, executed on the pool.
    deadline_s:
        Default per-compile wall-clock budget enforced by the supervised
        pool (``None`` = unbounded).  A client ``timeout_s`` tightens it
        per request, never loosens it.
    retry_policy:
        Crash re-dispatch budget for the pool (default
        :class:`~repro.resilience.RetryPolicy`).
    breaker:
        Circuit breaker over pool-level failures; a default 5-failure /
        5-second breaker is built when not given.
    max_degraded:
        Bound on concurrent in-process fallback compiles while the breaker
        is open (beyond it requests are shed).
    """

    def __init__(self, store: Optional[ResultStore] = None, *,
                 max_workers: Optional[int] = None,
                 max_pending: int = 32,
                 pool: str = "process",
                 evaluate: bool = True,
                 compile_fn: Optional[Callable] = None,
                 deadline_s: Optional[float] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 max_degraded: int = 2) -> None:
        if pool not in ("process", "thread"):
            raise ValueError("pool must be 'process' or 'thread'")
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if max_degraded < 1:
            raise ValueError("max_degraded must be at least 1")
        self.store = store
        self.max_workers = max_workers
        self.max_pending = max_pending
        self.pool_kind = pool
        self.evaluate = evaluate
        self.compile_fn = compile_fn or compile_task_artifact
        self.deadline_s = deadline_s
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self.max_degraded = max_degraded
        self.stats = GatewayStats()
        self._request_seconds = get_registry().histogram(
            "repro_gateway_request_seconds",
            help="End-to-end gateway request latency",
            labels={"instance": self.stats.instance})
        self._pool: Optional[SupervisedPool] = None
        self._prep_executor: Optional[ThreadPoolExecutor] = None
        self._degraded_executor: Optional[ThreadPoolExecutor] = None
        self._inflight: Dict[str, "asyncio.Future[CompiledArtifact]"] = {}
        self._active_compiles = 0
        self._active_degraded = 0
        self._draining = False
        # Bumped after every finished primary compile; lets a request whose
        # async store lookup raced a completing compile re-check the store
        # instead of starting a redundant compile.
        self._completion_epoch = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Create the worker pools (idempotent)."""
        if self._prep_executor is None:
            # Request prep (circuit build / QASM parse, key hashing, store
            # reads) runs off the event loop so one large request cannot
            # stall every other connection.
            self._prep_executor = ThreadPoolExecutor(
                max_workers=2, thread_name_prefix="repro-serve-prep")
        if self._pool is not None:
            return
        self._pool = SupervisedPool(
            self.max_workers, kind=self.pool_kind,
            deadline_s=self.deadline_s, retry_policy=self.retry_policy)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for name in ("_prep_executor", "_degraded_executor"):
            executor = getattr(self, name)
            if executor is not None:
                executor.shutdown(wait=True)
                setattr(self, name, None)

    async def drain(self, timeout_s: float = 30.0) -> bool:
        """Stop admitting work and wait for in-flight compiles to finish.

        Returns ``True`` when everything landed inside the budget.  New
        compile requests arriving during (and after) the drain are shed
        with a structured error; ``close()`` afterwards tears the pools
        down without abandoning accepted work.
        """
        self._draining = True
        loop = asyncio.get_running_loop()
        give_up = loop.time() + timeout_s
        while (self._active_compiles > 0 or self._inflight
               or self._active_degraded > 0):
            if loop.time() >= give_up:
                return False
            await asyncio.sleep(0.01)
        return True

    async def __aenter__(self) -> "ServingGateway":
        self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    async def compile(self, task: CompilationTask,
                      timeout_s: Optional[float] = None, *,
                      trace: bool = False):
        """Serve one compile request; never raises for request-shaped errors.

        Returns a :class:`~repro.server.protocol.ServeResponse` whose
        ``source`` records how it was served (``store`` / ``coalesced`` /
        ``compiled`` / ``degraded``) and whose ``error_class`` (on
        failure) tells the client whether a retry can help.

        With ``trace=True`` the request runs under a ``gateway.request``
        root span; every span produced on its behalf — request prep, pool
        dispatch, pipeline passes, sharded slice maps, store access — is
        collected into one tree and attached to the response as Chrome
        trace events (``response.trace``).  Tracing observes timestamps
        only, so the artifact is byte-identical with it on or off.
        """
        loop = asyncio.get_running_loop()
        start = loop.time()
        try:
            if not trace:
                return await self._compile(task, timeout_s)
            with tracing.start_trace("gateway.request",
                                     task_id=task.task_id) as handle:
                response = await self._compile(task, timeout_s)
            spans = list(handle.spans)
            spans.extend(tracing.TRACER.drain(handle.trace_id))
            chrome = tracing.chrome_trace_events(spans)
            chrome["trace_id"] = handle.trace_id
            return dataclasses.replace(response, trace=chrome)
        finally:
            self._request_seconds.observe(loop.time() - start)

    async def _compile(self, task: CompilationTask,
                       timeout_s: Optional[float]):
        from .protocol import ServeResponse  # local: avoid import cycle

        loop = asyncio.get_running_loop()
        start = loop.time()
        self.stats.requests += 1
        if self._draining:
            self.stats.shed += 1
            return ServeResponse.failure(
                task.task_id, "shed: gateway is draining for shutdown",
                loop.time() - start, error_class=SHED)
        self.start()

        # (1) request prep + persistent store lookup, off the event loop:
        # QASM parsing, digest hashing and store file reads are per-request
        # CPU/IO that must not stall other connections.
        epoch_before = self._completion_epoch
        try:
            circuit, key, artifact = await loop.run_in_executor(
                self._prep_executor, _in_request_trace(
                    "gateway.prepare", task,
                    lambda: lookup_task(task, self.store, self.evaluate)))
        except Exception as exc:  # noqa: BLE001 - bad requests are data
            self.stats.failures += 1
            return ServeResponse.failure(
                task.task_id, f"{type(exc).__name__}: {exc}",
                loop.time() - start, error_class=PERMANENT)
        if artifact is not None:
            self.stats.store_hits += 1
            return ServeResponse.from_artifact(
                task, circuit.name, artifact, "store", loop.time() - start)

        # (2) coalesce onto an identical in-flight compile.
        digest = key.digest()
        inflight = self._inflight.get(digest)
        if inflight is not None:
            self.stats.coalesced += 1
            try:
                artifact = await asyncio.shield(inflight)
            except Exception as exc:  # noqa: BLE001 - failure isolation
                self.stats.failures += 1
                return ServeResponse.failure(
                    task.task_id, f"{type(exc).__name__}: {exc}",
                    loop.time() - start, error_class=classify_error(exc))
            return ServeResponse.from_artifact(
                task, circuit.name, artifact, "coalesced", loop.time() - start)

        # (2b) if some compile finished while our store lookup was in
        # flight, the miss may be stale — re-check before compiling again.
        if self.store is not None and self._completion_epoch != epoch_before:
            artifact = self.store.get(key, require_metrics=self.evaluate)
            if artifact is not None:
                self.stats.store_hits += 1
                return ServeResponse.from_artifact(
                    task, circuit.name, artifact, "store", loop.time() - start)

        # (3) admission control for new keys.
        if self._active_compiles >= self.max_pending:
            self.stats.rejected += 1
            return ServeResponse.failure(
                task.task_id,
                f"rejected: admission queue full "
                f"({self._active_compiles} compiles in flight, "
                f"max_pending={self.max_pending})",
                loop.time() - start, error_class=SHED)

        # (4) primary compile — supervised pool, or the degraded lane when
        # the circuit breaker says the pool is currently unusable.
        future: "asyncio.Future[CompiledArtifact]" = loop.create_future()
        self._inflight[digest] = future
        self._active_compiles += 1
        store_spec = self.store.spec if self.store is not None else None
        deadline = tightest(self.deadline_s, timeout_s)
        source = "compiled"
        try:
            if self.breaker.allow():
                try:
                    artifact = await self._pool_compile(
                        task, store_spec, deadline)
                    self.breaker.record_success()
                except asyncio.CancelledError:
                    # Never leave a half-open probe dangling.
                    self.breaker.record_success()
                    raise
                except (WorkerCrashed, PoolUnavailable) as exc:
                    # Pool-level trouble: feed the breaker, then degrade —
                    # this request still deserves a correct (slow) answer.
                    self.breaker.record_failure()
                    artifact = await self._degraded_compile(
                        loop, task, store_spec, deadline, cause=exc)
                    source = "degraded"
                except Exception:
                    # Task-level failure (bad input, deadline kill): the
                    # pool demonstrably did its job, so the breaker sees
                    # health — only pool-level trouble may open it.
                    self.breaker.record_success()
                    raise
            else:
                artifact = await self._degraded_compile(
                    loop, task, store_spec, deadline, cause=None)
                source = "degraded"
        except Exception as exc:  # noqa: BLE001 - per-request isolation
            # Exactly one outcome counter per request: a shed (degraded
            # lane full) is classified here and nowhere else — bumping at
            # the raise site *and* counting the exception as a failure
            # double-counted shed requests (observable as stats drift
            # under mixed load).
            if isinstance(exc, LoadShed):
                self.stats.shed += 1
            else:
                self.stats.failures += 1
            future.set_exception(exc)
            future.exception()  # waiters re-raise; silence un-awaited logging
            return ServeResponse.failure(
                task.task_id, f"{type(exc).__name__}: {exc}",
                loop.time() - start, error_class=classify_error(exc))
        else:
            if source == "degraded":
                self.stats.degraded += 1
            else:
                self.stats.compiles += 1
            self._completion_epoch += 1
            future.set_result(artifact)
            return ServeResponse.from_artifact(
                task, circuit.name, artifact, source, loop.time() - start)
        finally:
            # Failed compiles are never cached: dropping the in-flight entry
            # means the next identical request starts a fresh compile.  If
            # this (primary) request was cancelled mid-compile, the future
            # would otherwise never resolve — fail it so coalesced waiters
            # get an error response instead of hanging forever.
            if not future.done():
                future.set_exception(RuntimeError(
                    "primary compile request was cancelled"))
                future.exception()
            self._inflight.pop(digest, None)
            self._active_compiles -= 1

    async def _pool_compile(self, task: CompilationTask, store_spec,
                            deadline: Optional[float]) -> CompiledArtifact:
        pool_future = self._pool.submit(
            self.compile_fn, task, store_spec, self.evaluate,
            deadline_s=deadline, label=task.task_id, token=task.task_id)
        return await asyncio.wrap_future(pool_future)

    async def _degraded_compile(self, loop, task: CompilationTask, store_spec,
                                deadline: Optional[float],
                                cause: Optional[Exception]) -> CompiledArtifact:
        """Bounded in-process serial fallback compile.

        Correctness first: the exact same ``compile_fn`` runs, so the
        artifact (and its op-stream digest) is identical to a pool compile.
        The lane is deliberately tiny — beyond ``max_degraded`` concurrent
        fallbacks the request is shed rather than queued, because an
        unbounded serial queue on a broken pool just converts an outage
        into unbounded latency.
        """
        if self._active_degraded >= self.max_degraded:
            # Counted by the caller's outcome classification (LoadShed →
            # ``shed``), not here — see the except arm in :meth:`_compile`.
            detail = f" (pool failure: {cause})" if cause is not None else ""
            raise LoadShed(
                f"shed: degraded lane full "
                f"({self._active_degraded}/{self.max_degraded}){detail}")
        if self._degraded_executor is None:
            self._degraded_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-degraded")
        self._active_degraded += 1

        def _job():
            try:
                return self.compile_fn(task, store_spec, self.evaluate)
            finally:
                self._active_degraded -= 1

        call = loop.run_in_executor(
            self._degraded_executor,
            _in_request_trace("gateway.degraded_compile", task, _job))
        if deadline is None:
            return await call
        try:
            return await asyncio.wait_for(asyncio.shield(call), deadline)
        except asyncio.TimeoutError:
            raise DeadlineExceeded(
                f"{task.task_id!r} exceeded its {deadline:.3g}s deadline "
                f"on the degraded lane") from None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "gateway": self.stats.as_dict(),
            "pool": self.pool_kind,
            "max_pending": self.max_pending,
            "inflight": len(self._inflight),
            "breaker": self.breaker.as_dict(),
            "supervision": (None if self._pool is None
                            else self._pool.stats_dict()),
        }
        payload["store"] = (None if self.store is None
                            else self.store.stats_dict())
        return payload

    def health_dict(self) -> Dict[str, object]:
        """Operational snapshot for the ``health`` protocol verb."""
        breaker_state = self.breaker.state
        if self._draining:
            status = "draining"
        elif breaker_state != "closed":
            status = "degraded"
        else:
            status = "ok"
        pool = self._pool
        store = self.store
        return {
            "status": status,
            "draining": self._draining,
            "breaker": self.breaker.as_dict(),
            "pool": None if pool is None else pool.stats_dict(),
            "retry": {
                "max_attempts": self.retry_policy.max_attempts,
                "base_delay_s": self.retry_policy.base_delay_s,
                "multiplier": self.retry_policy.multiplier,
            },
            "deadline_s": self.deadline_s,
            "active_compiles": self._active_compiles,
            "active_degraded": self._active_degraded,
            "max_degraded": self.max_degraded,
            "gateway": self.stats.as_dict(),
            "store": None if store is None else store.stats_dict(),
        }
