"""ServingGateway semantics: hits, coalescing, admission, failure isolation.

Deterministic tests inject a controllable ``compile_fn`` (the pool contract:
``(task, store_spec, evaluate) -> CompiledArtifact``) so concurrency races
never decide outcomes; the end-to-end bit-identity tests run the real
pipeline through a thread pool with a real store.
"""

import asyncio
import hashlib
import threading

import pytest

from repro.mapping import MapperConfig
from repro.pipeline import compile_circuit
from repro.service import (
    ARCHITECTURE_CACHE,
    ArchitectureSpec,
    CompilationTask,
)
from repro.store import CompiledArtifact, ResultStore
from repro.server import ServingGateway

SPEC = ArchitectureSpec("mixed", lattice_rows=7, num_atoms=30)


def fake_artifact(label: str) -> CompiledArtifact:
    lines = (f"G 0 h/single q=(0,) p=[] a=(0,) s=(0,)", f"# {label}")
    return CompiledArtifact(
        circuit_name=label, mode="hybrid", num_qubits=2,
        op_stream=lines,
        op_stream_sha256=hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        num_operations=2, num_swaps=0, num_moves=0, runtime_seconds=0.0)


def library_task(task_id: str, circuit: str = "graph", qubits: int = 12,
                 seed: int = 7) -> CompilationTask:
    return CompilationTask(task_id, SPEC, circuit_name=circuit,
                           num_qubits=qubits, seed=seed)


class ControlledCompile:
    """compile_fn double: blocks on an event, counts calls, can raise."""

    def __init__(self, release: threading.Event,
                 fail_ids: frozenset = frozenset()) -> None:
        self.release = release
        self.fail_ids = fail_ids
        self.calls = []
        self._lock = threading.Lock()
        self.started = threading.Event()

    def __call__(self, task, store_spec, evaluate) -> CompiledArtifact:
        with self._lock:
            self.calls.append(task.task_id)
        self.started.set()
        assert self.release.wait(timeout=60), "test forgot to release compiles"
        if task.task_id in self.fail_ids:
            raise RuntimeError(f"injected failure for {task.task_id}")
        return fake_artifact(task.task_id)


async def _let_requests_reach_the_pool() -> None:
    """Yield the loop until queued coroutines have hit their await points."""
    for _ in range(10):
        await asyncio.sleep(0.01)


class TestCoalescing:
    def test_n_identical_concurrent_requests_trigger_exactly_one_compile(self):
        async def scenario():
            release = threading.Event()
            compile_fn = ControlledCompile(release)
            async with ServingGateway(pool="thread", max_workers=2,
                                      evaluate=False,
                                      compile_fn=compile_fn) as gateway:
                task = library_task("dup")
                pending = [asyncio.create_task(gateway.compile(task))
                           for _ in range(5)]
                await _let_requests_reach_the_pool()
                release.set()
                responses = await asyncio.gather(*pending)
                return gateway.stats, compile_fn.calls, responses

        stats, calls, responses = asyncio.run(scenario())
        assert len(calls) == 1, "exactly one compile must run"
        assert stats.compiles == 1
        assert stats.coalesced == 4
        assert stats.requests == 5
        assert all(response.ok for response in responses)
        assert {response.source for response in responses} == \
            {"compiled", "coalesced"}
        assert len({response.digest["sha256"]
                    for response in responses}) == 1

    def test_distinct_requests_compile_separately(self):
        async def scenario():
            release = threading.Event()
            release.set()
            compile_fn = ControlledCompile(release)
            async with ServingGateway(pool="thread", max_workers=2,
                                      evaluate=False,
                                      compile_fn=compile_fn) as gateway:
                first = await gateway.compile(library_task("a", qubits=12))
                second = await gateway.compile(library_task("b", qubits=14))
                return gateway.stats, first, second

        stats, first, second = asyncio.run(scenario())
        assert stats.compiles == 2 and stats.coalesced == 0
        assert first.ok and second.ok

    def test_sequential_duplicate_without_store_recompiles(self):
        """Coalescing only spans in-flight requests; across time the
        persistent store is the dedupe layer."""
        async def scenario():
            release = threading.Event()
            release.set()
            compile_fn = ControlledCompile(release)
            async with ServingGateway(pool="thread", evaluate=False,
                                      compile_fn=compile_fn) as gateway:
                await gateway.compile(library_task("x"))
                await gateway.compile(library_task("x"))
                return gateway.stats

        stats = asyncio.run(scenario())
        assert stats.compiles == 2


class TestAdmission:
    def test_requests_beyond_max_pending_are_rejected(self):
        async def scenario():
            release = threading.Event()
            compile_fn = ControlledCompile(release)
            async with ServingGateway(pool="thread", max_workers=1,
                                      max_pending=1, evaluate=False,
                                      compile_fn=compile_fn) as gateway:
                blocked = asyncio.create_task(
                    gateway.compile(library_task("occupies", qubits=12)))
                await _let_requests_reach_the_pool()
                rejected = await gateway.compile(
                    library_task("overflow", qubits=14))
                # Identical in-flight requests still coalesce for free.
                rides_along = asyncio.create_task(
                    gateway.compile(library_task("occupies", qubits=12)))
                await _let_requests_reach_the_pool()
                release.set()
                first = await blocked
                waiter = await rides_along
                return gateway.stats, first, rejected, waiter

        stats, first, rejected, waiter = asyncio.run(scenario())
        assert first.ok and waiter.ok
        assert not rejected.ok
        assert rejected.error.startswith("rejected")
        assert stats.rejected == 1
        assert stats.compiles == 1 and stats.coalesced == 1

    def test_capacity_recovers_after_completion(self):
        async def scenario():
            release = threading.Event()
            release.set()
            compile_fn = ControlledCompile(release)
            async with ServingGateway(pool="thread", max_pending=1,
                                      evaluate=False,
                                      compile_fn=compile_fn) as gateway:
                await gateway.compile(library_task("a", qubits=12))
                after = await gateway.compile(library_task("b", qubits=14))
                return gateway.stats, after

        stats, after = asyncio.run(scenario())
        assert after.ok and stats.rejected == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ServingGateway(max_pending=0)
        with pytest.raises(ValueError):
            ServingGateway(pool="coroutine")


class TestFailureIsolation:
    def test_failing_compile_fails_request_but_not_gateway(self):
        async def scenario():
            release = threading.Event()
            release.set()
            compile_fn = ControlledCompile(release,
                                           fail_ids=frozenset({"bad"}))
            async with ServingGateway(pool="thread", evaluate=False,
                                      compile_fn=compile_fn) as gateway:
                bad = await gateway.compile(library_task("bad", qubits=12))
                good = await gateway.compile(library_task("good", qubits=14))
                return gateway.stats, bad, good

        stats, bad, good = asyncio.run(scenario())
        assert not bad.ok and "injected failure" in bad.error
        assert good.ok
        assert stats.failures == 1 and stats.compiles == 1

    def test_failure_propagates_to_coalesced_waiters_and_is_not_cached(self):
        async def scenario():
            release = threading.Event()
            compile_fn = ControlledCompile(release,
                                           fail_ids=frozenset({"bad"}))
            async with ServingGateway(pool="thread", evaluate=False,
                                      compile_fn=compile_fn) as gateway:
                task = library_task("bad")
                pending = [asyncio.create_task(gateway.compile(task))
                           for _ in range(3)]
                await _let_requests_reach_the_pool()
                release.set()
                responses = await asyncio.gather(*pending)
                # The failure is not cached: a retry compiles afresh.
                retry = await gateway.compile(task)
                return gateway.stats, compile_fn.calls, responses, retry

        stats, calls, responses, retry = asyncio.run(scenario())
        assert all(not response.ok for response in responses)
        assert all("injected failure" in response.error
                   for response in responses)
        assert calls == ["bad", "bad"], "retry must re-run the compile"
        assert not retry.ok  # fake still fails; the point is it re-ran
        assert stats.failures == len(responses) + 1

    def test_cancelled_primary_fails_waiters_instead_of_hanging(self):
        """Cancelling the primary request must resolve the shared in-flight
        future: coalesced waiters get an error response, never a hang."""
        async def scenario():
            release = threading.Event()
            compile_fn = ControlledCompile(release)
            async with ServingGateway(pool="thread", evaluate=False,
                                      compile_fn=compile_fn) as gateway:
                task = library_task("doomed")
                primary = asyncio.create_task(gateway.compile(task))
                await _let_requests_reach_the_pool()
                waiter = asyncio.create_task(gateway.compile(task))
                await _let_requests_reach_the_pool()
                primary.cancel()
                release.set()
                waiter_response = await asyncio.wait_for(waiter, timeout=30)
                with pytest.raises(asyncio.CancelledError):
                    await primary
                # The key is free again: a retry starts a fresh compile.
                retry = await asyncio.wait_for(gateway.compile(task),
                                               timeout=30)
                return gateway.stats, waiter_response, retry

        stats, waiter_response, retry = asyncio.run(scenario())
        assert not waiter_response.ok
        assert "cancelled" in waiter_response.error
        assert retry.ok
        assert stats.compiles == 1  # only the retry completed as a compile

    def test_malformed_task_fails_without_touching_pool(self):
        async def scenario():
            release = threading.Event()
            compile_fn = ControlledCompile(release)
            async with ServingGateway(pool="thread", evaluate=False,
                                      compile_fn=compile_fn) as gateway:
                response = await gateway.compile(
                    CompilationTask("payload-less", SPEC))
                return gateway.stats, compile_fn.calls, response

        stats, calls, response = asyncio.run(scenario())
        assert not response.ok and "neither" in response.error
        assert calls == []
        assert stats.failures == 1


class TestStoreIntegration:
    def test_hit_skips_pool_and_digest_matches_fresh_compile(self, tmp_path):
        """Acceptance: a store-served result is byte-identical to a fresh
        compile of the same request (digest equality, end to end)."""
        async def scenario():
            store = ResultStore(tmp_path)
            async with ServingGateway(store, pool="thread",
                                      max_workers=2) as gateway:
                first = await gateway.compile(library_task("first"))
                second = await gateway.compile(library_task("second"))
                return gateway.stats, first, second

        stats, first, second = asyncio.run(scenario())
        assert first.ok and first.source == "compiled"
        assert second.ok and second.source == "store"
        assert stats.compiles == 1 and stats.store_hits == 1
        assert first.digest == second.digest

        # Reference: an in-process pipeline compile of the same request.
        task = library_task("reference")
        architecture, connectivity = ARCHITECTURE_CACHE.get(SPEC)
        context = compile_circuit(task.build_circuit(), architecture,
                                  MapperConfig.for_mode("hybrid", 1.0),
                                  connectivity=connectivity, alpha_ratio=1.0)
        fresh = context.require_result().op_stream_digest()
        assert second.digest == fresh
        assert second.metrics["delta_cz"] == context.require_metrics().delta_cz

    def test_concurrent_identical_requests_with_store_compile_once(self,
                                                                   tmp_path):
        async def scenario():
            store = ResultStore(tmp_path)
            async with ServingGateway(store, pool="thread",
                                      max_workers=2) as gateway:
                task = library_task("fanout")
                responses = await asyncio.gather(
                    *[gateway.compile(task) for _ in range(4)])
                return gateway.stats, responses

        stats, responses = asyncio.run(scenario())
        assert all(response.ok for response in responses)
        assert stats.compiles == 1
        assert stats.store_hits + stats.coalesced == 3
        assert len({response.digest["sha256"]
                    for response in responses}) == 1

    def test_qasm_text_request_dedupes_with_library_structure(self, tmp_path):
        from repro.circuit.library import get_benchmark
        from repro.circuit.qasm import dumps

        async def scenario():
            store = ResultStore(tmp_path)
            text = dumps(get_benchmark("graph", num_qubits=12, seed=7))
            async with ServingGateway(store, pool="thread") as gateway:
                compiled = await gateway.compile(library_task("lib"))
                served = await gateway.compile(
                    CompilationTask("as-qasm", SPEC, qasm=text))
                return gateway.stats, compiled, served

        stats, compiled, served = asyncio.run(scenario())
        assert compiled.ok and served.ok
        assert served.source == "store", \
            "same structure submitted as QASM must hit the library entry"
        assert served.digest == compiled.digest
        assert served.metrics["circuit_name"] == "as-qasm"
        assert stats.compiles == 1


class TestOneStoreReadPerRequest:
    """The gateway reads the store once per request; pool jobs only
    compile and persist."""

    def test_compile_then_repeat_reads_the_store_once_each(self, tmp_path):
        async def scenario():
            store = ResultStore(tmp_path)
            async with ServingGateway(store, pool="thread", max_workers=1,
                                      evaluate=False) as gateway:
                first = await gateway.compile(library_task("once"))
                second = await gateway.compile(library_task("again"))
                return store, first, second

        store, first, second = asyncio.run(scenario())
        assert first.source == "compiled" and second.source == "store"
        assert store.stats.misses == 1, "the pool job must not read the store"
        assert store.stats.hits == 1

    def test_a_miss_is_built_and_keyed_once(self, tmp_path, monkeypatch):
        """The prepare step's circuit and key reach the thread-pool job."""
        builds = []
        stock_build = CompilationTask.build_circuit

        def counting_build(task):
            builds.append(task.task_id)
            return stock_build(task)

        monkeypatch.setattr(CompilationTask, "build_circuit", counting_build)

        async def scenario():
            store = ResultStore(tmp_path)
            async with ServingGateway(store, pool="thread", max_workers=1,
                                      evaluate=False) as gateway:
                return await gateway.compile(library_task("once"))

        assert asyncio.run(scenario()).source == "compiled"
        assert builds == ["once"]

    def test_worker_side_compiles_sweep_orphans_once(self, tmp_path,
                                                     monkeypatch):
        from repro.server import compile_task_artifact

        store = ResultStore(tmp_path)
        sweeps = []
        stock_sweep = ResultStore._sweep_orphans

        def counting_sweep(handle):
            sweeps.append(handle.root)
            stock_sweep(handle)

        monkeypatch.setattr(ResultStore, "_sweep_orphans", counting_sweep)
        for seed in (1, 2, 3):
            compile_task_artifact(library_task(f"sweep-{seed}", qubits=6,
                                               seed=seed),
                                  store.spec, False)
        assert sweeps == [tmp_path]
        assert store.stats.puts == 3
