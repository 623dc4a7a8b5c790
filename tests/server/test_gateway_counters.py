"""Gateway counter integrity under mixed load.

Every admitted request must land in exactly one outcome bucket, and the
registry-backed counters must equal what a client independently observes
from the responses themselves.  This is the regression net for the
historical drift bug where a shed request (degraded lane full) bumped
``shed`` at the raise site *and* ``failures`` in the outer handler.
"""

import asyncio
import hashlib
import threading
from collections import Counter

from repro.service import ArchitectureSpec, CompilationTask
from repro.store import CompiledArtifact, ResultStore
from repro.server import ServingGateway
from repro.telemetry.registry import get_registry

SPEC = ArchitectureSpec("mixed", lattice_rows=7, num_atoms=30)

#: Outcome buckets of GatewayStats: every request lands in exactly one.
OUTCOMES = ("store_hits", "coalesced", "compiles", "degraded", "failures",
            "rejected", "shed")


def _task(task_id: str, circuit: str = "graph", qubits: int = 12,
          seed: int = 7) -> CompilationTask:
    return CompilationTask(task_id, SPEC, circuit_name=circuit,
                          num_qubits=qubits, seed=seed)


def fake_artifact(label: str) -> CompiledArtifact:
    lines = ("G 0 h/single q=(0,) p=[] a=(0,) s=(0,)", f"# {label}")
    return CompiledArtifact(
        circuit_name=label, mode="hybrid", num_qubits=2,
        op_stream=lines,
        op_stream_sha256=hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        num_operations=2, num_swaps=0, num_moves=0, runtime_seconds=0.0)


class ControlledCompile:
    """compile_fn double: blocks on an event, can fail designated ids."""

    def __init__(self, release: threading.Event,
                 fail_ids: frozenset = frozenset()) -> None:
        self.release = release
        self.fail_ids = fail_ids

    def __call__(self, task, store_spec, evaluate) -> CompiledArtifact:
        assert self.release.wait(timeout=60), "test forgot to release"
        if task.task_id in self.fail_ids:
            raise RuntimeError(f"injected failure for {task.task_id}")
        return fake_artifact(task.task_id)


def _classify(response) -> str:
    """Independent client-side view of which bucket a response fell in."""
    if response.ok:
        return {"store": "store_hits", "coalesced": "coalesced",
                "compiled": "compiles", "degraded": "degraded"}[response.source]
    if response.error.startswith("rejected"):
        return "rejected"
    if response.error_class == "shed":
        return "shed"
    return "failures"


async def _settle():
    for _ in range(10):
        await asyncio.sleep(0.01)


def _assert_counts_match(gateway, responses):
    """The three views must agree: responses, stats object, registry."""
    observed = Counter(_classify(response) for response in responses)
    stats = gateway.stats.as_dict()

    assert stats["requests"] == len(responses)
    assert sum(stats[bucket] for bucket in OUTCOMES) == stats["requests"], \
        f"outcome buckets must partition requests: {stats}"
    for bucket in OUTCOMES:
        assert stats[bucket] == observed.get(bucket, 0), \
            f"{bucket}: gateway says {stats[bucket]}, " \
            f"client observed {observed.get(bucket, 0)}"

    counters = get_registry().snapshot()["counters"]
    instance = gateway.stats.instance
    for field, value in stats.items():
        series = f'repro_gateway_{field}_total{{instance="{instance}"}}'
        assert counters[series] == value, \
            f"registry snapshot diverged from stats for {series}"
    histograms = get_registry().snapshot()["histograms"]
    latency = histograms[
        f'repro_gateway_request_seconds{{instance="{instance}"}}']
    assert latency["count"] == len(responses)


def test_mixed_load_counters_match_independent_observation():
    """Success, coalescing, rejection, task failure, malformed input,
    degraded fallback, lane-full shed and draining shed in one run."""

    async def scenario():
        release = threading.Event()
        compile_fn = ControlledCompile(release,
                                       fail_ids=frozenset({"bad"}))
        responses = []
        async with ServingGateway(pool="thread", max_workers=2,
                                  max_pending=2, max_degraded=1,
                                  evaluate=False,
                                  compile_fn=compile_fn) as gateway:
            # Two primaries occupy max_pending; two waiters coalesce.
            dup = _task("dup", qubits=12)
            blocked = [asyncio.create_task(gateway.compile(dup))
                       for _ in range(3)]
            blocked.append(asyncio.create_task(
                gateway.compile(_task("other", qubits=14))))
            await _settle()
            # Admission full: a new key is rejected.
            responses.append(await gateway.compile(_task("overflow",
                                                         qubits=16)))
            release.set()
            responses.extend(await asyncio.gather(*blocked))

            # Task-level failure and malformed (pool-less) failure.
            responses.append(await gateway.compile(_task("bad", qubits=12)))
            responses.append(await gateway.compile(
                CompilationTask("payload-less", SPEC)))

            # Open the breaker: requests flow through the degraded lane.
            for _ in range(gateway.breaker.failure_threshold):
                gateway.breaker.record_failure()
            assert gateway.breaker.state == "open"
            release.clear()
            occupying = asyncio.create_task(
                gateway.compile(_task("deg-a", qubits=18)))
            await _settle()
            # Lane (max_degraded=1) is busy: the next request is shed —
            # and must NOT also be counted as a failure (the drift bug).
            responses.append(await gateway.compile(_task("deg-b",
                                                         qubits=20)))
            release.set()
            responses.append(await occupying)

            # Draining: late requests are shed.
            assert await gateway.drain(timeout_s=10)
            responses.append(await gateway.compile(_task("late", qubits=22)))
            return gateway, responses

    gateway, responses = asyncio.run(scenario())
    observed = Counter(_classify(response) for response in responses)
    assert observed == Counter({"compiles": 2, "coalesced": 2, "rejected": 1,
                                "failures": 2, "degraded": 1, "shed": 2})
    _assert_counts_match(gateway, responses)


def test_store_hits_counted_once_per_served_request(tmp_path):
    """Real pipeline + persistent store: hits and compiles partition the
    request count, and the registry sees the same numbers."""

    async def scenario():
        store = ResultStore(tmp_path / "store")
        async with ServingGateway(store, pool="thread",
                                  max_workers=2) as gateway:
            responses = [await gateway.compile(_task("first"))]
            responses.append(await gateway.compile(_task("repeat")))
            responses.append(await gateway.compile(_task("fresh",
                                                         circuit="qft",
                                                         qubits=8)))
            return gateway, responses

    gateway, responses = asyncio.run(scenario())
    assert [response.source for response in responses] == \
        ["compiled", "store", "compiled"]
    _assert_counts_match(gateway, responses)


def test_store_series_stay_flat_over_compiles(tmp_path):
    """Worker-side store handles share the gateway store's counters: the
    compiles add no registry series, and the gateway's stats count every
    artifact persisted."""
    compiles = 4

    def store_series():
        return sorted(series for series in get_registry().snapshot()["counters"]
                      if series.startswith("repro_store_"))

    async def scenario():
        store = ResultStore(tmp_path / "store")
        series = store_series()
        async with ServingGateway(store, pool="thread",
                                  max_workers=2) as gateway:
            for seed in range(compiles):
                response = await gateway.compile(
                    _task(f"seed-{seed}", qubits=8, seed=seed))
                assert response.source == "compiled", response.error
        return store, series

    store, series = asyncio.run(scenario())
    assert store_series() == series
    assert store.stats.puts == compiles == store.num_entries()
