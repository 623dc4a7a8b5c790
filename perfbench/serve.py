"""The ``serve_repeat`` workload: a closed loop against an in-process server.

Each round opens a fresh :class:`~repro.store.ResultStore`, starts a
:class:`~repro.server.ServingServer` over a gateway with a thread pool of two
workers, and lets two client connections work through the request stream,
each sending its next request when the previous answer arrives.  Serving
layers are timed only in traced rounds, through the gateway's ``compile_fn``
injection point and the store instance the round constructs.
"""

from __future__ import annotations

import asyncio
import queue
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.server import ServingClient, ServingGateway, ServingServer
from repro.server.gateway import compile_task_artifact
from repro.store import ResultStore

from measure import SpeedSampler, median, ratio, tail_percentile

__all__ = ["ServeRound", "serve_round", "serving_layer_metrics",
           "stream_metrics", "CLIENTS", "WORKERS", "SERVING_LAYER_METRICS"]

CLIENTS = 2
WORKERS = 2

#: Names :func:`serving_layer_metrics` reports; 0 on the compile workloads,
#: which never serve.
SERVING_LAYER_METRICS = (
    "store.get_s", "store.gets", "store.hit_ratio", "gateway.hit_p50_ms",
    "gateway.compile_p50_ms", "gateway.coalesced", "gateway.compiles",
    "gateway.rejected", "pool.exec_s", "pool.wait_ms", "pool.retries")


@dataclass
class ServeRound:
    """Client-side record of one request stream, plus traced-round probes."""

    #: ``setup_s`` and ``wall`` are at the reference host speed (see
    #: :class:`measure.SpeedSampler`); latencies and traced-round times are
    #: raw, and ``scale`` converts them.
    setup_s: float = 0.0
    scale: float = 1.0
    wall: float = 0.0
    latencies: List[float] = field(default_factory=list)
    sources: List[Optional[str]] = field(default_factory=list)
    task_ids: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    gateway_stats: Dict[str, int] = field(default_factory=dict)
    pool_retries: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_get_s: float = 0.0
    store_gets: int = 0
    exec_s: Dict[str, float] = field(default_factory=dict)


def _start_server(gateway: ServingGateway) -> Tuple[threading.Thread, int]:
    """Run a ServingServer on its own event-loop thread; returns the port."""
    ready = threading.Event()
    box: Dict[str, object] = {}

    def runner() -> None:
        async def main() -> None:
            server = ServingServer(gateway, "127.0.0.1", 0)
            await server.start()
            box["port"] = server.port
            ready.set()
            await server.serve_until_shutdown()
        try:
            asyncio.run(main())
        except BaseException as exc:  # surfaced to the caller below
            box["error"] = exc
            ready.set()
            raise

    thread = threading.Thread(target=runner, name="perfbench-server")
    thread.start()
    if not ready.wait(timeout=60) or "port" not in box:
        thread.join(timeout=60)
        raise RuntimeError(f"server failed to start: {box.get('error')}")
    return thread, int(box["port"])


def _timed_compile_fn(exec_s: Dict[str, float]) -> Callable:
    """``compile_fn`` that delegates to the stock one, timing each call."""
    def compile_fn(task, store_spec, evaluate):
        tick = time.perf_counter()
        try:
            return compile_task_artifact(task, store_spec, evaluate)
        finally:
            exec_s[task.task_id] = time.perf_counter() - tick
    return compile_fn


def serve_round(prepare: Callable[[], List], store_dir: Path,
                sampler: SpeedSampler, *, traced: bool) -> ServeRound:
    """Set up a fresh store and server, run a request stream, tear down.

    ``prepare`` is the rest of the round's set-up (device build and request
    generation) and returns the stream; it is timed together with opening
    the store and starting the server.
    """
    record = ServeRound()
    with sampler.timed() as setup:
        stream, store, thread, port = _set_up(
            prepare, store_dir, record, traced)
    record.setup_s = setup.seconds

    try:
        with sampler.timed() as span:
            _drive(stream, port, record)
        with ServingClient("127.0.0.1", port) as client:
            stats = client.stats()
    finally:
        with ServingClient("127.0.0.1", port) as client:
            client.shutdown()
        thread.join(timeout=120)
        shutil.rmtree(store_dir, ignore_errors=True)
    if thread.is_alive():
        raise RuntimeError("server thread did not stop")
    record.scale = span.factor
    record.wall = span.seconds
    record.gateway_stats = dict(stats["gateway"])
    record.pool_retries = int((stats.get("supervision") or {}).get("retries", 0))
    record.store_hits = store.stats.hits
    record.store_misses = store.stats.misses
    return record


def _set_up(prepare, store_dir: Path, record: ServeRound, traced: bool):
    """Request stream, fresh store, gateway and running server of a round."""
    stream = prepare()
    store = ResultStore(store_dir)
    if traced:
        stock_get = store.get

        def timed_get(*args, **kwargs):
            started = time.perf_counter()
            try:
                return stock_get(*args, **kwargs)
            finally:
                record.store_get_s += time.perf_counter() - started
                record.store_gets += 1
        store.get = timed_get
    gateway = ServingGateway(
        store, max_workers=WORKERS, pool="thread",
        compile_fn=_timed_compile_fn(record.exec_s) if traced else None)
    thread, port = _start_server(gateway)
    return stream, store, thread, port


def _drive(stream, port: int, record: ServeRound) -> None:
    """Closed loop: ``CLIENTS`` connections, one outstanding request each."""
    pending: "queue.Queue" = queue.Queue()
    for task in stream:
        pending.put(task)
    lock = threading.Lock()
    errors: List[BaseException] = []

    def client_loop() -> None:
        try:
            with ServingClient("127.0.0.1", port) as client:
                while True:
                    try:
                        task = pending.get_nowait()
                    except queue.Empty:
                        return
                    tick = time.perf_counter()
                    response = client.compile_task(task)
                    elapsed = time.perf_counter() - tick
                    with lock:
                        record.latencies.append(elapsed)
                        record.sources.append(response.source)
                        record.task_ids.append(task.task_id)
                        if not response.ok:
                            record.failures.append(
                                f"{task.task_id}: {response.error}")
                        elif response.digest is not None:
                            record.digests[task.task_id] = str(
                                response.digest["sha256"])
        except BaseException as exc:  # reported after join
            errors.append(exc)

    threads = [threading.Thread(target=client_loop, name=f"perfbench-client-{i}")
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def serving_layer_metrics(traced: List[ServeRound]) -> Dict[str, float]:
    """Serving per-layer metrics of the median traced round (by wall time)."""
    chosen = sorted(traced, key=lambda run: run.wall)[len(traced) // 2]

    def latencies_of(source: str) -> List[float]:
        return [latency for latency, got in zip(chosen.latencies, chosen.sources)
                if got == source]

    scale = chosen.scale
    waits = [latency - chosen.exec_s[task_id]
             for latency, got, task_id in zip(chosen.latencies, chosen.sources,
                                              chosen.task_ids)
             if got == "compiled" and task_id in chosen.exec_s]
    hits = latencies_of("store")
    compiled = latencies_of("compiled")
    stats = chosen.gateway_stats
    return {
        "store.get_s": chosen.store_get_s * scale,
        "store.gets": chosen.store_gets,
        "store.hit_ratio": ratio(chosen.store_hits,
                                 chosen.store_hits + chosen.store_misses),
        "gateway.hit_p50_ms": 1000.0 * scale * median(hits) if hits else 0.0,
        "gateway.compile_p50_ms": (1000.0 * scale * median(compiled)
                                   if compiled else 0.0),
        "gateway.coalesced": stats.get("coalesced", 0),
        "gateway.compiles": stats.get("compiles", 0),
        "gateway.rejected": stats.get("rejected", 0),
        "pool.exec_s": scale * sum(chosen.exec_s.values()),
        "pool.wait_ms": 1000.0 * scale * median(waits) if waits else 0.0,
        "pool.retries": chosen.pool_retries,
    }


def stream_metrics(rounds: List[ServeRound]) -> Dict[str, float]:
    """End-to-end serving metrics over every untraced round's requests."""
    latencies = [latency * run.scale for run in rounds
                 for latency in run.latencies]
    requests = len(latencies)
    return {
        "requests_per_s": requests / sum(run.wall for run in rounds),
        "latency_p50_ms": 1000.0 * median(latencies),
        "latency_p90_ms": 1000.0 * tail_percentile(latencies, 0.9),
    }
