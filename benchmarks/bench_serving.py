"""Serving-gateway load generator: requests/sec, hit rate, p50/p95 latency.

Starts a :class:`repro.server.ServingServer` in-process (ephemeral port),
fires an interleaved stream of duplicate + distinct compile requests at it
from concurrent client connections, and records a ``kind:
"serving_throughput"`` case in ``BENCH_scaling.json`` (schema
``repro-bench-scaling/v1`` of :mod:`benchmarks.perf_report`): request
throughput, store-hit/coalescing rate, latency percentiles and compile
counts.  Duplicates are spread through the stream, so the case measures the
compile-once/serve-many path the gateway exists for — the first occurrence
of each distinct circuit compiles, every later occurrence must be a store
hit or coalesce onto an in-flight compile.

With ``--degraded`` the same stream runs under a crashed-worker fault plan
(every distinct compile's worker is crashed once and the supervised pool
re-dispatches it), recording a ``kind: "serving_degraded"`` case alongside
the clean one — the throughput/latency cost of supervision under worker
failure, measured end to end.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py --scale 0.3 \
        --repeats 5 --clients 4 --out BENCH_scaling.json
    PYTHONPATH=src python benchmarks/bench_serving.py --scale 0.3 \
        --degraded --out BENCH_scaling.json
"""

from __future__ import annotations

import argparse
import os
import queue
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence

from perf_report import PAPER_SIZES, bench_spec, record_case, scaled_size

from repro.server import ServingClient, ServingGateway
from repro.server.__main__ import _start_background_server
from repro.service import CompilationTask
from repro.store import ResultStore
from repro.telemetry import percentile

DEFAULT_CIRCUITS = ("qft", "graph")
DEFAULT_HARDWARE = ("mixed",)


def build_request_stream(scale: float, repeats: int,
                         circuits: Sequence[str],
                         hardware_presets: Sequence[str],
                         mode: str) -> List[CompilationTask]:
    """``repeats`` interleaved rounds over the distinct circuit matrix.

    Task ids are unique per request, but every round repeats the same
    circuit structures — which is exactly what the store key dedupes on.
    """
    stream: List[CompilationTask] = []
    for round_index in range(repeats):
        for hardware in hardware_presets:
            for circuit in circuits:
                stream.append(CompilationTask(
                    task_id=f"{hardware}-{circuit}-r{round_index}",
                    architecture=bench_spec(hardware, scale),
                    circuit_name=circuit,
                    num_qubits=scaled_size(circuit, scale),
                    mode=mode,
                ))
    return stream


def run_serving_case(scale: float, *, repeats: int = 5, clients: int = 4,
                     workers: Optional[int] = None, pool: str = "thread",
                     circuits: Sequence[str] = DEFAULT_CIRCUITS,
                     hardware_presets: Sequence[str] = DEFAULT_HARDWARE,
                     mode: str = "hybrid",
                     store_dir: Optional[str] = None,
                     degraded: bool = False) -> Dict:
    """Drive the gateway with the duplicate-heavy stream; return the case.

    With ``degraded=True`` a fault plan arms one worker-crash charge per
    distinct compile against the stream; the supervised pool re-dispatches
    every crashed task, so the case records the rps/p95 cost of crash
    recovery on an otherwise identical workload.
    """
    # The store (unless the caller named one) and the fault ledger live in
    # a scratch directory that is removed when the case is done.
    with tempfile.TemporaryDirectory(prefix="repro-serving-bench-") as scratch:
        fault_plan = None
        compile_fn = None
        if degraded:
            from repro.resilience import FaultPlan, FaultSpec, FaultyCompile

            num_distinct = len(circuits) * len(hardware_presets)
            fault_plan = FaultPlan(
                os.path.join(scratch, "ledger"),
                (FaultSpec("crash", "worker", times=num_distinct),))
            compile_fn = FaultyCompile(fault_plan)
        gateway = ServingGateway(
            ResultStore(store_dir or os.path.join(scratch, "store"),
                        fault_plan=fault_plan),
            max_workers=workers, pool=pool, compile_fn=compile_fn)
        server_thread, port = _start_background_server(gateway, "127.0.0.1")

        stream = build_request_stream(scale, repeats, circuits, hardware_presets,
                                      mode)
        pending: "queue.Queue[CompilationTask]" = queue.Queue()
        for task in stream:
            pending.put(task)

        latencies: List[float] = []
        failures: List[str] = []
        lock = threading.Lock()

        def client_worker() -> None:
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
                        latencies.append(elapsed)
                        if not response.ok:
                            failures.append(f"{task.task_id}: {response.error}")

        start = time.perf_counter()
        threads = [threading.Thread(target=client_worker)
                   for _ in range(max(1, min(clients, len(stream))))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start

        with ServingClient("127.0.0.1", port) as client:
            stats = client.stats()
            client.shutdown()
        server_thread.join(timeout=10)
        faults_injected = fault_plan.fired() if fault_plan is not None else 0

    gateway_stats = stats["gateway"]
    served_without_compile = (gateway_stats["store_hits"]
                              + gateway_stats["coalesced"])
    num_requests = len(stream)
    # Record the *effective* topologies of the built specs, not a literal:
    # the "zoned" hardware preset normalises its topology, and mislabelled
    # cases would collide with the square matrix on regeneration.
    effective = sorted({spec.topology
                        for spec in (task.architecture for task in stream)})
    supervision = stats.get("supervision") or {}
    return {
        "kind": "serving_degraded" if degraded else "serving_throughput",
        "faults_injected": faults_injected,
        "pool_crashes": supervision.get("crashes", 0),
        "pool_retries": supervision.get("retries", 0),
        "hardware": "+".join(hardware_presets),
        "circuit": "+".join(circuits),
        "mode": mode,
        "topology": "+".join(effective),
        "scale": scale,
        "num_requests": num_requests,
        "distinct_requests": len(circuits) * len(hardware_presets),
        "num_clients": len(threads),
        "num_workers": workers,
        "pool": pool,
        "available_cpus": os.cpu_count(),
        "wall_seconds": round(wall, 4),
        "requests_per_second": round(num_requests / wall, 4) if wall > 0 else 0.0,
        "hit_rate": round(served_without_compile / num_requests, 4),
        "store_hits": gateway_stats["store_hits"],
        "coalesced": gateway_stats["coalesced"],
        "num_compiles": gateway_stats["compiles"],
        # Client-observed failures only: every gateway-side failure already
        # surfaces as a failed client response, so also adding
        # ``gateway_stats["failures"]`` double-counted each one.
        "num_failures": len(failures),
        "gateway_failures": gateway_stats["failures"],
        "p50_ms": round(percentile(latencies, 0.50) * 1000, 2),
        "p95_ms": round(percentile(latencies, 0.95) * 1000, 2),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--out", default="BENCH_scaling.json")
    parser.add_argument("--repeats", type=int, default=5,
                        help="rounds over the distinct circuit matrix "
                             "(duplication factor; default 5)")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent client connections (default 4)")
    parser.add_argument("--workers", type=int, default=None,
                        help="gateway worker pool size (default: CPU count)")
    parser.add_argument("--pool", choices=("thread", "process"),
                        default="thread",
                        help="gateway pool kind (default thread: accurate "
                             "on 1-core hosts, no fork overhead in the "
                             "latency percentiles)")
    parser.add_argument("--circuits", nargs="*", default=list(DEFAULT_CIRCUITS))
    parser.add_argument("--hardware", nargs="*", default=list(DEFAULT_HARDWARE))
    parser.add_argument("--mode", default="hybrid")
    parser.add_argument("--store-dir", default=None)
    parser.add_argument("--degraded", action="store_true",
                        help="run under a crashed-worker fault plan and "
                             "record a serving_degraded case instead")
    args = parser.parse_args(argv)

    unknown = [name for name in args.circuits if name not in PAPER_SIZES]
    if unknown:
        parser.error(f"unknown circuit(s) {unknown}; "
                     f"choose from {sorted(PAPER_SIZES)}")
    if args.scale <= 0:
        parser.error("--scale must be positive")
    if args.repeats < 1 or args.clients < 1:
        parser.error("--repeats and --clients must be at least 1")

    case = run_serving_case(args.scale, repeats=args.repeats,
                            clients=args.clients, workers=args.workers,
                            pool=args.pool, circuits=args.circuits,
                            hardware_presets=args.hardware, mode=args.mode,
                            store_dir=args.store_dir, degraded=args.degraded)
    record_case(args.out, case, args.scale)
    return 0 if case["num_failures"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
