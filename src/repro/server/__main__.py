"""Serving-gateway CLI: run the TCP gateway, or prove it end to end.

Serve mode (long-running)::

    PYTHONPATH=src python -m repro.server --port 7421 --store-dir ./store \
        --workers 4 --max-pending 32

Self-test mode (used by the CI metrics-smoke job): starts the gateway on an
ephemeral port, submits duplicate + distinct requests — including a QASM
text document twice — through the synchronous client, asserts the
store-hit/coalescing counters and the byte-identity of served digests
against a fresh in-process compile, writes the gateway + store stats JSON,
and exits non-zero on any failed check::

    PYTHONPATH=src python -m repro.server --self-test \
        --stats-out serving-stats.json

Chaos self-test mode (used by the CI chaos-smoke job): same end-to-end
stack, but driven under a deterministic
:class:`~repro.resilience.FaultPlan` — an injected worker crash, a hung
compile (deadline-killed), a corrupted store entry and a severed
connection — asserting that every request still completes with consistent
digests, the corrupted entry is quarantined (never served), and the
``health`` verb reports the whole story::

    PYTHONPATH=src python -m repro.server --self-test --chaos \
        --stats-out chaos-stats.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from ..circuit.library import get_benchmark
from ..circuit.qasm import dumps as qasm_dumps
from ..mapping.config import MapperConfig
from ..pipeline.manager import compile_circuit
from ..service.batch import CompilationTask
from ..service.cache import ARCHITECTURE_CACHE, ArchitectureSpec
from ..store import ResultStore
from ..telemetry.registry import get_registry, validate_prometheus_text
from ..workloads import scaled_register_size
from .client import ServingClient, wait_until_ready
from .gateway import ServingGateway
from .tcp import ServingServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server", description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7421,
                        help="TCP port (0 = ephemeral; default 7421)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker pool size (default: CPU count)")
    parser.add_argument("--pool", choices=("process", "thread"), default=None,
                        help="worker pool kind (default: process when "
                             "serving, thread under --self-test)")
    parser.add_argument("--max-pending", type=int, default=32,
                        help="admission bound on concurrent compiles")
    parser.add_argument("--store-dir", default=None,
                        help="persistent store directory (default: a fresh "
                             "temporary directory, removed on exit)")
    parser.add_argument("--store-max-mb", type=float, default=None,
                        help="LRU size budget of the store in MiB")
    parser.add_argument("--no-evaluate", action="store_true",
                        help="skip schedule+evaluate (responses carry no metrics)")
    parser.add_argument("--stats-out", default=None,
                        help="write gateway+store stats JSON here on exit")
    parser.add_argument("--metrics-dump", default=None,
                        help="write the telemetry registry snapshot JSON "
                             "here on exit")
    parser.add_argument("--trace-out", default=None,
                        help="with --self-test: write the sample request's "
                             "Chrome trace JSON here (load in Perfetto / "
                             "chrome://tracing)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the end-to-end serving smoke (CI mode)")
    parser.add_argument("--chaos", action="store_true",
                        help="with --self-test: run the fault-injection "
                             "smoke (worker crash, hang, corrupt store "
                             "entry, severed connection)")
    parser.add_argument("--scale", type=float, default=0.08,
                        help="workload scale of the self-test (default 0.08)")
    return parser


def _build_gateway(args, scratch: Path) -> ServingGateway:
    store_dir = args.store_dir or scratch / "store"
    max_bytes = (None if args.store_max_mb is None
                 else int(args.store_max_mb * 1024 * 1024))
    store = ResultStore(store_dir, max_bytes=max_bytes)
    pool = args.pool or ("thread" if args.self_test else "process")
    return ServingGateway(store, max_workers=args.workers,
                          max_pending=args.max_pending, pool=pool,
                          evaluate=not args.no_evaluate)


def _write_stats(gateway: ServingGateway, path: Optional[str],
                 extra: Optional[Dict] = None) -> None:
    if not path:
        return
    payload = gateway.stats_dict()
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def _write_metrics(path: Optional[str]) -> None:
    """Dump the process-global telemetry registry snapshot as JSON."""
    if not path:
        return
    Path(path).write_text(
        json.dumps(get_registry().snapshot(), indent=2) + "\n")
    print(f"wrote {path}")


# ----------------------------------------------------------------------
# Serve mode
# ----------------------------------------------------------------------
def run_server(args, scratch: Path) -> int:
    gateway = _build_gateway(args, scratch)

    async def main() -> None:
        server = ServingServer(gateway, args.host, args.port)
        await server.start()
        print(f"repro.server listening on {args.host}:{server.port} "
              f"(pool={gateway.pool_kind}, store={gateway.store.root})")
        await server.serve_until_shutdown()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        _write_stats(gateway, args.stats_out)
        _write_metrics(args.metrics_dump)
    return 0


# ----------------------------------------------------------------------
# Self-test mode
# ----------------------------------------------------------------------
def _start_background_server(gateway: ServingGateway, host: str,
                             fault_plan=None
                             ) -> "tuple[threading.Thread, int]":
    """Run the asyncio server on a daemon thread; returns its bound port."""
    ready = threading.Event()
    box: Dict[str, int] = {}

    def runner() -> None:
        async def main() -> None:
            server = ServingServer(gateway, host, 0, fault_plan=fault_plan)
            await server.start()
            box["port"] = server.port
            ready.set()
            await server.serve_until_shutdown()
        asyncio.run(main())

    thread = threading.Thread(target=runner, name="repro-server", daemon=True)
    thread.start()
    if not ready.wait(timeout=30):
        raise RuntimeError("serving gateway failed to start within 30s")
    return thread, box["port"]


def _fresh_compile_sha(spec: ArchitectureSpec, circuit) -> str:
    """Digest of an in-process pipeline compile (the serving reference)."""
    architecture, connectivity = ARCHITECTURE_CACHE.get(spec)
    context = compile_circuit(circuit, architecture,
                              MapperConfig.for_mode("hybrid", 1.0),
                              connectivity=connectivity, alpha_ratio=1.0)
    return context.require_result().op_stream_digest()["sha256"]


def run_self_test(args, scratch: Path) -> int:
    gateway = _build_gateway(args, scratch)
    thread, port = _start_background_server(gateway, args.host)
    scale = args.scale
    spec = ArchitectureSpec.scaled("mixed", scale)
    sizes = {name: scaled_register_size(name, scale)
             for name in ("qft", "graph", "qpe")}
    checks: List[Dict[str, object]] = []
    ok = True

    def check(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok &= passed
        checks.append({"check": name, "passed": passed, "detail": detail})
        print(f"[{'ok' if passed else 'FAIL'}] {name}"
              + (f" — {detail}" if detail and not passed else ""))

    with ServingClient(args.host, port) as client:
        check("ping", client.ping())

        # Duplicate library request: 2nd identical structure is a store hit.
        qft_a = CompilationTask("qft-a", spec, circuit_name="qft",
                                num_qubits=sizes["qft"])
        qft_b = CompilationTask("qft-b", spec, circuit_name="qft",
                                num_qubits=sizes["qft"])
        first = client.compile_task(qft_a)
        second = client.compile_task(qft_b)
        check("first qft compiles", first.ok and first.source == "compiled",
              f"source={first.source} error={first.error}")
        check("duplicate qft served from store",
              second.ok and second.source == "store",
              f"source={second.source}")
        check("hit digest byte-identical to compiled digest",
              first.digest == second.digest,
              f"{first.digest} != {second.digest}")
        fresh_sha = _fresh_compile_sha(
            spec, get_benchmark("qft", num_qubits=sizes["qft"], seed=2024))
        check("served digest equals fresh in-process compile",
              second.digest is not None and second.digest["sha256"] == fresh_sha,
              f"served={second.digest} fresh={fresh_sha}")

        # Distinct request compiles separately.
        graph = client.compile_task(CompilationTask(
            "graph-a", spec, circuit_name="graph", num_qubits=sizes["graph"]))
        check("distinct graph request compiles",
              graph.ok and graph.source == "compiled"
              and graph.digest != first.digest,
              f"source={graph.source}")

        # QASM text request: dedupes on structure, not on task id.
        qasm_text = qasm_dumps(
            get_benchmark("graph", num_qubits=sizes["graph"], seed=11))
        qasm_1 = client.compile_task(CompilationTask("qasm-a", spec,
                                                     qasm=qasm_text))
        qasm_2 = client.compile_task(CompilationTask("qasm-b", spec,
                                                     qasm=qasm_text))
        check("qasm request compiles", qasm_1.ok and qasm_1.source == "compiled",
              f"source={qasm_1.source} error={qasm_1.error}")
        check("duplicate qasm text served from store",
              qasm_2.ok and qasm_2.source == "store"
              and qasm_2.digest == qasm_1.digest,
              f"source={qasm_2.source}")

        # Traced request: a fresh key (distinct seed) compiled under
        # trace=true must come back with one rooted Chrome-trace span tree
        # covering gateway -> pool worker -> pipeline passes -> store.
        traced = client.compile_task(
            CompilationTask("trace-probe", spec, circuit_name="graph",
                            num_qubits=sizes["graph"], seed=7),
            trace=True)
        trace_payload = traced.trace or {}
        events = trace_payload.get("traceEvents") or []
        durations = [event for event in events if event.get("ph") == "X"]
        span_ids = {event["args"]["span_id"] for event in durations}
        roots = [event for event in durations
                 if event["args"].get("parent_id") is None]
        orphans = [event for event in events
                   if event["args"].get("parent_id") not in span_ids
                   and event["args"].get("parent_id") is not None]
        names = {event.get("name") for event in durations}
        check("traced compile returns trace events",
              traced.ok and traced.source == "compiled" and bool(events),
              f"source={traced.source} events={len(events)}")
        check("trace has exactly one root span (gateway.request)",
              len(roots) == 1 and roots[0]["name"] == "gateway.request",
              f"roots={[event['name'] for event in roots]}")
        check("every trace event's parent resolves (single tree)",
              not orphans, f"orphans={[e['name'] for e in orphans]}")
        check("trace spans cover pool, pipeline and store layers",
              {"pool.task", "compile_task", "store.put"} <= names
              and any(name.startswith("pass.") for name in names),
              f"names={sorted(names)}")
        check("trace is valid Chrome trace JSON",
              bool(json.dumps(trace_payload)) and all(
                  isinstance(event.get("ts"), (int, float))
                  and isinstance(event.get("pid"), int)
                  for event in events))
        if args.trace_out:
            Path(args.trace_out).write_text(
                json.dumps(trace_payload, indent=2) + "\n")
            print(f"wrote {args.trace_out}")

        # Metrics verb: JSON snapshot and Prometheus text exposition.
        gateway_requests = client.stats()["gateway"]["requests"]
        metrics = client.metrics()
        snapshot = metrics.get("metrics") or {}
        counters = snapshot.get("counters") or {}
        observed_requests = sum(
            value for series, value in counters.items()
            if series.startswith("repro_gateway_requests_total"))
        check("metrics verb returns a JSON snapshot",
              metrics.get("ok") is True
              and {"counters", "gauges", "histograms"} <= set(snapshot),
              f"keys={sorted(snapshot)}")
        check("metrics snapshot agrees with the stats verb",
              observed_requests == gateway_requests > 0,
              f"registry={observed_requests} stats={gateway_requests}")
        prometheus = client.metrics(format="prometheus")
        problems = validate_prometheus_text(prometheus.get("text", ""))
        check("prometheus exposition is well-formed",
              prometheus.get("ok") is True and not problems,
              "; ".join(problems[:3]))

        before = client.stats()["gateway"]

    # Concurrent identical requests (fresh key) must trigger exactly 1 compile.
    fanout = 6
    responses: List[object] = [None] * fanout
    qpe = CompilationTask("qpe-concurrent", spec, circuit_name="qpe",
                          num_qubits=sizes["qpe"])

    def submit(index: int) -> None:
        with ServingClient(args.host, port) as worker_client:
            responses[index] = worker_client.compile_task(qpe)

    threads = [threading.Thread(target=submit, args=(index,))
               for index in range(fanout)]
    for worker in threads:
        worker.start()
    for worker in threads:
        worker.join(timeout=600)

    with ServingClient(args.host, port) as client:
        after = client.stats()["gateway"]
        store_stats = client.stats().get("store")
        client.shutdown()

    compiles = after["compiles"] - before["compiles"]
    shared = (after["coalesced"] - before["coalesced"]) + \
        (after["store_hits"] - before["store_hits"])
    check("all concurrent responses ok",
          all(response is not None and response.ok for response in responses))
    check("concurrent identical requests trigger exactly 1 compile",
          compiles == 1, f"compiles={compiles}")
    check("remaining concurrent requests coalesced or store-served",
          shared == fanout - 1, f"coalesced+hits={shared}")
    check("concurrent responses all share one digest",
          len({json.dumps(response.digest, sort_keys=True)
               for response in responses if response is not None}) == 1)

    thread.join(timeout=10)
    _write_stats(gateway, args.stats_out,
                 extra={"checks": checks, "store_final": store_stats})
    _write_metrics(args.metrics_dump)
    print(f"self-test: {sum(1 for c in checks if c['passed'])}/{len(checks)} "
          f"checks passed")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# Chaos self-test mode
# ----------------------------------------------------------------------
def run_chaos_self_test(args, scratch: Path) -> int:
    """End-to-end fault-injection smoke (the CI chaos job).

    Arms one worker crash, one hung compile, one corrupted store entry and
    one severed connection against a duplicate-heavy request stream, then
    asserts the robustness contract: every request completes (the harness
    resubmits on ``error_class == "retryable"`` exactly as a production
    client would), duplicates share digests, the corrupted entry is
    quarantined instead of served, and the ``health`` verb accounts for
    every injected fault.
    """
    from ..resilience import FaultPlan, FaultSpec, FaultyCompile, RetryPolicy

    scale = args.scale
    spec = ArchitectureSpec.scaled("mixed", scale)
    sizes = {name: scaled_register_size(name, scale)
             for name in ("qft", "graph", "qpe")}
    plan = FaultPlan(str(scratch / "chaos-ledger"), (
        FaultSpec("crash", "worker", match="graph-r0"),
        FaultSpec("hang", "worker", match="qpe-r0", hang_s=6.0),
        FaultSpec("corrupt", "store-put"),
        FaultSpec("sever", "tcp-response", match="compile"),
    ))
    store_dir = args.store_dir or scratch / "chaos-store"
    store = ResultStore(store_dir, fault_plan=plan)
    gateway = ServingGateway(
        store, max_workers=args.workers, max_pending=args.max_pending,
        pool="thread", evaluate=not args.no_evaluate,
        deadline_s=3.0,
        retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.05),
        compile_fn=FaultyCompile(plan))
    thread, port = _start_background_server(gateway, args.host,
                                            fault_plan=plan)

    checks: List[Dict[str, object]] = []
    ok = True

    def check(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok &= passed
        checks.append({"check": name, "passed": passed, "detail": detail})
        print(f"[{'ok' if passed else 'FAIL'}] {name}"
              + (f" — {detail}" if detail and not passed else ""))

    structures = ("qft", "graph", "qpe")
    rounds = 4
    digests: Dict[str, set] = {name: set() for name in structures}
    failures: List[str] = []
    resubmits = 0
    with ServingClient(args.host, port) as client:
        for round_index in range(rounds):
            for name in structures:
                task = CompilationTask(f"{name}-r{round_index}", spec,
                                       circuit_name=name,
                                       num_qubits=sizes[name])
                response = None
                for _attempt in range(4):
                    response = client.compile_task(task)
                    if response.ok or response.error_class != "retryable":
                        break
                    resubmits += 1
                if response is None or not response.ok:
                    failures.append(f"{task.task_id}: {response.error}")
                else:
                    digests[name].add(response.digest["sha256"])
        health = client.health()
        client.shutdown()
    thread.join(timeout=10)

    check("every request completed under faults", not failures,
          "; ".join(failures))
    check("deadline-killed request needed exactly one resubmission",
          resubmits == 1, f"resubmits={resubmits}")
    check("duplicates share one digest per structure",
          all(len(shas) == 1 for shas in digests.values()),
          str({name: len(shas) for name, shas in digests.items()}))
    check("every armed fault fired", plan.fired() == 4,
          f"fired={plan.fired()}")
    check("corrupted entry quarantined, never served",
          store.stats.corruptions == 1 and len(store.quarantined()) == 1,
          f"corruptions={store.stats.corruptions} "
          f"quarantined={len(store.quarantined())}")
    pool_stats = health.get("pool") or {}
    check("supervision observed the crash and the deadline kill",
          pool_stats.get("crashes", 0) >= 1
          and pool_stats.get("deadline_kills", 0) == 1,
          f"pool={pool_stats}")
    check("breaker closed, gateway healthy after recovery",
          health.get("status") == "ok"
          and (health.get("breaker") or {}).get("state") == "closed",
          f"status={health.get('status')} breaker={health.get('breaker')}")

    _write_stats(gateway, args.stats_out,
                 extra={"checks": checks, "health": health,
                        "faults_fired": plan.fired()})
    _write_metrics(args.metrics_dump)
    print(f"chaos self-test: {sum(1 for c in checks if c['passed'])}"
          f"/{len(checks)} checks passed")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers is not None and args.workers < 1:
        raise SystemExit("--workers must be at least 1")
    if args.chaos and not args.self_test:
        raise SystemExit("--chaos requires --self-test")
    if args.self_test:
        run = run_chaos_self_test if args.chaos else run_self_test
    else:
        run = run_server
    # Default stores and the chaos fault ledger live in a scratch directory
    # removed on exit; a --store-dir is the caller's and is kept.
    with tempfile.TemporaryDirectory(prefix="repro-server-") as scratch:
        return run(args, Path(scratch))


if __name__ == "__main__":
    sys.exit(main())
