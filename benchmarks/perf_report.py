"""Perf report: compile wall time per pass, swap/move counts and quality.

The one harness that writes ``BENCH_scaling.json`` cases (schema
``repro-bench-scaling/v1``).  It keeps the cases perfbench cannot express:
the scaled single-circuit matrix per topology, batch throughput, serial vs
sharded routing and the telemetry overhead probe; ``bench_serving.py``
adds its serving cases through :func:`record_case`:

.. code-block:: json

    {
      "schema": "repro-bench-scaling/v1",
      "created_unix": 1753000000.0,
      "scale": 0.3,
      "cases": [
        {
          "hardware": "gate", "circuit": "qft", "mode": "hybrid",
          "topology": "square",      // trap topology (square/rectangular/zoned)
          "scale": 0.3, "num_qubits": 60,
          "repeats": 3,              // compiles of the case
          "wall_seconds": 1.22,      // median compile (map + evaluate) wall time
          "wall_min_seconds": 1.19, "wall_max_seconds": 1.31,
          "mapper_seconds": 1.19,    // HybridMapper.map wall time (RT column)
          "pass_seconds": {          // summed pass.<name> span durations
            "decompose": 0.0, "initial_layout": 0.0,
            "routing": 1.19, "schedule": 0.02, "evaluate": 0.01
          },
          "num_swaps": 46, "num_moves": 0,
          "delta_cz": 138, "delta_t_us": 1234.5,
          "quality_caveat": "...",   // present when mapped with commutation on
          "speedup_vs_baseline": 11.5   // present only with --baseline
        },
        {
          "kind": "batch_throughput",   // service-layer case (--batch)
          "hardware": "gate+mixed+shuttling", "circuit": "qft+graph",
          "mode": "hybrid", "scale": 0.3, "num_tasks": 6, "num_workers": 4,
          "available_cpus": 8,
          "serial_seconds": 9.7, "batch_seconds": 4.4,
          "serial_circuits_per_second": 0.62, "batch_circuits_per_second": 1.36,
          "throughput_speedup": 2.2, "num_failures": 0
          // plus "cpu_caveat" when available_cpus cannot exercise the workers
        },
        {
          "kind": "shard_routing",      // serial-vs-sharded comparison (--shard)
          "hardware": "mixed", "circuit": "qft", "mode": "hybrid",
          "scale": 0.3, "num_qubits": 60, "available_cpus": 2,
          "num_slices": 46, "tree_depth": 46,
          "serial_seconds": 4.42, "sharded_seconds": 1.04,
          "shard_speedup": 4.26, "shard_overhead_pct": -76.5,
          "serial_moves": 493, "sharded_moves": 693,
          "serial_delta_t_us": 10082.8, "sharded_delta_t_us": 16841.8,
          "peak_rss_mb": 72.9           // ru_maxrss high-water after the case
        },
        {
          "kind": "serial_large",       // large serial route (--serial-large)
          "hardware": "mixed", "circuit": "local_window", "mode": "hybrid",
          "scale": 0.6, "num_qubits": 1024, "num_gates": 614,
          "wall_seconds": 9.1, "mapper_seconds": 8.0,
          "num_swaps": 310, "num_moves": 120, "delta_t_us": 2500.0,
          "swap_rounds": 300,           // best_swap calls
          "mean_candidates": 2600.0,    // SWAP candidates per round
          "mean_rescored": 40.0         // candidates rescored per round
        },
        {
          "kind": "serving_throughput",  // gateway case (benchmarks/bench_serving.py)
          "hardware": "mixed", "circuit": "qft+graph", "mode": "hybrid",
          "scale": 0.3, "num_requests": 10, "distinct_requests": 2,
          "requests_per_second": 2.6, "hit_rate": 0.8,
          "store_hits": 7, "coalesced": 1, "num_compiles": 2,
          "p50_ms": 45.1, "p95_ms": 3400.2, "num_failures": 0
        }
      ]
    }

Usage::

    PYTHONPATH=src python benchmarks/perf_report.py --scale 0.3 \
        --out BENCH_scaling.json [--baseline benchmarks/BENCH_seed_baseline.json]
    PYTHONPATH=src python benchmarks/perf_report.py --batch --workers 4 \
        --scale 0.3 --out BENCH_scaling.json   # append a throughput case
    PYTHONPATH=src python benchmarks/perf_report.py --topology zoned \
        --hardware mixed --scale 0.3           # zoned-topology matrix
    PYTHONPATH=src python benchmarks/perf_report.py --shard \
        --hardware mixed --circuits qft --scale 0.3  # shard-routing case
    PYTHONPATH=src python benchmarks/perf_report.py --serial-large \
        --scale 0.6                  # 1024-qubit local-window serial route
    PYTHONPATH=src python -m cProfile -s cumulative benchmarks/perf_report.py \
        --hardware mixed --circuits qft --scale 0.12 --out smoke-report.json

``--baseline`` points at a previous report (e.g. the committed seed
baseline); matching cases gain a ``speedup_vs_baseline`` field computed from
``wall_seconds``.  Every mode merges its cases into ``--out`` through
:func:`merge_report`.  The default ``--out`` is the tracked report at the
repository root; point it elsewhere for smoke runs.  For a per-function
profile run the matrix under ``cProfile`` as above; perfbench's ``--trace 1``
gives the per-layer breakdown.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

try:  # POSIX-only; absent on some platforms
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    _resource = None

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.circuit import QuantumCircuit, decompose_mcx_to_mcz  # noqa: E402
from repro.circuit.library import get_benchmark  # noqa: E402
from repro.circuit.library.random_circuits import (  # noqa: E402
    local_window_circuit)
from repro.hardware import SiteConnectivity  # noqa: E402
from repro.hardware.presets import mixed  # noqa: E402
from repro.mapping import HybridMapper, MapperConfig  # noqa: E402
from repro.pipeline import (PassManager, RoutingPass,  # noqa: E402
                            compile_circuit, default_passes)
from repro.service import (ARCHITECTURE_CACHE, ArchitectureSpec,  # noqa: E402
                           BatchCompiler, CompilationTask)
from repro.telemetry import tracing  # noqa: E402
from repro.workloads import (PAPER_SIZES, lattice_rows_for,  # noqa: E402
                             scaled_register_size)

SCHEMA = "repro-bench-scaling/v1"
DEFAULT_CIRCUITS: Tuple[str, ...] = ("qft", "graph")
DEFAULT_HARDWARE: Tuple[str, ...] = ("gate", "mixed", "shuttling")
DEFAULT_MODES: Tuple[str, ...] = ("hybrid",)

#: Label of every matrix case mapped with commutation on.  The DAG links a
#: gate only to the nearest non-commuting gate on each wire, so such a
#: stream can reorder two non-commuting gates; its quality figures stand
#: until the sound DAG re-derives them.
COMMUTATION_CAVEAT = ("commutation on: the stream may reorder non-commuting "
                      "gates (DAG wire-walk defect), so num_swaps, num_moves, "
                      "delta_cz and delta_t_us are pending the sound DAG")

#: Compiles per matrix case: ``wall_seconds`` is their median, with the
#: fastest and slowest beside it.
MATRIX_REPEATS = 3

#: Local-window workload: qubits at scale 1.0 (scale 0.6 is ~1024 qubits)
#: and entangling gates per qubit.
LOCAL_WINDOW_QUBITS = 1707
LOCAL_WINDOW_GATES_PER_QUBIT = 0.6


def scaled_size(name: str, scale: float) -> int:
    """Scaled register size for a named benchmark (minimum 8 qubits)."""
    return scaled_register_size(name, scale, min_size=8)


def bench_spec(hardware: str, scale: float,
               topology: str = "square") -> ArchitectureSpec:
    """Cacheable spec of the benchmark device at the given scale."""
    return ArchitectureSpec.scaled(hardware, scale, topology=topology)


def build_circuit(name: str, scale: float, seed: int = 2024) -> QuantumCircuit:
    circuit = get_benchmark(name, num_qubits=scaled_size(name, scale), seed=seed)
    return decompose_mcx_to_mcz(circuit)


def _architecture(hardware: str, scale: float, topology: str = "square"):
    return ARCHITECTURE_CACHE.get(bench_spec(hardware, scale, topology))


def peak_rss_mb() -> Optional[float]:
    """Process-wide peak resident set size in MiB.

    ``ru_maxrss`` is a monotone high-water mark over the whole process
    lifetime (kibibytes on Linux, bytes on macOS), so a case records the
    peak *after* it ran — an upper bound on its own footprint, and across a
    whole report the field shows which case pushed the mark up.  ``None``
    where the ``resource`` module is unavailable; consumers must tolerate
    cases lacking the field, which also keeps reports recorded before the
    field existed loadable.
    """
    if _resource is None:  # pragma: no cover - non-POSIX fallback
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return round(peak / divisor, 1)


def pass_seconds(spans: Iterable[tracing.Span]) -> Dict[str, float]:
    """Seconds per pipeline pass, summed over its ``pass.<name>`` spans."""
    seconds: Dict[str, float] = {}
    for record in spans:
        if record.name.startswith("pass."):
            name = record.name[len("pass."):]
            seconds[name] = seconds.get(name, 0.0) + record.duration_s
    return seconds


def run_case(hardware: str, circuit_name: str, mode: str, scale: float,
             *, alpha: float = 1.0, topology: str = "square",
             span_sink: Optional[List[tracing.Span]] = None) -> Dict:
    """Run one benchmark configuration and return its report case.

    The circuit is compiled ``MATRIX_REPEATS`` times, each under a
    ``perf_report.case`` trace.  ``wall_seconds`` is the median compile
    and ``wall_min_seconds``/``wall_max_seconds`` the spread; the median
    compile also gives ``mapper_seconds``, the ``pass_seconds`` of its
    trace and, with ``span_sink``, the spans appended there (``--trace``).
    Mapping is deterministic, so every compile yields the same stream and
    quality.
    """
    architecture, connectivity = _architecture(hardware, scale, topology)
    circuit = build_circuit(circuit_name, scale)
    config = MapperConfig.for_mode(mode, alpha)
    runs = []
    for _ in range(MATRIX_REPEATS):
        # Drop the previous compile first, so the case's peak RSS covers
        # one compile at a time.
        context = None
        with tracing.start_trace("perf_report.case", hardware=hardware,
                                 circuit=circuit_name, mode=mode) as handle:
            start = time.perf_counter()
            context = compile_circuit(
                circuit, architecture, config, connectivity=connectivity,
                alpha_ratio=alpha if mode == "hybrid" else None)
            wall = time.perf_counter() - start
        runs.append((wall, handle.spans,
                     context.require_result().runtime_seconds))
    runs.sort(key=lambda run: run[0])
    wall, spans, mapper_seconds = runs[len(runs) // 2]
    if span_sink is not None:
        span_sink.extend(spans)
    # The last compile's stream: every compile maps to the same one.
    result = context.require_result()
    metrics = context.require_metrics()
    case = {
        "hardware": hardware,
        "circuit": circuit_name,
        "mode": mode,
        "topology": architecture.lattice.kind,
        "shard_routing": config.shard_routing,
        "scale": scale,
        "num_qubits": scaled_size(circuit_name, scale),
        "available_cpus": os.cpu_count(),
        "repeats": MATRIX_REPEATS,
        "wall_seconds": round(wall, 4),
        "wall_min_seconds": round(runs[0][0], 4),
        "wall_max_seconds": round(runs[-1][0], 4),
        "mapper_seconds": round(mapper_seconds, 4),
        "pass_seconds": {name: round(seconds, 4) for name, seconds
                         in pass_seconds(spans).items()},
        "num_swaps": result.num_swaps,
        "num_moves": result.num_moves,
        "delta_cz": metrics.delta_cz,
        "delta_t_us": round(metrics.delta_t_us, 2),
    }
    if config.use_commutation:
        case["quality_caveat"] = COMMUTATION_CAVEAT
    rss = peak_rss_mb()
    if rss is not None:
        case["peak_rss_mb"] = rss
    return case


def run_shard_case(hardware: str, circuit_name: str, mode: str, scale: float,
                   *, alpha: float = 1.0, topology: str = "square") -> Dict:
    """Route one circuit serially and sharded; record the comparison.

    Sharded routing runs its slices one after another on one core, so the
    speedup comes from smaller per-slice routing subproblems, not from
    parallelism; ΔT is recorded next to the wall times because that speed
    is bought with schedule quality.
    """
    architecture, connectivity = _architecture(hardware, scale, topology)
    circuit = build_circuit(circuit_name, scale)
    serial_config = MapperConfig.for_mode(mode, alpha)
    sharded_config = serial_config.with_overrides(shard_routing=True)
    alpha_ratio = alpha if mode == "hybrid" else None

    start = time.perf_counter()
    serial = compile_circuit(circuit, architecture, serial_config,
                             connectivity=connectivity, alpha_ratio=alpha_ratio)
    serial_wall = time.perf_counter() - start
    start = time.perf_counter()
    sharded = compile_circuit(circuit, architecture, sharded_config,
                              connectivity=connectivity,
                              alpha_ratio=alpha_ratio)
    sharded_wall = time.perf_counter() - start

    serial_result = serial.require_result()
    sharded_result = sharded.require_result()
    serial_metrics = serial.require_metrics()
    sharded_metrics = sharded.require_metrics()
    speedup = serial_wall / sharded_wall if sharded_wall > 0 else 0.0
    case = {
        "kind": "shard_routing",
        "hardware": hardware,
        "circuit": circuit_name,
        "mode": mode,
        "topology": architecture.lattice.kind,
        "scale": scale,
        "num_qubits": scaled_size(circuit_name, scale),
        "available_cpus": os.cpu_count(),
        "num_slices": sharded_result.shard_stats.get("num_slices", 1),
        "tree_depth": sharded_result.shard_stats.get("tree_depth", 1),
        "serial_seconds": round(serial_wall, 4),
        "sharded_seconds": round(sharded_wall, 4),
        "shard_speedup": round(speedup, 2),
        "shard_overhead_pct": round((sharded_wall - serial_wall)
                                    / serial_wall * 100.0, 1)
        if serial_wall > 0 else 0.0,
        "serial_swaps": serial_result.num_swaps,
        "sharded_swaps": sharded_result.num_swaps,
        "serial_moves": serial_result.num_moves,
        "sharded_moves": sharded_result.num_moves,
        "serial_delta_cz": serial_metrics.delta_cz,
        "sharded_delta_cz": sharded_metrics.delta_cz,
        "serial_delta_t_us": round(serial_metrics.delta_t_us, 2),
        "sharded_delta_t_us": round(sharded_metrics.delta_t_us, 2),
    }
    rss = peak_rss_mb()
    if rss is not None:
        case["peak_rss_mb"] = rss
    return case


def local_window_workload(scale: float):
    """``(architecture, connectivity, circuit)`` of the large-circuit
    workload at ``scale``: a mixed device with a few spare atoms, and a
    circuit whose two-qubit gates couple qubits within windows of four."""
    num_qubits = max(256, round(LOCAL_WINDOW_QUBITS * scale))
    num_gates = max(128, round(num_qubits * LOCAL_WINDOW_GATES_PER_QUBIT))
    num_atoms = num_qubits + max(64, num_qubits // 16)
    architecture = mixed(lattice_rows=lattice_rows_for(num_atoms),
                         num_atoms=num_atoms)
    circuit = local_window_circuit(num_qubits, num_gates, window=4, seed=7)
    return architecture, SiteConnectivity(architecture), circuit


def run_serial_large_case(scale: float) -> Dict:
    """Route the local-window workload serially (default hybrid config).

    Besides compile time and quality, the case records how many SWAP
    candidates each gate-routing round holds and how many of them the
    candidate table had to rescore.
    """
    architecture, connectivity, circuit = local_window_workload(scale)
    rounds: List[Tuple[int, int]] = []

    def counting_mapper(architecture, config, connectivity=None):
        mapper = HybridMapper(architecture, config, connectivity=connectivity)
        router = mapper.gate_router
        best_swap = router.best_swap

        def counted(*args):
            chosen = best_swap(*args)
            rounds.append((len(router.table.entries), router.table.rescored))
            return chosen

        router.best_swap = counted
        return mapper

    passes = [RoutingPass(counting_mapper) if isinstance(stage, RoutingPass)
              else stage for stage in default_passes()]
    config = MapperConfig()
    start = time.perf_counter()
    context = compile_circuit(circuit, architecture, config,
                              connectivity=connectivity, alpha_ratio=1.0,
                              pass_manager=PassManager(passes))
    wall = time.perf_counter() - start
    result = context.require_result()
    metrics = context.require_metrics()
    num_rounds = max(len(rounds), 1)
    case = {
        "kind": "serial_large",
        "hardware": "mixed",
        "circuit": "local_window",
        "mode": config.mode,
        "topology": architecture.lattice.kind,
        "scale": scale,
        "num_qubits": circuit.num_qubits,
        "num_gates": len(circuit),
        "available_cpus": os.cpu_count(),
        "wall_seconds": round(wall, 4),
        "mapper_seconds": round(result.runtime_seconds, 4),
        "num_swaps": result.num_swaps,
        "num_moves": result.num_moves,
        "delta_cz": metrics.delta_cz,
        "delta_t_us": round(metrics.delta_t_us, 2),
        "swap_rounds": len(rounds),
        "mean_candidates": round(sum(held for held, _ in rounds)
                                 / num_rounds, 1),
        "mean_rescored": round(sum(rescored for _, rescored in rounds)
                               / num_rounds, 1),
    }
    rss = peak_rss_mb()
    if rss is not None:
        case["peak_rss_mb"] = rss
    return case


def run_telemetry_overhead_case(scale: float, *, hardware: str = "shuttling",
                                circuit_name: str = "qft",
                                mode: str = "shuttling_only",
                                topology: str = "square",
                                rounds: int = 3) -> Dict:
    """Measure the cost of the telemetry registry on the compile hot path.

    Compiles a routing-dominated configuration (``qft`` in shuttling
    mode, where the registry is touched once per pass and once per sharded
    run, never inside the routing loop) ``rounds`` times with
    the process-global registry disabled and ``rounds`` times enabled,
    recording the best wall time of each leg (best-of-N discards scheduler
    noise).  The legs are interleaved round by round — running one leg to
    completion before the other lets heap growth and CPU-frequency drift
    within the process bias whichever leg runs second.  The case also
    asserts the telemetry-never-decides contract operationally: both legs
    must produce byte-identical op-stream digests.
    """
    from repro.telemetry import get_registry

    architecture, connectivity = _architecture(hardware, scale, topology)
    circuit = build_circuit(circuit_name, scale)
    config = MapperConfig.for_mode(mode, 1.0)
    alpha_ratio = 1.0 if mode == "hybrid" else None
    registry = get_registry()
    best: Dict[str, float] = {}
    digests: Dict[str, str] = {}
    previous = registry.enabled
    try:
        for _ in range(rounds):
            for label, enabled in (("disabled", False), ("enabled", True)):
                registry.enabled = enabled
                start = time.perf_counter()
                context = compile_circuit(circuit, architecture, config,
                                          connectivity=connectivity,
                                          alpha_ratio=alpha_ratio)
                wall = time.perf_counter() - start
                best[label] = min(best.get(label, wall), wall)
                digests[label] = (context.require_result()
                                  .op_stream_digest()["sha256"])
    finally:
        registry.enabled = previous
    overhead_pct = ((best["enabled"] - best["disabled"])
                    / best["disabled"] * 100.0 if best["disabled"] > 0 else 0.0)
    return {
        "kind": "telemetry_overhead",
        "hardware": hardware,
        "circuit": circuit_name,
        "mode": mode,
        "topology": architecture.lattice.kind,
        "scale": scale,
        "num_qubits": scaled_size(circuit_name, scale),
        "rounds": rounds,
        "disabled_seconds": round(best["disabled"], 4),
        "enabled_seconds": round(best["enabled"], 4),
        "telemetry_overhead_pct": round(overhead_pct, 2),
        "digests_identical": digests["enabled"] == digests["disabled"],
    }


def batch_tasks(scale: float,
                circuits: Sequence[str] = DEFAULT_CIRCUITS,
                hardware_presets: Sequence[str] = DEFAULT_HARDWARE,
                mode: str = "hybrid", alpha: float = 1.0,
                topology: str = "square") -> List[CompilationTask]:
    """The benchmark matrix as independent service tasks."""
    return [
        CompilationTask(
            task_id=f"{hardware}-{circuit}-{mode}",
            architecture=bench_spec(hardware, scale, topology),
            circuit_name=circuit,
            num_qubits=scaled_size(circuit, scale),
            mode=mode,
            alpha=alpha,
        )
        for hardware in hardware_presets
        for circuit in circuits
    ]


def run_batch_case(scale: float, num_workers: int,
                   circuits: Sequence[str] = DEFAULT_CIRCUITS,
                   hardware_presets: Sequence[str] = DEFAULT_HARDWARE,
                   mode: str = "hybrid", alpha: float = 1.0,
                   topology: str = "square") -> Dict:
    """Measure batch throughput (circuits/sec) at N workers vs serial.

    Both runs execute the identical task list through the service layer; the
    serial reference uses ``max_workers=1`` (in-process, no pool).
    """
    tasks = batch_tasks(scale, circuits, hardware_presets, mode, alpha, topology)
    serial = BatchCompiler(max_workers=1).compile(tasks)
    batch = BatchCompiler(max_workers=num_workers).compile(tasks)
    failures = len(serial.failed) + len(batch.failed)
    speedup = (serial.wall_seconds / batch.wall_seconds
               if batch.wall_seconds > 0 else 0.0)
    # Record the *effective* topologies of the built specs, not the request:
    # the "zoned" hardware preset normalises topology="square" to "zoned".
    effective = sorted({spec.topology
                        for spec in (task.architecture for task in tasks)})
    case = {
        "kind": "batch_throughput",
        "hardware": "+".join(hardware_presets),
        "circuit": "+".join(circuits),
        "mode": mode,
        "topology": "+".join(effective),
        "scale": scale,
        "num_tasks": len(tasks),
        "num_workers": batch.num_workers,
        "available_cpus": os.cpu_count(),
        "serial_seconds": round(serial.wall_seconds, 4),
        "batch_seconds": round(batch.wall_seconds, 4),
        "serial_circuits_per_second": round(serial.circuits_per_second(), 4),
        "batch_circuits_per_second": round(batch.circuits_per_second(), 4),
        "throughput_speedup": round(speedup, 2),
        "num_failures": failures,
    }
    rss = peak_rss_mb()
    if rss is not None:
        case["peak_rss_mb"] = rss
    caveat = cpu_caveat(case)
    if caveat:
        case["cpu_caveat"] = caveat
    return case


def _case_key(case: Dict) -> Tuple:
    return (case.get("kind", "single"), case.get("hardware"),
            case.get("circuit"), case.get("mode"), case.get("scale"),
            case.get("topology", "square"))


def attach_baseline(report: Dict, baseline: Dict) -> None:
    """Add ``speedup_vs_baseline`` to cases with a matching baseline case."""
    reference = {_case_key(case): case for case in baseline.get("cases", [])}
    for case in report["cases"]:
        matched = reference.get(_case_key(case))
        if (matched and matched.get("wall_seconds", 0) > 0
                and case.get("wall_seconds", 0) > 0):
            case["speedup_vs_baseline"] = round(
                matched["wall_seconds"] / case["wall_seconds"], 2)


def merge_report(report_path, cases: Sequence[Dict], scale: float,
                 matrix_topology: Optional[str] = None) -> Dict:
    """The report at ``report_path`` with ``cases`` merged in.

    Each new case replaces a recorded case with the same key; every other
    recorded case (throughput kinds, other topologies, other scales) is
    kept, so regeneration order does not matter.  A matrix regeneration
    passes its ``matrix_topology``: it then also drops that topology's
    remaining single-circuit cases (the matrix is replaced wholesale), its
    cases lead the report and the report's ``scale`` becomes ``scale``.
    Other cases are appended.  A path that does not hold a report starts a
    fresh one.
    """
    try:
        report = json.loads(Path(report_path).read_text())
    except (OSError, ValueError):
        report = None
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        report = {"schema": SCHEMA, "created_unix": time.time(), "scale": scale,
                  "cases": []}
    new_keys = {_case_key(case) for case in cases}
    kept = [case for case in report["cases"]
            if _case_key(case) not in new_keys
            and (matrix_topology is None
                 or case.get("kind", "single") != "single"
                 or case.get("topology", "square") != matrix_topology)]
    if matrix_topology is None:
        report["cases"] = kept + list(cases)
    else:
        report["cases"] = list(cases) + kept
        report["scale"] = scale
    report["created_unix"] = time.time()
    return report


def write_report(report: Dict, path) -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n")


def record_case(report_path, case: Dict, scale: float) -> None:
    """Merge one case into the report at ``report_path`` and print it."""
    write_report(merge_report(report_path, [case], scale), report_path)
    _print_case(case)
    print(f"wrote {report_path}")


def cpu_caveat(case: Dict) -> Optional[str]:
    """The ROADMAP multi-core caveat when a throughput case is CPU-starved.

    The committed scale-0.3 batch case was recorded on a 1-CPU container
    where CPU-bound workers cannot beat serial; any summary of such a case
    must say so instead of presenting the speedup as a property of the code.
    """
    cpus = case.get("available_cpus")
    if cpus is None:
        return None
    if case.get("kind") != "batch_throughput":
        # Only batch cases claim a multi-core speedup; every other kind runs
        # its compiles (and sharded slices) on one core.
        return None
    workers = case.get("num_workers") or 1
    if cpus < max(2, workers):
        return (f"only {cpus} CPU(s) available — CPU-bound workers cannot "
                f"beat serial at {workers} workers; re-record this case on "
                f"a host with >= {max(2, workers)} cores (ROADMAP caveat)")
    return None


def _print_case(case: Dict) -> None:
    if case.get("kind") == "batch_throughput":
        print(f"[batch    ] {case['circuit']:>12s} x {case['hardware']} "
              f"tasks={case['num_tasks']} workers={case['num_workers']} "
              f"serial={case['serial_seconds']:7.2f}s "
              f"batch={case['batch_seconds']:7.2f}s "
              f"throughput={case['batch_circuits_per_second']:5.2f}/s "
              f"speedup={case['throughput_speedup']:4.2f}x")
        caveat = cpu_caveat(case)
        if caveat:
            print(f"            note: {caveat}")
        return
    if case.get("kind") == "shard_routing":
        print(f"[shard    ] {case['circuit']:>12s} x {case['hardware']} "
              f"slices={case['num_slices']} "
              f"serial={case['serial_seconds']:7.2f}s "
              f"sharded={case['sharded_seconds']:7.2f}s "
              f"speedup={case['shard_speedup']:4.2f}x "
              f"moves={case['serial_moves']}->{case['sharded_moves']} "
              f"swaps={case['serial_swaps']}->{case['sharded_swaps']} "
              f"dT={case.get('serial_delta_t_us')}->"
              f"{case.get('sharded_delta_t_us')}us")
        return
    if case.get("kind") == "serial_large":
        print(f"[serial   ] {case['circuit']:>12s} x {case['hardware']} "
              f"qubits={case['num_qubits']} "
              f"wall={case['wall_seconds']:7.2f}s "
              f"swaps={case['num_swaps']} moves={case['num_moves']} "
              f"dT={case['delta_t_us']}us "
              f"candidates/round={case['mean_candidates']} "
              f"rescored/round={case['mean_rescored']}")
        return
    if case.get("kind") == "telemetry_overhead":
        print(f"[telemetry] {case['circuit']:>12s} x {case['hardware']} "
              f"{case['mode']} "
              f"disabled={case['disabled_seconds']:7.3f}s "
              f"enabled={case['enabled_seconds']:7.3f}s "
              f"overhead={case['telemetry_overhead_pct']:+5.2f}% "
              f"digests_identical={case['digests_identical']}")
        return
    if case.get("kind") in ("serving_throughput", "serving_degraded"):
        tag = ("degraded " if case["kind"] == "serving_degraded"
               else "serving  ")
        fault_text = (f" crashes={case.get('pool_crashes', 0)}"
                      if case["kind"] == "serving_degraded" else "")
        print(f"[{tag}] {case['circuit']:>12s} x {case['hardware']} "
              f"requests={case['num_requests']} "
              f"(distinct={case['distinct_requests']}) "
              f"rps={case['requests_per_second']:6.2f} "
              f"hit_rate={case['hit_rate']:.2f} "
              f"compiles={case['num_compiles']} "
              f"p50={case['p50_ms']:7.1f}ms p95={case['p95_ms']:7.1f}ms"
              f"{fault_text}")
        return
    speedup = case.get("speedup_vs_baseline")
    speedup_text = f"  speedup={speedup:5.1f}x" if speedup is not None else ""
    topology = case.get("topology", "square")
    topology_text = "" if topology == "square" else f" ({topology})"
    print(f"[{case['hardware']:9s}] {case['circuit']:10s} {case['mode']:9s}"
          f"{topology_text} "
          f"wall={case['wall_seconds']:7.2f}s swaps={case['num_swaps']:5d} "
          f"moves={case['num_moves']:5d}{speedup_text}")


def build_parser(description: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--scale", type=float, default=0.3,
                        help="fraction of the paper's register sizes (default 0.3)")
    parser.add_argument("--out", default="BENCH_scaling.json",
                        help="output path (default BENCH_scaling.json)")
    parser.add_argument("--baseline", default=None,
                        help="previous report to compute speedups against")
    parser.add_argument("--batch", action="store_true",
                        help="measure batch throughput (circuits/sec at N "
                             "workers vs serial) and append the case")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker processes for --batch (default 4)")
    parser.add_argument("--shard", action="store_true",
                        help="record serial-vs-sharded routing cases "
                             "(kind shard_routing) for the selected matrix")
    parser.add_argument("--serial-large", action="store_true",
                        help="record the serial large-circuit case (kind "
                             "serial_large: the local-window workload routed "
                             "serially) at --scale; ignores the matrix flags")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="run the selected matrix under structured "
                             "tracing and write the span timeline as Chrome "
                             "trace-event JSON (open in Perfetto or "
                             "chrome://tracing)")
    parser.add_argument("--telemetry-overhead", action="store_true",
                        help="record the telemetry_overhead probe (qft in "
                             "shuttling mode, registry enabled vs disabled, "
                             "best of 3) and append the case; ignores the "
                             "matrix flags")
    parser.add_argument("--circuits", nargs="*", default=list(DEFAULT_CIRCUITS))
    parser.add_argument("--hardware", nargs="*", default=list(DEFAULT_HARDWARE))
    parser.add_argument("--modes", nargs="*", default=list(DEFAULT_MODES))
    parser.add_argument("--topology", default="square",
                        choices=("square", "zoned"),
                        help="trap topology of the benchmark devices "
                             "(default square); cases of other topologies "
                             "already in the report are preserved.  "
                             "Rectangular devices need explicit cols/"
                             "spacing_y, so they are driven via the "
                             "ArchitectureSpec API rather than this flag")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser(__doc__.splitlines()[0])
    args = parser.parse_args(argv)

    unknown = [name for name in args.circuits if name not in PAPER_SIZES]
    if unknown:
        parser.error(f"unknown circuit(s) {unknown}; "
                     f"choose from {sorted(PAPER_SIZES)}")
    if args.scale <= 0:
        parser.error("--scale must be positive")
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.baseline and not Path(args.baseline).exists():
        parser.error(f"baseline report not found: {args.baseline}")

    if args.trace and (args.shard or args.batch or args.telemetry_overhead
                       or args.serial_large):
        parser.error("--trace applies to the default single-circuit matrix")

    if args.serial_large:
        record_case(args.out, run_serial_large_case(args.scale), args.scale)
        return 0

    if args.telemetry_overhead:
        case = run_telemetry_overhead_case(args.scale)
        record_case(args.out, case, args.scale)
        return 0 if case["digests_identical"] else 1

    if args.shard:
        if len(args.modes) != 1:
            parser.error("--shard records comparison cases; pass exactly "
                         "one --modes value")
        for hardware in args.hardware:
            for circuit_name in args.circuits:
                record_case(args.out,
                            run_shard_case(hardware, circuit_name,
                                           args.modes[0], args.scale,
                                           topology=args.topology),
                            args.scale)
        return 0

    if args.batch:
        if len(args.modes) != 1:
            parser.error("--batch records one case; pass exactly one --modes value")
        case = run_batch_case(args.scale, args.workers, args.circuits,
                              args.hardware, mode=args.modes[0],
                              topology=args.topology)
        record_case(args.out, case, args.scale)
        return 0 if case["num_failures"] == 0 else 1

    spans: Optional[List[tracing.Span]] = [] if args.trace else None
    cases = [run_case(hardware, circuit_name, mode, args.scale,
                      topology=args.topology, span_sink=spans)
             for hardware in args.hardware
             for circuit_name in args.circuits
             for mode in args.modes]
    if args.trace:
        Path(args.trace).write_text(
            json.dumps(tracing.chrome_trace_events(spans), indent=2) + "\n")
        print(f"wrote {args.trace}")
    report = merge_report(args.out, cases, args.scale,
                          matrix_topology=args.topology)
    if args.baseline:
        attach_baseline(report, json.loads(Path(args.baseline).read_text()))
    write_report(report, args.out)
    for case in report["cases"]:
        _print_case(case)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
