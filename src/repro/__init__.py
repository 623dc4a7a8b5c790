"""repro — Hybrid gate/shuttling circuit mapping for neutral-atom quantum computers.

Pure-Python reproduction of "Hybrid Circuit Mapping: Leveraging the Full
Spectrum of Computational Capabilities of Neutral Atom Quantum Computers"
(Schmid, Park, Kang, Wille — DAC 2024).

Public API overview
-------------------
* :mod:`repro.circuit` — circuit IR, benchmark library, decompositions
* :mod:`repro.hardware` — trap topologies (square/rectangular/zoned),
  device presets, connectivity
* :mod:`repro.shuttling` — atom moves and AOD batch scheduling
* :mod:`repro.mapping` — the hybrid mapper (gate-based + shuttling routing)
* :mod:`repro.pipeline` — pass-based compilation pipeline (the canonical
  compile path: decompose → layout → route → schedule → evaluate)
* :mod:`repro.service` — parallel batch compilation of independent circuits
* :mod:`repro.store` — persistent content-addressed compiled-result store
* :mod:`repro.server` — asyncio serving gateway (store hits, request
  coalescing, bounded worker pool) with TCP protocol + sync client
* :mod:`repro.scheduling` — ASAP hardware scheduler
* :mod:`repro.evaluation` — success-probability model and Table-1 harness

Quickstart
----------
>>> from repro import MapperConfig, compile_circuit, get_benchmark, preset
>>> architecture = preset("mixed", lattice_rows=8, num_atoms=40)
>>> circuit = get_benchmark("graph", num_qubits=30)
>>> context = compile_circuit(circuit, architecture, MapperConfig.hybrid(1.0))
>>> context.result.num_swaps + context.result.num_moves >= 0
True
>>> context.metrics.delta_fidelity >= 0
True
"""

from .circuit import (
    CircuitDAG,
    Gate,
    GateKind,
    QuantumCircuit,
    decompose_mcx_to_mcz,
    decompose_swaps_to_cz,
    decompose_to_native,
)
from .circuit.library import BENCHMARK_NAMES, get_benchmark
from .evaluation import (
    EvaluationMetrics,
    ExperimentSettings,
    evaluate,
    fidelity_decrease,
    format_table,
    run_mode_comparison,
    run_table1,
    success_probability,
)
from .hardware import (
    Fidelities,
    GateDurations,
    GridTopology,
    NeutralAtomArchitecture,
    RectangularLattice,
    SiteConnectivity,
    SquareLattice,
    Zone,
    ZonedTopology,
    build_topology,
    preset,
)
from .mapping import (
    HybridMapper,
    MapperConfig,
    MappingError,
    MappingResult,
    MappingState,
)
from .pipeline import (
    CompilationContext,
    PassManager,
    compile_circuit,
    default_pipeline,
)
from .scheduling import Schedule, Scheduler
from .service import (
    ArchitectureCache,
    ArchitectureSpec,
    BatchCompiler,
    BatchResult,
    CompilationTask,
)
from .store import (
    CompiledArtifact,
    ResultStore,
    StoreKey,
    compute_store_key,
)
from .server import (
    ServingClient,
    ServingGateway,
    ServingServer,
)
from ._version import __version__

__all__ = [
    "__version__",
    # circuit
    "QuantumCircuit", "Gate", "GateKind", "CircuitDAG",
    "decompose_mcx_to_mcz", "decompose_swaps_to_cz", "decompose_to_native",
    "get_benchmark", "BENCHMARK_NAMES",
    # hardware
    "NeutralAtomArchitecture", "SquareLattice", "SiteConnectivity",
    "GridTopology", "RectangularLattice", "Zone", "ZonedTopology",
    "build_topology", "GateDurations", "Fidelities", "preset",
    # mapping
    "HybridMapper", "MapperConfig", "MappingResult", "MappingState", "MappingError",
    # pipeline
    "CompilationContext", "PassManager", "default_pipeline", "compile_circuit",
    # service
    "ArchitectureSpec", "ArchitectureCache", "CompilationTask", "BatchCompiler",
    "BatchResult",
    # store + server
    "ResultStore", "CompiledArtifact", "StoreKey", "compute_store_key",
    "ServingGateway", "ServingServer", "ServingClient",
    # scheduling
    "Scheduler", "Schedule",
    # evaluation
    "evaluate", "EvaluationMetrics", "ExperimentSettings", "run_table1",
    "run_mode_comparison", "format_table", "success_probability", "fidelity_decrease",
]
