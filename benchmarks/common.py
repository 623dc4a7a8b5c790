"""Shared sizing helpers for the benchmark harness.

The perf CLI (``perf_report.py``), its pytest wrapper (``bench_scaling.py``)
and the serving benchmark (``bench_serving.py``) run scaled-down instances of
the paper's benchmarks so that a run completes in minutes on a laptop.  The
scale factor can be raised via the ``REPRO_BENCH_SCALE`` environment
variable; ``1.0`` reruns the paper's original 200-qubit / 15x15
configuration (slow in pure Python).

The sizing rules live in :mod:`repro.workloads` (shared with the Table-1
harness and the batch service); architectures are cached in the
process-global :data:`repro.service.ARCHITECTURE_CACHE` through
:func:`bench_spec`.
"""

from __future__ import annotations

import os

from repro.circuit import QuantumCircuit, decompose_mcx_to_mcz
from repro.circuit.library import get_benchmark
from repro.hardware import NeutralAtomArchitecture
from repro.mapping import MapperConfig
from repro.service import ArchitectureSpec
from repro.workloads import (
    PAPER_SIZES,
    build_scaled_architecture,
    scaled_register_size,
)
from repro import workloads

#: Fraction of the paper's register sizes the benchmarks run by default.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.15"))


def scaled_size(name: str, scale: float = BENCH_SCALE) -> int:
    """Scaled register size for a named benchmark (minimum 8 qubits)."""
    return scaled_register_size(name, scale, min_size=8)


def scaled_atom_count(scale: float = BENCH_SCALE) -> int:
    return workloads.scaled_atom_count(
        scale, (scaled_size(name, scale) for name in PAPER_SIZES))


def bench_spec(hardware: str, scale: float = BENCH_SCALE,
               topology: str = "square") -> ArchitectureSpec:
    """Cacheable spec of the benchmark device at the given scale."""
    return ArchitectureSpec.scaled(hardware, scale, topology=topology)


def build_architecture(hardware: str, scale: float = BENCH_SCALE) -> NeutralAtomArchitecture:
    return build_scaled_architecture(hardware, scale)


def build_circuit(name: str, scale: float = BENCH_SCALE, seed: int = 2024) -> QuantumCircuit:
    circuit = get_benchmark(name, num_qubits=scaled_size(name, scale), seed=seed)
    return decompose_mcx_to_mcz(circuit)


def config_for_mode(mode: str, alpha: float = 1.0) -> MapperConfig:
    return MapperConfig.for_mode(mode, alpha)
