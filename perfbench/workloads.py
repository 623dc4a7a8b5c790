"""Workload definitions: what each named workload compiles or requests.

Every input is a pure function of the workload name and ``--seed``; the
program only ever receives the generated circuits and tasks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.circuit import QuantumCircuit
from repro.circuit.library import get_benchmark
from repro.mapping import MapperConfig
from repro.service import ArchitectureSpec, CompilationTask
from repro.workloads import scaled_register_size

__all__ = ["COMPILE_WORKLOADS", "Entry", "compile_set", "serve_tasks",
           "SERVE_SPEC", "DEVICE_SCALE"]

#: Device scale of every compile workload (60 atoms on a 9x9 lattice).
DEVICE_SCALE = 0.3
#: The three compiler settings of Table 1a.
TABLE1_MODES = ("shuttling_only", "gate_only", "hybrid")
REVERSIBLE = ("bn", "call", "gray")
#: Seeded instances of each reversible circuit per set: with one, the set's
#: summed fidelity loss spreads about 11% across seeds, with three about 6%.
REVERSIBLE_INSTANCES = 3

COMPILE_WORKLOADS = ("qft_mixed", "qft_gate", "reversible_table1")

#: Device the serving stream targets, and its circuit kinds and sizes.
SERVE_SPEC = ArchitectureSpec.scaled("mixed", DEVICE_SCALE)
SERVE_CIRCUITS: Tuple[Tuple[str, int], ...] = (("graph", 40), ("bn", 24),
                                               ("gray", 24))
SERVE_DISTINCT = 30
SERVE_REPEATS = 4


@dataclass(frozen=True)
class Entry:
    """One compile of a compile workload: circuit, device and mapper mode."""

    label: str
    circuit: QuantumCircuit
    spec: ArchitectureSpec
    mode: str = "hybrid"
    alpha: float = 1.0

    def config(self) -> MapperConfig:
        return MapperConfig.for_mode(self.mode, self.alpha)

    @property
    def alpha_ratio(self) -> Optional[float]:
        return self.alpha if self.mode == "hybrid" else None


def compile_set(workload: str, seed: int) -> List[Entry]:
    """The circuit set a compile workload compiles once per pass."""
    if workload in ("qft_mixed", "qft_gate"):
        # qft has no random structure: the seed is ignored.
        hardware = "mixed" if workload == "qft_mixed" else "gate"
        size = scaled_register_size("qft", DEVICE_SCALE)
        return [Entry(f"qft_{size}/{hardware}/hybrid",
                      get_benchmark("qft", num_qubits=size),
                      ArchitectureSpec.scaled(hardware, DEVICE_SCALE))]
    if workload == "reversible_table1":
        spec = ArchitectureSpec.scaled("mixed", DEVICE_SCALE)
        rng = random.Random(seed)
        entries = []
        for _ in range(REVERSIBLE_INSTANCES):
            circuit_seed = rng.randrange(1, 2 ** 31)
            for name in REVERSIBLE:
                # Paper register sizes (48 / 25 / 33 qubits).
                circuit = get_benchmark(name, seed=circuit_seed)
                for mode in TABLE1_MODES:
                    entries.append(Entry(
                        f"{circuit.name}@{circuit_seed}/mixed/{mode}",
                        circuit, spec, mode))
        return entries
    raise ValueError(f"{workload!r} is not a compile workload; "
                     f"choose from {COMPILE_WORKLOADS}")


def serve_tasks(seed: int
                ) -> Tuple[List[CompilationTask], List[CompilationTask]]:
    """``(distinct_tasks, request_stream)`` of the serving workload.

    Each of ``SERVE_DISTINCT`` tasks is a graph/bn/gray circuit with its own
    circuit seed; the stream requests every one ``SERVE_REPEATS`` times in a
    seeded shuffle, so first occurrences compile and repeats hit the store
    or coalesce.  Request task ids are ``"<distinct index>-r<repeat>"``.
    """
    rng = random.Random(seed)
    circuit_seeds = rng.sample(range(1, 2 ** 31), SERVE_DISTINCT)
    unique = []
    for index, circuit_seed in enumerate(circuit_seeds):
        name, size = SERVE_CIRCUITS[index % len(SERVE_CIRCUITS)]
        unique.append(CompilationTask(
            task_id=str(index), architecture=SERVE_SPEC, circuit_name=name,
            num_qubits=size, seed=circuit_seed))
    stream = [CompilationTask(
        task_id=f"{index}-r{repeat}", architecture=task.architecture,
        circuit_name=task.circuit_name, num_qubits=task.num_qubits,
        seed=task.seed)
        for index, task in enumerate(unique)
        for repeat in range(SERVE_REPEATS)]
    rng.shuffle(stream)
    return unique, stream
