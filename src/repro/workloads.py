"""Shared sizing rules for scaled-down benchmark workloads.

Every harness in the repository — the Table-1 experiment settings, the
pytest benchmarks, the perf report and the batch-compilation service — runs
the paper's workloads at a fraction of their original size so that the pure
Python mapper finishes in seconds.  The scaling rules live here so that all
consumers agree on them:

* register sizes shrink proportionally to the paper's sizes (Table 1b),
  clamped to a consumer-chosen minimum,
* the atom count keeps the paper's 200-atom register in proportion but never
  drops below the largest circuit,
* the lattice edge grows just past the atom count so the fill factor stays
  comparable to the paper's 200-atom / 15x15 configuration.

:meth:`repro.service.ArchitectureSpec.scaled` applies them to a hardware
preset; ``ArchitectureSpec.scaled(hardware, scale).build()`` is the device.
"""

from __future__ import annotations

from typing import Dict, Iterable

from .circuit.library import BENCHMARK_NAMES, default_benchmark_size

__all__ = [
    "PAPER_SIZES",
    "PAPER_ATOM_COUNT",
    "scaled_register_size",
    "scaled_atom_count",
    "lattice_rows_for",
]

#: Register sizes of the paper's evaluation (Table 1b), keyed by benchmark.
PAPER_SIZES: Dict[str, int] = {name: default_benchmark_size(name)
                               for name in BENCHMARK_NAMES}

#: Atom count of the paper's device configurations (Table 1c).
PAPER_ATOM_COUNT = 200


def scaled_register_size(name: str, scale: float, *, min_size: int = 8) -> int:
    """Scaled register size for a named benchmark, clamped to ``min_size``."""
    return max(min_size, round(default_benchmark_size(name) * scale))


def scaled_atom_count(scale: float, circuit_sizes: Iterable[int]) -> int:
    """Atom count for a scaled device hosting circuits of the given sizes.

    The paper's 200 atoms shrink proportionally, but the device always offers
    at least as many atoms as the largest circuit needs.
    """
    sizes = list(circuit_sizes)
    if not sizes:
        raise ValueError("need at least one circuit size to scale the device")
    return max(max(sizes), round(PAPER_ATOM_COUNT * scale))


def lattice_rows_for(num_atoms: int, topology: str = "square") -> int:
    """Grid edge length for a scaled device hosting ``num_atoms`` atoms.

    For unzoned topologies the edge is the smallest ``rows`` (at least 4)
    with ``rows**2 > num_atoms`` plus one extra row, so shuttling always
    finds free traps even at full occupancy of the identity layout.

    Zoned topologies split the grid into storage and entangling bands; the
    entangling band (the middle third under the default layout) must retain
    free traps for gathering gate qubits, so the edge grows until the grid
    offers at least twice as many sites as atoms (and at least six rows, so
    every band spans two or more rows).
    """
    rows = 4
    while rows * rows <= num_atoms:
        rows += 1
    rows += 1
    if topology == "zoned":
        while rows < 6 or rows * rows < 2 * num_atoms:
            rows += 1
    return rows
