"""Shared fixtures for the test suite.

The fixtures provide small architectures (fast to route on) for the three
hardware regimes of Table 1c plus a handful of circuits that exercise the
different gate arities.  Everything is deterministic.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.library import get_benchmark
from repro.hardware import (
    Fidelities,
    GateDurations,
    NeutralAtomArchitecture,
    SiteConnectivity,
    SquareLattice,
)
from repro.hardware.presets import gate_optimised, mixed, shuttling_optimised
from repro.mapping import MappingState

# The test-only reference oracles live in tests/differential; make them
# importable from every suite, not only from the tests collected beside them.
_REFERENCES = str(Path(__file__).resolve().parent / "differential")
if _REFERENCES not in sys.path:
    sys.path.insert(0, _REFERENCES)


@pytest.fixture(scope="session")
def small_architecture() -> NeutralAtomArchitecture:
    """A 6x6 lattice with 20 atoms and moderate radii (fast for unit tests)."""
    return NeutralAtomArchitecture(
        name="test-small",
        lattice=SquareLattice(6, 6, 3.0),
        num_atoms=20,
        interaction_radius=2.0,
        restriction_radius=2.0,
        fidelities=Fidelities(cz=0.995, single_qubit=0.999, shuttling=0.9999),
        durations=GateDurations(aod_activation=40.0, aod_deactivation=40.0),
        shuttling_speed=0.3,
        t1=1e8,
        t2=1.5e6,
    )


@pytest.fixture(scope="session")
def small_connectivity(small_architecture) -> SiteConnectivity:
    return SiteConnectivity(small_architecture)


@pytest.fixture(scope="session")
def mixed_architecture() -> NeutralAtomArchitecture:
    """Scaled-down version of the Table 1c mixed preset."""
    return mixed(lattice_rows=7, num_atoms=30)


@pytest.fixture(scope="session")
def gate_architecture() -> NeutralAtomArchitecture:
    """Scaled-down version of the Table 1c gate-optimised preset."""
    return gate_optimised(lattice_rows=7, num_atoms=30)


@pytest.fixture(scope="session")
def shuttling_architecture() -> NeutralAtomArchitecture:
    """Scaled-down version of the Table 1c shuttling-optimised preset."""
    return shuttling_optimised(lattice_rows=7, num_atoms=30)


@pytest.fixture()
def small_state(small_architecture, small_connectivity) -> MappingState:
    """Identity-mapped state with 12 circuit qubits on the small architecture."""
    return MappingState(small_architecture, 12, connectivity=small_connectivity)


@pytest.fixture(scope="session")
def bell_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(2, name="bell")
    circuit.h(0)
    circuit.cz(0, 1)
    return circuit


@pytest.fixture(scope="session")
def line_circuit() -> QuantumCircuit:
    """A CZ chain touching every neighbouring qubit pair once."""
    circuit = QuantumCircuit(8, name="line")
    for qubit in range(7):
        circuit.cz(qubit, qubit + 1)
    return circuit


@pytest.fixture(scope="session")
def long_range_circuit() -> QuantumCircuit:
    """Two-qubit gates between far-apart qubits (forces routing)."""
    circuit = QuantumCircuit(12, name="long_range")
    circuit.cz(0, 11)
    circuit.cz(1, 10)
    circuit.cz(2, 9)
    circuit.cz(0, 6)
    return circuit


@pytest.fixture(scope="session")
def multiqubit_circuit() -> QuantumCircuit:
    """Mix of CZ / CCZ / CCCZ gates."""
    circuit = QuantumCircuit(10, name="multiqubit")
    circuit.h(0)
    circuit.cz(0, 5)
    circuit.ccz(1, 4, 8)
    circuit.cccz(0, 2, 6, 9)
    circuit.cz(3, 7)
    circuit.ccz(5, 6, 7)
    return circuit


@pytest.fixture(scope="session")
def small_graph_circuit() -> QuantumCircuit:
    return get_benchmark("graph", num_qubits=16, seed=7)


@pytest.fixture(scope="session")
def small_qft_circuit() -> QuantumCircuit:
    return get_benchmark("qft", num_qubits=10)
