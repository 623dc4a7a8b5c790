"""Shared cases for the scheduler oracles."""

from __future__ import annotations

import pytest

from repro.circuit import decompose_mcx_to_mcz
from repro.circuit.library import get_benchmark
from repro.hardware import (NeutralAtomArchitecture, SiteConnectivity, Zone,
                            ZonedTopology)
from repro.mapping import HybridMapper, MapperConfig
from repro.pipeline import compile_circuit
from repro.service import ArchitectureSpec


@pytest.fixture(scope="session")
def call25_gate_only():
    """``call`` at 25 qubits, gate-only, on the scale-0.3 mixed device.

    Its mapped schedule runs past 1000 us with more than 256 live
    entangling intervals, the regime in which idle atoms far behind the
    frontier test their gates against long-finished intervals.
    Returns ``(architecture, connectivity, circuit, result)``.
    """
    architecture = ArchitectureSpec.scaled("mixed", 0.3).build()
    connectivity = SiteConnectivity(architecture)
    circuit = decompose_mcx_to_mcz(get_benchmark("call", num_qubits=25,
                                                 seed=2024))
    result = HybridMapper(architecture, MapperConfig.gate_only(),
                          connectivity=connectivity).map(circuit)
    return architecture, connectivity, circuit, result


@pytest.fixture(scope="session")
def asymmetric_device() -> NeutralAtomArchitecture:
    """Two entangling rows of 12 traps with restriction radii d and 3d.

    Qubit q of the identity placement sits at site q: sites 0-11 form the
    narrow row, 12-23 the wide row.  An atom at site 14 blocks a gate at
    site 1, 1.41d away, but not the other way round.
    """
    topology = ZonedTopology(
        (Zone("narrow", "entangling", 1, restriction_radius=1.0),
         Zone("wide", "entangling", 1, restriction_radius=3.0)), cols=12)
    return NeutralAtomArchitecture(
        name="asymmetric", lattice=topology, num_atoms=16,
        interaction_radius=1.0, restriction_radius=2.0)


@pytest.fixture(scope="session")
def call25_hybrid_compiled():
    """The ``call`` instance of seed 1819171248, hybrid, compiled through
    the default pipeline on the scale-0.3 mixed device.

    Atoms that idle far behind the frontier start gates early enough to
    overlap intervals that ended more than 1000 us before the latest
    commit; a scheduler that drops such intervals emits restriction-radius
    violations on its mapped schedule.  Returns
    ``(architecture, context)``.
    """
    architecture = ArchitectureSpec.scaled("mixed", 0.3).build()
    circuit = get_benchmark("call", seed=1819171248)
    context = compile_circuit(circuit, architecture, MapperConfig.hybrid(1.0),
                              alpha_ratio=1.0)
    return architecture, context
