"""Shared cases for the scheduler oracles."""

from __future__ import annotations

import pytest

from repro.circuit import decompose_mcx_to_mcz
from repro.circuit.library import get_benchmark
from repro.hardware import (NeutralAtomArchitecture, SiteConnectivity, Zone,
                            ZonedTopology)
from repro.mapping import HybridMapper, MapperConfig
from repro.workloads import build_scaled_architecture


@pytest.fixture(scope="session")
def call25_gate_only():
    """``call`` at 25 qubits, gate-only, on the scale-0.3 mixed device.

    Its mapped schedule runs past 1000 us with more than 256 live
    entangling intervals, so the scheduler's interval prune fires on it
    hundreds of times (across the whole golden matrix it fires once).
    Returns ``(architecture, connectivity, circuit, result)``.
    """
    architecture = build_scaled_architecture("mixed", 0.3)
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
