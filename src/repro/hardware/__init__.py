"""Neutral-atom hardware model: trap topologies, device parameters, connectivity."""

from .architecture import Fidelities, GateDurations, NeutralAtomArchitecture
from .connectivity import SiteConnectivity
from .topology import (
    TOPOLOGY_KINDS,
    GridTopology,
    RectangularLattice,
    SquareLattice,
    Zone,
    ZonedTopology,
    banded_zone_layout,
    build_topology,
)
from .presets import (
    ALL_PRESET_NAMES,
    PRESET_NAMES,
    gate_optimised,
    mixed,
    preset,
    shuttling_optimised,
    zoned,
)

__all__ = [
    "GridTopology",
    "SquareLattice",
    "RectangularLattice",
    "Zone",
    "ZonedTopology",
    "TOPOLOGY_KINDS",
    "build_topology",
    "banded_zone_layout",
    "NeutralAtomArchitecture",
    "GateDurations",
    "Fidelities",
    "SiteConnectivity",
    "preset",
    "shuttling_optimised",
    "gate_optimised",
    "mixed",
    "zoned",
    "PRESET_NAMES",
    "ALL_PRESET_NAMES",
]
