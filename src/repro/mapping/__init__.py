"""Hybrid gate/shuttling circuit mapping — the paper's primary contribution."""

from .config import MapperConfig
from .decision import (
    CapabilityDecider,
    CapabilityDecision,
    GateCostEstimate,
)
from .gate_router import GateRouter, SwapCandidate, SwapCandidateTable
from .hybrid_mapper import HybridMapper, MappingError
from .initial_layout import (
    LAYOUT_STRATEGIES,
    compact_layout,
    create_initial_state,
    identity_layout,
    interaction_graph_layout,
)
from .multiqubit import GatePosition, find_gate_position
from .partition import (
    CircuitSlice,
    PartitionPlan,
    crossing_counts,
    partition_circuit,
    slice_subcircuit,
)
from .replay import StreamValidator, assert_stream_valid, validate_stream
from .result import (
    CircuitGateOp,
    MappedOperation,
    MappingResult,
    ShuttleOp,
    SwapOp,
)
from .shard import ShardedRouter
from .shuttling_router import ShuttlingRouter
from .state import MappingState

__all__ = [
    "HybridMapper",
    "MapperConfig",
    "MappingError",
    "MappingState",
    "MappingResult",
    "MappedOperation",
    "CircuitGateOp",
    "SwapOp",
    "ShuttleOp",
    "CapabilityDecider",
    "CapabilityDecision",
    "GateCostEstimate",
    "GateRouter",
    "SwapCandidate",
    "SwapCandidateTable",
    "ShuttlingRouter",
    "CircuitSlice",
    "PartitionPlan",
    "ShardedRouter",
    "partition_circuit",
    "crossing_counts",
    "slice_subcircuit",
    "validate_stream",
    "StreamValidator",
    "assert_stream_valid",
    "GatePosition",
    "find_gate_position",
    "identity_layout",
    "compact_layout",
    "interaction_graph_layout",
    "create_initial_state",
    "LAYOUT_STRATEGIES",
]
