"""Mapping output representation.

The hybrid mapper emits an ordered stream of :class:`MappedOperation` items:
the original circuit gates (now guaranteed executable at their emission
point), the inserted SWAP gates, and the shuttling moves.  The stream is what
the scheduler consumes (process block (5)) and what the evaluation counts
``ΔCZ`` and ``ΔT`` from.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.circuit import QuantumCircuit
from ..circuit.decompose import decompose_swaps_to_cz
from ..circuit.gate import Gate, GateKind, swap_gate
from ..shuttling.moves import Move

__all__ = ["MappedOperation", "CircuitGateOp", "SwapOp", "ShuttleOp", "MappingResult"]


@dataclass(frozen=True)
class MappedOperation:
    """Base class for entries of the mapped operation stream."""


@dataclass(frozen=True)
class CircuitGateOp(MappedOperation):
    """An original circuit gate, executed at the recorded sites.

    ``gate`` keeps the *circuit* qubit indices; ``atoms`` and ``sites`` record
    which physical atoms executed it and where they sat at execution time.
    """

    gate: Gate
    gate_index: int
    atoms: Tuple[int, ...]
    sites: Tuple[int, ...]


@dataclass(frozen=True)
class SwapOp(MappedOperation):
    """A SWAP gate inserted by the gate-based router."""

    qubit_a: int
    qubit_b: int
    atom_a: int
    atom_b: int
    site_a: int
    site_b: int


@dataclass(frozen=True)
class ShuttleOp(MappedOperation):
    """A shuttling move emitted by the shuttling-based router."""

    move: Move


@dataclass
class MappingResult:
    """Complete result of a mapping run.

    Attributes
    ----------
    circuit:
        The input circuit that was mapped.
    operations:
        Ordered stream of mapped operations.
    num_swaps / num_moves:
        Count of inserted SWAP gates and shuttling moves.
    num_gate_routed / num_shuttle_routed:
        How many entangling circuit gates were enabled by each capability
        (gates that were executable without any routing are counted under
        ``num_trivially_executable``).
    runtime_seconds:
        Wall-clock time of the mapping process (the RT column of Table 1a).
        The only clock the mapper reads; finer breakdowns come from
        telemetry spans (``mapper.map``, ``shard.partition``, ...).
    initial_qubit_map / final_qubit_map:
        The qubit mapping before and after the run.
    initial_atom_map / final_atom_map:
        The atom mapping before and after the run.
    shard_stats:
        Sharded-routing bookkeeping (:mod:`repro.mapping.shard`): the
        partition summary (``num_slices``, ``slice_sizes``, ``cut_qubits``
        and ``tree_depth``, the depth of the recursive split tree).
        Partition time is the ``shard.partition`` telemetry span.
        Empty for serial runs, including sharded configs that fell back to
        the serial path.
    """

    circuit: QuantumCircuit
    operations: List[MappedOperation] = field(default_factory=list)
    num_swaps: int = 0
    num_moves: int = 0
    num_gate_routed: int = 0
    num_shuttle_routed: int = 0
    num_trivially_executable: int = 0
    num_fallback_reroutes: int = 0
    runtime_seconds: float = 0.0
    initial_qubit_map: Dict[int, int] = field(default_factory=dict)
    final_qubit_map: Dict[int, int] = field(default_factory=dict)
    initial_atom_map: Dict[int, int] = field(default_factory=dict)
    final_atom_map: Dict[int, int] = field(default_factory=dict)
    mode: str = "hybrid"
    shard_stats: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def append(self, operation: MappedOperation) -> None:
        self.operations.append(operation)
        if isinstance(operation, SwapOp):
            self.num_swaps += 1
        elif isinstance(operation, ShuttleOp):
            self.num_moves += 1

    def circuit_gate_ops(self) -> List[CircuitGateOp]:
        return [op for op in self.operations if isinstance(op, CircuitGateOp)]

    def swap_ops(self) -> List[SwapOp]:
        return [op for op in self.operations if isinstance(op, SwapOp)]

    def shuttle_ops(self) -> List[ShuttleOp]:
        return [op for op in self.operations if isinstance(op, ShuttleOp)]

    def moves(self) -> List[Move]:
        return [op.move for op in self.shuttle_ops()]

    def total_move_distance(self) -> float:
        """Sum of the rectangular travel distances of all moves (micrometres)."""
        return sum(move.rectangular_distance for move in self.moves())

    # ------------------------------------------------------------------
    # Derived circuits and counts
    # ------------------------------------------------------------------
    def additional_cz_count(self) -> int:
        """Number of native CZ gates contributed by the inserted SWAPs.

        Each SWAP decomposes into three CZ gates (Section 2.2); this is the
        quantity reported as ``ΔCZ`` in Table 1a.
        """
        return 3 * self.num_swaps

    def to_physical_circuit(self, *, decompose_swaps: bool = False) -> QuantumCircuit:
        """Rebuild the mapped circuit over *atom* indices.

        Circuit gates are re-indexed to the atoms that executed them, and the
        inserted SWAPs appear explicitly (optionally decomposed into the
        native CZ + H sequence).  Shuttling moves have no circuit
        representation and are omitted — they only matter for scheduling.
        """
        num_atoms = max(
            [self.circuit.num_qubits]
            + [max(op.atoms) + 1 for op in self.circuit_gate_ops() if op.atoms]
            + [max(op.atom_a, op.atom_b) + 1 for op in self.swap_ops()]
        )
        physical = QuantumCircuit(num_atoms, name=f"{self.circuit.name}_mapped")
        for op in self.operations:
            if isinstance(op, CircuitGateOp):
                mapping = dict(zip(op.gate.qubits, op.atoms))
                physical.append(op.gate.remapped(mapping))
            elif isinstance(op, SwapOp):
                physical.append(swap_gate(op.atom_a, op.atom_b))
        if decompose_swaps:
            physical = decompose_swaps_to_cz(physical)
        return physical

    def verify_complete(self) -> None:
        """Raise if not every circuit gate appears exactly once in the stream.

        Barriers carry no operation and are exempt.
        """
        expected = [index for index, gate in enumerate(self.circuit)
                    if gate.kind != GateKind.BARRIER]
        emitted = sorted(op.gate_index for op in self.circuit_gate_ops())
        if emitted != sorted(expected):
            missing = sorted(set(expected) - set(emitted))
            duplicated = sorted({i for i in emitted if emitted.count(i) > 1})
            raise AssertionError(
                f"mapped stream incomplete: missing gates {missing[:10]}, "
                f"duplicated gates {duplicated[:10]}")

    def op_stream_lines(self) -> List[str]:
        """Canonical text serialisation of the operation stream.

        One line per operation, covering every field that identifies it
        (gate kind/qubits/params, atoms, sites, move endpoints), so two
        results serialise identically iff their op streams are identical.
        Used by the differential harness and the golden digest tests.
        """
        lines: List[str] = []
        for op in self.operations:
            if isinstance(op, CircuitGateOp):
                gate = op.gate
                params = ",".join(repr(p) for p in gate.params)
                lines.append(
                    f"G {op.gate_index} {gate.name}/{gate.kind} q={gate.qubits} "
                    f"p=[{params}] a={op.atoms} s={op.sites}")
            elif isinstance(op, SwapOp):
                lines.append(
                    f"S q=({op.qubit_a},{op.qubit_b}) a=({op.atom_a},{op.atom_b}) "
                    f"s=({op.site_a},{op.site_b})")
            elif isinstance(op, ShuttleOp):
                move = op.move
                lines.append(
                    f"M a={move.atom} {move.source}->{move.destination} "
                    f"away={int(move.is_move_away)}")
            else:  # pragma: no cover - no other op kinds exist
                lines.append(repr(op))
        return lines

    def op_stream_digest(self) -> Dict[str, object]:
        """Compact digest of the op stream: SHA-256 plus headline counts.

        Committed under ``tests/golden/`` so any routing change that shifts
        the emitted stream fails loudly instead of silently.
        """
        payload = "\n".join(self.op_stream_lines()).encode()
        return {
            "sha256": hashlib.sha256(payload).hexdigest(),
            "num_operations": len(self.operations),
            "num_gates": len(self.circuit_gate_ops()),
            "num_swaps": self.num_swaps,
            "num_moves": self.num_moves,
        }

    def summary(self) -> Dict[str, float]:
        """Flat dictionary of the headline statistics (for reports)."""
        return {
            "circuit": self.circuit.name,
            "mode": self.mode,
            "num_gates": len(self.circuit),
            "num_swaps": self.num_swaps,
            "num_moves": self.num_moves,
            "additional_cz": self.additional_cz_count(),
            "gate_routed": self.num_gate_routed,
            "shuttle_routed": self.num_shuttle_routed,
            "trivially_executable": self.num_trivially_executable,
            "runtime_seconds": self.runtime_seconds,
        }
