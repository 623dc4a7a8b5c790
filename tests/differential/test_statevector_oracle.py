"""Statevector oracle: the emitted op stream must implement the circuit.

``repro.mapping.replay`` checks that a stream is legal on the device, not
that it computes what the circuit computes.  This oracle checks the
semantics directly on registers of at most 12 qubits: a seeded random state
evolves once through the input circuit's gates in circuit order and once
through the stream's :class:`~repro.mapping.result.CircuitGateOp` gates in
stream order (their gates keep circuit qubit indices, so SWAPs and moves
only relabel atoms), and the two results must be the same state.  The gate
matrices are the textbook ones of :mod:`gate_matrices`, independent of the
gate model.

Without commutation the DAG orders every pair of gates that share a qubit,
so every case must pass, in every routing mode, serial and sharded (of
these circuits only bn-10 is large enough to split; it routes as 4 slices,
the others fall back to the serial path).  With commutation on (the
default config), the DAG leaves some non-commuting pairs unordered (the
strict xfail in ``tests/circuit/test_dag.py``), and the router emits them
out of order on qft, qpe, bn and gray: overlaps of 0.1-0.8 instead of 1.
Those cases are strict xfails: once the DAG is fixed they pass, which fails
the run until their markers go.  graph is all commuting CZs after its
Hadamards, so it passes either way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.gate import controlled_x, controlled_z
from repro.circuit.library import get_benchmark
from repro.mapping import MapperConfig
from repro.mapping.result import CircuitGateOp
from repro.pipeline import compile_circuit
from repro.service import ARCHITECTURE_CACHE, ArchitectureSpec

from gate_matrices import local_matrix

#: (benchmark, qubits, seed); bn's seed is one whose network holds
#: non-commuting pairs that the DAG leaves unordered.
CASES = (("qft", 8, 2024), ("qpe", 8, 2024), ("bn", 10, 3),
         ("graph", 10, 2024), ("gray", 9, 2024))
HARDWARE = ("gate", "mixed", "shuttling")
MODES = ("hybrid", "gate_only", "shuttling_only")
ORDER_DEFECT = {"qft", "qpe", "bn", "gray"}


def _apply(state: np.ndarray, gate) -> np.ndarray:
    """Apply ``gate`` to a state tensor whose axis ``q`` is qubit ``q``."""
    width = len(gate.qubits)
    # Local basis bit j is qubits[j], so the reshaped matrix's axes run
    # from the last qubit to the first.
    axes = list(reversed(gate.qubits))
    matrix = local_matrix(gate).reshape((2,) * (2 * width))
    state = np.tensordot(matrix, state, axes=(list(range(width, 2 * width)),
                                              axes))
    return np.moveaxis(state, list(range(width)), axes)


def _evolve(gates, num_qubits: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    state = rng.normal(size=2 ** num_qubits) + 1j * rng.normal(
        size=2 ** num_qubits)
    state = (state / np.linalg.norm(state)).reshape((2,) * num_qubits)
    for gate in gates:
        state = _apply(state, gate)
    return state


def _overlap(name: str, num_qubits: int, seed: int, hardware: str,
             config: MapperConfig) -> float:
    circuit = get_benchmark(name, num_qubits=num_qubits, seed=seed)
    architecture, connectivity = ARCHITECTURE_CACHE.get(
        ArchitectureSpec.scaled(hardware, 0.1))
    result = compile_circuit(circuit, architecture, config,
                             connectivity=connectivity).require_result()
    emitted = [op for op in result.operations if isinstance(op, CircuitGateOp)]
    assert sorted(op.gate_index for op in emitted) == \
        list(range(len(result.circuit.gates)))
    expected = _evolve(circuit.gates, num_qubits)
    actual = _evolve([op.gate for op in emitted], num_qubits)
    return abs(np.vdot(expected, actual))


def _cases(marks_for=lambda name: ()):
    for name, num_qubits, seed in CASES:
        for hardware in HARDWARE:
            yield pytest.param(name, num_qubits, seed, hardware,
                               marks=marks_for(name),
                               id=f"{name}-{num_qubits}-{hardware}")


def _order_defect(name: str):
    if name not in ORDER_DEFECT:
        return ()
    return pytest.mark.xfail(
        strict=True, reason="the commutation DAG leaves non-commuting pairs "
                            "unordered (ROADMAP item 1)")


def test_gates_act_on_their_named_qubits():
    state = np.zeros((2,) * 4, dtype=complex)
    state[1, 0, 1, 0] = 1.0  # qubits 0 and 2 set
    flipped = _apply(state, controlled_x((0, 2), 1))
    assert flipped[1, 1, 1, 0] == 1.0
    assert np.array_equal(_apply(state, controlled_x((0, 3), 1)), state)
    assert np.array_equal(_apply(state, controlled_z((2, 0))), -state)
    assert np.array_equal(_apply(state, controlled_z((1, 2))), state)


def test_oracle_detects_a_reordered_stream():
    """Swapping two non-commuting gates must drop the overlap below 1."""
    circuit = get_benchmark("qft", num_qubits=4)
    gates = list(circuit.gates)
    first = next(index for index, gate in enumerate(gates)
                 if gate.kind == "single" and gate.name == "h")
    second = next(index for index, gate in enumerate(gates)
                  if index > first and gate.kind == "cz"
                  and set(gate.qubits) & set(gates[first].qubits))
    gates[first], gates[second] = gates[second], gates[first]
    overlap = abs(np.vdot(_evolve(circuit.gates, 4), _evolve(gates, 4)))
    assert overlap < 0.99


@pytest.mark.parametrize("shard_routing", (False, True),
                         ids=("serial", "sharded"))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name, num_qubits, seed, hardware", _cases())
def test_stream_without_commutation_implements_the_circuit(
        name, num_qubits, seed, hardware, mode, shard_routing):
    config = MapperConfig.for_mode(mode, use_commutation=False,
                                   shard_routing=shard_routing)
    overlap = _overlap(name, num_qubits, seed, hardware, config)
    assert overlap == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name, num_qubits, seed, hardware",
                         _cases(_order_defect))
def test_stream_with_commutation_implements_the_circuit(
        name, num_qubits, seed, hardware):
    overlap = _overlap(name, num_qubits, seed, hardware, MapperConfig())
    assert overlap == pytest.approx(1.0, abs=1e-9)
