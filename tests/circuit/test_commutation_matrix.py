"""Matrix oracle for :func:`repro.circuit.commutation.gates_commute`.

Every gate kind the library emits is built as an explicit numpy unitary on
a five-qubit register, independently of the gate model: all named
single-qubit gates (diagonal and not, with fixed non-trivial angles),
``C^{m-1}Z`` and ``C^{m-1}X`` for m = 2..4 on every qubit subset (so shared
controls and shared targets all occur), and SWAP.  The rules must be
*sound*: whenever ``gates_commute`` says two gates commute, their matrices
must satisfy ``AB == BA``.  Completeness is not asserted — the rules are
conservative by design, and a missed commutation only shrinks the front
layer.  Barriers and measurements have no unitary; they must act as fences
against every gate that shares a qubit.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.circuit.commutation import gates_commute
from repro.circuit.gate import (
    DIAGONAL_SINGLE_QUBIT_NAMES,
    STANDARD_SINGLE_QUBIT_NAMES,
    barrier,
    controlled_x,
    controlled_z,
    measurement,
    single_qubit_gate,
    swap_gate,
)

from gate_matrices import local_matrix

NUM_QUBITS = 5

#: Angles of the parameterised gates: generic values, so no rotation
#: degenerates to the identity or to a Pauli.
ANGLES = (0.37, 1.23, -0.71)


def _params_for(name: str):
    if name in ("rx", "ry", "rz", "p", "u1"):
        return ANGLES[:1]
    if name == "u2":
        return ANGLES[:2]
    if name in ("u3", "u"):
        return ANGLES
    return ()


def _embed(local: np.ndarray, qubits) -> np.ndarray:
    """Lift ``local`` (local bit j acts on ``qubits[j]``) to the register.

    Basis index bit ``q`` is the value of qubit ``q``.
    """
    dim = 2 ** NUM_QUBITS
    mask = sum(1 << q for q in qubits)
    full = np.zeros((dim, dim), dtype=complex)
    for column in range(dim):
        local_in = sum(((column >> q) & 1) << j for j, q in enumerate(qubits))
        rest = column & ~mask
        for local_out in range(local.shape[0]):
            amplitude = local[local_out, local_in]
            if amplitude:
                row = rest | sum(((local_out >> j) & 1) << q
                                 for j, q in enumerate(qubits))
                full[row, column] += amplitude
    return full


def _unitary(gate) -> np.ndarray:
    return _embed(local_matrix(gate), gate.qubits)


def _unitary_gates():
    gates = []
    for name in sorted(STANDARD_SINGLE_QUBIT_NAMES):
        for qubit in range(NUM_QUBITS):
            gates.append(single_qubit_gate(name, qubit, *_params_for(name)))
    qubits = range(NUM_QUBITS)
    for width in (2, 3, 4):
        for support in combinations(qubits, width):
            gates.append(controlled_z(support))
            for target in support:
                controls = [q for q in support if q != target]
                gates.append(controlled_x(controls, target))
    for pair in combinations(qubits, 2):
        gates.append(swap_gate(*pair))
    return gates


GATES = _unitary_gates()


@pytest.fixture(scope="module")
def unitaries():
    return [_unitary(gate) for gate in GATES]


class TestMatrixConstruction:
    """The oracle's own matrices are unitary and agree with the gate model's
    diagonal classification, so a soundness pass is not vacuous."""

    def test_every_matrix_is_unitary(self, unitaries):
        identity = np.eye(2 ** NUM_QUBITS)
        for gate, matrix in zip(GATES, unitaries):
            assert np.allclose(matrix @ matrix.conj().T, identity), gate

    def test_diagonal_names_are_diagonal(self, unitaries):
        for gate, matrix in zip(GATES, unitaries):
            diagonal = np.allclose(matrix, np.diag(np.diag(matrix)))
            if gate.kind == "single":
                assert diagonal == (gate.name in DIAGONAL_SINGLE_QUBIT_NAMES), \
                    gate
            elif gate.kind == "cz":
                assert diagonal, gate

    def test_toffoli_maps_basis_states(self):
        matrix = _unitary(controlled_x((0, 1), 2))
        assert matrix[0b111, 0b011] == 1
        assert matrix[0b011, 0b111] == 1
        assert matrix[0b010, 0b010] == 1


class TestGatesCommuteSoundness:
    def test_commuting_verdicts_hold_for_matrices(self, unitaries):
        checked_overlapping = 0
        missed = 0
        for i, (first, a) in enumerate(zip(GATES, unitaries)):
            for second, b in zip(GATES[i:], unitaries[i:]):
                commutes = np.allclose(a @ b, b @ a)
                verdict = gates_commute(first, second)
                assert verdict == gates_commute(second, first), \
                    (first, second)
                if verdict:
                    assert commutes, (first, second)
                    if first.qubit_set() & second.qubit_set():
                        checked_overlapping += 1
                elif commutes:
                    missed += 1
        # Every rule that lets overlapping gates commute must be exercised.
        assert checked_overlapping > 1000
        # The rules are conservative; some commuting pairs go undetected
        # (e.g. a SWAP with itself), which is allowed.
        assert missed > 0

    @pytest.mark.parametrize("first, second", [
        (controlled_z((0, 1)), single_qubit_gate("rz", 1, 0.37)),
        (controlled_z((0, 1, 2)), controlled_z((1, 2, 3))),
        (controlled_x((0,), 1), single_qubit_gate("t", 0)),
        (controlled_x((0, 1), 2), controlled_z((0, 1, 3))),
        (controlled_x((0, 1), 2), controlled_x((1, 3), 4)),
        (controlled_x((0, 1), 4), controlled_x((1, 2, 3), 4)),
        (controlled_x((0,), 1), single_qubit_gate("x", 1)),
    ], ids=["cz-rz", "ccz-ccz", "cx-control-diag", "ccx-controls-ccz",
            "shared-controls", "shared-target", "x-on-target"])
    def test_each_rule_fires_on_overlapping_gates(self, first, second):
        assert first.qubit_set() & second.qubit_set()
        assert gates_commute(first, second)
        a, b = _unitary(first), _unitary(second)
        assert np.allclose(a @ b, b @ a)

    @pytest.mark.parametrize("first, second", [
        (controlled_x((0,), 1), single_qubit_gate("z", 1)),
        (controlled_x((0,), 1), controlled_x((1,), 2)),
        (controlled_x((0, 1), 2), controlled_x((2, 3), 1)),
        (single_qubit_gate("h", 0), single_qubit_gate("z", 0)),
    ], ids=["cx-target-z", "chained-cx", "crossed-targets", "h-z"])
    def test_non_commuting_pairs_are_rejected(self, first, second):
        a, b = _unitary(first), _unitary(second)
        assert not np.allclose(a @ b, b @ a)
        assert not gates_commute(first, second)


class TestFences:
    FENCES = ([measurement(q) for q in range(NUM_QUBITS)]
              + [barrier(support) for width in (1, 2, 5)
                 for support in combinations(range(NUM_QUBITS), width)])

    def test_fences_block_every_overlapping_gate(self):
        for fence in self.FENCES:
            for gate in GATES + self.FENCES:
                overlapping = bool(fence.qubit_set() & gate.qubit_set())
                assert gates_commute(fence, gate) is not overlapping, \
                    (fence, gate)
                assert gates_commute(gate, fence) is not overlapping, \
                    (gate, fence)
