"""Explicit numpy matrices of every unitary gate kind the library emits.

Built from textbook definitions, independently of the gate model, so the
tests that use them are oracles: the commutation-rule soundness check
(``tests/circuit/test_commutation_matrix.py``) embeds them in a small
register, and the statevector oracle
(``tests/differential/test_statevector_oracle.py``) applies them to a
state tensor.  :func:`local_matrix` returns a gate's matrix on its own
qubits: local basis bit ``j`` is the value of ``gate.qubits[j]``.
"""

from __future__ import annotations

import numpy as np


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    cos, sin = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[cos, -np.exp(1j * lam) * sin],
                     [np.exp(1j * phi) * sin, np.exp(1j * (phi + lam)) * cos]])


def single_qubit_matrix(name: str, params) -> np.ndarray:
    sx = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2
    fixed = {
        "id": np.eye(2),
        "x": np.array([[0, 1], [1, 0]]),
        "y": np.array([[0, -1j], [1j, 0]]),
        "z": np.diag([1, -1]),
        "h": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
        "s": np.diag([1, 1j]),
        "sdg": np.diag([1, -1j]),
        "t": np.diag([1, np.exp(1j * np.pi / 4)]),
        "tdg": np.diag([1, np.exp(-1j * np.pi / 4)]),
        "sx": sx,
        "sxdg": sx.conj().T,
    }
    if name in fixed:
        return fixed[name]
    if name == "rx":
        (theta,) = params
        return np.array([[np.cos(theta / 2), -1j * np.sin(theta / 2)],
                         [-1j * np.sin(theta / 2), np.cos(theta / 2)]])
    if name == "ry":
        (theta,) = params
        return np.array([[np.cos(theta / 2), -np.sin(theta / 2)],
                         [np.sin(theta / 2), np.cos(theta / 2)]])
    if name == "rz":
        (theta,) = params
        return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    if name in ("p", "u1"):
        (lam,) = params
        return np.diag([1, np.exp(1j * lam)])
    if name == "u2":
        phi, lam = params
        return _u3(np.pi / 2, phi, lam)
    if name in ("u3", "u"):
        return _u3(*params)
    raise KeyError(name)


def controlled_matrix(width: int, flip_target: bool) -> np.ndarray:
    """``C^{width-1}Z`` or ``C^{width-1}X``; the target is the last bit."""
    dim = 2 ** width
    all_ones = dim - 1
    if not flip_target:
        diagonal = np.ones(dim, dtype=complex)
        diagonal[all_ones] = -1
        return np.diag(diagonal)
    matrix = np.eye(dim, dtype=complex)
    target_bit = 1 << (width - 1)
    flipped = all_ones ^ target_bit
    matrix[[all_ones, flipped]] = matrix[[flipped, all_ones]]
    return matrix


def local_matrix(gate) -> np.ndarray:
    """The unitary of ``gate`` on its own qubits (bit ``j`` = ``qubits[j]``)."""
    if gate.kind == "single":
        return single_qubit_matrix(gate.name, gate.params)
    if gate.kind == "cz":
        return controlled_matrix(len(gate.qubits), False)
    if gate.kind == "cx":
        return controlled_matrix(len(gate.qubits), True)
    if gate.kind == "swap":
        return np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    raise ValueError(gate.kind)
