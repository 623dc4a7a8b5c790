"""The DAG build against the plain wire walk of ``dag_reference``.

``CircuitDAG._build_edges`` lets a diagonal gate skip the diagonal gates of
each wire.  Every node must still get the predecessor and successor sets of
the plain walk, with and without commutation, on the golden circuits, the
perfbench compile circuits and Hypothesis random circuits over the whole
gate set.  A count pin keeps the qft build linear in its gate count.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dag_reference import reference_edges
from repro.circuit import CircuitDAG, QuantumCircuit, decompose_mcx_to_mcz
from repro.circuit import dag as dag_module
from repro.circuit.gate import DIAGONAL_SINGLE_QUBIT_NAMES, single_qubit_gate
from repro.circuit.library import get_benchmark
from repro.workloads import scaled_register_size

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "golden"))
from golden_cases import CASES  # noqa: E402

#: Device scale and reversible instances of the perfbench compile workloads.
PERFBENCH_SCALE = 0.3
PERFBENCH_SEEDS = (1, 101)
REVERSIBLE = ("bn", "call", "gray")
REVERSIBLE_INSTANCES = 3


def assert_reference_edges(circuit: QuantumCircuit) -> None:
    for use_commutation in (True, False):
        dag = CircuitDAG(circuit, use_commutation=use_commutation)
        predecessors, successors = reference_edges(circuit, use_commutation)
        assert [node.predecessors for node in dag.nodes] == predecessors
        assert [node.successors for node in dag.nodes] == successors


def golden_circuits():
    seen = {}
    for case in CASES:
        key = f"{case['circuit']}-{case['num_qubits']}"
        if key not in seen:
            seen[key] = decompose_mcx_to_mcz(get_benchmark(
                case["circuit"], num_qubits=case["num_qubits"],
                seed=case["seed"]))
    return seen


def perfbench_circuits():
    """The qft and seeded reversible circuits of the compile workloads."""
    size = scaled_register_size("qft", PERFBENCH_SCALE)
    circuits = {f"qft-{size}": get_benchmark("qft", num_qubits=size)}
    for seed in PERFBENCH_SEEDS:
        rng = random.Random(seed)
        for _ in range(REVERSIBLE_INSTANCES):
            circuit_seed = rng.randrange(1, 2 ** 31)
            for name in REVERSIBLE:
                circuit = get_benchmark(name, seed=circuit_seed)
                circuits[f"{name}@{circuit_seed}"] = circuit
                circuits[f"{name}@{circuit_seed}/mcz"] = decompose_mcx_to_mcz(circuit)
    return circuits


GOLDEN = golden_circuits()
PERFBENCH = perfbench_circuits()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_circuit_edges(name):
    assert_reference_edges(GOLDEN[name])


@pytest.mark.parametrize("name", sorted(PERFBENCH))
def test_perfbench_circuit_edges(name):
    assert_reference_edges(PERFBENCH[name])


NUM_QUBITS = 5
SINGLE_NAMES = ("h", "x", "y") + tuple(sorted(DIAGONAL_SINGLE_QUBIT_NAMES))
PARAMETRISED = {"rz", "p", "u1"}


@st.composite
def any_gate_circuit(draw):
    """Random circuit over every gate kind, on few qubits so wires are shared."""
    circuit = QuantumCircuit(NUM_QUBITS, name="random")
    qubit = st.integers(0, NUM_QUBITS - 1)
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(
            ("single", "cz", "cx", "cp", "swap", "barrier", "measure")))
        if kind == "single":
            name = draw(st.sampled_from(SINGLE_NAMES))
            params = (0.5,) if name in PARAMETRISED else ()
            circuit.append(single_qubit_gate(name, draw(qubit), *params))
            continue
        if kind == "measure":
            circuit.measure(draw(qubit))
            continue
        if kind == "barrier":
            circuit.barrier(draw(st.lists(qubit, min_size=1, max_size=NUM_QUBITS,
                                          unique=True)))
            continue
        width = 2 if kind in ("cp", "swap") else draw(st.integers(2, 4))
        qubits = draw(st.lists(qubit, min_size=width, max_size=width, unique=True))
        if kind == "cz":
            circuit.mcz(qubits)
        elif kind == "cx":
            circuit.mcx(qubits[:-1], qubits[-1])
        elif kind == "cp":
            circuit.cp(0.25, *qubits)
        else:
            circuit.swap(*qubits)
    return circuit


@settings(max_examples=300, deadline=None)
@given(any_gate_circuit())
def test_random_circuit_edges(circuit):
    assert_reference_edges(circuit)


def test_qft_build_calls_gates_commute_linearly(monkeypatch):
    """A diagonal run on a wire must not be walked again for every gate."""
    calls = 0
    gates_commute = dag_module.gates_commute

    def counting(first, second):
        nonlocal calls
        calls += 1
        return gates_commute(first, second)

    monkeypatch.setattr(dag_module, "gates_commute", counting)
    circuit = get_benchmark("qft", num_qubits=60)
    CircuitDAG(circuit)
    assert calls <= 2 * len(circuit)
