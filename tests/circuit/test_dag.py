"""Unit tests for the commutation-aware circuit DAG."""

import pytest

from repro.circuit import CircuitDAG, QuantumCircuit


def build_layered_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(4, name="layered")
    circuit.cz(0, 1)       # 0
    circuit.cz(2, 3)       # 1 (parallel with 0)
    circuit.cx(1, 2)       # 2 (depends on 0 and 1)
    circuit.cz(0, 3)       # 3 (depends on ... commutes with 0 and 1? shares q0 with cz(0,1): both diagonal -> commute; shares q3 with cz(2,3): commute; shares q3... but cx(1,2) disjoint)
    return circuit


class TestConstruction:
    def test_front_layer_initially_contains_independent_gates(self):
        circuit = QuantumCircuit(4)
        circuit.cz(0, 1)
        circuit.cz(2, 3)
        dag = CircuitDAG(circuit)
        assert {node.index for node in dag.front_layer()} == {0, 1}

    def test_dependent_gate_not_in_front(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cz(0, 1)
        dag = CircuitDAG(circuit)
        front = {node.index for node in dag.front_layer()}
        assert 0 in front
        assert 1 not in front

    def test_commuting_cz_chain_is_fully_in_front(self):
        # CZ gates are mutually diagonal: the whole chain is available at once.
        circuit = QuantumCircuit(4)
        circuit.cz(0, 1)
        circuit.cz(1, 2)
        circuit.cz(2, 3)
        dag = CircuitDAG(circuit)
        assert {node.index for node in dag.front_layer()} == {0, 1, 2}

    def test_commutation_disabled_restores_wire_order(self):
        circuit = QuantumCircuit(4)
        circuit.cz(0, 1)
        circuit.cz(1, 2)
        dag = CircuitDAG(circuit, use_commutation=False)
        assert {node.index for node in dag.front_layer()} == {0}

    def test_non_commuting_gates_are_ordered(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cz(0, 1)
        circuit.h(0)
        dag = CircuitDAG(circuit)
        assert {node.index for node in dag.front_layer()} == {0}

    def test_transitive_ordering_through_commuting_gates(self):
        # h(0); cz(0,1); h(1): the final h(1) must wait for the cz even though
        # it commutes with nothing in between on its own wire.
        circuit = QuantumCircuit(2)
        circuit.cz(0, 1)
        circuit.h(1)
        circuit.cz(0, 1)
        dag = CircuitDAG(circuit)
        node = dag.nodes[2]
        assert 1 in node.predecessors

    @pytest.mark.xfail(strict=True, reason=(
        "the wire walk stops at the nearest non-commuting gate, and cz(0,2) "
        "commutes with cx(0,1), so no path orders h(0) after cx(0,1)"))
    def test_gate_behind_a_commuting_blocker_waits(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)   # 0
        circuit.cz(0, 2)   # 1 commutes with 0 (both diagonal on qubit 0)
        circuit.h(0)       # 2 commutes with neither
        dag = CircuitDAG(circuit, use_commutation=True)
        assert {node.index for node in dag.front_layer()} == {0, 1}
        dag.execute(1)
        assert 2 not in {node.index for node in dag.front_layer()}


class TestExecution:
    def test_execute_releases_successors(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cz(0, 1)
        dag = CircuitDAG(circuit)
        dag.execute(0)
        assert {node.index for node in dag.front_layer()} == {1}

    def test_execute_requires_front_membership(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cz(0, 1)
        dag = CircuitDAG(circuit)
        with pytest.raises(ValueError):
            dag.execute(1)

    def test_double_execution_rejected(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        dag = CircuitDAG(circuit)
        dag.execute(0)
        with pytest.raises(ValueError):
            dag.execute(0)

    def test_is_finished(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cz(0, 1)
        dag = CircuitDAG(circuit)
        assert not dag.is_finished()
        dag.execute(0)
        assert not dag.is_finished()
        dag.execute(1)
        assert dag.is_finished()


class TestLayers:
    def test_lookahead_layer(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)           # 0
        circuit.cx(0, 1)       # 1 depends on 0
        circuit.cx(1, 2)       # 2 depends on 1
        dag = CircuitDAG(circuit)
        lookahead = {node.index for node in dag.lookahead_layer(1)}
        assert lookahead == {1}
        deep = {node.index for node in dag.lookahead_layer(3)}
        assert deep == {1, 2}

    def test_lookahead_zero_depth_is_empty(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cz(0, 1)
        dag = CircuitDAG(circuit)
        assert dag.lookahead_layer(0) == []

    def test_entangling_front_filters_single_qubit_gates(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cz(1, 2)
        dag = CircuitDAG(circuit)
        assert [n.index for n in dag.entangling_front()] == [1]
        assert [n.index for n in dag.executable_trivially()] == [0]

    def test_successor_predecessor_queries(self, small_qft_circuit):
        dag = CircuitDAG(small_qft_circuit)
        for node in dag.nodes:
            for succ in node.successors:
                assert node.index in dag.nodes[succ].predecessors
            for pred in node.predecessors:
                assert node.index in dag.nodes[pred].successors


class TestLargerCircuits:
    def test_qft_dag_is_consistent(self, small_qft_circuit):
        dag = CircuitDAG(small_qft_circuit)
        executed = 0
        while not dag.is_finished():
            front = dag.front_layer()
            assert front, "front layer must never be empty before completion"
            dag.execute(front[0].index)
            executed += 1
        assert executed == len(small_qft_circuit)
