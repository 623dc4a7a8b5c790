"""Unit tests for the commutation-aware circuit DAG and its routing view."""

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
        assert dag.front_layer() == []
        assert [node.index for node in dag.drain_trivial()] == [0]
        assert [node.index for node in dag.front_layer()] == [1]

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
        assert [node.index for node in dag.drain_trivial()] == [0]
        assert [node.index for node in dag.front_layer()] == [1]

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
        assert dag.drain_trivial() == []


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


class TestDraining:
    def test_trivial_gates_are_drained(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).h(1).cz(0, 1).h(2)
        dag = CircuitDAG(circuit)
        drained = dag.drain_trivial()
        assert {node.index for node in drained} == {0, 1, 3}
        assert {node.index for node in dag.front_layer()} == {2}

    def test_draining_cascades(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).x(0).h(0)
        dag = CircuitDAG(circuit)
        drained = dag.drain_trivial()
        assert len(drained) == 3
        assert dag.is_finished()

    def test_drained_gates_preserve_order_per_qubit(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).x(0).z(0)
        dag = CircuitDAG(circuit)
        assert [node.index for node in dag.drain_trivial()] == [0, 1, 2]

    def test_drain_runs_pass_by_pass_in_index_order(self):
        # Gate 1 is released by gate 0 during the first pass, so it waits
        # for the second pass: the stream is [0, 2, 1], not index order.
        circuit = QuantumCircuit(2)
        circuit.h(0).x(0).h(1)
        dag = CircuitDAG(circuit)
        assert [node.index for node in dag.drain_trivial()] == [0, 2, 1]

    def test_nothing_to_drain_behind_an_entangling_gate(self):
        circuit = QuantumCircuit(2)
        circuit.cz(0, 1).h(0)
        dag = CircuitDAG(circuit)
        assert dag.drain_trivial() == []
        dag.execute(0)
        assert [node.index for node in dag.drain_trivial()] == [1]
        assert dag.is_finished()


class TestRoutingView:
    def test_front_layer_holds_only_entangling_gates(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cz(1, 2)
        dag = CircuitDAG(circuit)
        assert [n.index for n in dag.front_layer()] == [1]
        assert [n.index for n in dag.drain_trivial()] == [0]

    def test_layers_hold_only_entangling_gates_throughout(self, multiqubit_circuit):
        dag = CircuitDAG(multiqubit_circuit)
        while True:
            dag.drain_trivial()
            front = dag.front_layer()
            if not front:
                break
            assert all(node.gate.is_entangling for node in front)
            assert all(node.gate.is_entangling for node in dag.lookahead_layer())
            dag.execute(front[0].index)
        assert dag.is_finished()

    def test_lookahead_layer(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)           # 0
        circuit.cx(0, 1)       # 1 depends on 0
        circuit.cx(1, 2)       # 2 depends on 1
        lookahead = {node.index for node in CircuitDAG(circuit).lookahead_layer()}
        assert lookahead == {1}
        deep = CircuitDAG(circuit, lookahead_depth=3).lookahead_layer()
        assert {node.index for node in deep} == {1, 2}

    def test_lookahead_skips_single_qubit_gates_but_walks_through_them(self):
        circuit = QuantumCircuit(3)
        circuit.cz(0, 1)       # 0
        circuit.h(1)           # 1 depends on 0
        circuit.cz(1, 2)       # 2 depends on 1
        assert CircuitDAG(circuit).lookahead_layer() == []
        deep = CircuitDAG(circuit, lookahead_depth=2).lookahead_layer()
        assert [node.index for node in deep] == [2]

    def test_lookahead_depth_zero_is_empty(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cx(1, 2)
        dag = CircuitDAG(circuit, lookahead_depth=0)
        assert dag.lookahead_layer() == []
        assert len(dag.front_layer()) == 1

    def test_lookahead_depth_negative_rejected(self):
        with pytest.raises(ValueError):
            CircuitDAG(QuantumCircuit(1), lookahead_depth=-1)

    def test_execute_advances_the_front(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cx(1, 2)
        dag = CircuitDAG(circuit)
        front = dag.front_layer()
        assert [node.index for node in front] == [0]
        assert [node.index for node in dag.lookahead_layer()] == [1]
        dag.execute(front[0].index)
        assert [node.index for node in dag.front_layer()] == [1]
        assert dag.lookahead_layer() == []

    def test_layers_are_cached_until_an_execution(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cz(0, 1).cx(2, 1)
        dag = CircuitDAG(circuit)
        front, lookahead = dag.front_layer(), dag.lookahead_layer()
        assert front == [] and [node.index for node in lookahead] == [1]
        assert dag.front_layer() is front
        assert dag.lookahead_layer() is lookahead
        # Draining executes the h, which releases the first cz.
        dag.drain_trivial()
        assert [node.index for node in dag.front_layer()] == [1]
        assert [node.index for node in dag.lookahead_layer()] == [2]
        assert front == [] and [node.index for node in lookahead] == [1]

    def test_commutation_enlarges_front_layer(self, small_qft_circuit):
        fronts = []
        for use_commutation in (True, False):
            dag = CircuitDAG(small_qft_circuit, use_commutation=use_commutation)
            dag.drain_trivial()
            fronts.append(dag.front_layer())
        assert len(fronts[0]) >= len(fronts[1])

    def test_successor_predecessor_queries(self, small_qft_circuit):
        dag = CircuitDAG(small_qft_circuit)
        for node in dag.nodes:
            for succ in node.successors:
                assert node.index in dag.nodes[succ].predecessors
            for pred in node.predecessors:
                assert node.index in dag.nodes[pred].successors


class TestLargerCircuits:
    @pytest.mark.parametrize("name", ["small_qft_circuit", "multiqubit_circuit"])
    def test_drain_execute_cycle_covers_every_gate(self, name, request):
        circuit = request.getfixturevalue(name)
        dag = CircuitDAG(circuit)
        executed = []
        while True:
            executed += [node.index for node in dag.drain_trivial()]
            if dag.is_finished():
                break
            front = dag.front_layer()
            assert front, "front layer must never be empty before completion"
            dag.execute(front[0].index)
            executed.append(front[0].index)
        assert sorted(executed) == list(range(len(circuit)))
        assert sum(circuit[i].is_entangling for i in executed) == (
            circuit.num_entangling_gates())
