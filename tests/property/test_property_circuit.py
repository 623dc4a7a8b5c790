"""Property-based tests for the circuit substrate (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.circuit import CircuitDAG, QuantumCircuit, decompose_to_native
from repro.circuit.commutation import gates_commute
from repro.circuit.gate import GateKind, controlled_x, controlled_z, single_qubit_gate
from repro.circuit.qasm import dumps, loads


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
NUM_QUBITS = 8


@st.composite
def random_gate(draw, num_qubits=NUM_QUBITS):
    kind = draw(st.sampled_from(["single", "cz", "cx", "swap"]))
    if kind == "single":
        name = draw(st.sampled_from(["h", "x", "z", "s", "t", "rz"]))
        qubit = draw(st.integers(0, num_qubits - 1))
        if name == "rz":
            return single_qubit_gate("rz", qubit, draw(st.floats(-3.14, 3.14,
                                                                 allow_nan=False)))
        return single_qubit_gate(name, qubit)
    width = draw(st.integers(2, 4))
    qubits = draw(st.lists(st.integers(0, num_qubits - 1), min_size=width,
                           max_size=width, unique=True))
    if kind == "cz":
        return controlled_z(qubits)
    if kind == "cx":
        return controlled_x(qubits[:-1], qubits[-1])
    from repro.circuit.gate import swap_gate
    return swap_gate(qubits[0], qubits[1])


@st.composite
def random_circuit(draw, max_gates=30):
    circuit = QuantumCircuit(NUM_QUBITS, name="random")
    for gate in draw(st.lists(random_gate(), min_size=1, max_size=max_gates)):
        circuit.append(gate)
    return circuit


# ----------------------------------------------------------------------
# Circuit invariants
# ----------------------------------------------------------------------
class TestCircuitProperties:
    @given(random_circuit())
    @settings(max_examples=50, deadline=None)
    def test_depth_bounds(self, circuit):
        """Depth is at least entangling depth and at most the gate count."""
        assert circuit.entangling_depth() <= circuit.depth() <= len(circuit)

    @given(random_circuit())
    @settings(max_examples=50, deadline=None)
    def test_arity_histogram_counts_every_entangling_gate(self, circuit):
        assert sum(circuit.count_by_arity().values()) == circuit.num_entangling_gates()

    @given(random_circuit())
    @settings(max_examples=50, deadline=None)
    def test_native_decomposition_preserves_entangling_structure(self, circuit):
        """Decomposition keeps one entangling pulse per CX/CZ and 3 per SWAP."""
        native = decompose_to_native(circuit)
        swaps = sum(1 for g in circuit if g.kind == GateKind.SWAP)
        others = circuit.num_entangling_gates() - swaps
        assert native.num_entangling_gates() == others + 3 * swaps
        assert all(g.kind != GateKind.CONTROLLED_X for g in native)
        assert all(g.kind != GateKind.SWAP for g in native)

    @given(random_circuit())
    @settings(max_examples=30, deadline=None)
    def test_qasm_round_trip_preserves_structure(self, circuit):
        reparsed = loads(dumps(circuit))
        assert len(reparsed) == len(circuit)
        assert [g.qubits for g in reparsed] == [g.qubits for g in circuit]
        assert [g.kind for g in reparsed] == [g.kind for g in circuit]


class TestDagProperties:
    @given(random_circuit())
    @settings(max_examples=40, deadline=None)
    def test_greedy_execution_covers_every_gate_exactly_once(self, circuit):
        dag = CircuitDAG(circuit)
        executed = []
        while True:
            executed += [node.index for node in dag.drain_trivial()]
            if dag.is_finished():
                break
            front = dag.front_layer()
            assert front
            node = front[0]
            dag.execute(node.index)
            executed.append(node.index)
        assert sorted(executed) == list(range(len(circuit)))

    @given(random_circuit())
    @settings(max_examples=40, deadline=None)
    def test_front_layer_gates_are_mutually_independent(self, circuit):
        """No two front-layer gates may be ordered by a dependency edge."""
        dag = CircuitDAG(circuit)
        while True:
            dag.drain_trivial()
            front = dag.front_layer()
            if not front:
                break
            indices = {node.index for node in front}
            for node in front:
                assert not (node.predecessors & indices)
            dag.execute(front[0].index)
        assert dag.is_finished()

    @given(random_circuit())
    @settings(max_examples=40, deadline=None)
    def test_edges_only_connect_non_commuting_overlapping_gates(self, circuit):
        dag = CircuitDAG(circuit)
        for node in dag.nodes:
            for predecessor in node.predecessors:
                other = dag.nodes[predecessor]
                assert other.gate.overlaps(node.gate)
                assert not gates_commute(other.gate, node.gate)

    @given(random_circuit())
    @settings(max_examples=40, deadline=None)
    def test_dependencies_point_backwards(self, circuit):
        dag = CircuitDAG(circuit)
        for node in dag.nodes:
            assert all(p < node.index for p in node.predecessors)
            assert all(s > node.index for s in node.successors)


class TestCommutationProperties:
    @given(random_gate(), random_gate())
    @settings(max_examples=200, deadline=None)
    def test_commutation_is_symmetric(self, first, second):
        assert gates_commute(first, second) == gates_commute(second, first)

    @given(random_gate())
    @settings(max_examples=50, deadline=None)
    def test_disjoint_gates_always_commute(self, gate):
        other_qubits = [q + NUM_QUBITS for q in range(2)]
        other = controlled_z(other_qubits)
        assert gates_commute(gate, other)
