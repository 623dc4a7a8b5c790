"""Property suite for the circuit partitioner (``repro.mapping.partition``).

The sharding contract rests on three partition invariants:

1. the slices are a disjoint, exhaustive, in-order cover of the gate list
   (union == full circuit),
2. per-qubit gate order is preserved across slices (contiguity makes this
   structural, but the suite asserts it directly on the rebuilt gate list),
3. no cut ever crosses more qubits than the configured hard bound.

The suite checks them across seeded random circuits and, end-to-end, across
every topology family (``TOPOLOGY_KINDS``) by routing a
sharded map on one architecture per family and replaying the stream.
"""

from __future__ import annotations

import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.library.random_circuits import (
    local_window_circuit,
    qaoa_maxcut_circuit,
    random_layered_circuit,
)
from repro.hardware import TOPOLOGY_KINDS
from repro.hardware.presets import mixed, zoned
from repro.mapping import (
    HybridMapper,
    MapperConfig,
    crossing_counts,
    partition_circuit,
    partition_circuit_tree,
    slice_subcircuit,
    validate_stream,
)

WORKLOADS = {
    "layered": lambda seed: random_layered_circuit(16, 10, seed=seed),
    "layered_mq": lambda seed: random_layered_circuit(
        14, 8, multi_qubit_fraction=0.2, seed=seed),
    "qaoa": lambda seed: qaoa_maxcut_circuit(16, edge_probability=0.3,
                                             seed=seed),
    "local": lambda seed: local_window_circuit(18, 120, window=4, seed=seed),
}
SEEDS = (7, 1234, 98765)


def _brute_force_crossing(circuit: QuantumCircuit, position: int) -> int:
    before = set()
    for gate in circuit.gates[:position]:
        before.update(gate.qubits)
    after = set()
    for gate in circuit.gates[position:]:
        after.update(gate.qubits)
    return len(before & after)


class TestCrossingCounts:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_matches_brute_force(self, workload):
        circuit = WORKLOADS[workload](7)
        counts = crossing_counts(circuit)
        assert len(counts) == len(circuit) + 1
        for position in range(len(circuit) + 1):
            assert counts[position] == _brute_force_crossing(circuit, position)

    def test_empty_boundaries_cross_nothing(self):
        circuit = WORKLOADS["layered"](7)
        counts = crossing_counts(circuit)
        assert counts[0] == 0
        assert counts[len(circuit)] == 0


class TestPartitionInvariants:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("min_slice", (8, 24))
    def test_slices_cover_circuit_exactly(self, workload, seed, min_slice):
        circuit = WORKLOADS[workload](seed)
        plan = partition_circuit(circuit, min_slice=min_slice)
        assert plan.slices[0].start == 0
        assert plan.slices[-1].stop == len(circuit)
        for previous, current in zip(plan.slices, plan.slices[1:]):
            assert previous.stop == current.start
        covered = [index for piece in plan.slices
                   for index in piece.gate_indices()]
        assert covered == list(range(len(circuit)))

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_per_qubit_gate_order_preserved(self, workload, seed):
        circuit = WORKLOADS[workload](seed)
        plan = partition_circuit(circuit, min_slice=8)
        rebuilt = []
        for piece in plan.slices:
            rebuilt.extend(slice_subcircuit(circuit, piece).gates)
        assert rebuilt == list(circuit.gates)
        per_qubit_original = {}
        per_qubit_rebuilt = {}
        for gate in circuit.gates:
            for qubit in gate.qubits:
                per_qubit_original.setdefault(qubit, []).append(gate)
        for gate in rebuilt:
            for qubit in gate.qubits:
                per_qubit_rebuilt.setdefault(qubit, []).append(gate)
        assert per_qubit_rebuilt == per_qubit_original

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("bound", (4, 8))
    def test_cut_qubits_never_exceed_bound(self, workload, seed, bound):
        circuit = WORKLOADS[workload](seed)
        plan = partition_circuit(circuit, min_slice=8,
                                 max_cut_qubits=bound)
        counts = crossing_counts(circuit)
        for piece in plan.slices[1:]:
            assert len(piece.cut_qubits) <= bound
            assert counts[piece.start] == len(piece.cut_qubits)
        assert plan.max_cut_qubits() <= bound

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_cut_qubit_sets_are_exact(self, workload):
        circuit = WORKLOADS[workload](7)
        plan = partition_circuit(circuit, min_slice=8)
        for piece in plan.slices[1:]:
            before = set()
            for gate in circuit.gates[:piece.start]:
                before.update(gate.qubits)
            after = set()
            for gate in circuit.gates[piece.start:]:
                after.update(gate.qubits)
            assert set(piece.cut_qubits) == before & after

    @pytest.mark.parametrize("min_slice", (8, 16))
    def test_multi_slice_plans_respect_min_slice(self, min_slice):
        circuit = WORKLOADS["local"](7)
        plan = partition_circuit(circuit, min_slice=min_slice)
        assert plan.num_slices >= 2
        for piece in plan.slices:
            assert piece.num_gates >= min_slice

    def test_soft_max_respected_without_cut_bound(self):
        circuit = WORKLOADS["local"](7)
        plan = partition_circuit(circuit, min_slice=8, max_slice=16)
        assert plan.num_slices >= 2
        # Without a cut bound every window has an admissible cut, so the
        # soft ceiling is never exceeded.
        for piece in plan.slices:
            assert piece.num_gates <= 16 + 8  # last slice may absorb a tail

    def test_small_circuit_yields_single_slice(self):
        circuit = random_layered_circuit(8, 2, seed=3)
        plan = partition_circuit(circuit, min_slice=len(circuit))
        assert plan.num_slices == 1
        assert plan.slices[0].cut_qubits == ()
        assert plan.max_cut_qubits() == 0

    def test_unsatisfiable_cut_bound_extends_slices(self):
        # Fully dense coupling: every interior cut crosses ~all qubits, so a
        # bound of zero admits no cut and the whole circuit stays one slice.
        circuit = qaoa_maxcut_circuit(12, edge_probability=0.9, seed=7)
        plan = partition_circuit(circuit, min_slice=4, max_cut_qubits=0)
        assert plan.num_slices == 1

    def test_invalid_parameters_rejected(self):
        circuit = WORKLOADS["layered"](7)
        with pytest.raises(ValueError):
            partition_circuit(circuit, min_slice=0)
        with pytest.raises(ValueError):
            partition_circuit(circuit, min_slice=8, max_slice=4)


class TestHierarchicalPartitionInvariants:
    """Property suite for the recursive min-cut tree partitioner.

    The streaming stitcher consumes the tree's leaves left to right, so the
    hierarchical plan must satisfy every flat-plan invariant *plus* the
    tree-shape ones: children partition their parent exactly, the cut bound
    holds at every level (not just at the leaf boundaries), and the leaf
    order is deterministic.
    """

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("min_slice", (8, 24))
    def test_leaves_cover_circuit_exactly(self, workload, seed, min_slice):
        circuit = WORKLOADS[workload](seed)
        plan = partition_circuit_tree(circuit, min_slice=min_slice)
        assert plan.tree is not None
        leaves = list(plan.tree.leaves())
        # Leaves left to right are exactly the plan's slices.
        assert [(leaf.start, leaf.stop) for leaf in leaves] \
            == [(piece.start, piece.stop) for piece in plan.slices]
        covered = [index for piece in plan.slices
                   for index in piece.gate_indices()]
        assert covered == list(range(len(circuit)))

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_per_qubit_gate_order_preserved(self, workload, seed):
        circuit = WORKLOADS[workload](seed)
        plan = partition_circuit_tree(circuit, min_slice=8)
        rebuilt = []
        for piece in plan.slices:
            rebuilt.extend(slice_subcircuit(circuit, piece).gates)
        assert rebuilt == list(circuit.gates)
        per_qubit_original = {}
        per_qubit_rebuilt = {}
        for gate in circuit.gates:
            for qubit in gate.qubits:
                per_qubit_original.setdefault(qubit, []).append(gate)
        for gate in rebuilt:
            for qubit in gate.qubits:
                per_qubit_rebuilt.setdefault(qubit, []).append(gate)
        assert per_qubit_rebuilt == per_qubit_original

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("bound", (4, 8))
    def test_cut_bound_holds_at_every_tree_level(self, workload, seed, bound):
        circuit = WORKLOADS[workload](seed)
        plan = partition_circuit_tree(circuit, min_slice=8,
                                      max_cut_qubits=bound)
        counts = crossing_counts(circuit)
        assert plan.tree is not None
        for node in plan.tree.internal_nodes():
            assert node.cut is not None
            assert node.cut_count == counts[node.cut]
            assert node.cut_count <= bound
        for piece in plan.slices[1:]:
            assert len(piece.cut_qubits) <= bound
            assert counts[piece.start] == len(piece.cut_qubits)
        assert plan.max_cut_qubits() <= bound

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tree_shape_invariants(self, workload, seed):
        """Children partition their parent; only oversized segments split;
        every leaf of a multi-leaf plan keeps ``min_slice`` gates (tail
        absorption included); reported depth is the root height."""
        circuit = WORKLOADS[workload](seed)
        min_slice, max_slice = 8, 32
        plan = partition_circuit_tree(circuit, min_slice=min_slice,
                                      max_slice=max_slice)
        tree = plan.tree
        assert tree is not None
        assert tree.start == 0 and tree.stop == len(circuit)
        for node in tree.internal_nodes():
            left, right = node.children
            assert (left.start, left.stop) == (node.start, node.cut)
            assert (right.start, right.stop) == (node.cut, node.stop)
            # Only segments above the soft ceiling are ever split, and both
            # halves keep the minimum slice size.
            assert node.num_gates > max_slice
            assert left.num_gates >= min_slice
            assert right.num_gates >= min_slice
            assert node.height == 1 + max(left.height, right.height)
        if plan.num_slices >= 2:
            for piece in plan.slices:
                assert piece.num_gates >= min_slice
        assert plan.tree_depth == tree.height
        if plan.num_slices >= 2:
            assert plan.tree_depth >= 2

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_leaf_order_deterministic(self, workload, seed):
        circuit = WORKLOADS[workload](seed)
        first = partition_circuit_tree(circuit, min_slice=8,
                                       max_cut_qubits=8)
        second = partition_circuit_tree(circuit, min_slice=8,
                                        max_cut_qubits=8)
        assert first.slices == second.slices
        assert [(n.start, n.stop, n.cut) for n in first.tree.internal_nodes()] \
            == [(n.start, n.stop, n.cut) for n in second.tree.internal_nodes()]
        starts = [piece.start for piece in first.slices]
        assert starts == sorted(starts)

    def test_unsatisfiable_cut_bound_keeps_single_leaf(self):
        circuit = qaoa_maxcut_circuit(12, edge_probability=0.9, seed=7)
        plan = partition_circuit_tree(circuit, min_slice=4, max_cut_qubits=0)
        assert plan.num_slices == 1
        assert plan.tree is not None and plan.tree.is_leaf
        assert plan.tree_depth == 1

    def test_invalid_parameters_rejected(self):
        circuit = WORKLOADS["layered"](7)
        with pytest.raises(ValueError):
            partition_circuit_tree(circuit, min_slice=0)
        with pytest.raises(ValueError):
            partition_circuit_tree(circuit, min_slice=8, max_slice=4)


class TestPartitionAcrossTopologies:
    """End-to-end sharded routing on one architecture per topology family."""

    ARCHITECTURES = {
        "square": lambda: mixed(lattice_rows=7, num_atoms=30),
        "rectangular": lambda: mixed(lattice_rows=7, num_atoms=30,
                                     topology="rectangular", spacing_y=4.0),
        "zoned": lambda: zoned(lattice_rows=9, num_atoms=30),
    }

    def _architecture(self, kind):
        builder = self.ARCHITECTURES.get(kind)
        assert builder is not None, (
            f"topology family {kind!r} is in TOPOLOGY_KINDS but has no architecture "
            "builder in this suite — extend ARCHITECTURES so the sharding "
            "invariants cover it")
        return builder()

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_sharded_stream_valid_on_topology(self, kind):
        """Flat greedy partition, chained slices."""
        architecture = self._architecture(kind)
        circuit = random_layered_circuit(16, 10, seed=7)
        config = MapperConfig.sharded(shard_min_slice=12,
                                      hierarchical_partition=False)
        result = HybridMapper(architecture, config).map(circuit)
        assert result.shard_stats, "expected the sharded path to engage"
        assert result.shard_stats["num_slices"] >= 2
        assert result.shard_stats["tree_depth"] == 1
        result.verify_complete()
        assert validate_stream(result, architecture) == []

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_hierarchical_stream_valid_on_topology(self, kind):
        """Hierarchical tree partition, chained slices."""
        architecture = self._architecture(kind)
        circuit = random_layered_circuit(16, 10, seed=7)
        config = MapperConfig.sharded(shard_min_slice=12,
                                      hierarchical_partition=True)
        result = HybridMapper(architecture, config).map(circuit)
        assert result.shard_stats, "expected the sharded path to engage"
        assert result.shard_stats["num_slices"] >= 2
        assert result.shard_stats["hierarchical_partition"] is True
        result.verify_complete()
        assert validate_stream(result, architecture) == []
