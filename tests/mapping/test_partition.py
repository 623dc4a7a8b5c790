"""Property suite for the circuit partitioner (``repro.mapping.partition``).

The sharding contract rests on these partition invariants:

1. the slices are a disjoint, exhaustive, in-order cover of the gate list
   (union == full circuit),
2. per-qubit gate order is preserved across slices (contiguity makes this
   structural, but the suite asserts it directly on the rebuilt gate list),
3. each slice's ``cut_qubits`` is exactly the crossing set of its cut,
4. every slice of a multi-slice plan holds between ``min_slice`` and
   ``4 * min_slice`` gates, and the plan is a deterministic function of the
   circuit (checked against a plain recursive min-cut reference), and each
   split's range-min cut equals the per-split linear scan.

The suite checks them across seeded random circuits and, end-to-end, across
every topology family (``TOPOLOGY_KINDS``) by routing a
sharded map on one architecture per family and replaying the stream.
"""

from __future__ import annotations

import random

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
    slice_subcircuit,
    validate_stream,
)
from repro.mapping.partition import _CutFinder

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
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_brute_force(self, workload, seed):
        circuit = WORKLOADS[workload](seed)
        counts = crossing_counts(circuit)
        assert len(counts) == len(circuit) + 1
        for position in range(len(circuit) + 1):
            assert counts[position] == _brute_force_crossing(circuit, position)

    def test_empty_boundaries_cross_nothing(self):
        circuit = WORKLOADS["layered"](7)
        counts = crossing_counts(circuit)
        assert counts[0] == 0
        assert counts[len(circuit)] == 0


def _linear_best_cut(counts, lo, hi, min_slice):
    """The per-split scan the range-min cut finder replaces."""
    if lo + min_slice > hi - min_slice:
        return None
    return min(range(lo + min_slice, hi - min_slice + 1),
               key=lambda p: (counts[p], abs(2 * p - lo - hi), p))


class TestCutFinder:
    """The sparse-table cut equals the linear scan on random segments."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_linear_scan_on_random_counts(self, seed):
        rng = random.Random(seed)
        # Few distinct values, so minima repeat and the midpoint and
        # earlier-position tie-breaks decide.
        counts = [rng.randrange(1 + seed % 4)
                  for _ in range(rng.randrange(1, 300))]
        finder = _CutFinder(counts)
        for _ in range(300):
            lo = rng.randrange(len(counts))
            hi = rng.randrange(lo, len(counts))
            min_slice = rng.randrange(1, 40)
            assert finder.best_cut(lo, hi, min_slice) \
                == _linear_best_cut(counts, lo, hi, min_slice)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_matches_linear_scan_on_circuit_counts(self, workload):
        counts = crossing_counts(WORKLOADS[workload](7))
        finder = _CutFinder(counts)
        for lo in range(0, len(counts), 7):
            for hi in range(lo, len(counts), 11):
                for min_slice in (1, 4, 9):
                    assert finder.best_cut(lo, hi, min_slice) \
                        == _linear_best_cut(counts, lo, hi, min_slice)


def _reference_partition(circuit, min_slice):
    """Plain recursive restatement of the partitioner: ``(bounds, depth)``."""
    counts = crossing_counts(circuit)

    def split(lo, hi):
        if hi - lo > 4 * min_slice:
            cut = _linear_best_cut(counts, lo, hi, min_slice)
            left, left_depth = split(lo, cut)
            right, right_depth = split(cut, hi)
            return left + right, 1 + max(left_depth, right_depth)
        return [(lo, hi)], 1

    return split(0, len(circuit))


def _prefix(circuit: QuantumCircuit, num_gates: int) -> QuantumCircuit:
    prefix = QuantumCircuit(circuit.num_qubits,
                            name=f"{circuit.name}[:{num_gates}]")
    for gate in circuit.gates[:num_gates]:
        prefix.append(gate)
    return prefix


def _two_qubit_chain(num_gates: int) -> QuantumCircuit:
    """CZ chain on qubits 0 and 1: every interior cut crosses both."""
    circuit = QuantumCircuit(2, name=f"chain{num_gates}")
    for _ in range(num_gates):
        circuit.cz(0, 1)
    return circuit


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
        assert [piece.index for piece in plan.slices] \
            == list(range(plan.num_slices))
        covered = [index for piece in plan.slices
                   for index in piece.gate_indices()]
        assert covered == list(range(len(circuit)))

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_slice_subcircuit_is_full_width_gate_range(self, workload, seed):
        circuit = WORKLOADS[workload](seed)
        plan = partition_circuit(circuit, min_slice=8)
        for piece in plan.slices:
            sub = slice_subcircuit(circuit, piece)
            assert sub.num_qubits == circuit.num_qubits
            assert sub.name == f"{circuit.name}[s{piece.index}]"
            assert list(sub.gates) \
                == list(circuit.gates[piece.start:piece.stop])
            assert len(sub) == piece.num_gates

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
    @pytest.mark.parametrize("min_slice", (8, 24))
    def test_cut_qubit_sets_are_exact(self, workload, seed, min_slice):
        circuit = WORKLOADS[workload](seed)
        plan = partition_circuit(circuit, min_slice=min_slice)
        counts = crossing_counts(circuit)
        assert plan.slices[0].cut_qubits == ()
        for piece in plan.slices[1:]:
            before = set()
            for gate in circuit.gates[:piece.start]:
                before.update(gate.qubits)
            after = set()
            for gate in circuit.gates[piece.start:]:
                after.update(gate.qubits)
            assert piece.cut_qubits == tuple(sorted(before & after))
            assert counts[piece.start] == len(piece.cut_qubits)
        assert plan.summary()["cut_qubits"] \
            == [len(piece.cut_qubits) for piece in plan.slices[1:]]

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("min_slice", (8, 16))
    def test_slice_sizes_within_min_and_ceiling(self, workload, seed,
                                                min_slice):
        """Every slice of a multi-slice plan keeps ``min_slice`` gates, and
        no slice exceeds the ``4 * min_slice`` ceiling."""
        circuit = WORKLOADS[workload](seed)
        plan = partition_circuit(circuit, min_slice=min_slice)
        if plan.num_slices >= 2:
            for piece in plan.slices:
                assert min_slice <= piece.num_gates <= 4 * min_slice
        else:
            assert len(circuit) <= 4 * min_slice

    @pytest.mark.parametrize("min_slice", (8, 16))
    def test_multi_slice_plans_respect_min_slice(self, min_slice):
        circuit = WORKLOADS["local"](7)
        plan = partition_circuit(circuit, min_slice=min_slice)
        assert plan.num_slices >= 2
        for piece in plan.slices:
            assert piece.num_gates >= min_slice

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("min_slice", (4, 8, 24))
    def test_matches_recursive_reference(self, workload, seed, min_slice):
        """Slice bounds and tree depth equal a plain recursive min-cut:
        minimum crossing first, then the balanced midpoint, then the
        earlier position."""
        circuit = WORKLOADS[workload](seed)
        plan = partition_circuit(circuit, min_slice=min_slice)
        bounds, depth = _reference_partition(circuit, min_slice)
        assert [(piece.start, piece.stop) for piece in plan.slices] == bounds
        assert plan.tree_depth == depth
        assert plan.summary()["tree_depth"] == depth
        if plan.num_slices >= 2:
            # A binary split tree of depth d has between d and 2**(d-1)
            # leaves.
            assert 2 <= plan.tree_depth <= plan.num_slices \
                <= 2 ** (plan.tree_depth - 1)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_deterministic(self, workload, seed):
        circuit = WORKLOADS[workload](seed)
        first = partition_circuit(circuit, min_slice=8)
        second = partition_circuit(circuit, min_slice=8)
        assert first.slices == second.slices
        assert first.tree_depth == second.tree_depth
        starts = [piece.start for piece in first.slices]
        assert starts == sorted(starts)

    def test_small_circuit_yields_single_slice(self):
        circuit = random_layered_circuit(8, 2, seed=3)
        plan = partition_circuit(circuit, min_slice=len(circuit))
        assert plan.num_slices == 1
        assert plan.slices[0].cut_qubits == ()
        assert plan.tree_depth == 1
        assert plan.summary()["cut_qubits"] == []

    @pytest.mark.parametrize("min_slice", (1, 2, 5, 8))
    def test_split_starts_just_above_ceiling(self, min_slice):
        """``4 * min_slice`` gates stay one slice; one gate more splits the
        circuit into two slices of at least ``min_slice`` gates."""
        source = WORKLOADS["local"](7)
        at_ceiling = partition_circuit(_prefix(source, 4 * min_slice),
                                       min_slice=min_slice)
        assert at_ceiling.num_slices == 1
        assert at_ceiling.tree_depth == 1
        above = partition_circuit(_prefix(source, 4 * min_slice + 1),
                                  min_slice=min_slice)
        assert above.num_slices == 2
        assert above.tree_depth == 2
        assert all(piece.num_gates >= min_slice for piece in above.slices)

    @pytest.mark.parametrize("num_gates, cut", ((34, 17), (33, 16)))
    def test_equal_crossings_cut_at_midpoint_then_earlier(self, num_gates,
                                                          cut):
        """With every admissible cut crossing equally, the balanced midpoint
        wins, and of two equally balanced positions the earlier one."""
        plan = partition_circuit(_two_qubit_chain(num_gates), min_slice=8)
        assert [(piece.start, piece.stop) for piece in plan.slices] \
            == [(0, cut), (cut, num_gates)]
        assert plan.slices[1].cut_qubits == (0, 1)

    def test_empty_circuit_is_one_empty_slice(self):
        plan = partition_circuit(QuantumCircuit(3, name="empty"), min_slice=1)
        assert [(piece.start, piece.stop) for piece in plan.slices] \
            == [(0, 0)]
        assert plan.slices[0].cut_qubits == ()
        assert plan.tree_depth == 1

    @pytest.mark.parametrize("min_slice", (0, -3))
    def test_invalid_parameters_rejected(self, min_slice):
        circuit = WORKLOADS["layered"](7)
        with pytest.raises(ValueError):
            partition_circuit(circuit, min_slice=min_slice)


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
    @pytest.mark.parametrize("min_slice", (8, 12))
    def test_sharded_stream_valid_on_topology(self, kind, min_slice):
        architecture = self._architecture(kind)
        circuit = random_layered_circuit(16, 10, seed=7)
        config = MapperConfig.sharded(shard_min_slice=min_slice)
        result = HybridMapper(architecture, config).map(circuit)
        assert result.shard_stats, "expected the sharded path to engage"
        assert result.shard_stats["num_slices"] >= 2
        assert result.shard_stats["tree_depth"] >= 2
        result.verify_complete()
        assert validate_stream(result, architecture) == []
