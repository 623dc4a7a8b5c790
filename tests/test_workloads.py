"""Tests for the shared workload-scaling rules.

These helpers replaced duplicated sizing logic in the benchmark harness
and ``evaluation/table.py::ExperimentSettings``; the tests pin the agreed
behaviour for both consumers.
"""

import pytest

from repro.service import ArchitectureSpec
from repro.workloads import (
    PAPER_SIZES,
    lattice_rows_for,
    scaled_atom_count,
    scaled_register_size,
)


class TestScaledRegisterSize:
    def test_full_scale_returns_paper_sizes(self):
        for name, size in PAPER_SIZES.items():
            assert scaled_register_size(name, 1.0, min_size=1) == size

    def test_scaling_is_proportional(self):
        assert scaled_register_size("qft", 0.1, min_size=1) == 20
        assert scaled_register_size("bn", 0.5, min_size=1) == 24

    def test_minimum_size_clamps(self):
        assert scaled_register_size("call", 0.1, min_size=8) == 8
        assert scaled_register_size("call", 0.1, min_size=4) == 4

    def test_unknown_benchmark_raises(self):
        with pytest.raises(ValueError):
            scaled_register_size("nope", 0.5)


class TestScaledAtomCount:
    def test_tracks_paper_register_proportionally(self):
        assert scaled_atom_count(0.15, [8]) == 30

    def test_never_below_largest_circuit(self):
        assert scaled_atom_count(0.05, [40]) == 40

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            scaled_atom_count(0.5, [])


class TestLatticeRows:
    def test_leaves_free_traps(self):
        for atoms in (10, 16, 25, 30, 40, 100, 200):
            rows = lattice_rows_for(atoms)
            assert rows * rows > atoms
            # One extra row beyond the smallest fitting square.
            assert (rows - 1) * (rows - 1) > atoms or rows - 1 == 4

    def test_full_scale_configuration(self):
        # 200 atoms -> one row beyond the paper's 15x15 geometry, so the
        # identity layout always leaves whole free rows for shuttling.
        assert lattice_rows_for(200) == 16


class TestScaledArchitecture:
    def test_matches_benchmark_harness_sizing(self):
        # benchmarks/perf_report.py builds its devices from ArchitectureSpec.scaled.
        architecture = ArchitectureSpec.scaled("mixed", 0.15).build()
        sizes = [scaled_register_size(name, 0.15) for name in PAPER_SIZES]
        assert architecture.num_atoms == scaled_atom_count(0.15, sizes)
        assert architecture.lattice.rows == lattice_rows_for(architecture.num_atoms)

    def test_matches_experiment_settings_sizing(self):
        from repro.evaluation.table import ExperimentSettings
        settings = ExperimentSettings(hardware="gate", scale=0.15)
        via_settings = settings.build_architecture()
        sizes = [settings.circuit_size(name) for name in settings.circuits]
        assert via_settings.num_atoms == scaled_atom_count(0.15, sizes)
        assert via_settings.lattice.rows == lattice_rows_for(via_settings.num_atoms)

    def test_circuit_always_fits(self):
        for scale in (0.05, 0.1, 0.3, 1.0):
            architecture = ArchitectureSpec.scaled("shuttling", scale).build()
            largest = max(scaled_register_size(name, scale)
                          for name in PAPER_SIZES)
            assert architecture.num_atoms >= largest
            assert architecture.num_atoms < architecture.lattice.num_sites


class TestEdgeSizes:
    """Degenerate workload sizes must still build and compile."""

    def test_scale_below_lattice_minimum_clamps_to_min_size(self):
        # At a vanishing scale every register clamps to min_size and the
        # lattice bottoms out at the 4+1 edge of lattice_rows_for.
        for name in PAPER_SIZES:
            assert scaled_register_size(name, 0.001) == 8
        architecture = ArchitectureSpec.scaled("mixed", 0.001).build()
        assert architecture.lattice.rows == lattice_rows_for(architecture.num_atoms)
        assert architecture.num_atoms == 8
        # The 4-row floor of lattice_rows_for plus the one extra free row.
        assert architecture.lattice.rows == 5
        assert architecture.num_atoms < architecture.lattice.num_sites

    @pytest.mark.parametrize("hardware", ("gate", "mixed", "shuttling"))
    def test_tiny_scale_compiles_every_benchmark_mode(self, hardware):
        from repro.circuit import decompose_mcx_to_mcz
        from repro.circuit.library import get_benchmark
        from repro.pipeline import compile_circuit

        architecture = ArchitectureSpec.scaled(hardware, 0.001).build()
        circuit = decompose_mcx_to_mcz(
            get_benchmark("qft", num_qubits=8, seed=2024))
        context = compile_circuit(circuit, architecture)
        context.require_result().verify_complete()

    @pytest.mark.parametrize("hardware", ("gate", "mixed", "shuttling"))
    def test_single_qubit_circuit_compiles(self, hardware):
        from repro.circuit import QuantumCircuit
        from repro.pipeline import compile_circuit

        circuit = QuantumCircuit(1, name="single")
        circuit.h(0)
        circuit.rz(0.25, 0)
        circuit.h(0)
        architecture = ArchitectureSpec.scaled(hardware, 0.001).build()
        context = compile_circuit(circuit, architecture)
        result = context.require_result()
        result.verify_complete()
        assert result.num_swaps == 0
        assert result.num_moves == 0
        assert len(result.circuit_gate_ops()) == 3
