"""Differential harness: vectorised chain kernel vs scalar reference builders.

The shuttling router builds move chains with numpy gathers whose argmin /
stable-argsort tie-breaks must resolve exactly as the scalar loops of
:mod:`chain_reference`, so the emitted operation stream is
**byte-identical** to the one the scalar builders produce.  This harness
locks that contract down on *hostile spacings* — lattice constants whose
float expansions accumulate differently under vectorised evaluation.  The
reference arm patches the scalar builders into ``ShuttlingRouter``.

On a mismatch the test appends to ``kernel-digest-diff.json`` (working
directory) so the CI differential job can upload the divergence as an
artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.circuit import decompose_mcx_to_mcz
from repro.circuit.library import get_benchmark
from repro.circuit.library.random_circuits import random_layered_circuit
from repro.hardware import SiteConnectivity
from repro.mapping import HybridMapper, MapperConfig
from repro.service import ArchitectureSpec

from chain_reference import patched_router

DIFF_PATH = Path("kernel-digest-diff.json")

#: Lattice constants with inexact binary expansions: scaled coordinates and
#: travel distances hit the float-accumulation corners where a reordered
#: vector reduction would first diverge from the scalar loops.
HOSTILE_SPACINGS = (0.3, 1.1)


@pytest.fixture(scope="module", autouse=True)
def _fresh_diff_file():
    """Drop stale divergence records so the artifact reflects this run only."""
    if DIFF_PATH.exists():
        DIFF_PATH.unlink()


def _record_diff(case: str, expected: str, actual: str) -> None:
    """Append one divergence to the diff artifact (for the CI upload)."""
    existing = []
    if DIFF_PATH.exists():
        try:
            existing = json.loads(DIFF_PATH.read_text())
        except ValueError:
            existing = []
    existing.append({"case": case, "expected": expected, "actual": actual})
    DIFF_PATH.write_text(json.dumps(existing, indent=2) + "\n")


def assert_kernel_matches_reference(circuit, architecture, connectivity,
                                 case: str) -> None:
    """Map with the kernel and require output byte-identical to the scalar
    reference arm."""
    config = MapperConfig.hybrid(1.0)
    with patched_router():
        reference = HybridMapper(architecture, config,
                                 connectivity=connectivity).map(circuit)
    result = HybridMapper(architecture, config,
                          connectivity=connectivity).map(circuit)
    if result.op_stream_digest() != reference.op_stream_digest():
        _record_diff(case, reference.op_stream_digest(),
                     result.op_stream_digest())
    assert result.op_stream_lines() == reference.op_stream_lines(), case
    assert result.op_stream_digest() == reference.op_stream_digest(), (
        f"op stream of {case} diverged from the scalar reference "
        f"(see {DIFF_PATH})")
    assert result.operations == reference.operations
    assert result.final_qubit_map == reference.final_qubit_map
    assert result.final_atom_map == reference.final_atom_map


class TestKernelDifferentialHostileSpacings:
    @pytest.mark.parametrize("hardware", ("gate", "mixed", "shuttling"))
    @pytest.mark.parametrize("spacing", HOSTILE_SPACINGS)
    def test_layered_stream_identical(self, hardware, spacing):
        architecture = ArchitectureSpec.scaled(hardware, 0.12,
                                               spacing=spacing).build()
        connectivity = SiteConnectivity(architecture)
        circuit = random_layered_circuit(16, 6, seed=7)
        assert_kernel_matches_reference(
            circuit, architecture, connectivity,
            f"layered/{hardware}/spacing={spacing}")

    @pytest.mark.parametrize("spacing", HOSTILE_SPACINGS)
    def test_qft_stream_identical(self, spacing):
        architecture = ArchitectureSpec.scaled("mixed", 0.12,
                                               spacing=spacing).build()
        connectivity = SiteConnectivity(architecture)
        circuit = decompose_mcx_to_mcz(
            get_benchmark("qft", num_qubits=14, seed=2024))
        assert_kernel_matches_reference(circuit, architecture, connectivity,
                                     f"qft/mixed/spacing={spacing}")

    @pytest.mark.parametrize("hardware", ("mixed", "shuttling"))
    @pytest.mark.parametrize("spacing", HOSTILE_SPACINGS)
    def test_multi_qubit_stream_identical(self, hardware, spacing):
        """CCZ-promoted layers drive the chain builder through gates of
        three or more qubits, whose later qubits read the chain's simulated
        occupancy, which two-qubit-only workloads never reach."""
        architecture = ArchitectureSpec.scaled(hardware, 0.12,
                                               spacing=spacing).build()
        connectivity = SiteConnectivity(architecture)
        circuit = random_layered_circuit(16, 6, seed=7,
                                         multi_qubit_fraction=0.35)
        assert_kernel_matches_reference(
            circuit, architecture, connectivity,
            f"multiq/{hardware}/spacing={spacing}")

    @pytest.mark.parametrize("spacing", HOSTILE_SPACINGS)
    def test_zoned_multi_qubit_stream_identical(self, spacing):
        """Zoned topology + wide gates drive the chain builder through the
        anchor-relocation prefix and travel-penalised pooled moves."""
        architecture = ArchitectureSpec.scaled("zoned", 0.12,
                                               spacing=spacing).build()
        connectivity = SiteConnectivity(architecture)
        circuit = random_layered_circuit(14, 5, seed=11,
                                         multi_qubit_fraction=0.3)
        assert_kernel_matches_reference(
            circuit, architecture, connectivity,
            f"multiq/zoned/spacing={spacing}")

    def test_anisotropic_rectangular_stream_identical(self):
        """Distinct per-axis hostile pitches stress the x/y travel terms
        separately — the axis where a fused vector expression would first
        drift from the scalar two-step composition."""
        from repro.hardware.presets import preset
        reference = ArchitectureSpec.scaled("mixed", 0.12, spacing=0.3).build()
        architecture = preset("mixed", lattice_rows=reference.lattice.rows,
                              spacing=0.3, num_atoms=reference.num_atoms,
                              topology="rectangular", spacing_y=0.7)
        connectivity = SiteConnectivity(architecture)
        circuit = random_layered_circuit(16, 6, seed=1234)
        assert_kernel_matches_reference(circuit, architecture, connectivity,
                                     "layered/rectangular/0.3x0.7")
