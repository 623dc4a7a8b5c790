"""The round loop re-checks only the front gates whose qubits moved.

``HybridMapper`` remembers which front gates it found not executable and
re-checks one of them only after a ``SwapOp`` or ``ShuttleOp`` moved one of
its qubits.  The full scan guaranteed that no front handed to a router holds
an executable gate; the guard below asserts that on every router call.  Each
run must also give the stream of a fresh mapper that scans the whole front
every round (``_moved_qubits`` reporting every qubit as moved): forced
multi-SWAP routes, SWAPs with an auxiliary atom, hybrid runs with moves, a
reused mapper, an initial state and sharded slices.  A count pin keeps the
qft scan from coming back.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.library import get_benchmark
from repro.circuit.library.random_circuits import random_layered_circuit
from repro.hardware import SiteConnectivity
from repro.hardware.presets import mixed
from repro.mapping import HybridMapper, MapperConfig, MappingState
from repro.mapping.gate_router import GateRouter
from repro.mapping.result import SwapOp
from repro.mapping.shuttling_router import ShuttlingRouter
from repro.service import ArchitectureSpec


def _circuit(seed: int, num_qubits: int = 12) -> QuantumCircuit:
    circuit = random_layered_circuit(num_qubits, 8, seed=seed)
    circuit.ccz(0, 5, 11).cz(1, 10)
    return circuit


def _scrambled(architecture, connectivity, num_qubits: int) -> MappingState:
    """A state whose qubits sit on shuffled atoms at shuffled sites."""
    sites = list(range(architecture.lattice.num_sites))[::-1]
    sites = sites[:architecture.num_atoms]
    atoms = list(range(num_qubits))[::-1]
    return MappingState(architecture, num_qubits, connectivity=connectivity,
                        initial_sites=sites, initial_qubit_map=atoms)


def _stream(result):
    return result.op_stream_lines(), result.op_stream_digest()


@contextmanager
def full_scan():
    """Every round re-checks every front gate, as the loop once did."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HybridMapper, "_moved_qubits", staticmethod(
            lambda state, operations, start: set(range(state.num_circuit_qubits))))
        yield


@pytest.fixture
def guarded(monkeypatch):
    """Assert that no router call sees an executable front gate.

    Patches the router classes, so the slice mappers of sharded routing are
    guarded too.  Returns the per-method call counts and the lengths of the
    forced SWAP routes.
    """
    calls = Counter()
    forced_lengths = []

    def guard(cls, name, gates_of):
        original = getattr(cls, name)

        def wrapper(self, state, *args, **kwargs):
            executable = [gate for gate in gates_of(args)
                          if state.gate_executable(gate)]
            assert not executable, f"{name} handed executable gates {executable}"
            calls[name] += 1
            returned = original(self, state, *args, **kwargs)
            if name == "forced_route_swaps":
                forced_lengths.append(len(returned))
            return returned

        monkeypatch.setattr(cls, name, wrapper)

    guard(GateRouter, "best_swap", lambda args: [n.gate for n in args[0]])
    guard(GateRouter, "forced_route_swaps", lambda args: [args[0]])
    guard(ShuttlingRouter, "best_chain", lambda args: [n.gate for n in args[0]])
    guard(ShuttlingRouter, "forced_chain", lambda args: [args[0].gate])
    return calls, forced_lengths


@pytest.fixture(scope="module")
def device():
    architecture = mixed(lattice_rows=7, num_atoms=30)
    return architecture, SiteConnectivity(architecture)


@pytest.fixture(scope="module")
def wide_device():
    architecture = mixed(lattice_rows=9, num_atoms=60)
    return architecture, SiteConnectivity(architecture)


FAR_PAIRS = 4


def _far_pairs_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(2 * FAR_PAIRS)
    for pair in range(FAR_PAIRS):
        circuit.cz(2 * pair, 2 * pair + 1)
    return circuit


def _far_pairs_state(architecture, connectivity) -> MappingState:
    """Each CZ pair starts on atoms at opposite ends of the atom block, so
    routing it takes several SWAPs, some of them with auxiliary atoms."""
    atoms = []
    for pair in range(FAR_PAIRS):
        atoms += [pair, architecture.num_atoms - 1 - pair]
    return MappingState(architecture, 2 * FAR_PAIRS, connectivity=connectivity,
                        initial_qubit_map=atoms)


def _full_scan_stream(architecture, connectivity, config, circuit,
                      initial_state=None):
    with full_scan():
        mapper = HybridMapper(architecture, config, connectivity=connectivity)
        return mapper.map(circuit, initial_state=initial_state)


class TestGuardedRuns:
    def test_forced_multi_swap_routes(self, wide_device, guarded):
        architecture, connectivity = wide_device
        _, forced_lengths = guarded
        config = MapperConfig.gate_only(stall_threshold=1)
        circuit = _far_pairs_circuit()
        result = HybridMapper(architecture, config, connectivity=connectivity).map(
            circuit, initial_state=_far_pairs_state(architecture, connectivity))
        assert max(forced_lengths) > 1
        assert _stream(result) == _stream(_full_scan_stream(
            architecture, connectivity, config, circuit,
            initial_state=_far_pairs_state(architecture, connectivity)))

    def test_swap_with_auxiliary_atom(self, wide_device, guarded):
        architecture, connectivity = wide_device
        calls, _ = guarded
        config = MapperConfig.gate_only()
        circuit = _far_pairs_circuit()
        result = HybridMapper(architecture, config, connectivity=connectivity).map(
            circuit, initial_state=_far_pairs_state(architecture, connectivity))
        assert any(isinstance(op, SwapOp) and op.qubit_b == -1
                   for op in result.operations)
        assert calls["best_swap"] > 0
        assert _stream(result) == _stream(_full_scan_stream(
            architecture, connectivity, config, circuit,
            initial_state=_far_pairs_state(architecture, connectivity)))

    @pytest.mark.parametrize("stall_threshold", [None, 1])
    def test_hybrid_run_with_moves(self, device, guarded, stall_threshold):
        architecture, connectivity = device
        calls, _ = guarded
        config = MapperConfig.hybrid(1.0, stall_threshold=stall_threshold)
        circuit = _circuit(3)
        result = HybridMapper(architecture, config,
                              connectivity=connectivity).map(circuit)
        assert result.num_moves > 0
        assert calls["best_chain"] > 0
        assert _stream(result) == _stream(_full_scan_stream(
            architecture, connectivity, config, circuit))

    @pytest.mark.parametrize("config", [
        MapperConfig.gate_only(), MapperConfig.hybrid(2.0)],
        ids=["gate_only", "hybrid"])
    def test_mapper_reused_for_two_circuits(self, device, guarded, config):
        architecture, connectivity = device
        reused = HybridMapper(architecture, config, connectivity=connectivity)
        for seed in (4, 5):
            circuit = _circuit(seed)
            assert _stream(reused.map(circuit)) == _stream(_full_scan_stream(
                architecture, connectivity, config, circuit))

    def test_initial_state(self, device, guarded):
        architecture, connectivity = device
        config = MapperConfig.hybrid(1.0)
        circuit = _circuit(6)
        result = HybridMapper(architecture, config, connectivity=connectivity).map(
            circuit, initial_state=_scrambled(architecture, connectivity,
                                              circuit.num_qubits))
        expected = _full_scan_stream(
            architecture, connectivity, config, circuit,
            initial_state=_scrambled(architecture, connectivity,
                                     circuit.num_qubits))
        assert expected.num_swaps + expected.num_moves > 0
        assert _stream(result) == _stream(expected)

    @pytest.mark.parametrize("config", [
        MapperConfig.gate_only(shard_routing=True, shard_min_slice=12),
        MapperConfig.hybrid(1.0, shard_routing=True, shard_min_slice=12)],
        ids=["gate_only", "hybrid"])
    def test_shard_routing(self, device, guarded, config):
        architecture, connectivity = device
        circuit = random_layered_circuit(16, 10, seed=9)
        result = HybridMapper(architecture, config,
                              connectivity=connectivity).map(circuit)
        assert result.shard_stats["num_slices"] >= 2
        assert _stream(result) == _stream(_full_scan_stream(
            architecture, connectivity, config, circuit))


def test_qft_mixed_scan_checks_only_moved_gates(monkeypatch):
    """qft-60 on the mixed device: about 5,700 checks, not 140,000."""
    checks = 0
    gate_executable = MappingState.gate_executable

    def counting(self, gate):
        nonlocal checks
        checks += 1
        return gate_executable(self, gate)

    monkeypatch.setattr(MappingState, "gate_executable", counting)
    architecture = ArchitectureSpec.scaled("mixed", 0.3).build()
    HybridMapper(architecture, MapperConfig.hybrid(1.0)).map(
        get_benchmark("qft", num_qubits=60))
    assert checks <= 10_000
