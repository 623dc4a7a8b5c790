"""Sharded routing: serial fallback, chained slices, bounded streaming.

Three contracts under test:

* **Serial fallback** — any circuit that partitions into fewer than two
  slices (1-qubit, tiny, fully-sequential) silently takes the serial path
  and stays *bit-identical* to the ``shard_routing=False`` stream (and hence
  to the committed goldens).
* **Validity + determinism** — chained slice routing emits streams that
  replay legally from the initial maps, are complete, and are
  deterministic.
* **Bounded streaming** — a 1000+-qubit circuit drains through
  ``stream(retain=False)`` under an incremental validator without ever
  building a whole-circuit result.
"""

from __future__ import annotations

import ast
import tracemalloc
from pathlib import Path

import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.library.random_circuits import (
    local_window_circuit,
    random_layered_circuit,
)
from repro.hardware import SiteConnectivity
from repro.hardware.presets import mixed
from repro.mapping import (
    HybridMapper,
    MapperConfig,
    MappingError,
    ShardedRouter,
    StreamValidator,
    assert_stream_valid,
    validate_stream,
)
from repro.telemetry import tracing

MAPPING_SRC = Path(__file__).resolve().parents[2] / "src" / "repro" / "mapping"


def _map(architecture, circuit, config, connectivity=None):
    return HybridMapper(architecture, config,
                        connectivity=connectivity).map(circuit)


class TestSerialFallback:
    """Sub-threshold circuits must be byte-identical to the serial path."""

    def _assert_identical_to_serial(self, architecture, circuit):
        connectivity = SiteConnectivity(architecture)
        serial = _map(architecture, circuit, MapperConfig(), connectivity)
        sharded = _map(architecture, circuit, MapperConfig.sharded(),
                       connectivity)
        assert sharded.op_stream_lines() == serial.op_stream_lines()
        assert sharded.op_stream_digest() == serial.op_stream_digest()
        assert not sharded.shard_stats, \
            "fallback must not engage the sharded path"

    def test_one_qubit_circuit(self, mixed_architecture):
        circuit = QuantumCircuit(1, name="one_qubit")
        for _ in range(30):
            circuit.h(0).t(0)
        self._assert_identical_to_serial(mixed_architecture, circuit)

    def test_tiny_circuit(self, mixed_architecture, bell_circuit):
        self._assert_identical_to_serial(mixed_architecture, bell_circuit)

    def test_fully_sequential_circuit(self, mixed_architecture):
        # One dependency chain on two qubits, shorter than two minimum
        # slices: partitions into a single slice -> serial path.
        circuit = QuantumCircuit(6, name="sequential")
        for _ in range(15):
            circuit.cz(0, 1)
            circuit.h(0)
        self._assert_identical_to_serial(mixed_architecture, circuit)

    def test_below_min_slice_threshold(self, mixed_architecture):
        circuit = random_layered_circuit(10, 2, seed=11)
        assert len(circuit) < 2 * MapperConfig().shard_min_slice
        self._assert_identical_to_serial(mixed_architecture, circuit)


class TestChainedScheduler:
    def test_stream_valid_and_complete(self, mixed_architecture):
        circuit = random_layered_circuit(16, 10, seed=7)
        config = MapperConfig.sharded(shard_min_slice=12)
        result = _map(mixed_architecture, circuit, config)
        assert result.shard_stats["num_slices"] >= 2
        result.verify_complete()
        assert_stream_valid(result, mixed_architecture)

    def test_deterministic(self, mixed_architecture):
        circuit = random_layered_circuit(16, 10, seed=1234)
        config = MapperConfig.sharded(shard_min_slice=12)
        first = _map(mixed_architecture, circuit, config)
        second = _map(mixed_architecture, circuit, config)
        assert first.op_stream_lines() == second.op_stream_lines()

    def test_counters_cover_every_entangling_gate(self, mixed_architecture):
        circuit = random_layered_circuit(16, 10, seed=7)
        config = MapperConfig.sharded(shard_min_slice=12)
        result = _map(mixed_architecture, circuit, config)
        attributed = (result.num_gate_routed + result.num_shuttle_routed
                      + result.num_trivially_executable)
        assert attributed == circuit.num_entangling_gates()

    def test_partition_span_once_per_sharded_map(self, mixed_architecture):
        circuit = random_layered_circuit(16, 10, seed=7)
        config = MapperConfig.sharded(shard_min_slice=12)
        with tracing.start_trace("test") as handle:
            result = _map(mixed_architecture, circuit, config)
        names = [record.name for record in handle.spans]
        assert names.count("shard.partition") == 1
        assert names.count("shard.map") == 1
        # The outer map plus one serial mapper run per slice.
        assert names.count("mapper.map") == 1 + result.shard_stats["num_slices"]


class TestThousandQubitStreaming:
    def test_streaming_bounded_memory(self):
        """1024-qubit circuit through ``stream(retain=False)``.

        The stream must never build a whole-circuit :class:`MappingResult`;
        it is validated incrementally as it drains, exactly as a
        bounded-memory consumer would run it.
        """
        architecture = mixed(lattice_rows=34, num_atoms=1100)
        connectivity = SiteConnectivity(architecture)
        circuit = local_window_circuit(1024, 600, window=4, seed=7)
        assert circuit.num_qubits >= 1000
        config = MapperConfig.sharded(shard_min_slice=48)
        router = ShardedRouter(architecture, config,
                               connectivity=connectivity)
        stream = router.stream(circuit, retain=False)
        assert stream is not None
        validator = StreamValidator(circuit, architecture,
                                    stream.initial_qubit_map,
                                    stream.initial_atom_map,
                                    connectivity=connectivity)
        tracemalloc.start()
        for op in stream:
            validator.check(op)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert stream.result is None
        assert stream.stats["num_slices"] >= 5
        violations = validator.finish(stream.final_qubit_map,
                                      stream.final_atom_map)
        assert violations == []
        # Bounded live memory: peak traced allocation while draining must
        # stay far below what retaining every slice result would cost.
        # Measured ~46 MB (x86-64, Python 3.11); 3x headroom.
        assert peak < 140 * 1024 * 1024, f"peak live allocation {peak} bytes"


class TestShardConfig:
    def test_sharded_classmethod(self):
        config = MapperConfig.sharded(shard_min_slice=10)
        assert config.shard_routing is True
        assert config.shard_min_slice == 10

    @pytest.mark.parametrize("min_slice", (0, -1))
    def test_invalid_shard_min_slice_rejected(self, min_slice):
        with pytest.raises(ValueError):
            MapperConfig(shard_min_slice=min_slice)

    def test_max_routing_steps_budget_is_per_slice(self):
        """Each slice mapper gets a fresh ``max_routing_steps`` budget: a
        bound the serial mapper exceeds holds for every slice, while the
        sharded stream as a whole inserts more routing operations."""
        architecture = mixed(lattice_rows=7, num_atoms=30)
        circuit = random_layered_circuit(16, 10, seed=7)
        with pytest.raises(MappingError):
            HybridMapper(architecture,
                         MapperConfig(max_routing_steps=10)).map(circuit)
        result = HybridMapper(
            architecture,
            MapperConfig.sharded(shard_min_slice=12,
                                 max_routing_steps=10)).map(circuit)
        assert result.shard_stats["num_slices"] == 9
        assert result.num_swaps + result.num_moves == 52
        result.verify_complete()

    def test_replay_validator_flags_corrupt_stream(self, mixed_architecture):
        """The validity replayer must actually catch broken streams."""
        from dataclasses import replace

        from repro.mapping import CircuitGateOp

        circuit = random_layered_circuit(16, 6, seed=7)
        result = _map(mixed_architecture, circuit, MapperConfig())
        assert validate_stream(result, mixed_architecture) == []
        for index, op in enumerate(result.operations):
            if isinstance(op, CircuitGateOp) and len(op.atoms) == 2:
                corrupted = replace(
                    op, atoms=(op.atoms[1], op.atoms[0]), sites=op.sites)
                result.operations[index] = corrupted
                break
        assert validate_stream(result, mixed_architecture) != []


def _imported_modules(path: Path):
    """Absolute module names imported by one ``repro.mapping`` source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            # Relative imports resolve against the repro.mapping package.
            package = ["repro", "mapping"][:max(0, 3 - node.level)]
            base = ".".join(package + ([node.module] if node.module else []))
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def test_mapping_does_not_import_resilience():
    """The mapper stays free of the serving layer's supervised pool."""
    offenders = [f"{path.name}:{lineno} {name}"
                 for path in sorted(MAPPING_SRC.glob("*.py"))
                 for lineno, name in _imported_modules(path)
                 if name == "repro.resilience"
                 or name.startswith("repro.resilience.")]
    assert offenders == []
