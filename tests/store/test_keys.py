"""Store-key stability: digests, fingerprints and cross-process identity.

The persistent store is only sound if every key component is a pure
function of the *values* that determine compilation output — independent of
object identity, kwargs order, dict order and the process that computed it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import __version__
from repro.circuit import QuantumCircuit
from repro.circuit.library import get_benchmark
from repro.circuit.qasm import dumps as qasm_dumps, loads as qasm_loads
from repro.mapping import MapperConfig
from repro.pipeline import compile_circuit
from repro.service import ArchitectureSpec, CompilationTask
from repro.store import StoreKey, compute_store_key

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestCircuitDigest:
    def test_equal_structure_equal_digest(self):
        a = get_benchmark("qft", num_qubits=10)
        b = get_benchmark("qft", num_qubits=10)
        assert a.canonical_digest() == b.canonical_digest()

    def test_name_does_not_affect_digest(self):
        a = get_benchmark("qft", num_qubits=10)
        b = get_benchmark("qft", num_qubits=10)
        b.name = "completely-different-label"
        assert a.canonical_digest() == b.canonical_digest()

    def test_gate_order_affects_digest(self):
        a = QuantumCircuit(2).h(0).cz(0, 1)
        b = QuantumCircuit(2).cz(0, 1).h(0)
        assert a.canonical_digest() != b.canonical_digest()

    def test_parameters_affect_digest(self):
        a = QuantumCircuit(1).rz(0.5, 0)
        b = QuantumCircuit(1).rz(0.5000001, 0)
        assert a.canonical_digest() != b.canonical_digest()

    def test_register_size_affects_digest(self):
        a = QuantumCircuit(2).cz(0, 1)
        b = QuantumCircuit(3).cz(0, 1)
        assert a.canonical_digest() != b.canonical_digest()

    def test_qasm_round_trip_preserves_digest(self):
        """A circuit re-imported from its own QASM dedupes with the original."""
        circuit = get_benchmark("graph", num_qubits=12, seed=3)
        again = qasm_loads(qasm_dumps(circuit), name="served-under-new-id")
        assert again.canonical_digest() == circuit.canonical_digest()


SERIAL = MapperConfig()
SHARDED = MapperConfig.sharded()

#: Overrides that can change the emitted stream: each must move the key.
OUTPUT_AFFECTING = [
    (SERIAL, {"alpha_gate": 2.0}), (SERIAL, {"lookahead_depth": 2}),
    (SERIAL, {"history_window": 5}), (SERIAL, {"use_commutation": False}),
    (SERIAL, {"stall_threshold": 7}), (SERIAL, {"shard_routing": True}),
    (SHARDED, {"shard_min_slice": 12}),
]

#: Overrides that cannot change the emitted stream: the key must not move.
#: The partition knob is inert while sharded routing is off.
INERT = [
    (SERIAL, {"shard_min_slice": 12}),
]


class TestConfigFingerprint:
    def test_equal_kwargs_equal_fingerprint(self):
        a = MapperConfig(alpha_gate=2.0, lookahead_weight=0.2)
        b = MapperConfig(lookahead_weight=0.2, alpha_gate=2.0)
        assert a.fingerprint() == b.fingerprint()

    def test_mode_helpers_match_explicit_construction(self):
        assert (MapperConfig.for_mode("hybrid", 1.5).fingerprint()
                == MapperConfig(alpha_gate=1.5, alpha_shuttling=1.0).fingerprint())

    @pytest.mark.parametrize("base, override", OUTPUT_AFFECTING)
    def test_output_affecting_field_changes_fingerprint(self, base, override):
        assert base.with_overrides(**override).fingerprint() != \
            base.fingerprint()

    @pytest.mark.parametrize("base, override", INERT)
    def test_inert_field_keeps_fingerprint(self, base, override):
        assert base.with_overrides(**override).fingerprint() == \
            base.fingerprint()

    def test_canonical_key_schema_tag(self):
        assert MapperConfig().canonical_key().startswith("mapper-config/v6|")

    @pytest.mark.parametrize("config, expected", [
        (MapperConfig(),
         "a97e1a90af5bf7ed958364163c3c47211e2a1f127d2f048692c7e190173c0ffc"),
        (MapperConfig.gate_only(),
         "eb4eb376a16f2fb8f50d683101e46cafd2cf2c426072d19550642ebabb47d6c3"),
        (MapperConfig.shuttling_only(),
         "f84be5a78d757a83f3462713bb67946c116b9fe236f237fdaab66573064a4450"),
        (MapperConfig.sharded(),
         "0979149629d53e665cd5d24a099c4a98faab897983d0708e175c74aa59aa1472"),
    ], ids=["default", "gate_only", "shuttling_only", "sharded"])
    def test_fingerprint_is_pinned(self, config, expected):
        """Store entries written by earlier builds keep resolving: removing
        a field that was never keyed must not move any fingerprint.  A
        deliberate key change updates these and either bumps the schema tag
        or shows why no new key can equal an old one.  The sharded pin
        moved when the flat/tree partition switch, the slice-size ceiling
        and the cut-qubit bound were removed: every earlier sharded key
        carried the switch's field, so none can collide with a new key;
        the serial pins did not move because serial keys never held those
        fields."""
        assert config.fingerprint() == expected

    @pytest.mark.parametrize("spec, expected", [
        (ArchitectureSpec("mixed", lattice_rows=9, num_atoms=30),
         "617c97b4c53a6ad4c1e37a0a0758aed3fa26b57154f710b5d255207dcb5890c3"),
        (ArchitectureSpec("gate", lattice_rows=7, lattice_cols=9,
                          topology="rectangular", spacing_y=4.0,
                          num_atoms=30),
         "b6f6d3edf6e29991336539b048716b186a61de671b1d1158343e8d0477d4ccec"),
        (ArchitectureSpec("zoned", lattice_rows=9, num_atoms=30),
         "d815c4b289d0398e9ba168df70d9dbee30104ab31cba8ab693c8d93ebf6063f5"),
    ], ids=["square", "rectangular", "zoned"])
    def test_architecture_store_key_is_pinned(self, spec, expected):
        """The device half of every store key: a change to the topology
        classes behind ``cache_key()`` must not move it."""
        assert spec.store_key() == "architecture/v2|sha256:" + expected

    def test_canonical_key_sorted_by_field_name(self):
        names = [part.split("=")[0]
                 for part in MapperConfig().canonical_key().split("|")[1:]]
        assert names == sorted(names)

    def test_int_valued_floats_normalised(self):
        """MapperConfig(alpha_gate=2) == MapperConfig(alpha_gate=2.0); the
        fingerprints must coincide too (repr(2) != repr(2.0) otherwise)."""
        assert (MapperConfig(alpha_gate=2).fingerprint()
                == MapperConfig(alpha_gate=2.0).fingerprint())
        assert (MapperConfig(time_weight=1).fingerprint()
                == MapperConfig(time_weight=1.0).fingerprint())


class TestEqualStreamsEqualKeys:
    """Differential grid: every inert override must leave both the op stream
    and the config fingerprint unchanged — equal streams, equal store keys."""

    @pytest.mark.parametrize("hardware", ("gate", "mixed", "shuttling"))
    @pytest.mark.parametrize("circuit_name", ("qft", "graph"))
    def test_inert_overrides_share_stream_and_key(self, hardware,
                                                  circuit_name):
        spec = ArchitectureSpec(hardware, lattice_rows=7, num_atoms=30)
        architecture = spec.build()
        circuit = get_benchmark(circuit_name, num_qubits=12, seed=3)

        def digest(config):
            return compile_circuit(circuit, architecture, config) \
                .require_result().op_stream_digest()["sha256"]

        for base, override in INERT:
            config = base.with_overrides(**override)
            assert digest(config) == digest(base), override
            assert config.fingerprint() == base.fingerprint(), override


class TestArchitectureSpecKey:
    def test_equal_kwargs_equal_key(self):
        a = ArchitectureSpec("mixed", lattice_rows=9, num_atoms=40, spacing=3.0)
        b = ArchitectureSpec(num_atoms=40, spacing=3.0, hardware="mixed",
                             lattice_rows=9)
        assert a.store_key() == b.store_key()

    def test_zone_layout_list_vs_tuple_normalised(self):
        a = ArchitectureSpec("mixed", lattice_rows=9, topology="zoned",
                             zone_layout=[["storage", 3], ["entangling", 4],
                                          ["storage", 2]])
        b = ArchitectureSpec("mixed", lattice_rows=9, topology="zoned",
                             zone_layout=(("storage", 3), ("entangling", 4),
                                          ("storage", 2)))
        assert a.store_key() == b.store_key()

    def test_zoned_spelling_aliases_coincide(self):
        assert (ArchitectureSpec("zoned", lattice_rows=9).store_key()
                == ArchitectureSpec("zoned", lattice_rows=9,
                                    topology="zoned").store_key())

    def test_distinct_topologies_distinct_keys(self):
        square = ArchitectureSpec("mixed", lattice_rows=9)
        zoned = ArchitectureSpec("mixed", lattice_rows=9, topology="zoned")
        assert square.store_key() != zoned.store_key()

    def test_int_valued_spacing_normalised(self):
        """JSON wire payloads spell whole floats as ints; equal-valued specs
        must produce the identical store key regardless of spelling."""
        a = ArchitectureSpec("mixed", lattice_rows=9, spacing=3)
        b = ArchitectureSpec("mixed", lattice_rows=9, spacing=3.0)
        assert a == b
        assert a.store_key() == b.store_key()
        c = ArchitectureSpec("mixed", lattice_rows=9,
                             topology="rectangular", spacing_y=2)
        d = ArchitectureSpec("mixed", lattice_rows=9,
                             topology="rectangular", spacing_y=2.0)
        assert c.store_key() == d.store_key()

    def test_v2_built_device_identity(self):
        """v2 keys address the *built* device: spelling out a preset's
        computed default aliases with leaving it unset, while different
        physics still produce different keys."""
        implicit = ArchitectureSpec("mixed", lattice_rows=9)
        explicit = ArchitectureSpec("mixed", lattice_rows=9,
                                    num_atoms=implicit.build().num_atoms)
        assert implicit.store_key().startswith("architecture/v2|")
        assert implicit.store_key() == explicit.store_key()
        assert (ArchitectureSpec("mixed", lattice_rows=9).store_key()
                != ArchitectureSpec("gate", lattice_rows=9).store_key())
        assert (ArchitectureSpec("mixed", lattice_rows=9).store_key()
                != ArchitectureSpec("mixed", lattice_rows=11).store_key())


class TestStoreKey:
    def test_version_changes_invalidate(self):
        circuit = get_benchmark("qft", num_qubits=8)
        spec = ArchitectureSpec("mixed", lattice_rows=7, num_atoms=30)
        config = MapperConfig()
        current = compute_store_key(circuit, spec, config)
        assert current.version == __version__
        other = compute_store_key(circuit, spec, config, version="0.0.0")
        assert current.digest() != other.digest()

    def test_task_key_matches_direct_key(self):
        spec = ArchitectureSpec("mixed", lattice_rows=7, num_atoms=30)
        task = CompilationTask("t", spec, circuit_name="qft", num_qubits=8)
        direct = compute_store_key(task.build_circuit(), spec,
                                   task.build_config())
        assert task.store_key == direct

    def test_round_trips_through_dict(self):
        key = StoreKey("c" * 64, "architecture/v1|hardware='mixed'", "f" * 64)
        assert StoreKey.from_dict(key.as_dict()) == key


class TestCrossProcessStability:
    """Satellite regression: identical kwargs must produce identical store
    keys in a *different* process (different hash seed, fresh interpreter) —
    no reliance on dict order, hash randomisation or object identity."""

    SCRIPT = """
import sys
from repro.circuit.library import get_benchmark
from repro.mapping import MapperConfig
from repro.pipeline import compile_circuit
from repro.service import ArchitectureSpec
from repro.store import compute_store_key

spec = ArchitectureSpec(num_atoms=30, hardware="mixed", lattice_rows=7,
                        topology="zoned",
                        zone_layout=[["storage", 2], ["entangling", 3],
                                     ["storage", 2]])
config = MapperConfig.for_mode("hybrid", 1.5,
                               lookahead_weight=0.2, history_window=6)
circuit = get_benchmark("qft", num_qubits=9)
key = compute_store_key(circuit, spec, config)
print(spec.store_key())
print(config.fingerprint())
print(circuit.canonical_digest())
print(key.digest())
"""

    def _compute_here(self):
        spec = ArchitectureSpec("mixed", lattice_rows=7, num_atoms=30,
                                topology="zoned",
                                zone_layout=(("storage", 2), ("entangling", 3),
                                             ("storage", 2)))
        config = MapperConfig(alpha_gate=1.5, alpha_shuttling=1.0,
                              lookahead_weight=0.2, history_window=6)
        circuit = get_benchmark("qft", num_qubits=9)
        key = compute_store_key(circuit, spec, config)
        return [spec.store_key(), config.fingerprint(),
                circuit.canonical_digest(), key.digest()]

    ANISOTROPY_SCRIPT = """
from repro.service import ArchitectureSpec

tall = ArchitectureSpec("mixed", lattice_rows=9, num_atoms=30,
                        topology="rectangular", spacing=2.0, spacing_y=3.0)
wide = ArchitectureSpec("mixed", lattice_rows=9, num_atoms=30,
                        topology="rectangular", spacing=3.0, spacing_y=2.0)
iso = ArchitectureSpec("mixed", lattice_rows=9, num_atoms=30,
                       topology="rectangular", spacing_y=3.0)
print(tall.store_key())
print(wide.store_key())
print(iso.store_key())
"""

    @pytest.mark.parametrize("hash_seed", ["0", "4242"])
    def test_subprocess_reproduces_every_component(self, hash_seed):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines() == self._compute_here()

    def test_subprocess_keeps_anisotropic_grids_distinct(self):
        """Regression: two anisotropic grids sharing only their *minimum*
        spacing must map to distinct store keys — and the keys must match
        across processes, so the distinction is value-derived, not an
        accident of object identity."""
        from repro.service import ArchitectureSpec
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "4242"
        proc = subprocess.run([sys.executable, "-c", self.ANISOTROPY_SCRIPT],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        tall_key, wide_key, iso_key = proc.stdout.strip().splitlines()
        assert tall_key != wide_key
        local = ArchitectureSpec("mixed", lattice_rows=9, num_atoms=30,
                                 topology="rectangular", spacing=2.0,
                                 spacing_y=3.0)
        assert local.store_key() == tall_key
        # The isotropic spelling folds to the plain square-lattice device.
        square = ArchitectureSpec("mixed", lattice_rows=9, num_atoms=30)
        assert square.store_key() == iso_key
