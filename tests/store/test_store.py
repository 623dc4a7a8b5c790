"""ResultStore behaviour: round trips, failure modes, eviction, counters.

The acceptance property: a store-served artifact is byte-identical to the
fresh compile that produced it, and a store can never serve a corrupted
payload — integrity failures quarantine the file and report a miss.
"""

import json
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from repro.circuit import QuantumCircuit
from repro.mapping import MapperConfig
from repro.pipeline import compile_circuit
from repro.service import ARCHITECTURE_CACHE, ArchitectureSpec
from repro.store import (
    ArtifactError,
    CompiledArtifact,
    ResultStore,
    StoreKey,
    compute_store_key,
)

SPEC = ArchitectureSpec("mixed", lattice_rows=7, num_atoms=30)

#: A v1 artifact exactly as written before the timing dicts were dropped:
#: it still carries ``stage_seconds`` and ``pass_seconds``.
LEGACY_ARTIFACT = Path(__file__).with_name("legacy_v1_artifact.json")


@pytest.fixture(scope="module")
def compiled(small_graph_circuit):
    """One real pipeline compile → (key, artifact, reference digest)."""
    architecture, connectivity = ARCHITECTURE_CACHE.get(SPEC)
    config = MapperConfig.for_mode("hybrid", 1.0)
    context = compile_circuit(small_graph_circuit, architecture, config,
                              connectivity=connectivity, alpha_ratio=1.0)
    key = compute_store_key(small_graph_circuit, SPEC, config)
    return key, CompiledArtifact.from_context(context), \
        context.require_result().op_stream_digest()


def _distinct_key(index: int) -> StoreKey:
    return StoreKey(circuit_digest=f"{index:064d}",
                    architecture_key=SPEC.store_key(),
                    config_fingerprint="f" * 64)


class TestRoundTrip:
    def test_store_served_artifact_is_byte_identical(self, tmp_path, compiled):
        key, artifact, reference_digest = compiled
        store = ResultStore(tmp_path)
        store.put(key, artifact)
        loaded = store.get(key)
        assert loaded == artifact
        assert loaded.op_stream == artifact.op_stream
        # The acceptance criterion: the served digest equals the digest a
        # fresh compile of the same request emits.
        assert loaded.op_stream_digest() == reference_digest
        assert loaded.metrics == artifact.metrics

    def test_miss_on_unknown_key(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(_distinct_key(1)) is None
        assert store.stats.misses == 1 and store.stats.hits == 0

    def test_contains(self, tmp_path, compiled):
        key, artifact, _ = compiled
        store = ResultStore(tmp_path)
        assert key not in store
        store.put(key, artifact)
        assert key in store

    def test_metrics_renamed_for_request(self, compiled):
        _, artifact, _ = compiled
        renamed = artifact.metrics_for("other-request")
        assert renamed.circuit_name == "other-request"
        assert renamed.delta_cz == artifact.metrics.delta_cz

    def test_require_metrics_treats_metricless_entry_as_miss(self, tmp_path,
                                                             compiled):
        key, artifact, _ = compiled
        store = ResultStore(tmp_path)
        store.put(key, replace(artifact, metrics=None))
        assert store.get(key, require_metrics=True) is None
        assert store.get(key, require_metrics=False) is not None


class TestCorruption:
    def test_flipped_payload_is_quarantined_miss(self, tmp_path, compiled):
        key, artifact, _ = compiled
        store = ResultStore(tmp_path)
        path = store.put(key, artifact)
        data = json.loads(path.read_text())
        data["op_stream"][0] = data["op_stream"][0] + " TAMPERED"
        path.write_text(json.dumps(data))

        assert store.get(key) is None
        assert store.stats.corruptions == 1
        assert store.stats.misses == 1
        quarantined = store.quarantined()
        assert len(quarantined) == 1
        assert quarantined[0].name == path.name + ".corrupt"
        assert not path.exists()
        # Subsequent lookups are plain misses — no double-count, no serve.
        assert store.get(key) is None
        assert store.stats.corruptions == 1

    def test_truncated_payload_is_quarantined_miss(self, tmp_path, compiled):
        key, artifact, _ = compiled
        store = ResultStore(tmp_path)
        path = store.put(key, artifact)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.get(key) is None
        assert store.stats.corruptions == 1
        assert store.quarantined()

    def test_wrong_key_payload_is_rejected(self, tmp_path, compiled):
        """A file misplaced under another key's path must not be served."""
        key, artifact, _ = compiled
        store = ResultStore(tmp_path)
        source = store.put(key, artifact)
        other = _distinct_key(7)
        source.rename(store.path_for(other))
        assert store.get(other) is None
        assert store.stats.corruptions == 1

    @pytest.mark.parametrize("stored_key", [{}, "x"])
    def test_malformed_key_is_quarantined_miss(self, tmp_path, compiled,
                                               stored_key):
        key, artifact, _ = compiled
        store = ResultStore(tmp_path)
        path = store.put(key, artifact)
        data = json.loads(path.read_text())
        data["key"] = stored_key
        path.write_text(json.dumps(data))

        assert store.get(key) is None
        assert store.stats.corruptions == 1
        assert [p.name for p in store.quarantined()] == [path.name + ".corrupt"]

    def test_recompile_after_quarantine_overwrites(self, tmp_path, compiled):
        key, artifact, _ = compiled
        store = ResultStore(tmp_path)
        path = store.put(key, artifact)
        path.write_text("not json at all")
        assert store.get(key) is None
        store.put(key, artifact)
        assert store.get(key) == artifact

    def test_artifact_error_messages(self, compiled):
        _, artifact, _ = compiled
        with pytest.raises(ArtifactError, match="JSON"):
            CompiledArtifact.from_json("{broken")
        with pytest.raises(ArtifactError, match="schema"):
            CompiledArtifact.from_json(json.dumps({"schema": "wrong/v9"}))
        with pytest.raises(ArtifactError, match="integrity"):
            tampered = json.loads(artifact.to_json())
            tampered["op_stream"] = list(tampered["op_stream"]) + ["M extra"]
            CompiledArtifact.from_json(json.dumps(tampered))


class TestLegacyPayload:
    @staticmethod
    def _legacy_compile():
        circuit = QuantumCircuit(8, name="legacy")
        circuit.h(0).cz(0, 7).cz(1, 6).h(3).cz(2, 5, 7).cz(0, 4)
        architecture, connectivity = ARCHITECTURE_CACHE.get(SPEC)
        config = MapperConfig.for_mode("hybrid", 1.0)
        context = compile_circuit(circuit, architecture, config,
                                  connectivity=connectivity, alpha_ratio=1.0)
        return compute_store_key(circuit, SPEC, config), context

    def test_legacy_payload_with_timing_dicts_still_loads(self, tmp_path):
        text = LEGACY_ARTIFACT.read_text()
        payload = json.loads(text)
        assert {"stage_seconds", "pass_seconds"} <= set(payload)
        key, context = self._legacy_compile()
        assert key.as_dict() == payload["key"]

        store = ResultStore(tmp_path)
        store.path_for(key).write_text(text)
        loaded = store.get(key)
        assert loaded is not None and store.stats.hits == 1

        fresh = context.require_result()
        assert list(loaded.op_stream) == payload["op_stream"]
        assert list(loaded.op_stream) == fresh.op_stream_lines()
        assert loaded.op_stream_sha256 == payload["op_stream_sha256"]
        assert loaded.op_stream_digest() == fresh.op_stream_digest()
        assert loaded.runtime_seconds == payload["runtime_seconds"]
        assert loaded.metrics == replace(
            context.require_metrics(),
            runtime_seconds=payload["metrics"]["runtime_seconds"])

    def test_fresh_payload_omits_timing_dicts_and_round_trips(self):
        key, context = self._legacy_compile()
        artifact = CompiledArtifact.from_context(context)
        text = artifact.to_json(key)
        payload = json.loads(text)
        assert "stage_seconds" not in payload
        assert "pass_seconds" not in payload
        assert CompiledArtifact.from_json(text, expected_key=key) == artifact


class TestConcurrentWriters:
    def test_same_key_racing_writers_never_tear(self, tmp_path, compiled):
        """Many threads writing one key: atomic rename wins wholesale, every
        interleaved read observes a complete, integrity-valid payload."""
        key, artifact, _ = compiled
        store = ResultStore(tmp_path)
        errors = []

        def writer() -> None:
            handle = ResultStore(*store.spec)
            for _ in range(10):
                try:
                    handle.put(key, artifact)
                except Exception as exc:  # noqa: BLE001
                    errors.append(f"put: {exc}")

        def reader() -> None:
            handle = ResultStore(*store.spec)
            for _ in range(30):
                loaded = handle.get(key)
                if loaded is not None and loaded != artifact:
                    errors.append("torn read: loaded artifact differs")
            if handle.stats.corruptions:
                errors.append(f"reader saw {handle.stats.corruptions} corruptions")

        threads = [threading.Thread(target=writer) for _ in range(4)] + \
                  [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors[:5]
        assert store.get(key) == artifact
        leftovers = [p for p in tmp_path.iterdir() if ".tmp-" in p.name]
        assert not leftovers, leftovers

    def test_shared_counters_lose_no_update(self, tmp_path):
        """Handles on one root bump one counter set from many threads; each
        lookup must be counted exactly once."""
        store = ResultStore(tmp_path)
        threads_n, lookups = 8, 300
        key = _distinct_key(7)

        def reader() -> None:
            handle = ResultStore(*store.spec)
            for _ in range(lookups):
                handle.get(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert store.stats.misses == threads_n * lookups


class TestEviction:
    def _padded(self, artifact, label: str) -> CompiledArtifact:
        return replace(artifact, circuit_name=label)

    def test_lru_eviction_under_tiny_budget(self, tmp_path, compiled):
        key_a, artifact, _ = compiled
        entry_bytes = len(artifact.to_json(key_a).encode())
        store = ResultStore(tmp_path, max_bytes=int(entry_bytes * 2.5))
        key_b, key_c = _distinct_key(2), _distinct_key(3)

        store.put(key_a, artifact)
        store.put(key_b, self._padded(artifact, "entry-b"))
        assert store.num_entries() == 2
        assert store.get(key_a) is not None   # touch a → b is now LRU
        store.put(key_c, self._padded(artifact, "entry-c"))

        assert store.stats.evictions == 1
        assert store.get(key_b) is None       # the LRU entry went
        assert store.get(key_a) is not None
        assert store.get(key_c) is not None
        assert store.total_bytes() <= store.max_bytes

    def test_fresh_write_is_protected_from_its_own_eviction(self, tmp_path,
                                                            compiled):
        key, artifact, _ = compiled
        entry_bytes = len(artifact.to_json(key).encode())
        store = ResultStore(tmp_path, max_bytes=max(1, entry_bytes // 2))
        store.put(key, artifact)
        assert store.get(key) is not None

    def test_unbounded_store_never_evicts(self, tmp_path, compiled):
        _, artifact, _ = compiled
        store = ResultStore(tmp_path)
        for index in range(5):
            store.put(_distinct_key(index), artifact)
        assert store.num_entries() == 5
        assert store.stats.evictions == 0

    def test_invalid_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path, max_bytes=0)


class TestStats:
    def test_stats_dict_shape(self, tmp_path, compiled):
        key, artifact, _ = compiled
        store = ResultStore(tmp_path, max_bytes=10_000_000)
        store.put(key, artifact)
        store.get(key)
        store.get(_distinct_key(9))
        payload = store.stats_dict()
        assert payload["hits"] == 1
        assert payload["misses"] == 1
        assert payload["puts"] == 1
        assert payload["num_entries"] == 1
        assert payload["total_bytes"] > 0
        assert payload["max_bytes"] == 10_000_000
        assert payload["num_quarantined"] == 0

    def test_handles_on_one_root_share_counters(self, tmp_path, compiled):
        # A pool job opens its own handle from ``store.spec``; its puts and
        # lookups must show on the caller's handle, in one series.
        key, artifact, _ = compiled
        store = ResultStore(tmp_path / "shared")
        worker = ResultStore.from_spec(store.spec)
        worker.put(key, artifact)
        worker.get(key)
        assert store.stats.puts == 1 and store.stats.hits == 1
        assert store.stats.instance == worker.stats.instance
        other = ResultStore(tmp_path / "other")
        assert other.stats.puts == 0

    def test_from_spec_opens_one_handle_per_spec_per_process(
            self, tmp_path, monkeypatch):
        import repro.store.resultstore as resultstore

        spec = ResultStore(tmp_path).spec
        handle = ResultStore.from_spec(spec)
        assert ResultStore.from_spec(spec) is handle
        assert ResultStore.from_spec((spec[0], 1 << 20)) is not handle
        # A forked worker (another pid) opens its own handle and lock.
        monkeypatch.setattr(resultstore.os, "getpid", lambda: -1)
        assert ResultStore.from_spec(spec) is not handle
