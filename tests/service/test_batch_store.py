"""BatchCompiler × ResultStore: compile-once/serve-many on the batch path.

Acceptance: a second batch over the same tasks is served entirely from the
store with metrics equal to the compiled run (bit-identity contract), on
both the serial and the process-pool path.
"""

import os

import pytest

from repro.service import batch as batch_module
from repro.service import (
    ArchitectureSpec,
    BatchCompiler,
    CompilationTask,
)
from repro.resilience import SupervisedPool
from repro.store import ResultStore

SPEC = ArchitectureSpec("mixed", lattice_rows=7, num_atoms=30)

TASKS = (
    CompilationTask("graph-16", SPEC, circuit_name="graph", num_qubits=16,
                    seed=5),
    CompilationTask("qft-10", SPEC, circuit_name="qft", num_qubits=10),
    CompilationTask("graph-12", SPEC, circuit_name="graph", num_qubits=12,
                    seed=7, mode="shuttling_only"),
)


@pytest.fixture()
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path)


class TestSerialPath:
    def test_second_batch_is_served_from_store(self, store):
        compiler = BatchCompiler(max_workers=1, store=store)
        first = compiler.compile(TASKS)
        assert first.ok
        assert not first.from_store
        assert store.stats.puts == len(TASKS)

        second = compiler.compile(TASKS)
        assert second.ok
        assert len(second.from_store) == len(TASKS)
        assert second.summary()["num_from_store"] == len(TASKS)
        for compiled, served in zip(first.results, second.results):
            assert served.metrics == compiled.metrics

    def test_store_artifact_digest_matches_kept_result(self, store):
        """Byte-identity between the persisted artifact and the in-memory
        MappingResult of the compile that produced it."""
        compiler = BatchCompiler(max_workers=1, keep_results=True, store=store)
        batch = compiler.compile(TASKS[:1])
        assert batch.ok
        entry = batch.results[0]
        artifact = store.get(entry.task.store_key)
        assert artifact is not None
        assert artifact.op_stream_digest() == entry.result.op_stream_digest()
        assert artifact.op_stream == tuple(entry.result.op_stream_lines())

    def test_keep_results_bypasses_store_reads(self, store):
        """A keep_results batch needs real MappingResults, which store hits
        cannot carry — so it recompiles (and refreshes the store) instead of
        serving metrics-only entries."""
        BatchCompiler(max_workers=1, store=store).compile(TASKS[:1])
        batch = BatchCompiler(max_workers=1, keep_results=True,
                              store=store).compile(TASKS[:1])
        assert batch.ok
        assert not batch.results[0].from_store
        assert batch.results[0].result is not None

    def test_metricless_entry_upgraded_when_metrics_needed(self, store):
        """An evaluate=False artifact must not satisfy an evaluate=True task."""
        BatchCompiler(max_workers=1, evaluate=False,
                      store=store).compile(TASKS[:1])
        key = TASKS[0].store_key
        assert store.get(key, require_metrics=True) is None

        batch = BatchCompiler(max_workers=1, store=store).compile(TASKS[:1])
        assert batch.ok
        assert not batch.results[0].from_store, "metric-less entry must recompile"
        assert batch.results[0].metrics is not None
        assert store.get(key, require_metrics=True) is not None

    def test_a_miss_is_built_and_keyed_once(self, store, monkeypatch):
        """The lookup's circuit and key serve the compile of a miss."""
        builds, keys = [], []
        stock_build = CompilationTask.build_circuit
        stock_key = batch_module.compute_store_key

        def counting_build(task):
            builds.append(task.task_id)
            return stock_build(task)

        def counting_key(*args, **kwargs):
            keys.append(args[0].name)
            return stock_key(*args, **kwargs)

        monkeypatch.setattr(CompilationTask, "build_circuit", counting_build)
        monkeypatch.setattr(batch_module, "compute_store_key", counting_key)
        tasks = [CompilationTask(task.task_id, task.architecture,
                                 circuit_name=task.circuit_name,
                                 num_qubits=task.num_qubits, seed=task.seed,
                                 mode=task.mode) for task in TASKS]
        batch = BatchCompiler(max_workers=1, store=store).compile(tasks)
        assert batch.ok and not batch.from_store
        assert builds == [task.task_id for task in TASKS]
        assert len(keys) == len(TASKS)

    def test_pickled_task_carries_its_circuit_and_key(self):
        import pickle

        task = CompilationTask("memo", SPEC, circuit_name="graph",
                               num_qubits=8, seed=3)
        key = task.store_key
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
        assert {"circuit", "store_key"} <= set(vars(clone))
        assert clone.store_key == key
        assert clone.circuit.canonical_digest() == \
            task.circuit.canonical_digest()

    def test_failures_are_not_cached(self, store):
        broken = CompilationTask("broken", SPEC, circuit_name="nope")
        batch = BatchCompiler(max_workers=1, store=store).compile([broken])
        assert not batch.ok
        assert store.num_entries() == 0


class TestPoolPath:
    def test_worker_processes_share_the_store_directory(self, store):
        first = BatchCompiler(max_workers=2, store=store).compile(TASKS)
        assert first.ok
        assert store.num_entries() == len(TASKS)

        second = BatchCompiler(max_workers=2, store=store).compile(TASKS)
        assert second.ok
        assert len(second.from_store) == len(TASKS), \
            "pool workers must persist to the shared store directory"
        for compiled, served in zip(first.results, second.results):
            assert served.metrics == compiled.metrics

    def test_store_disabled_by_default(self, tmp_path):
        batch = BatchCompiler(max_workers=1).compile(TASKS[:1])
        assert batch.ok
        assert not batch.results[0].from_store


class TestParentSideLookup:
    """The compiler reads the store once per task in the parent; only
    misses reach the worker job, which compiles and persists."""

    BROKEN = CompilationTask("broken", SPEC, circuit_name="nope")

    def test_serial_hits_never_run_the_worker_job(self, store, monkeypatch):
        BatchCompiler(max_workers=1, store=store).compile(TASKS[:2])
        ran = []
        stock_execute = batch_module._execute_task

        def recording_execute(task, **kwargs):
            ran.append(task.task_id)
            return stock_execute(task, **kwargs)

        monkeypatch.setattr(batch_module, "_execute_task", recording_execute)
        batch = BatchCompiler(max_workers=1, store=store).compile(
            TASKS + (self.BROKEN,))
        assert ran == [TASKS[2].task_id]
        self._assert_outcome(batch, store)

    def test_pool_hits_never_reach_a_worker(self, store, monkeypatch):
        BatchCompiler(max_workers=1, store=store).compile(TASKS[:2])
        submitted = []

        class RecordingPool(SupervisedPool):
            def submit(self, fn, *args, **kwargs):
                submitted.append(kwargs["label"])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(batch_module, "SupervisedPool", RecordingPool)
        batch = BatchCompiler(max_workers=2, store=store).compile(
            TASKS + (self.BROKEN,))
        assert submitted == [TASKS[2].task_id]
        self._assert_outcome(batch, store)

    def test_serial_serves_a_repeated_key_from_the_first_compile(self,
                                                                 store):
        twin = CompilationTask("qft-10-twin", SPEC, circuit_name="qft",
                               num_qubits=10)
        assert twin.store_key == TASKS[1].store_key
        batch = BatchCompiler(max_workers=1, store=store).compile(
            [TASKS[1], twin])
        assert batch.ok
        assert [entry.from_store for entry in batch.results] == [False, True]
        assert batch.results[1].metrics == batch.results[0].metrics
        assert store.num_entries() == 1

    def _assert_outcome(self, batch, store):
        hits, miss, broken = batch.results[:2], batch.results[2], \
            batch.results[3]
        assert all(entry.ok and entry.from_store for entry in hits)
        assert all(entry.worker_pid == os.getpid() for entry in hits)
        assert miss.ok and not miss.from_store
        assert not broken.ok and not broken.from_store
        assert broken.error.startswith("ValueError")
        assert store.num_entries() == len(TASKS)
