"""Directory-backed, content-addressed store of compiled artifacts.

One JSON file per :class:`~repro.store.StoreKey` digest, written atomically
(temp file + ``os.replace``), verified on every load (op-stream SHA-256 and
key match — see :mod:`repro.store.artifact`), and size-bounded with
LRU eviction (file mtimes double as recency stamps: a hit touches its
file).  Corrupted payloads are never served: they are quarantined under a
``.corrupt`` suffix, counted, and reported as misses so the caller simply
recompiles and overwrites.

The store is safe for concurrent readers and writers across threads *and*
processes: the atomic rename means a reader observes either the previous
complete payload or the new complete payload, never a torn write (enforced
by ``tests/store/test_store.py``).  Counters are per store directory and
process.  Pool jobs reach the store through :meth:`ResultStore.from_spec`,
one handle per spec per process, so the orphan sweep runs once per
directory per process rather than once per job.
"""

from __future__ import annotations

import os
import time
import uuid
from pathlib import Path
from threading import Lock
from typing import Dict, List, Optional, Tuple

from ..telemetry import tracing
from ..telemetry.registry import CounterSet
from .artifact import ArtifactError, CompiledArtifact
from .keys import StoreKey

__all__ = ["ResultStore", "StoreStats"]


class StoreStats(CounterSet):
    """Per-directory operation counters (hits / misses / corruption / churn).

    Registry-backed (``repro_store_*_total``, one ``instance`` label per
    store root, so handles on one directory share their counters);
    attribute reads and ``+=`` keep working for callers and tests.
    """

    PREFIX = "repro_store"
    FIELDS = ("hits", "misses", "corruptions", "puts", "evictions",
              "fsyncs", "orphans_swept")
    HELP = {
        "hits": "Store lookups served from a verified on-disk artifact",
        "misses": "Store lookups that found no usable artifact",
        "corruptions": "Artifacts that failed verification and were "
                       "quarantined",
        "puts": "Artifacts persisted",
        "evictions": "Artifacts evicted by the LRU size budget",
        "fsyncs": "fsyncs issued before atomic renames (durability)",
        "orphans_swept": "Stale *.tmp crash leftovers swept at startup",
    }


class ResultStore:
    """Persistent compiled-result store rooted at a directory.

    Parameters
    ----------
    root:
        Directory holding the artifacts (created on first use).
    max_bytes:
        Optional size budget.  After every write the store evicts
        least-recently-used entries until the total payload size fits;
        ``None`` disables eviction.
    """

    def __init__(self, root, max_bytes: Optional[int] = None, *,
                 fault_plan=None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None for unbounded)")
        self.root = Path(root)
        self.max_bytes = max_bytes
        #: Test seam: a :class:`repro.resilience.FaultPlan` may corrupt a
        #: freshly-written entry (chaos suite); never set in production.
        self.fault_plan = fault_plan
        self.stats = StoreStats(instance=f"store:{self.root.absolute()}")
        self._lock = Lock()
        # Strictly increasing recency clock: consecutive touches within one
        # process always order correctly even on coarse-mtime filesystems.
        self._clock = time.time()
        self._sweep_orphans()

    # ------------------------------------------------------------------
    # Worker-handle plumbing
    # ------------------------------------------------------------------
    @property
    def spec(self):
        """Picklable handle spec for worker processes.

        ``(root, max_bytes)`` normally; an attached fault plan rides along
        as a third element so chaos-test workers rebuild handles with the
        same injection seam (the plan itself is picklable).
        """
        if self.fault_plan is not None:
            return (str(self.root), self.max_bytes, self.fault_plan)
        return (str(self.root), self.max_bytes)

    #: ``(pid, *spec)`` → handle; keyed on the pid so a forked worker
    #: opens its own handle (and lock) instead of reusing its parent's.
    #: Unlocked on purpose: a fork while another thread held a lock here
    #: would deadlock the child, and a race only opens one spare handle.
    _handles: Dict[tuple, "ResultStore"] = {}

    @classmethod
    def from_spec(cls, spec) -> "ResultStore":
        """This process's one handle on ``spec``, opened on first use."""
        key = (os.getpid(), *spec)
        if key not in cls._handles:
            root, max_bytes, *rest = spec
            cls._handles.setdefault(key, cls(
                root, max_bytes=max_bytes,
                fault_plan=rest[0] if rest else None))
        return cls._handles[key]

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path_for(self, key: StoreKey) -> Path:
        return self.root / f"{key.digest()}.json"

    def _next_stamp(self) -> float:
        with self._lock:
            self._clock = max(time.time(), self._clock + 1e-4)
            return self._clock

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, key: StoreKey, *,
            require_metrics: bool = False) -> Optional[CompiledArtifact]:
        """The stored artifact for ``key``, or ``None`` on miss.

        A payload that fails integrity verification is quarantined (renamed
        to ``*.corrupt``), counted under ``stats.corruptions``, and reported
        as a miss.  With ``require_metrics`` a metrics-less artifact (stored
        by an ``evaluate=False`` compile) is also treated as a miss, so a
        metrics-expecting caller recompiles and upgrades the entry in place.
        """
        with tracing.span("store.get", digest=key.digest()) as trace_span:
            path = self.path_for(key)
            try:
                text = path.read_text()
            except (FileNotFoundError, OSError):
                self.stats.inc("misses")
                trace_span.set(outcome="miss")
                return None
            try:
                artifact = CompiledArtifact.from_json(text, expected_key=key)
            except ArtifactError:
                self._quarantine(path)
                self.stats.inc("corruptions")
                self.stats.inc("misses")
                trace_span.set(outcome="corrupt")
                return None
            if require_metrics and artifact.metrics is None:
                self.stats.inc("misses")
                trace_span.set(outcome="metrics-miss")
                return None
            self._touch(path)
            self.stats.inc("hits")
            trace_span.set(outcome="hit")
            return artifact

    def __contains__(self, key: StoreKey) -> bool:
        return self.path_for(key).exists()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(self, key: StoreKey, artifact: CompiledArtifact) -> Path:
        """Atomically persist ``artifact`` under ``key``; returns its path.

        Concurrent writers of the same key are safe: each writes a private
        temp file and the last ``os.replace`` wins wholesale — readers never
        observe a torn payload.  The temp file is fsynced before the rename
        (and the directory after it, best effort) so a host crash can leave
        an *old* complete entry or a ``*.tmp`` orphan, but never a renamed
        file with unflushed content.
        """
        with tracing.span("store.put", digest=key.digest()):
            self.root.mkdir(parents=True, exist_ok=True)
            path = self.path_for(key)
            temp = path.with_name(
                f".{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}")
            with open(temp, "w") as handle:
                handle.write(artifact.to_json(key))
                handle.flush()
                os.fsync(handle.fileno())
            self.stats.inc("fsyncs")
            os.replace(temp, path)
            self._fsync_dir()
            if self.fault_plan is not None:
                self.fault_plan.fire_store_fault(path, key.digest())
            self._touch(path)
            self.stats.inc("puts")
            self._evict_if_needed(protect=path.name)
            return path

    def _fsync_dir(self) -> None:
        """Flush the rename itself (directory entry) to disk, best effort."""
        try:
            dir_fd = os.open(self.root, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _entries(self) -> List[Tuple[float, int, Path]]:
        """Live entries as ``(mtime, size, path)``; vanished files skipped."""
        entries = []
        try:
            candidates = list(self.root.glob("*.json"))
        except OSError:
            return []
        for path in candidates:
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def _evict_if_needed(self, protect: Optional[str] = None) -> None:
        if self.max_bytes is None:
            return
        with self._lock:
            entries = self._entries()
            total = sum(size for _, size, _ in entries)
            if total <= self.max_bytes:
                return
            # Oldest mtime first = least recently used (hits touch files).
            for _, size, path in sorted(entries, key=lambda entry: entry[0]):
                if path.name == protect:
                    continue
                try:
                    path.unlink()
                except OSError:
                    continue
                self.stats.inc("evictions")
                total -= size
                if total <= self.max_bytes:
                    break

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _touch(self, path: Path) -> None:
        stamp = self._next_stamp()
        try:
            os.utime(path, (stamp, stamp))
        except OSError:
            pass

    #: A live writer holds its temp file for well under a minute; anything
    #: older is a crash leftover (the write never reached its rename).
    _ORPHAN_AGE_S = 60.0

    def _sweep_orphans(self) -> None:
        """Delete stale ``*.tmp`` files left behind by crashed writers.

        Only files older than :attr:`_ORPHAN_AGE_S` are swept so a handle
        constructed while another process is mid-write never yanks a live
        temp file out from under its rename.
        """
        try:
            candidates = list(self.root.glob(".*.tmp-*"))
        except OSError:
            return
        cutoff = time.time() - self._ORPHAN_AGE_S
        for path in candidates:
            try:
                if path.stat().st_mtime > cutoff:
                    continue
                path.unlink()
            except OSError:
                continue
            self.stats.inc("orphans_swept")

    def _quarantine(self, path: Path) -> None:
        """Move a corrupted payload aside so it is never read again.

        The quarantined copy is kept (``*.corrupt``) for post-mortems rather
        than deleted; it no longer matches any key lookup or the eviction
        scan, so it cannot be served.
        """
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def num_entries(self) -> int:
        return len(self._entries())

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self._entries())

    def quarantined(self) -> List[Path]:
        try:
            return sorted(self.root.glob("*.corrupt"))
        except OSError:
            return []

    def stats_dict(self) -> Dict[str, object]:
        """Counters plus the current on-disk footprint (for the serving CLI)."""
        payload: Dict[str, object] = dict(self.stats.as_dict())
        payload.update({
            "root": str(self.root),
            "max_bytes": self.max_bytes,
            "num_entries": self.num_entries(),
            "total_bytes": self.total_bytes(),
            "num_quarantined": len(self.quarantined()),
        })
        return payload
