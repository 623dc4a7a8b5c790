"""Output checks: every compiled op stream is replayed and its digest tracked."""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List

from repro.mapping.replay import validate_stream

__all__ = ["StreamChecker", "load_recorded_digests", "DIGESTS_PATH"]

#: Op-stream digests the benchmark recorded for itself, keyed by entry label.
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def load_recorded_digests() -> Dict[str, str]:
    try:
        return json.loads(DIGESTS_PATH.read_text())
    except FileNotFoundError:
        return {}


class StreamChecker:
    """Checks compiles and keeps the first op-stream digest of each label.

    A compile fails when it raised, produced no result or metrics, is
    incomplete, or its stream fails :func:`validate_stream`.  A label whose
    digest changes between compiles in one run is nondeterministic, which
    makes the run incorrect.  A digest that differs from the recorded one
    is reported loudly but is not a failure: intentional version bumps
    shift streams.
    """

    def __init__(self, log: Callable[[str], None],
                 recorded: Dict[str, str]) -> None:
        self.log = log
        self.recorded = recorded
        self.digests: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.diverged: List[str] = []
        self.recorded_mismatches: List[str] = []

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.diverged

    def fail(self, label: str, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.log(f"FAILED {label}: {reason}")

    def check(self, label: str, context, architecture, connectivity) -> float:
        """Check one finished compile; returns the seconds spent replaying."""
        result = context.result
        if result is None or context.metrics is None:
            self.fail(label, "no mapping result or metrics")
            return 0.0
        try:
            result.verify_complete()
        except AssertionError as exc:
            self.fail(label, str(exc))
            return 0.0
        tick = time.perf_counter()
        violations = validate_stream(result, architecture, connectivity)
        replay_s = time.perf_counter() - tick
        if violations:
            self.fail(label, "; ".join(violations[:3]))
            return replay_s
        self.attempted += 1
        self.note_digest(label, result.op_stream_digest())
        return replay_s

    def note_digest(self, label: str, digest: Dict[str, object]) -> None:
        sha = str(digest["sha256"])
        first = self.digests.get(label)
        if first is None:
            self.digests[label] = sha
            recorded = self.recorded.get(label)
            if recorded is None:
                status = "no recorded digest"
            elif recorded == sha:
                status = "matches recorded"
            else:
                status = f"DIFFERS FROM RECORDED {recorded[:16]}"
                self.recorded_mismatches.append(label)
            self.log(f"digest {label} sha256={sha[:16]} "
                     f"ops={digest['num_operations']} "
                     f"swaps={digest['num_swaps']} moves={digest['num_moves']} "
                     f"[{status}]")
        elif first != sha:
            self.diverged.append(label)
            self.log(f"NONDETERMINISTIC {label}: {sha[:16]} != {first[:16]}")
