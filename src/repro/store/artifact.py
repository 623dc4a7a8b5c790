"""Serialisable compiled artifact: everything a serving layer hands back.

A :class:`CompiledArtifact` captures the products of one pipeline run that
are cheap to persist and sufficient to *serve* the compilation without
re-running it: the canonical op-stream text (the bit-identity contract of
the differential harness), its SHA-256 digest, the headline counts, the
Table-1a metrics, and the original compile's ``runtime_seconds`` (a store
hit reports what the mapping originally cost).

The JSON encoding is self-verifying: :func:`CompiledArtifact.from_json`
recomputes the op-stream SHA-256 and refuses payloads whose stored digest
does not match, which is what lets :class:`~repro.store.ResultStore`
quarantine corrupted files instead of serving them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional, Tuple

from ..evaluation.metrics import EvaluationMetrics
from .keys import StoreKey

__all__ = ["ARTIFACT_SCHEMA", "ArtifactError", "CompiledArtifact"]

ARTIFACT_SCHEMA = "repro-store-artifact/v1"


class ArtifactError(ValueError):
    """Raised when an artifact payload is malformed or fails integrity."""


def _op_stream_sha256(lines: Tuple[str, ...]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@dataclass(frozen=True)
class CompiledArtifact:
    """One persisted compilation result."""

    circuit_name: str
    mode: str
    num_qubits: int
    op_stream: Tuple[str, ...]
    op_stream_sha256: str
    num_operations: int
    num_swaps: int
    num_moves: int
    runtime_seconds: float
    metrics: Optional[EvaluationMetrics] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_context(cls, context) -> "CompiledArtifact":
        """Capture a finished :class:`~repro.pipeline.CompilationContext`."""
        result = context.require_result()
        lines = tuple(result.op_stream_lines())
        return cls(
            circuit_name=result.circuit.name,
            mode=result.mode,
            num_qubits=result.circuit.num_qubits,
            op_stream=lines,
            op_stream_sha256=_op_stream_sha256(lines),
            num_operations=len(result.operations),
            num_swaps=result.num_swaps,
            num_moves=result.num_moves,
            runtime_seconds=result.runtime_seconds,
            metrics=context.metrics,
        )

    # ------------------------------------------------------------------
    # Serving helpers
    # ------------------------------------------------------------------
    def op_stream_digest(self) -> Dict[str, object]:
        """Same shape as :meth:`repro.mapping.MappingResult.op_stream_digest`,
        so hit-vs-fresh byte-identity is a plain dict comparison."""
        return {
            "sha256": self.op_stream_sha256,
            "num_operations": self.num_operations,
            "num_gates": self.num_operations - self.num_swaps - self.num_moves,
            "num_swaps": self.num_swaps,
            "num_moves": self.num_moves,
        }

    def metrics_for(self, circuit_name: str) -> Optional[EvaluationMetrics]:
        """Metrics re-labelled for a request's circuit name.

        The store key excludes the circuit name (structure only), so a hit
        may serve a request whose circuit was labelled differently — e.g.
        the same QASM document under a new request id.  Every other metric
        field is identical by the bit-identity contract.
        """
        if self.metrics is None:
            return None
        if self.metrics.circuit_name == circuit_name:
            return self.metrics
        return replace(self.metrics, circuit_name=circuit_name)

    # ------------------------------------------------------------------
    # (De)serialisation
    # ------------------------------------------------------------------
    def to_json(self, key: Optional[StoreKey] = None) -> str:
        payload: Dict[str, object] = {
            "schema": ARTIFACT_SCHEMA,
            "circuit_name": self.circuit_name,
            "mode": self.mode,
            "num_qubits": self.num_qubits,
            "op_stream_sha256": self.op_stream_sha256,
            "num_operations": self.num_operations,
            "num_swaps": self.num_swaps,
            "num_moves": self.num_moves,
            "runtime_seconds": self.runtime_seconds,
            "metrics": None if self.metrics is None else asdict(self.metrics),
            "op_stream": list(self.op_stream),
        }
        if key is not None:
            payload["key"] = key.as_dict()
        return json.dumps(payload, indent=None, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str,
                  expected_key: Optional[StoreKey] = None) -> "CompiledArtifact":
        """Parse and verify a persisted artifact.

        Raises :class:`ArtifactError` when the payload is not valid JSON,
        not this schema, fails the op-stream SHA-256 integrity check, or —
        with ``expected_key`` given — was stored under a different key
        (a hash-collision/misplaced-file guard), including when the stored
        ``key`` itself is malformed.  Keys this class no longer writes —
        the timing dicts ``stage_seconds`` and ``pass_seconds`` of older v1
        payloads — are ignored.
        """
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ArtifactError(f"artifact is not valid JSON: {exc}") from None
        if not isinstance(payload, dict) or payload.get("schema") != ARTIFACT_SCHEMA:
            raise ArtifactError(
                f"unexpected artifact schema {payload.get('schema')!r}"
                if isinstance(payload, dict) else "artifact is not a JSON object")
        try:
            lines = tuple(str(line) for line in payload["op_stream"])
            stored_sha = str(payload["op_stream_sha256"])
            metrics_data = payload["metrics"]
            artifact = cls(
                circuit_name=str(payload["circuit_name"]),
                mode=str(payload["mode"]),
                num_qubits=int(payload["num_qubits"]),
                op_stream=lines,
                op_stream_sha256=stored_sha,
                num_operations=int(payload["num_operations"]),
                num_swaps=int(payload["num_swaps"]),
                num_moves=int(payload["num_moves"]),
                runtime_seconds=float(payload["runtime_seconds"]),
                metrics=None if metrics_data is None
                else EvaluationMetrics(**metrics_data),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(f"malformed artifact payload: {exc}") from None
        actual_sha = _op_stream_sha256(lines)
        if actual_sha != stored_sha:
            raise ArtifactError(
                f"op-stream integrity failure: stored sha256 {stored_sha[:12]}… "
                f"but payload hashes to {actual_sha[:12]}…")
        if expected_key is not None and "key" in payload:
            try:
                stored_key = StoreKey.from_dict(payload["key"])
            except (KeyError, TypeError) as exc:
                raise ArtifactError(f"malformed artifact key: {exc}") from None
            if stored_key != expected_key:
                raise ArtifactError(
                    "artifact was stored under a different key "
                    f"({stored_key.digest()[:12]}… != {expected_key.digest()[:12]}…)")
        return artifact
