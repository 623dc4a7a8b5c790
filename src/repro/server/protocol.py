"""Wire protocol of the serving gateway: newline-delimited JSON.

Dependency-free by design (the repo may not install an RPC stack): every
request and response is one JSON object per line over a TCP stream.

Requests
--------
``{"op": "compile", "task": {...}}``
    ``task`` is a :class:`~repro.service.CompilationTask` in wire form —
    ``task_id``, ``architecture`` (an :class:`~repro.service.ArchitectureSpec`
    field dict), and either ``circuit_name``/``num_qubits``/``seed`` or a
    ``qasm`` document, plus ``mode``/``alpha``.  Three optional envelope
    fields ride outside ``task``: ``timeout_s`` (client deadline budget,
    tightened against the server's own per-task deadline), ``request_id``
    (client-assigned idempotency token, echoed verbatim in the response so
    a reconnecting client can pair retried requests with late answers),
    and ``trace`` (truthy → the response carries a Chrome-trace span tree
    of this request under its ``trace`` field).
``{"op": "stats"}``
    Gateway + store counters.
``{"op": "metrics"}``
    Telemetry registry snapshot (:mod:`repro.telemetry`).  Default is the
    JSON snapshot; ``{"op": "metrics", "format": "prometheus"}`` returns
    the Prometheus text exposition under a ``"text"`` key instead.
``{"op": "health"}``
    Supervision snapshot: overall ``status`` plus pool / circuit-breaker /
    retry / store counters (the operational surface of
    :mod:`repro.resilience`).
``{"op": "ping"}`` / ``{"op": "shutdown"}``
    Liveness probe / graceful stop (used by CI and the load generator).
    Shutdown drains: in-flight compiles finish before the server exits.

Responses
---------
Every response carries ``ok``; compile responses add ``source``
(``"store"`` | ``"coalesced"`` | ``"compiled"`` | ``"degraded"``), the
op-stream ``digest`` (same shape as
:meth:`repro.mapping.MappingResult.op_stream_digest`, so byte-identity
between a hit and a fresh compile is a straight comparison), the Table-1a
``metrics`` row, and ``server_seconds``.  Failures additionally carry
``error_class`` — ``"retryable"`` / ``"permanent"`` / ``"shed"`` (see
:mod:`repro.resilience.errors`) — so clients know whether resubmitting the
identical request can help.  New fields are backward-compatible: old
clients ignore them (``from_wire`` filters to known fields).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict, Optional

from ..service.batch import CompilationTask
from ..service.cache import ArchitectureSpec
from ..store.artifact import CompiledArtifact

__all__ = [
    "ProtocolError",
    "ServeResponse",
    "task_to_wire",
    "task_from_wire",
    "spec_to_wire",
    "spec_from_wire",
    "encode_line",
    "decode_line",
]


class ProtocolError(ValueError):
    """Raised when a wire payload cannot be decoded into a request/response."""


# ----------------------------------------------------------------------
# Line framing
# ----------------------------------------------------------------------
def encode_line(payload: Dict[str, Any]) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def decode_line(line: bytes) -> Dict[str, Any]:
    try:
        payload = json.loads(line.decode())
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"not a JSON line: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("wire payload must be a JSON object")
    return payload


# ----------------------------------------------------------------------
# ArchitectureSpec <-> wire
# ----------------------------------------------------------------------
def spec_to_wire(spec: ArchitectureSpec) -> Dict[str, Any]:
    """Field dict of a spec (nested tuples become JSON arrays)."""
    payload: Dict[str, Any] = {}
    for field_spec in fields(spec):
        value = getattr(spec, field_spec.name)
        if isinstance(value, tuple):
            value = [list(entry) if isinstance(entry, tuple) else entry
                     for entry in value]
        payload[field_spec.name] = value
    return payload


def spec_from_wire(payload: Dict[str, Any]) -> ArchitectureSpec:
    """Rebuild a spec; ``__post_init__`` re-normalises list-form layouts."""
    if not isinstance(payload, dict):
        raise ProtocolError("architecture must be a JSON object of spec fields")
    known = {field_spec.name for field_spec in fields(ArchitectureSpec)}
    unknown = set(payload) - known
    if unknown:
        raise ProtocolError(f"unknown architecture field(s) {sorted(unknown)}")
    if "hardware" not in payload:
        raise ProtocolError("architecture is missing the 'hardware' field")
    try:
        return ArchitectureSpec(**payload)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid architecture spec: {exc}") from None


# ----------------------------------------------------------------------
# CompilationTask <-> wire
# ----------------------------------------------------------------------
def task_to_wire(task: CompilationTask) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "task_id": task.task_id,
        "architecture": spec_to_wire(task.architecture),
        "mode": task.mode,
        "alpha": task.alpha,
        "seed": task.seed,
    }
    if task.qasm is not None:
        payload["qasm"] = task.qasm
    if task.circuit_name is not None:
        payload["circuit_name"] = task.circuit_name
    if task.num_qubits is not None:
        payload["num_qubits"] = task.num_qubits
    return payload


def task_from_wire(payload: Dict[str, Any]) -> CompilationTask:
    if not isinstance(payload, dict):
        raise ProtocolError("task must be a JSON object")
    if "task_id" not in payload or "architecture" not in payload:
        raise ProtocolError("task needs 'task_id' and 'architecture' fields")
    try:
        task = CompilationTask(
            task_id=str(payload["task_id"]),
            architecture=spec_from_wire(payload["architecture"]),
            circuit_name=payload.get("circuit_name"),
            num_qubits=(None if payload.get("num_qubits") is None
                        else int(payload["num_qubits"])),
            seed=int(payload.get("seed", 2024)),
            qasm=payload.get("qasm"),
            mode=str(payload.get("mode", "hybrid")),
            alpha=float(payload.get("alpha", 1.0)),
        )
        # Building the config rejects an unknown mode or a bad alpha
        # (Python's json accepts the NaN and Infinity literals).
        task.build_config()
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid task: {exc}") from None
    return task


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeResponse:
    """Outcome of one compile request (gateway-side and wire-side shape)."""

    ok: bool
    task_id: str
    source: Optional[str] = None       # "store" | "coalesced" | "compiled"
    digest: Optional[Dict[str, Any]] = None
    circuit_name: Optional[str] = None
    mode: Optional[str] = None
    num_qubits: Optional[int] = None
    metrics: Optional[Dict[str, Any]] = None
    runtime_seconds: Optional[float] = None
    server_seconds: float = 0.0
    error: Optional[str] = None
    #: Retryability of a failure ("retryable" | "permanent" | "shed");
    #: ``None`` on success and from pre-taxonomy servers.
    error_class: Optional[str] = None
    #: Client-assigned idempotency token, echoed verbatim (never generated
    #: server-side) so retrying clients can pair responses to requests.
    request_id: Optional[str] = None
    #: Chrome-trace payload (``trace_id`` + ``traceEvents``) attached when
    #: the request asked for ``"trace": true``; ``None`` otherwise.
    trace: Optional[Dict[str, Any]] = None

    @classmethod
    def from_artifact(cls, task: CompilationTask, circuit_name: str,
                      artifact: CompiledArtifact, source: str,
                      server_seconds: float) -> "ServeResponse":
        metrics = artifact.metrics_for(circuit_name)
        return cls(
            ok=True,
            task_id=task.task_id,
            source=source,
            digest=artifact.op_stream_digest(),
            circuit_name=circuit_name,
            mode=artifact.mode,
            num_qubits=artifact.num_qubits,
            metrics=None if metrics is None else asdict(metrics),
            runtime_seconds=artifact.runtime_seconds,
            server_seconds=server_seconds,
        )

    @classmethod
    def failure(cls, task_id: str, error: str,
                server_seconds: float = 0.0,
                error_class: Optional[str] = None) -> "ServeResponse":
        return cls(ok=False, task_id=task_id, error=error,
                   server_seconds=server_seconds, error_class=error_class)

    def with_request_id(self, request_id: Optional[str]) -> "ServeResponse":
        """Copy with the client's idempotency token echoed back."""
        if request_id is None:
            return self
        return replace(self, request_id=str(request_id))

    def to_wire(self) -> Dict[str, Any]:
        payload = {"op": "compile", **asdict(self)}
        return {key: value for key, value in payload.items() if value is not None
                or key in ("ok",)}

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "ServeResponse":
        known = {field_spec.name for field_spec in fields(cls)}
        data = {key: value for key, value in payload.items() if key in known}
        if "ok" not in data or "task_id" not in data:
            raise ProtocolError("compile response needs 'ok' and 'task_id'")
        return cls(**data)
