"""End-to-end TCP serving: server + wire protocol + synchronous client.

Runs a real :class:`ServingServer` on an ephemeral port (asyncio loop on a
background thread — the same harness ``python -m repro.server`` uses) and
drives it with blocking clients, exactly like CI's serving smoke job.
"""

import json
import socket

import pytest

from repro.server import (
    ProtocolError,
    ServingClient,
    ServingGateway,
    spec_from_wire,
    spec_to_wire,
    task_from_wire,
    task_to_wire,
    wait_until_ready,
)
from repro.server.__main__ import _start_background_server
from repro.service import ArchitectureSpec, CompilationTask
from repro.store import ResultStore

SPEC = ArchitectureSpec("mixed", lattice_rows=7, num_atoms=30)


@pytest.fixture(scope="module")
def serving_port(tmp_path_factory):
    gateway = ServingGateway(
        ResultStore(tmp_path_factory.mktemp("serving-store")),
        pool="thread", max_workers=2)
    thread, port = _start_background_server(gateway, "127.0.0.1")
    assert wait_until_ready("127.0.0.1", port, timeout=15)
    yield port
    with ServingClient("127.0.0.1", port) as client:
        client.shutdown()
    thread.join(timeout=10)


class TestWireForms:
    def test_task_round_trips(self):
        task = CompilationTask("t-1", SPEC, circuit_name="qft", num_qubits=10,
                               seed=11, mode="gate_only", alpha=2.0)
        assert task_from_wire(task_to_wire(task)) == task

    def test_qasm_task_round_trips(self):
        task = CompilationTask("t-2", SPEC, qasm="OPENQASM 2.0;\nqreg q[2];\n")
        assert task_from_wire(task_to_wire(task)) == task

    def test_zoned_spec_round_trips_through_json_lists(self):
        spec = ArchitectureSpec("mixed", lattice_rows=9, topology="zoned",
                                zone_layout=(("storage", 2), ("entangling", 4),
                                             ("storage", 3)))
        assert spec_from_wire(spec_to_wire(spec)) == spec

    def test_malformed_wire_payloads_raise(self):
        with pytest.raises(ProtocolError):
            task_from_wire({"architecture": spec_to_wire(SPEC)})  # no task_id
        with pytest.raises(ProtocolError):
            spec_from_wire({"hardware": "mixed", "bogus_field": 1})
        with pytest.raises(ProtocolError):
            spec_from_wire({"lattice_rows": 7})  # no hardware

    @pytest.mark.parametrize("alpha", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_alpha_raises(self, alpha):
        # Python's json accepts these literals, so they reach the decoder.
        line = ('{"task_id": "t-nan", "circuit_name": "qft", '
                '"num_qubits": 6, "alpha": %s, "architecture": %s}'
                % (alpha, json.dumps(spec_to_wire(SPEC))))
        payload = json.loads(line)
        with pytest.raises(ProtocolError, match="alpha"):
            task_from_wire(payload)

    def test_unknown_mode_raises(self):
        task = CompilationTask("t-3", SPEC, circuit_name="qft", num_qubits=6)
        payload = dict(task_to_wire(task), mode="bogus")
        with pytest.raises(ProtocolError, match="mode"):
            task_from_wire(payload)


class TestTcpServing:
    def test_ping(self, serving_port):
        with ServingClient("127.0.0.1", serving_port) as client:
            assert client.ping()

    def test_duplicate_request_hits_store_with_identical_digest(
            self, serving_port):
        task_a = CompilationTask("tcp-a", SPEC, circuit_name="graph",
                                 num_qubits=12, seed=5)
        task_b = CompilationTask("tcp-b", SPEC, circuit_name="graph",
                                 num_qubits=12, seed=5)
        with ServingClient("127.0.0.1", serving_port) as client:
            first = client.compile_task(task_a)
            second = client.compile_task(task_b)
        assert first.ok and first.source == "compiled"
        assert second.ok and second.source == "store"
        assert first.digest == second.digest
        # Library tasks are labelled by the library (same structure → same
        # name), so the served metrics equal the compiled metrics verbatim.
        assert second.metrics == first.metrics

    def test_stats_op_reports_counters(self, serving_port):
        with ServingClient("127.0.0.1", serving_port) as client:
            payload = client.stats()
        assert payload["ok"]
        assert "gateway" in payload and "store" in payload
        assert payload["gateway"]["requests"] >= 1

    def test_failed_request_is_isolated(self, serving_port):
        with ServingClient("127.0.0.1", serving_port) as client:
            bad = client.compile_task(CompilationTask("tcp-bad", SPEC))
            assert not bad.ok and "neither" in bad.error
            assert client.ping(), "connection must survive a failed request"

    def test_malformed_line_gets_error_response_not_disconnect(
            self, serving_port):
        with socket.create_connection(("127.0.0.1", serving_port),
                                      timeout=30) as raw:
            stream = raw.makefile("rwb")
            stream.write(b"this is not json\n")
            stream.flush()
            line = stream.readline()
            assert b'"ok":false' in line.replace(b" ", b"")
            stream.write(b'{"op": "ping"}\n')
            stream.flush()
            assert b"pong" in stream.readline()
