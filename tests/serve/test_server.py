"""TCP front end: JSON-lines round trips, dedup over sockets, bad input."""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest

from repro.compiler import CompiledModel
from repro.models.mlp import build_mlp
from repro.serve import (
    CompileClient,
    CompileRequest,
    CompileServer,
    CompileService,
)
from repro.serve.protocol import REQUEST_FORMAT, WIRE_VERSION, request_to_wire


def small_graph():
    return build_mlp(
        batch_size=8, input_dim=32, hidden_dim=64, num_layers=2, num_classes=16
    ).graph


class ServerFixture:
    """A CompileServer on its own event-loop thread, for blocking clients."""

    def __init__(self, service: CompileService):
        self.service = service
        self.server = CompileServer(service, host="127.0.0.1", port=0)
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self._thread.start()
        self.host, self.port = asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result(timeout=30)

    def close(self):
        asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result(
            timeout=30
        )
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=30)
        self.loop.close()
        self.service.close()


@pytest.fixture()
def server():
    fixture = ServerFixture(CompileService(workers=4))
    yield fixture
    fixture.close()


def raw_exchange(server, lines):
    """Send raw bytes lines; return one parsed response per line."""
    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        stream = sock.makefile("rwb")
        for line in lines:
            stream.write(line)
        stream.flush()
        return [json.loads(stream.readline()) for _ in lines]


class TestCompileServer:
    def test_tcp_round_trip(self, server):
        with CompileClient(server.host, server.port) as client:
            response = client.compile(
                CompileRequest(
                    graph=small_graph(), strategy="tofu", num_workers=4,
                    request_id="req-1",
                )
            )
        assert response.ok
        assert response.request_id == "req-1"
        model = CompiledModel.from_dict(response.model)
        assert model.iteration_time > 0

    def test_concurrent_identical_clients_share_one_search(self, server):
        n = 6
        request = CompileRequest(
            graph=small_graph(), strategy="tofu", num_workers=4
        )
        barrier = threading.Barrier(n)
        responses = []
        lock = threading.Lock()

        def client_worker():
            with CompileClient(server.host, server.port) as client:
                barrier.wait()
                response = client.compile(request)
            with lock:
                responses.append(response)

        threads = [threading.Thread(target=client_worker) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(responses) == n
        assert all(r.ok for r in responses)
        keys = {r.request_key for r in responses}
        assert len(keys) == 1
        # Dedup + caches: far fewer searches than clients (usually 1).
        assert server.service.stats()["searches"] < n

    def test_malformed_json_yields_error_response(self, server):
        (response,) = raw_exchange(server, [b"this is not json\n"])
        assert response["status"] == "error"
        assert "bad request" in response["error"]

    def test_wrong_format_marker_yields_error_response(self, server):
        payload = {"format": "something-else", "version": WIRE_VERSION, "id": "x"}
        (response,) = raw_exchange(
            server, [json.dumps(payload).encode() + b"\n"]
        )
        assert response["status"] == "error"
        assert response["id"] == "x"

    def test_wrong_version_yields_error_response(self, server):
        wire = request_to_wire(
            CompileRequest(graph=small_graph(), strategy="tofu", num_workers=2)
        )
        wire["version"] = WIRE_VERSION + 1
        (response,) = raw_exchange(server, [json.dumps(wire).encode() + b"\n"])
        assert response["status"] == "error"
        assert REQUEST_FORMAT in json.dumps(wire)  # sanity: marker untouched

    def test_pipelined_requests_match_by_id(self, server):
        wires = []
        for i, workers in enumerate((2, 4)):
            wire = request_to_wire(
                CompileRequest(
                    graph=small_graph(), strategy="tofu",
                    num_workers=workers, request_id=f"pipe-{i}",
                )
            )
            wires.append(json.dumps(wire).encode() + b"\n")
        responses = raw_exchange(server, wires)
        ids = {r["id"] for r in responses}
        assert ids == {"pipe-0", "pipe-1"}
        for r in responses:
            assert r["status"] == "ok"

    def test_empty_lines_are_ignored(self, server):
        wire = request_to_wire(
            CompileRequest(graph=small_graph(), strategy="tofu", num_workers=2)
        )
        with socket.create_connection(
            (server.host, server.port), timeout=30
        ) as sock:
            stream = sock.makefile("rwb")
            stream.write(b"\n")
            stream.write(json.dumps(wire).encode() + b"\n")
            stream.flush()
            response = json.loads(stream.readline())
        assert response["status"] == "ok"

    @pytest.mark.parametrize(
        "fields",
        [
            {"graph": []},
            {"graph": "x"},
            {"num_workers": 0},
            {"num_workers": -2},
            {"num_workers": True},
            {"num_workers": "4"},
            {"num_workers": 2.0},
            {"plan_options": []},
            {"backend_options": "x"},
            {"simulate": "false"},
            {"simulate": 0},
        ],
        ids=repr,
    )
    def test_malformed_field_is_answered_and_connection_survives(
        self, server, fields
    ):
        good = request_to_wire(
            CompileRequest(
                graph=small_graph(), strategy="tofu", num_workers=2,
                request_id="good",
            )
        )
        bad = {**good, **fields, "id": "bad"}
        with socket.create_connection(
            (server.host, server.port), timeout=5
        ) as sock:
            stream = sock.makefile("rwb")
            stream.write(json.dumps(bad).encode() + b"\n")
            stream.flush()
            response = json.loads(stream.readline())
            assert response["status"] == "error"
            assert response["id"] == "bad"
            assert "bad request" in response["error"]

            sock.settimeout(30)
            stream.write(json.dumps(good).encode() + b"\n")
            stream.flush()
            response = json.loads(stream.readline())
        assert response["status"] == "ok"
        assert response["id"] == "good"
