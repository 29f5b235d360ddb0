"""Connection-level behaviour of the service: idle deadline and ordering.

A request reaches its handler one of two ways: inline on its connection
task when nothing is queued, or through the queue and the dispatcher
when other requests piled up in the same event-loop pass.  These tests
pin what both ways must share: the idle deadline that closes quiet
keep-alive connections, read-your-writes across connections, in-order
answers to a pipelined client, identical response bodies, and a burst
that the queue's bounds see.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.graph import complete_graph
from repro.service import BackgroundServer

REPO_ROOT = Path(__file__).resolve().parents[1]

IDLE = 0.3


def make_graph():
    """K5 plus a pendant triangle on 10: kappa levels 1..3."""
    g = complete_graph(5)
    g.add_edge(0, 10)
    g.add_edge(1, 10)
    g.add_edge(10, 11)
    return g


def get(path: str, *, close: bool = False) -> bytes:
    extra = b"Connection: close\r\n" if close else b""
    return b"GET " + path.encode() + b" HTTP/1.1\r\n" + extra + b"\r\n"


def post(path: str, doc) -> bytes:
    body = json.dumps(doc).encode()
    return (
        b"POST " + path.encode() + b" HTTP/1.1\r\n"
        + b"Content-Type: application/json\r\n"
        + b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
        + body
    )


class Reader:
    """Reads whole HTTP responses off a raw socket."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = b""

    def _fill(self) -> bool:
        chunk = self.sock.recv(65536)
        self.buffer += chunk
        return bool(chunk)

    def response(self):
        """``(status, JSON body)`` of the next response."""
        while b"\r\n\r\n" not in self.buffer:
            assert self._fill(), "connection closed before a response"
        head, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = next(
            int(line.split(":", 1)[1])
            for line in lines[1:]
            if line.lower().startswith("content-length:")
        )
        while len(self.buffer) < length:
            assert self._fill(), "connection closed mid body"
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, json.loads(body)

    def wait_closed(self, timeout: float) -> float:
        """Seconds until the server closes; asserts it wrote nothing."""
        start = time.monotonic()
        self.sock.settimeout(timeout)
        while self._fill():
            pass
        assert self.buffer == b"", f"server wrote {self.buffer!r}"
        return time.monotonic() - start


def connect(server) -> socket.socket:
    return socket.create_connection(("127.0.0.1", server.port), timeout=10)


@pytest.fixture()
def idle_server():
    with BackgroundServer(make_graph(), idle_timeout=IDLE) as background:
        yield background


class TestIdleDeadline:
    def test_idle_keep_alive_connection_closed_silently(self, idle_server):
        with connect(idle_server) as sock:
            reader = Reader(sock)
            sock.sendall(get("/healthz"))
            assert reader.response()[0] == 200
            waited = reader.wait_closed(timeout=5)
        assert IDLE * 0.8 <= waited < IDLE + 1.5

    def test_silent_connection_closed_at_deadline(self, idle_server):
        with connect(idle_server) as sock:
            waited = Reader(sock).wait_closed(timeout=5)
        assert IDLE * 0.8 <= waited < IDLE + 1.5

    def test_half_sent_request_line_cut_at_deadline(self, idle_server):
        with connect(idle_server) as sock:
            sock.sendall(b"GET /kappa?u=0&v=1 HT")
            waited = Reader(sock).wait_closed(timeout=5)
        assert IDLE * 0.8 <= waited < IDLE + 1.5
        # Cut by the deadline, not answered as a malformed request.
        stats = idle_server.state.stats()["service"]
        assert stats["rejected"]["protocol"] == 0

    def test_half_sent_body_cut_at_deadline(self, idle_server):
        with connect(idle_server) as sock:
            sock.sendall(post("/edits", {"ops": [["add", 0, 20]]})[:-4])
            waited = Reader(sock).wait_closed(timeout=5)
        assert IDLE * 0.8 <= waited < IDLE + 1.5
        assert idle_server.state.version == 0

    def test_steady_client_outlives_the_deadline(self, idle_server):
        with connect(idle_server) as sock:
            reader = Reader(sock)
            start = time.monotonic()
            answers = 0
            while time.monotonic() - start < 4 * IDLE:
                sock.sendall(get("/kappa?u=0&v=1"))
                status, doc = reader.response()
                assert (status, doc["kappa"]) == (200, 3)
                answers += 1
                time.sleep(IDLE / 3)
            assert answers >= 8
        stats = idle_server.state.stats()["service"]
        assert stats["connections"]["total"] == 1

    def test_drain_closes_idle_connections_promptly(self):
        # A long deadline, so only the drain can close the connection.
        server = BackgroundServer(make_graph(), idle_timeout=60.0).start()
        try:
            with connect(server) as sock:
                reader = Reader(sock)
                sock.sendall(get("/healthz"))
                assert reader.response()[0] == 200
                start = time.monotonic()
                server.stop()
                assert time.monotonic() - start < 5
                assert reader.wait_closed(timeout=5) < 5
        finally:
            server.stop()

    def test_sigterm_drain_closes_idle_connections_promptly(self):
        env = {**os.environ}
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "synthetic", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            announce = next(
                (line for line in proc.stdout if line.startswith("ANNOUNCE ")),
                None,
            )
            assert announce is not None, "serve exited before announcing"
            port = json.loads(announce[len("ANNOUNCE "):])["port"]
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                reader = Reader(sock)
                sock.sendall(get("/healthz"))
                assert reader.response()[0] == 200
                # The connection now idles under the default 60 s deadline.
                start = time.monotonic()
                proc.send_signal(signal.SIGTERM)
                assert reader.wait_closed(timeout=10) < 10
            _out, err = proc.communicate(timeout=30)
            assert time.monotonic() - start < 30
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err


# A request is answered inline when the queue is empty and no other
# request was answered inline in the same event-loop pass.  A pipelined
# request is read in the same pass as the answer before it, so requests
# sent in one write alternate: inline, queued, inline, ...


def queue_peak(server) -> int:
    return server.state.stats()["service"]["queue"]["peak"]


class TestOrderingAcrossPaths:
    @pytest.mark.parametrize("queued", ["none", "write", "read"])
    def test_read_after_write_on_another_connection(self, queued):
        with BackgroundServer(make_graph()) as server:
            with connect(server) as writer_sock, connect(server) as reader_sock:
                writer, reader = Reader(writer_sock), Reader(reader_sock)
                reader_sock.sendall(get("/kappa?u=11&v=0"))
                assert reader.response()[0] == 404
                write = post("/edits", {"ops": [["add", 11, 0], ["add", 11, 1]]})
                if queued == "write":
                    writer_sock.sendall(get("/healthz") + write)
                    assert writer.response()[0] == 200
                else:
                    writer_sock.sendall(write)
                status, outcome = writer.response()
                assert status == 200
                read = get("/kappa?u=11&v=0")
                if queued == "read":
                    reader_sock.sendall(get("/healthz") + read)
                    assert reader.response()[0] == 200
                else:
                    reader_sock.sendall(read)
                status, answer = reader.response()
                assert status == 200
                assert answer["version"] >= outcome["version"]
                assert answer["kappa"] == 2
            assert queue_peak(server) == (0 if queued == "none" else 1)

    def test_pipelined_requests_answered_in_order(self):
        with BackgroundServer(make_graph()) as server:
            with connect(server) as sock:
                sock.sendall(
                    get("/kappa?u=0&v=1")
                    + post("/edits", {"ops": [["add", 11, 0], ["add", 11, 1]]})
                    + get("/kappa?u=11&v=0")
                    + get("/kappa?u=0&v=10")
                    + get("/healthz", close=True)
                )
                reader = Reader(sock)
                answers = [reader.response() for _ in range(5)]
                assert reader.wait_closed(timeout=5) < 5
            assert queue_peak(server) == 1
        assert [status for status, _doc in answers] == [200] * 5
        first, edit, new_edge, old_edge, health = (doc for _s, doc in answers)
        assert first["kappa"] == 3 and first["version"] == 0
        assert edit["version"] > 0 and edit["applied"] == 2
        assert new_edge["kappa"] == 2 and new_edge["version"] == edit["version"]
        assert old_edge["kappa"] == 2
        assert health["status"] == "ok" and health["edges"] == 15

    SCRIPT = [
        get("/healthz"),
        get("/kappa?u=0&v=1"),
        get("/community?vertex=10"),
        get("/hierarchy"),
        post("/edits", {"ops": [["add", 11, 0], ["remove", 0, 1]]}),
        get("/kappa?u=0&v=1"),
        post("/edits", {"ops": [["add", 11, 1]], "strategy": "batch"}),
        get("/kappa?u=11&v=1"),
        get("/community?vertex=11&k=2"),
        get("/templates/new_join"),
        post("/edits", {"ops": [["remove_vertex", 4]], "strategy": "recompute"}),
        get("/hierarchy"),
        get("/kappa?u=0&v=99"),
        get("/nope"),
    ]

    def run_script(self, *, pipelined, handler_delay=0.0):
        with BackgroundServer(
            make_graph(), handler_delay=handler_delay
        ) as server:
            with connect(server) as sock:
                reader = Reader(sock)
                answers = []
                if pipelined:
                    sock.sendall(b"".join(self.SCRIPT))
                for raw in self.SCRIPT:
                    if not pipelined:
                        sock.sendall(raw)
                    status, doc = reader.response()
                    doc.pop("uptime_seconds", None)
                    answers.append((status, doc))
            queue = server.state.stats()["service"]["queue"]
        return answers, queue

    def test_inline_and_queued_bodies_identical(self):
        inline, inline_queue = self.run_script(pipelined=False)
        mixed, mixed_queue = self.run_script(pipelined=True)
        slow, slow_queue = self.run_script(pipelined=True, handler_delay=0.02)
        assert inline == mixed == slow
        assert [status for status, _doc in inline].count(200) == 11
        # queue.depth / queue.peak count only requests that waited for
        # the dispatcher: none did when each request waited for the last
        # answer, every other one did when the script came in one write.
        assert inline_queue["peak"] == 0
        assert mixed_queue["peak"] == slow_queue["peak"] == 1
        assert inline_queue["depth"] == mixed_queue["depth"] == 0


class TestPileUp:
    def test_burst_is_queued_and_shed_without_handler_delay(self):
        # Eight requests become ready in one loop pass: one is answered
        # inline, max_queue=2 wait in the queue, the other five are shed.
        with BackgroundServer(make_graph(), max_queue=2) as server:
            socks = [connect(server) for _ in range(8)]
            try:
                readers = [Reader(sock) for sock in socks]
                for sock, reader in zip(socks, readers):
                    sock.sendall(get("/healthz"))
                    assert reader.response()[0] == 200
                # Stall the loop, as one slow handler would, and send
                # every request while it is stalled.
                server._loop.call_soon_threadsafe(time.sleep, 0.5)
                time.sleep(0.1)
                for sock in socks:
                    sock.sendall(get("/kappa?u=0&v=1"))
                answers = [reader.response() for reader in readers]
            finally:
                for sock in socks:
                    sock.close()
            stats = server.state.stats()["service"]
        statuses = sorted(status for status, _doc in answers)
        assert statuses == [200] * 3 + [503] * 5
        assert all(
            doc["error"]["code"] == "overloaded"
            for status, doc in answers
            if status == 503
        )
        assert stats["rejected"]["overloaded"] == 5
        assert stats["queue"]["peak"] == 2
