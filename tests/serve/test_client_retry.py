"""The retrying client: backoff on transport failures and retryable
envelopes, request-id reuse across attempts, and structured
:class:`ServeError` for everything that finally fails."""

import json
import socket
import threading

import pytest

from repro.robust import faults
from repro.serve.client import ServeClient, ServeError


class ScriptedDaemon:
    """A unix-socket stub that plays one scripted behaviour per
    accepted connection and records every request line it read.

    Script entries: ``("reply", dict)`` sends a JSON line, ``("echo",
    dict)`` merges the request's request_id into the reply first,
    ``("raw", bytes)`` sends bytes verbatim, ``("close", None)`` reads
    the request then closes without replying."""

    def __init__(self, path, script):
        self.path = path
        self.script = list(script)
        self.requests = []
        self._server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._server.bind(path)
        self._server.listen(8)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        for action, body in self.script:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            with conn:
                line = conn.makefile("rb").readline()
                try:
                    self.requests.append(json.loads(line))
                except ValueError:
                    self.requests.append(line)
                if action == "close":
                    continue
                if action == "raw":
                    conn.sendall(body)
                    continue
                reply = dict(body)
                if action == "echo":
                    reply["request_id"] = self.requests[-1].get("request_id")
                conn.sendall((json.dumps(reply) + "\n").encode())

    def close(self):
        self._server.close()
        self._thread.join(5)


@pytest.fixture
def daemon_at(tmp_path):
    made = []

    def make(script):
        stub = ScriptedDaemon(str(tmp_path / f"stub{len(made)}.sock"), script)
        made.append(stub)
        return stub

    yield make
    for stub in made:
        stub.close()


def _no_sleep_client(path, retries=2):
    return ServeClient(path, timeout=5, retries=retries, sleep=lambda s: None)


class TestRetryableEnvelopes:
    def test_retries_until_ok_with_same_request_id(self, daemon_at):
        overloaded = {
            "ok": False, "error": "queue full", "code": "overloaded",
            "retryable": True, "retry_after_ms": 1,
        }
        stub = daemon_at([
            ("reply", overloaded),
            ("reply", overloaded),
            ("echo", {"ok": True, "pong": True, "pid": 1}),
        ])
        client = _no_sleep_client(stub.path)
        reply = client.ping()
        assert reply["pong"] is True
        assert client.retries_made == 2
        ids = {request["request_id"] for request in stub.requests}
        assert len(ids) == 1  # every attempt reused the same id

    def test_non_retryable_envelope_raises_immediately(self, daemon_at):
        stub = daemon_at([
            ("reply", {"ok": False, "error": "no such label",
                       "code": "bad_request", "retryable": False}),
        ])
        client = _no_sleep_client(stub.path)
        with pytest.raises(ServeError) as excinfo:
            client.ping()
        assert excinfo.value.code == "bad_request"
        assert not excinfo.value.retryable
        assert "no such label" in str(excinfo.value)
        assert client.retries_made == 0

    def test_retryable_error_exhausts_retries_then_raises(self, daemon_at):
        envelope = {"ok": False, "error": "worker died",
                    "code": "worker_crashed", "retryable": True}
        stub = daemon_at([("reply", envelope)] * 3)
        client = _no_sleep_client(stub.path, retries=2)
        with pytest.raises(ServeError) as excinfo:
            client.ping()
        assert excinfo.value.code == "worker_crashed"
        assert excinfo.value.retryable
        assert len(stub.requests) == 3


class TestTransportFailures:
    def test_connection_refused_retries_then_raises_transport(self, tmp_path):
        client = _no_sleep_client(str(tmp_path / "nowhere.sock"), retries=2)
        with pytest.raises(ServeError) as excinfo:
            client.ping()
        assert excinfo.value.code == "transport"
        assert client.attempts_made == 3

    def test_closed_without_reply_is_retried(self, daemon_at):
        stub = daemon_at([
            ("close", None),
            ("echo", {"ok": True, "pong": True, "pid": 1}),
        ])
        client = _no_sleep_client(stub.path)
        assert client.ping()["pong"] is True
        assert client.retries_made == 1

    def test_injected_transport_fault_is_retried(self, daemon_at):
        stub = daemon_at([("echo", {"ok": True, "pong": True, "pid": 1})])
        plan = faults.FaultPlan.from_specs(
            ["serve.transport:raise:error=connection,at=1,times=1"]
        )
        client = _no_sleep_client(stub.path)
        with faults.fault_scope(plan):
            assert client.ping()["pong"] is True
        assert client.retries_made == 1


class TestBadReplies:
    def test_undecodable_reply_carries_the_offending_prefix(self, daemon_at):
        stub = daemon_at([("raw", b'{"ok": true, "resu\n')] * 2)
        client = _no_sleep_client(stub.path, retries=1)
        with pytest.raises(ServeError) as excinfo:
            client.ping()
        assert excinfo.value.code == "bad_reply"
        assert '{"ok": true, "resu' in str(excinfo.value)

    def test_truncated_reply_retry_recovers(self, daemon_at):
        stub = daemon_at([
            ("raw", b'{"ok": true, "pong"\n'),
            ("echo", {"ok": True, "pong": True, "pid": 1}),
        ])
        client = _no_sleep_client(stub.path)
        assert client.ping()["pong"] is True
        assert client.retries_made == 1


class TestBackoff:
    def test_backoff_caps_and_jitters(self):
        client = ServeClient(
            "/nonexistent", retries=5,
            backoff_seconds=0.1, backoff_cap=0.4,
        )
        for attempt in range(6):
            delay = client.backoff(attempt)
            uncapped = min(0.4, 0.1 * (2 ** attempt))
            assert 0.5 * uncapped <= delay < 1.5 * uncapped

    def test_retry_after_hint_overrides_backoff(self, daemon_at):
        slept = []
        stub = daemon_at([
            ("reply", {"ok": False, "error": "busy", "code": "overloaded",
                       "retryable": True, "retry_after_ms": 123}),
            ("echo", {"ok": True, "pong": True, "pid": 1}),
        ])
        client = ServeClient(stub.path, timeout=5, retries=1,
                             sleep=slept.append)
        assert client.ping()["pong"] is True
        assert slept == [pytest.approx(0.123)]


class ConnectionDaemon:
    """A unix-socket stub that keeps each accepted connection open for
    as many requests as its script has, one script per connection, and
    records the requests read on each connection.

    Each action reads one request line, then: ``("echo", dict)``
    replies with the request's id merged in, ``("raw", bytes)`` sends
    bytes verbatim, ``("echo_close", dict)`` replies and then closes
    the connection while it is idle, ``("close", None)`` closes without
    replying.  After its script a connection stays open until the
    client closes it (``eofs`` counts those)."""

    def __init__(self, path, scripts):
        self.path = path
        self.scripts = [list(script) for script in scripts]
        self.connections = []  # requests read, per accepted connection
        self.eofs = 0
        self.idle_closed = threading.Event()
        self._server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._server.bind(path)
        self._server.listen(8)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        for script in self.scripts:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            requests = []
            self.connections.append(requests)
            with conn, conn.makefile("rb") as stream:
                if self._play(conn, stream, script, requests):
                    if not stream.readline():
                        self.eofs += 1

    def _play(self, conn, stream, script, requests):
        """Play one connection's script; whether it is still open."""
        for action, body in script:
            line = stream.readline()
            if not line:
                return False
            requests.append(json.loads(line))
            if action == "close":
                return False
            if action == "raw":
                conn.sendall(body)
                continue
            reply = dict(body, request_id=requests[-1]["request_id"])
            conn.sendall((json.dumps(reply) + "\n").encode())
            if action == "echo_close":
                conn.shutdown(socket.SHUT_RDWR)
                self.idle_closed.set()
                return False
        return True

    def close(self):
        self._server.close()
        self._thread.join(5)


@pytest.fixture
def connection_daemon(tmp_path):
    made = []

    def make(scripts):
        stub = ConnectionDaemon(
            str(tmp_path / f"kept{len(made)}.sock"), scripts
        )
        made.append(stub)
        return stub

    yield make
    for stub in made:
        stub.close()


PONG = {"ok": True, "pong": True, "pid": 1}


class TestKeptConnection:
    def test_requests_share_one_connection(self, connection_daemon):
        stub = connection_daemon([[("echo", PONG)] * 5])
        with _no_sleep_client(stub.path) as client:
            for _ in range(5):
                assert client.ping()["pong"] is True
        stub.close()
        assert [len(requests) for requests in stub.connections] == [5]
        assert stub.eofs == 1  # close() ended the connection
        assert client.retries_made == 0

    def test_idle_close_is_replaced_with_one_resend(self, connection_daemon):
        stub = connection_daemon([
            [("echo_close", PONG)],
            [("echo", PONG)],
        ])
        with _no_sleep_client(stub.path) as client:
            assert client.ping()["pong"] is True
            assert stub.idle_closed.wait(5)
            assert client.ping()["pong"] is True
        stub.close()
        assert [len(requests) for requests in stub.connections] == [1, 1]
        assert client.retries_made == 0
        assert client.attempts_made == 2

    def test_resend_is_sent_once_then_retries(self, connection_daemon):
        # The replacement connection also closes without a reply: that
        # is a transport failure for the retry loop, not a second
        # resend.
        stub = connection_daemon([
            [("echo_close", PONG)],
            [("close", None)],
            [("echo", PONG)],
        ])
        with _no_sleep_client(stub.path, retries=0) as client:
            assert client.ping()["pong"] is True
            assert stub.idle_closed.wait(5)
            with pytest.raises(ServeError) as excinfo:
                client.ping()
            assert excinfo.value.code == "transport"
            assert client.retries_made == 0
            assert len(stub.connections) == 2
            resent = stub.connections[1][0]["request_id"]
            assert client.ping()["pong"] is True
        stub.close()
        assert len(stub.connections) == 3
        assert stub.connections[2][0]["request_id"] != resent

    def test_bad_reply_drops_the_connection(self, connection_daemon):
        stub = connection_daemon([
            [("raw", b'{"ok": true, "pong"\n')],
            [("echo", PONG)],
        ])
        with _no_sleep_client(stub.path) as client:
            assert client.ping()["pong"] is True
        stub.close()
        # The client closed the connection that sent garbage, and the
        # retry went out on a new one.
        assert [len(requests) for requests in stub.connections] == [1, 1]
        assert stub.eofs == 2
        assert client.retries_made == 1
