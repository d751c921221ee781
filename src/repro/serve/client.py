"""Blocking, retrying client for the ``repro serve`` daemon.

One newline-delimited JSON request/response per call, over one
``AF_UNIX`` connection that the client opens on its first call and
keeps for the next ones (the daemon answers the requests of a
connection in order).  :meth:`ServeClient.close` — or leaving the
``with`` block, or the client being garbage-collected — closes it.  A
client is not thread-safe: use one per thread.  Used by ``repro
submit`` and by the serve smoke tests; scripting against the daemon
from Python looks like::

    from repro.serve.client import ServeClient

    with ServeClient("/tmp/repro.sock") as cli:
        cli.ping()
        reply = cli.solve("typestate", open("prog.rp").read(),
                          query="check1", allowed=["closed"])
        for entry in reply["results"]:
            print(entry["query"], entry["verdict"])

**The kept connection.**  The daemon may close an idle connection (it
drains them on shutdown, and drops one after an ``oversized`` line).
When a kept connection fails before any reply byte arrives — the send
hits a closed socket, or the read meets end-of-file or a reset — the
client opens a new connection and sends the request once more.  That
resend is not a retry: the daemon may never have read the request, and
the reused ``request_id`` makes a duplicate harmless.  Any other
failure (a timeout, a failure after part of a reply, a reply that does
not decode) drops the connection and goes through the retries below.

**Resilience.**  :meth:`request` retries — with capped exponential
backoff and jitter — on transport failures (connection refused or
reset, a closed-without-reply socket, an undecodable reply line) and
on the daemon's *retryable* error envelopes (``worker_crashed`` while
the supervisor respawns, ``overloaded`` while the queue drains; a
``retry_after_ms`` hint in the envelope overrides the backoff).
Every attempt reuses the same ``request_id``, so a retry of a request
whose first reply was lost in flight is answered from the daemon's
dedup ring (``"deduped": true``) instead of re-solving — retries are
exactly-once-ish by construction.  Non-retryable failures
(``bad_request``, ``deadline_exceeded``, ``internal``) raise
immediately as :class:`ServeError`, which carries the envelope's
machine-readable ``code`` alongside the message.
"""

from __future__ import annotations

import json
import random
import socket
import time
import uuid
import weakref
from typing import Optional

from repro.robust import faults

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """The daemon answered ``{"ok": false}`` (the message is its
    ``error`` field) or the transport failed after every retry.

    ``code`` is the envelope's machine-readable failure class
    (``"transport"`` and ``"bad_reply"`` are minted client-side);
    ``retryable`` says whether the client exhausted retries getting
    here; ``response`` is the full envelope when there was one."""

    def __init__(
        self,
        message: str,
        code: str = "error",
        retryable: bool = False,
        retry_after_ms: Optional[int] = None,
        response: Optional[dict] = None,
    ):
        super().__init__(message)
        self.code = code
        self.retryable = retryable
        self.retry_after_ms = retry_after_ms
        self.response = response


class _NoReply(Exception):
    """The connection ended before any byte of the reply arrived."""


class ServeClient:
    """A client of one daemon socket; see the module doc.  One per
    thread: calls on one client share its connection."""

    def __init__(
        self,
        socket_path: str,
        timeout: Optional[float] = 600.0,
        retries: int = 2,
        backoff_seconds: float = 0.05,
        backoff_cap: float = 2.0,
        sleep=time.sleep,
        rng: Optional[random.Random] = None,
    ):
        self.socket_path = socket_path
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff_seconds = backoff_seconds
        self.backoff_cap = backoff_cap
        self.attempts_made = 0  # across the client's lifetime
        self.retries_made = 0
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self._sock: Optional[socket.socket] = None
        self._closer: Optional[weakref.finalize] = None

    # -- the wire ---------------------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.timeout)
            sock.connect(self.socket_path)
        except OSError:
            sock.close()
            raise
        self._sock = sock
        # Closes the socket of a client dropped without close().
        self._closer = weakref.finalize(self, sock.close)
        return sock

    def close(self) -> None:
        """Close the kept connection, if any; the next call opens a
        new one."""
        if self._closer is not None:
            self._closer()
        self._sock = self._closer = None

    def _exchange(self, data: bytes) -> str:
        """Send one request line on the kept connection (opened first
        if there is none) and read one reply line.  Raises
        :class:`_NoReply` when the connection ends before any reply
        byte, ``OSError`` on other socket trouble."""
        sock = self._sock if self._sock is not None else self._connect()
        reply = b""
        try:
            sock.sendall(data)
            while not reply.endswith(b"\n"):
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        except ConnectionError as error:
            if reply:
                raise
            raise _NoReply from error
        if not reply:
            raise _NoReply
        return reply.decode("utf-8", errors="replace")

    def _once(self, payload: dict) -> dict:
        """One attempt: send on the kept connection, read one line,
        decode.  Raises :class:`ServeError` with a retryable
        ``transport`` / ``bad_reply`` code on wire trouble, having
        dropped the connection; envelope handling is the caller's."""
        data = (json.dumps(payload) + "\n").encode("utf-8")
        try:
            faults.inject("serve.transport")
            kept = self._sock is not None
            try:
                line = self._exchange(data)
            except _NoReply:
                if not kept:
                    raise
                # The daemon closed the kept connection while it was
                # idle: resend once on a new one (see the module doc).
                self.close()
                line = self._exchange(data)
        except _NoReply:
            self.close()
            raise ServeError(
                "daemon closed the connection without a reply",
                code="transport",
                retryable=True,
            ) from None
        except OSError as error:
            self.close()
            raise ServeError(
                f"cannot reach daemon at {self.socket_path}: {error}",
                code="transport",
                retryable=True,
            ) from error
        except BaseException:
            # Interrupted mid-exchange: an unread reply may follow.
            self.close()
            raise
        try:
            return json.loads(line)
        except json.JSONDecodeError as error:
            # A truncated or garbled reply line: show what actually
            # arrived (prefix-bounded) instead of a bare decode error.
            # What follows it on the connection cannot be trusted.
            self.close()
            prefix = line[:120] + ("..." if len(line) > 120 else "")
            raise ServeError(
                f"undecodable reply from daemon "
                f"(JSON error: {error}): {prefix!r}",
                code="bad_reply",
                retryable=True,
            ) from error

    def backoff(self, attempt: int) -> float:
        """Capped exponential backoff with jitter for retry number
        ``attempt`` (0-based): ``base * 2^attempt``, capped, then
        scaled by a uniform factor in [0.5, 1.5)."""
        delay = min(self.backoff_cap, self.backoff_seconds * (2 ** attempt))
        return delay * (0.5 + self._rng.random())

    def request(self, payload: dict) -> dict:
        """Send one request and return the decoded response; raises
        :class:`ServeError` on ``ok: false`` or on transport failure
        that survives every retry.

        A ``request_id`` is minted client-side when the payload has
        none; the daemon uses it as the trace id for every span/event
        the request produces and echoes it in the response, so a
        client log line can be joined against the daemon's trace —
        and every retry reuses it, so the daemon can dedup."""
        payload = dict(payload)
        payload.setdefault("request_id", uuid.uuid4().hex[:16])
        last: Optional[ServeError] = None
        for attempt in range(self.retries + 1):
            self.attempts_made += 1
            if attempt > 0:
                self.retries_made += 1
            try:
                response = self._once(payload)
            except ServeError as error:
                last = error
                if attempt < self.retries:
                    self._sleep(self.backoff(attempt))
                    continue
                raise
            if response.get("ok"):
                return response
            error = ServeError(
                response.get("error", "request failed"),
                code=response.get("code", "error"),
                retryable=bool(response.get("retryable")),
                retry_after_ms=response.get("retry_after_ms"),
                response=response,
            )
            if error.retryable and attempt < self.retries:
                last = error
                hint = error.retry_after_ms
                delay = (
                    hint / 1000.0 if hint is not None
                    else self.backoff(attempt)
                )
                self._sleep(min(delay, self.backoff_cap))
                continue
            raise error
        raise last  # unreachable: the loop raises or returns

    # -- convenience wrappers -------------------------------------------------

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def metrics(self) -> dict:
        """Scrape the daemon's Prometheus text exposition (the
        ``prometheus`` field of the reply)."""
        return self.request({"op": "metrics"})

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})

    def solve(
        self,
        kind: str,
        program: str,
        *,
        query: str,
        source: Optional[str] = None,
        config: Optional[dict] = None,
        **params,
    ) -> dict:
        payload = {
            "op": "solve",
            "kind": kind,
            "program": program,
            "query": query,
        }
        if source is not None:
            payload["source"] = source
        if config:
            payload["config"] = config
        payload.update(params)
        return self.request(payload)

    def solve_benchmark(
        self,
        benchmark: str,
        analysis: str,
        config: Optional[dict] = None,
        **params,
    ) -> dict:
        payload = {
            "op": "solve-bench",
            "benchmark": benchmark,
            "analysis": analysis,
        }
        if config:
            payload["config"] = config
        payload.update(params)
        return self.request(payload)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
