"""The serving daemon's supervised worker process.

:class:`SupervisedWorker` runs one child process that holds warm state
across requests and serves them call/response over a pipe; a crash or
timeout fails exactly the request in flight (:class:`WorkerCrash`,
:class:`WorkerTimeout`) and the next call respawns the child after an
exponential backoff.  A parallel evaluation's workers live in
:mod:`repro.robust.scheduler` instead: they pull tasks off the lease
log rather than being sent requests.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Callable, Optional, Sequence

__all__ = ["SupervisedWorker", "WorkerCrash", "WorkerTimeout"]


class WorkerCrash(RuntimeError):
    """The supervised worker died (SIGKILL, OOM, hard crash) while a
    request was in flight.  Only that request is lost; the supervisor
    respawns the worker for the next one."""


class WorkerTimeout(RuntimeError):
    """A request outlived its allowance.  The worker was mid-compute
    and non-cooperative, so the supervisor killed it — letting it live
    would leave a stale reply in the pipe to answer the *next* request."""


class SupervisedWorker:
    """One supervised child process serving call/response over a pipe.

    The serving daemon's building block: a worker that holds *warm
    state* (a resident :func:`process_session`) across requests, where
    one crash must fail exactly one request.  Each crash or timeout
    tears down just this worker; the next :meth:`call` respawns it
    after an exponential backoff (so a crash-looping workload cannot
    spin the CPU on forks), reported through ``on_respawn(reason,
    delay, consecutive_failures)``.

    ``target(conn, *args)`` runs in the child with its end of the pipe;
    it should loop ``recv`` → work → ``send`` and exit on ``None`` or
    EOF.  Fork start method: the child inherits the parent's prepared
    state, as the lease scheduler's workers do.
    """

    def __init__(
        self,
        target: Callable,
        args: Sequence[object] = (),
        name: str = "worker",
        backoff_seconds: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_cap: float = 2.0,
        on_respawn: Optional[Callable] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.target = target
        self.args = tuple(args)
        self.name = name
        self.backoff_seconds = backoff_seconds
        self.backoff_factor = backoff_factor
        self.backoff_cap = backoff_cap
        self.on_respawn = on_respawn
        self.spawns = 0
        self.respawns = 0
        self.consecutive_failures = 0
        self._sleep = sleep
        self._ctx = multiprocessing.get_context("fork")
        self._process = None
        self._conn = None
        self._last_failure: Optional[str] = None

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    def backoff(self) -> float:
        """The delay the *next* respawn will wait (grows exponentially
        with consecutive failures, capped)."""
        if self.consecutive_failures <= 0:
            return 0.0
        return min(
            self.backoff_cap,
            self.backoff_seconds
            * self.backoff_factor ** (self.consecutive_failures - 1),
        )

    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        self._process = self._ctx.Process(
            target=self.target,
            args=(child_conn,) + self.args,
            name=self.name,
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self._conn = parent_conn
        self.spawns += 1

    def ensure(self) -> None:
        """Spawn the worker if it is not running.  Recovering from a
        failure waits the backoff first and reports the respawn."""
        if self.alive:
            return
        self._teardown()
        if self.spawns == 0:
            self._spawn()
            return
        delay = self.backoff()
        if self.on_respawn is not None:
            self.on_respawn(
                self._last_failure or "crash",
                delay,
                self.consecutive_failures,
            )
        if delay > 0:
            self._sleep(delay)
        self._spawn()
        self.respawns += 1

    def call(self, payload, timeout: Optional[float] = None):
        """Send one payload and wait for the reply.

        Raises :class:`WorkerCrash` if the worker dies first (it will
        be respawned lazily on the next call) and :class:`WorkerTimeout`
        if no reply arrives within ``timeout`` seconds — the worker is
        killed in that case, because a late reply left in the pipe
        would answer the wrong request."""
        self.ensure()
        try:
            self._conn.send(payload)
            if timeout is not None and not self._conn.poll(timeout):
                self._fail("timeout")
                raise WorkerTimeout(
                    f"{self.name}: no reply within {timeout:.3f}s "
                    "(worker killed)"
                )
            reply = self._conn.recv()
        except (EOFError, BrokenPipeError, ConnectionError, OSError) as error:
            self._fail("crash")
            raise WorkerCrash(
                f"{self.name}: worker died mid-request ({error!r})"
            ) from error
        self.consecutive_failures = 0
        return reply

    def _fail(self, reason: str) -> None:
        self.consecutive_failures += 1
        self._last_failure = reason
        self._teardown(kill=True)

    def kill_process(self) -> None:
        """SIGKILL the child outright (chaos hook: the in-flight
        :meth:`call` observes the crash exactly as a real one)."""
        if self._process is not None and self._process.is_alive():
            self._process.kill()

    def _teardown(self, kill: bool = False) -> None:
        process, self._process = self._process, None
        conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if process is not None:
            if kill and process.is_alive():
                process.kill()
            process.join(timeout=5.0)

    def close(self) -> None:
        """Stop the worker politely (sentinel, short grace, then kill)."""
        if self._conn is not None:
            try:
                self._conn.send(None)
            except (BrokenPipeError, ConnectionError, OSError):
                pass
        if self._process is not None:
            self._process.join(timeout=1.0)
            if self._process.is_alive():
                self._process.kill()
        self._teardown()

    def __enter__(self) -> "SupervisedWorker":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
