"""The ``repro serve`` daemon: production-hardened analysis as a service.

One asyncio JSON-over-unix-socket server owning one resident
:class:`~repro.serve.session.AnalysisSession` (and, with ``--store``,
one :class:`~repro.serve.store.KnowledgeStore`).  Requests are
newline-delimited JSON objects, one response line per request::

    {"op": "ping"}
    {"op": "stats"}
    {"op": "metrics"}
    {"op": "shutdown"}
    {"op": "solve", "kind": "typestate" | "escape" | "provenance",
     "program": <text>, "query": <label>, ...,
     "deadline_ms": <int>,            # optional client deadline
     "config": {"k": ..., "max_iterations": ..., "max_seconds": ...,
                "max_steps": ...}}          # all optional overrides
    {"op": "solve-bench", "benchmark": <name>, "analysis": <name>,
     "config": {...}}

Solve responses carry one entry per query::

    {"ok": true, "mode": "cold" | "replay" | "clauses" | "stale",
     "store_hit": bool, "digest": <sha256> | null, "seconds": float,
     "results": [{"query": qid, "verdict": "proven" | "impossible"
                  | "exhausted", "abstraction": [...] | null,
                  "iterations": int}]}

Errors come back as structured envelopes — ``{"ok": false, "error":
<message>, "code": <machine-readable>, "retryable": bool,
"retry_after_ms"?: int}`` (see :mod:`repro.serve.dispatch`); a bad
request never kills the daemon.

**Execution.**  Solve ops flow through a bounded admission queue into
``max(1, workers)`` slot threads.  With ``workers > 0`` (the CLI
default) each slot owns a :class:`~repro.robust.pool.SupervisedWorker`
— a forked child running :func:`~repro.serve.dispatch.worker_main`
with its own resident session and its own store handle — so a crashed
or hung solve fails only its own request (``worker_crashed`` /
``worker_timeout``, retryable) and the worker is respawned with
exponential backoff.  ``workers=0`` keeps the original
in-process execution (one slot, the constructor default, which is what
the in-process tests drive through :meth:`handle_request`).  The
read-only ops — ``ping``, ``stats``, ``metrics`` — bypass the queue so
a dashboard stays live while every slot is busy.

**Admission control.**  The queue depth is bounded
(``queue_depth``); an arrival that finds it full is shed with
``overloaded`` and a ``retry_after_ms`` hint.  A client
``deadline_ms`` (clamped by the server's ``max_deadline_ms`` ceiling)
sheds the request with ``deadline_exceeded`` if it is still queued
when the deadline passes, and bounds the pooled execution timeout.
Completed solve responses are remembered in a bounded dedup ring: a
retried request id replays the cached response (``"deduped": true``)
instead of re-solving; a retry that races the original in flight
coalesces onto the same execution.  ``shutdown`` drains gracefully —
stop accepting, finish everything already admitted, flush the metrics
snapshot and the store, then exit.

Request lines longer than ``max_request_bytes`` are answered with an
``oversized`` envelope and the connection dropped (the buffer past a
lost newline is garbage), instead of buffering without bound.

Every request carries a ``request_id`` (client-supplied or minted
here) that doubles as the schema v2 *trace id*: all spans and events
recorded while the request runs share it, and it is echoed in the
response.  Each request emits ``request_received`` /
``request_served`` / ``request_finished`` events — plus
``request_shed``, ``request_retried``, ``worker_respawned``, and
``store_compacted`` from the robustness machinery — and feeds the
:class:`~repro.serve.telemetry.ServingTelemetry` instruments; the
``metrics`` op (and ``--metrics-out``) exports the registry in
Prometheus text format (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import queue
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.tracer import TracerConfig
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs
from repro.obs.export import render_prometheus
from repro.robust import faults
from repro.robust.pool import SupervisedWorker, WorkerCrash, WorkerTimeout
from repro.serve.dispatch import (
    SOLVE_OPS,
    _tightest,
    failure,
    error_envelope,
    request_config,
    solve_request,
    worker_main,
)
from repro.serve.session import AnalysisSession
from repro.serve.store import KnowledgeStore
from repro.serve.telemetry import ServingTelemetry

__all__ = ["AnalysisServer", "serve"]

#: Ops that never touch session state and run without queueing.
_LOCK_FREE_OPS = frozenset({"ping", "stats", "metrics"})


@dataclass
class _Pending:
    """One admitted request waiting for a slot."""

    request: dict
    request_id: str
    op: str
    queued_at: float
    deadline: Optional[float]  # perf_counter reading, or None
    future: asyncio.Future
    loop: asyncio.AbstractEventLoop
    attempt: int = 0


class AnalysisServer:
    """The daemon: one resident session, one socket, a bounded queue,
    and (optionally) a supervised worker pool."""

    def __init__(
        self,
        socket_path: str,
        store_path: Optional[str] = None,
        config: TracerConfig = TracerConfig(),
        metrics_out: Optional[str] = None,
        metrics_interval: float = 5.0,
        workers: int = 0,
        queue_depth: int = 16,
        max_deadline_ms: Optional[float] = None,
        request_timeout: Optional[float] = None,
        max_request_bytes: int = 8 * 1024 * 1024,
        dedup_size: int = 256,
        compact_ratio: Optional[float] = None,
        compact_min_entries: int = 16,
        fault_specs: Tuple[str, ...] = (),
    ):
        self.socket_path = socket_path
        self.workers = max(0, workers)
        self.store = (
            KnowledgeStore(store_path) if store_path is not None else None
        )
        self.session = AnalysisSession(store=self.store)
        self.config = config
        self.metrics_out = metrics_out
        self.metrics_interval = metrics_interval
        self.queue_depth = queue_depth
        self.max_deadline_ms = max_deadline_ms
        self.request_timeout = request_timeout
        self.max_request_bytes = max_request_bytes
        self.dedup_size = dedup_size
        self.compact_ratio = compact_ratio
        self.compact_min_entries = compact_min_entries
        self.fault_specs = tuple(fault_specs)
        self.requests_served = 0
        self.started = time.time()
        self.telemetry = ServingTelemetry(store=self.store)
        self._queue: "queue.Queue[_Pending]" = queue.Queue(
            maxsize=max(1, queue_depth)
        )
        self.telemetry.queue_depth.set_function(self._queue.qsize)
        self.telemetry.pool_workers.set_function(self._live_workers)
        #: Completed solve responses by request id (the dedup ring).
        self._completed: "OrderedDict[str, dict]" = OrderedDict()
        #: In-flight futures by request id (retry coalescing).
        self._inflight: Dict[str, asyncio.Future] = {}
        #: Delivery attempts per request id (what fault rules pin to).
        self._attempts: "OrderedDict[str, int]" = OrderedDict()
        self._slots: List[Tuple[threading.Thread, Optional[SupervisedWorker]]] = []
        self._draining = False
        self._drain_slots = False
        self._compact_lock = threading.Lock()
        self._conn_tasks: set = set()
        self._conn_writers: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None

    # -- request handling -----------------------------------------------------

    def _request_config(self, request: dict) -> TracerConfig:
        return request_config(self.config, request)

    def _stats(self) -> dict:
        body = {
            "ok": True,
            "pid": os.getpid(),
            "requests_served": self.requests_served,
            "uptime_seconds": time.time() - self.started,
            "session": dict(self.session.stats),
            "serving": {
                "workers": self.workers,
                "queue_depth": self.queue_depth,
                "queued": self._queue.qsize(),
                "draining": self._draining,
                "worker_respawns": sum(
                    w.respawns for _t, w in self._slots if w is not None
                ),
            },
            "telemetry": self.telemetry.snapshot(),
        }
        if self.store is not None:
            body["store"] = {
                "path": self.store.path,
                "entries": len(self.store),
                "entries_loaded": self.store.entries_loaded,
                "hits": self.store.hits,
                "misses": self.store.misses,
                "hit_rate": self.store.hit_rate,
                "superseded_ratio": self.store.superseded_ratio,
                "compactions": self.store.compactions,
            }
        return body

    def _metrics(self) -> dict:
        text = render_prometheus(obs_metrics.current_registry())
        if obs.active():
            obs.event("metrics_scraped", bytes=len(text))
        return {
            "ok": True,
            "format": "prometheus-text-0.0.4",
            "prometheus": text,
        }

    def _run_inline(self, request: dict) -> Tuple[dict, Dict[str, int]]:
        """Execute one request in-process; never raises."""
        op = request.get("op")
        try:
            if op == "ping":
                return {"ok": True, "pong": True, "pid": os.getpid()}, {}
            if op == "stats":
                return self._stats(), {}
            if op == "metrics":
                return self._metrics(), {}
            if op in SOLVE_OPS:
                # Same fault site the pool worker evaluates, so chaos
                # plans behave identically under --workers 0.
                faults.inject("serve.worker")
                return solve_request(self.session, self.config, request)
        except Exception as error:  # a bad request must not kill the daemon
            return error_envelope(error), {}
        return failure(f"unknown op {op!r}", "bad_request"), {}

    def _run_pooled(
        self,
        worker: SupervisedWorker,
        request: dict,
        request_id: str,
        deadline: Optional[float],
        attempt: int,
        started: float,
    ) -> Tuple[dict, Dict[str, int], Dict[str, float]]:
        """Ship one solve to the slot's supervised worker."""
        timeout = self.request_timeout
        if deadline is not None:
            remaining = max(0.001, deadline - started)
            timeout = remaining if timeout is None else min(timeout, remaining)
        if faults.inject("serve.worker_kill") == "corrupt":
            # Chaos hook: SIGKILL the worker *while it is solving* —
            # the in-flight call observes a genuine mid-solve crash.
            killer = threading.Timer(0.05, worker.kill_process)
            killer.daemon = True
            killer.start()
        try:
            reply = worker.call((request, request_id, attempt), timeout=timeout)
            response, meta = reply
        except WorkerCrash as error:
            hint = max(50, int(worker.backoff() * 1000))
            return (
                failure(str(error), "worker_crashed", retryable=True,
                        retry_after_ms=hint),
                {}, {},
            )
        except WorkerTimeout as error:
            code = (
                "deadline_exceeded"
                if deadline is not None
                and time.perf_counter() >= deadline
                else "worker_timeout"
            )
            return failure(str(error), code, retryable=False), {}, {}
        delta = meta.get("store")
        if delta and self.store is not None:
            # Warm-tier hits happened in the worker's store handle;
            # fold them into the parent's counters so ``stats`` and the
            # hit-rate gauge describe the whole daemon.
            self.store.hits += delta.get("hits", 0)
            self.store.misses += delta.get("misses", 0)
        return response, meta.get("tiers") or {}, meta.get("phases") or {}

    def handle_request(
        self,
        request: dict,
        queued_at: Optional[float] = None,
        deadline: Optional[float] = None,
        worker: Optional[SupervisedWorker] = None,
        attempt: int = 0,
    ) -> dict:
        """Serve one decoded request (synchronous; runs on a slot
        thread, or inline in tests).  ``queued_at`` is the
        ``perf_counter`` reading at enqueue time — the gap to now is
        the queue wait.  With ``worker`` set, solve ops execute in that
        supervised worker instead of in-process."""
        op = request.get("op")
        request_id = request.get("request_id")
        if not isinstance(request_id, str) or not request_id:
            request_id = uuid.uuid4().hex[:16]
        started = time.perf_counter()
        queue_wait = (
            max(0.0, started - queued_at) if queued_at is not None else 0.0
        )
        self.telemetry.begin(request_id, op)
        tiers: Dict[str, int] = {}
        with obs.trace_scope(request_id):
            if obs.active():
                obs.event(
                    "request_received",
                    request_id=request_id,
                    op=op,
                    queue_seconds=queue_wait,
                )
            if worker is not None and op in SOLVE_OPS:
                response, tiers, phase_totals = self._run_pooled(
                    worker, request, request_id, deadline, attempt, started
                )
            else:
                with obs.phase_timing() as phases:
                    response, tiers = self._run_inline(request)
                phase_totals = dict(phases.totals)
            seconds = time.perf_counter() - started
            response.setdefault("seconds", seconds)
            response["request_id"] = request_id
            ok = response.get("ok", False)
            mode = response.get("mode")
            if obs.active():
                obs.event(
                    "request_served",
                    op=op,
                    ok=ok,
                    mode=mode,
                    seconds=response["seconds"],
                )
                obs.event(
                    "request_finished",
                    request_id=request_id,
                    op=op,
                    ok=ok,
                    mode=mode,
                    seconds=seconds,
                    queue_seconds=queue_wait,
                    phases={
                        phase: round(sec, 6)
                        for phase, sec in phase_totals.items()
                    },
                )
        self.requests_served += 1
        for tier, count in tiers.items():
            self.telemetry.count_tier(tier, count)
        self.telemetry.finish(
            request_id, op, ok, mode, seconds, queue_wait, phase_totals
        )
        return response

    # -- the slot threads -----------------------------------------------------

    def _live_workers(self) -> int:
        return sum(
            1 for _thread, worker in self._slots
            if worker is not None and worker.alive
        )

    def _on_respawn(self, reason: str, delay: float, failures: int) -> None:
        self.telemetry.respawned()
        if obs.active():
            obs.event(
                "worker_respawned",
                reason=reason,
                backoff_seconds=round(delay, 3),
                consecutive_failures=failures,
            )

    def _shed(self, request_id: str, op, reason: str, **attrs) -> None:
        self.telemetry.shed(reason)
        if obs.active():
            obs.event(
                "request_shed",
                request_id=request_id,
                op=op,
                reason=reason,
                **attrs,
            )

    def _retry_hint_ms(self) -> int:
        """A rough come-back-later hint for shed clients: the queue's
        current depth times a typical request, floor 50ms."""
        typical = self.telemetry.request_seconds.quantile(0.5) or 0.1
        return max(50, int(1000 * typical * (self._queue.qsize() + 1)))

    def _start_slots(self) -> None:
        for index in range(max(1, self.workers)):
            worker = None
            if self.workers > 0:
                worker = SupervisedWorker(
                    worker_main,
                    args=(
                        self.store.path if self.store is not None else None,
                        self.config,
                        self.fault_specs,
                    ),
                    name=f"serve-worker-{index}",
                    on_respawn=self._on_respawn,
                )
            thread = threading.Thread(
                target=self._slot_loop,
                args=(worker,),
                name=f"serve-slot-{index}",
                daemon=True,
            )
            thread.start()
            self._slots.append((thread, worker))

    def _slot_loop(self, worker: Optional[SupervisedWorker]) -> None:
        while True:
            try:
                item = self._queue.get(timeout=0.1)
            except queue.Empty:
                if self._drain_slots:
                    break
                continue
            now = time.perf_counter()
            if item.deadline is not None and now >= item.deadline:
                waited_ms = int((now - item.queued_at) * 1000)
                self._shed(
                    item.request_id, item.op, "deadline_exceeded",
                    waited_ms=waited_ms,
                )
                self._deliver(item, failure(
                    f"deadline expired after {waited_ms}ms in queue",
                    "deadline_exceeded",
                ))
                continue
            try:
                response = self.handle_request(
                    item.request,
                    queued_at=item.queued_at,
                    deadline=item.deadline,
                    worker=worker,
                    attempt=item.attempt,
                )
            except Exception as error:  # a slot thread must never die
                response = failure(
                    f"{type(error).__name__}: {error}", "internal"
                )
            self._deliver(item, response)
            self._maybe_compact()

    @staticmethod
    def _deliver(item: _Pending, response: dict) -> None:
        def resolve() -> None:
            if not item.future.done():
                item.future.set_result(response)

        item.loop.call_soon_threadsafe(resolve)

    def _maybe_compact(self) -> None:
        """Compact the store when the superseded-entry ratio crosses
        the configured threshold (``--compact-ratio``)."""
        if self.store is None or self.compact_ratio is None:
            return
        if not self._compact_lock.acquire(blocking=False):
            return
        try:
            self.store.refresh()
            if (
                self.store.file_entries >= self.compact_min_entries
                and self.store.superseded_ratio >= self.compact_ratio
            ):
                self.store.compact()
                self.telemetry.compacted()
        except (OSError, ValueError):
            pass  # compaction is opportunistic; serving goes on
        finally:
            self._compact_lock.release()

    # -- admission ------------------------------------------------------------

    async def _admit(self, request: dict) -> dict:
        """Queue one solve op (event-loop side): dedup replay, retry
        coalescing, drain refusal, deadline clamping, and shedding when
        the queue is full."""
        op = request.get("op")
        request_id = request.get("request_id")
        if not isinstance(request_id, str) or not request_id:
            request_id = uuid.uuid4().hex[:16]
            request = dict(request, request_id=request_id)
        cached = self._completed.get(request_id)
        if cached is not None:
            self.telemetry.deduped()
            if obs.active():
                obs.event(
                    "request_retried",
                    request_id=request_id, op=op, replay="completed",
                )
            response = dict(cached)
            response["deduped"] = True
            return response
        racing = self._inflight.get(request_id)
        if racing is not None:
            # A retry raced its original (client timeout, duplicated
            # transport): both wait on the one execution.
            self.telemetry.deduped()
            if obs.active():
                obs.event(
                    "request_retried",
                    request_id=request_id, op=op, replay="in_flight",
                )
            response = dict(await asyncio.shield(racing))
            response["deduped"] = True
            return response
        if self._draining:
            return failure(
                "daemon is draining", "overloaded", retryable=False,
            ) | {"request_id": request_id}
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is not None:
            if not isinstance(deadline_ms, (int, float)) or deadline_ms != deadline_ms:
                return failure(
                    f"bad deadline_ms {deadline_ms!r}", "bad_request"
                ) | {"request_id": request_id}
        deadline_ms = _tightest(deadline_ms, self.max_deadline_ms)
        queued_at = time.perf_counter()
        deadline = (
            queued_at + deadline_ms / 1000.0
            if deadline_ms is not None else None
        )
        loop = asyncio.get_running_loop()
        attempt = self._attempts.get(request_id, -1) + 1
        self._attempts[request_id] = attempt
        self._attempts.move_to_end(request_id)
        while len(self._attempts) > 4 * self.dedup_size:
            self._attempts.popitem(last=False)
        item = _Pending(
            request=request,
            request_id=request_id,
            op=op,
            queued_at=queued_at,
            deadline=deadline,
            future=loop.create_future(),
            loop=loop,
            attempt=attempt,
        )
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            hint = self._retry_hint_ms()
            self._shed(
                request_id, op, "overloaded", queued=self._queue.qsize()
            )
            return failure(
                f"request queue full ({self.queue_depth} deep)",
                "overloaded", retryable=True, retry_after_ms=hint,
            ) | {"request_id": request_id}
        self._inflight[request_id] = item.future
        try:
            response = await item.future
        finally:
            self._inflight.pop(request_id, None)
        if response.get("ok") and op in SOLVE_OPS:
            self._remember(request_id, response)
        return response

    def _remember(self, request_id: str, response: dict) -> None:
        self._completed[request_id] = response
        self._completed.move_to_end(request_id)
        while len(self._completed) > self.dedup_size:
            self._completed.popitem(last=False)
        self._attempts.pop(request_id, None)

    # -- the asyncio shell ----------------------------------------------------

    def _encode_reply(self, response: dict) -> bytes:
        payload = _encode(response)
        if faults.inject("serve.reply") == "corrupt":
            # Chaos hook: hand the client a truncated JSON line — its
            # decode-failure retry path must recover via the dedup ring.
            payload = payload[: max(2, len(payload) // 2)].rstrip(b"\n") + b"\n"
        return payload

    async def _handle_connection(self, reader, writer) -> None:
        self._conn_tasks.add(asyncio.current_task())
        self._conn_writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The stream limit tripped: the line is longer than
                    # max_request_bytes.  Answer and drop the connection
                    # — everything buffered past the lost newline is
                    # garbage.
                    self._shed("-", None, "oversized")
                    writer.write(self._encode_reply(failure(
                        f"request line exceeds max_request_bytes "
                        f"({self.max_request_bytes})",
                        "oversized",
                    )))
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as error:
                    response = failure(f"bad request: {error}", "bad_request")
                else:
                    if request.get("op") == "shutdown":
                        self._draining = True
                        response = {
                            "ok": True,
                            "stopping": True,
                            "draining": self._queue.qsize(),
                        }
                        writer.write(self._encode_reply(response))
                        await writer.drain()
                        self._stopping.set()
                        break
                    if request.get("op") in _LOCK_FREE_OPS:
                        # Read-only ops skip the queue so dashboards
                        # stay live during long solves.
                        loop = asyncio.get_running_loop()
                        call = functools.partial(
                            self.handle_request,
                            request,
                            queued_at=time.perf_counter(),
                        )
                        response = await loop.run_in_executor(None, call)
                    else:
                        response = await self._admit(request)
                writer.write(self._encode_reply(response))
                await writer.drain()
        finally:
            self._conn_tasks.discard(asyncio.current_task())
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    def write_metrics_snapshot(self) -> None:
        """Atomically (re)write the ``--metrics-out`` file."""
        if self.metrics_out is None:
            return
        text = render_prometheus(obs_metrics.current_registry())
        tmp = self.metrics_out + ".tmp"
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, self.metrics_out)

    async def _metrics_writer(self) -> None:
        while True:
            await asyncio.sleep(self.metrics_interval)
            self.write_metrics_snapshot()

    def _join_slots(self) -> None:
        self._drain_slots = True
        for thread, _worker in self._slots:
            thread.join()

    def _close_workers(self) -> None:
        for _thread, worker in self._slots:
            if worker is not None:
                worker.close()

    async def run(self) -> None:
        """Listen until a ``shutdown`` request arrives, then drain."""
        self._stopping = asyncio.Event()
        self._start_slots()
        self._server = await asyncio.start_unix_server(
            self._handle_connection,
            path=self.socket_path,
            limit=self.max_request_bytes,
        )
        if obs.active():
            obs.event(
                "session_opened",
                daemon=True,
                socket=self.socket_path,
                store=self.store.path if self.store is not None else None,
                workers=self.workers,
            )
        writer_task = None
        if self.metrics_out is not None:
            self.write_metrics_snapshot()
            writer_task = asyncio.ensure_future(self._metrics_writer())
        try:
            await self._stopping.wait()
        finally:
            self._draining = True
            if writer_task is not None:
                writer_task.cancel()
            self._server.close()
            await self._server.wait_closed()
            # Drain: the slots finish everything already admitted...
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self._join_slots)
            # ...the connections waiting on those futures get a beat to
            # flush their replies (every delivery was scheduled before
            # the join returned)...
            await asyncio.sleep(0.05)
            # ...and the idle ones are closed so their handler tasks
            # exit on EOF instead of being cancelled under them.
            for conn_writer in list(self._conn_writers):
                conn_writer.close()
            pending = [
                task for task in self._conn_tasks
                if task is not asyncio.current_task()
            ]
            if pending:
                await asyncio.wait(pending, timeout=5.0)
            self.write_metrics_snapshot()
            self._close_workers()
            if self.store is not None:
                self.store.close()
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass


def _encode(response: dict) -> bytes:
    return (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")


def serve(
    socket_path: str,
    store_path: Optional[str] = None,
    config: TracerConfig = TracerConfig(),
    **kwargs,
) -> None:
    """Blocking entry point behind ``repro serve``."""
    server = AnalysisServer(socket_path, store_path, config, **kwargs)
    asyncio.run(server.run())
