"""The asyncio HTTP server: admission control, dispatch, graceful drain.

Architecture (pure stdlib, one process)::

    connections --> admission --> queue empty and  --yes--> answer inline --+
                    (drain gate,  first request of          (connection     |
                     rate limit,  this loop pass?            task)          +--> _answer
                     queue cap)         | no                                |   (route,
                                        v                                   |    handler)
                                  bounded queue --> serial dispatcher ------+

Every request is admitted (or rejected *immediately* with 429/503 —
overload produces fast failures, never unbounded latency) and then
answered by :meth:`ServiceServer._answer`, one handler at a time.  The
first request to become ready in an event-loop pass, when nothing is
queued, is answered inline by its connection task, saving the two task
switches a queued request pays (``queue.put`` waking the dispatcher,
``set_result`` waking the connection back).  Every other request that
became ready in the same pass is a pile-up: it joins the bounded queue
behind the requests already waiting, and the dispatcher task answers
them in order, so the queue cap, queue-age shedding and degradation see
a burst however fast the handlers are.  Handlers are synchronous and run
on the one loop thread either way, so both paths are equally serial.
On a single CPU-bound Python process a worker pool would add
interleaving without adding throughput; serial answers give the same
capacity with strictly simpler consistency: a read admitted after a
write *observes* that write (read-your-writes), and ``Graph.version``
echoed in every response makes the ordering checkable client-side.

Backpressure knobs:

* ``max_queue`` — pending-request cap; beyond it new requests get 503
  with ``Retry-After`` instead of queueing (bounded worst-case latency);
* ``rate_limit``/``rate_burst`` — per-client token bucket, 429 on empty
  (``/healthz`` is exempt so monitoring never starves);
* ``request_timeout`` — a request that waited longer than this for its
  handler (in the queue, behind the answers ahead of it) is answered 503
  ``timed_out`` without running (load shedding);
* ``degrade_after`` — queue depth beyond which derived-artifact reads
  may be served from the last materialized cache, marked ``degraded``.

A keep-alive connection whose next request has not fully arrived
``idle_timeout`` seconds after the server started reading it is closed
with nothing written.  The deadline is one timer per connection, re-armed
lazily when it fires early, so a request costs a clock read rather than
a Task and a timer.

``SIGTERM``/``SIGINT`` trigger a clean drain: the listener closes, every
already-admitted request is answered, late requests get 503
``shutting_down`` with ``Connection: close``, then the process exits 0.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import threading
import time
import traceback
from typing import Dict, Optional, Tuple

from ..graph.undirected import Graph
from .handlers import RequestContext, route
from .protocol import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_OVERLOADED,
    ERR_RATE_LIMITED,
    ERR_SHUTTING_DOWN,
    ERR_STALE,
    ERR_TIMED_OUT,
    HttpRequest,
    ProtocolError,
    ServiceError,
    error_payload,
    read_http_request,
    render_http_response,
)
from .state import ServiceState, TokenBucket

#: How many distinct client buckets to keep before pruning the idlest.
_MAX_CLIENT_BUCKETS = 4096

#: Bytes asked of each socket read.  asyncio's default (256 KiB) is above
#: glibc's initial mmap threshold, so unless something earlier freed a
#: bigger block every read maps, faults in and unmaps a fresh buffer: on
#: dblp that added ~25 us to each request, depending on heap layout.
_READ_CHUNK = 16 * 1024


class VersionGate:
    """Wait-for-version primitive behind ``min_version`` read fences.

    Connection tasks park on :meth:`wait` until the served state reaches
    a target version; :meth:`ServiceServer._answer` calls :meth:`notify`
    with the new version after every handled request.  Waiting happens
    *before* a request is answered or queued, so a fenced read can never
    deadlock against the very write that would satisfy it.
    """

    __slots__ = ("_waiters",)

    def __init__(self) -> None:
        # [(target_version, future), ...] — resolved with an outcome tag.
        self._waiters: list = []

    async def wait(self, target: int, *, timeout: Optional[float]) -> str:
        """Park until ``notify(v >= target)``; returns the outcome tag
        (``reached`` / ``timeout`` / ``draining``)."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters.append((target, future))
        try:
            return await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            return "timeout"
        finally:
            if not future.done():
                future.cancel()
            self._waiters = [
                (t, f) for (t, f) in self._waiters if f is not future
            ]

    def notify(self, version: int) -> None:
        """Release every waiter whose target version has been reached."""
        if not self._waiters:
            return
        still_waiting = []
        for target, future in self._waiters:
            if target <= version:
                if not future.done():
                    future.set_result("reached")
            else:
                still_waiting.append((target, future))
        self._waiters = still_waiting

    def release_all(self, outcome: str = "draining") -> None:
        """Resolve every waiter with ``outcome`` (server drain)."""
        for _target, future in self._waiters:
            if not future.done():
                future.set_result(outcome)
        self._waiters = []


class _Connection:
    """What :meth:`ServiceServer.drain` and the idle deadline see of one
    connection.

    ``busy`` means a response is being produced or written, so neither
    may close the transport under it.  ``read_started`` is the loop time
    at which the server began reading the next request; the idle
    deadline is ``read_started + idle_timeout``.
    """

    __slots__ = ("writer", "busy", "read_started", "timer", "timed_out")

    def __init__(self, writer: asyncio.StreamWriter, now: float) -> None:
        self.writer = writer
        self.busy = False
        self.read_started = now
        self.timer: Optional[asyncio.TimerHandle] = None
        self.timed_out = False


class ServiceServer:
    """One listening socket + bounded queue + serial dispatcher.

    An admitted request is answered inline on its connection task when
    nothing is queued and no other request was answered inline in the
    same event-loop pass (the common case on a server that keeps up),
    and through the queue otherwise; both paths run the same
    :meth:`_answer`.

    Parameters
    ----------
    state:
        The :class:`ServiceState` to serve (its stats section is
        registered on the engine at :meth:`start`).
    max_queue:
        Admission cap on requests waiting for the dispatcher.
    rate_limit / rate_burst:
        Per-client token bucket (requests/second and burst capacity);
        ``None`` disables rate limiting.
    request_timeout:
        Queue-age load-shedding threshold in seconds (``None`` disables).
    idle_timeout:
        A connection whose next request has not fully arrived this many
        seconds after the server started reading it is closed, with
        nothing written.
    degrade_after:
        Queue depth at which derived reads may serve stale caches;
        ``None`` disables degradation (always rebuild at head version).
    fence_timeout:
        How long a read carrying ``min_version=V`` may wait for the
        served state to reach version ``V`` before being answered 503
        ``stale_replica`` (the bounded-staleness read fence).
    handler_delay:
        Artificial seconds each answer blocks the event loop before its
        handler runs, on either path, as a slow synchronous handler
        would — a **testing hook** to make queue pressure reproducible;
        leave at 0.0.
    """

    def __init__(
        self,
        state: ServiceState,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = 128,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[float] = None,
        request_timeout: Optional[float] = 10.0,
        idle_timeout: float = 60.0,
        degrade_after: Optional[int] = None,
        fence_timeout: float = 5.0,
        handler_delay: float = 0.0,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if rate_limit is not None and rate_limit <= 0:
            raise ValueError(f"rate_limit must be > 0, got {rate_limit}")
        self.state = state
        self.host = host
        self._requested_port = port
        self.max_queue = max_queue
        self.rate_limit = rate_limit
        self.rate_burst = (
            rate_burst
            if rate_burst is not None
            else (max(1.0, rate_limit) if rate_limit else 1.0)
        )
        self.request_timeout = request_timeout
        self.idle_timeout = idle_timeout
        self.degrade_after = degrade_after
        self.fence_timeout = fence_timeout
        self.handler_delay = handler_delay
        self.state.metrics.queue_max = max_queue
        #: ``min_version`` read-fence support (see docs/SERVICE.md).
        self.version_gate = VersionGate()

        self._server: Optional[asyncio.base_events.Server] = None
        self._queue: "asyncio.Queue[Tuple[HttpRequest, asyncio.Future, float]]" = (
            asyncio.Queue()
        )
        self._dispatcher_task: Optional[asyncio.Task] = None
        #: Set once a request has been answered inline in the current
        #: event-loop pass; a callback queued behind that pass clears it.
        self._inline_this_pass = False
        self._connections: Dict[asyncio.Task, _Connection] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._draining = False
        self._drained = asyncio.Event()
        self._shutdown_requested = asyncio.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def port(self) -> int:
        """The bound port (only valid after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.state.register_stats_section()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        self._dispatcher_task = asyncio.create_task(self._dispatch_loop())

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent; safe from signal handlers)."""
        self._shutdown_requested.set()

    async def serve_forever(self) -> None:
        """Serve until :meth:`request_shutdown`, then drain and return."""
        await self._shutdown_requested.wait()
        await self.drain()

    async def drain(self) -> None:
        """Stop accepting, answer everything admitted, stop the dispatcher."""
        self._draining = True
        # Parked min_version waiters must not outlive the dispatcher;
        # they are answered 503 shutting_down like any late request.
        self.version_gate.release_all()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Everything already in the queue is answered; the sentinel wakes
        # the dispatcher after the last real item.
        await self._queue.put(None)  # type: ignore[arg-type]
        if self._dispatcher_task is not None:
            await self._dispatcher_task
        # Idle keep-alive connections would otherwise sit in a read until
        # the loop tears them down (a cancelled task the streams module
        # logs about); close their transports so the handlers see EOF and
        # finish on their own.  Connections still flushing a final answer
        # get a short grace first.
        deadline = time.monotonic() + 5.0
        while (
            any(conn.busy for conn in self._connections.values())
            and time.monotonic() < deadline
        ):
            await asyncio.sleep(0.005)
        for conn in list(self._connections.values()):
            conn.writer.close()
        if self._connections:
            await asyncio.gather(
                *list(self._connections), return_exceptions=True
            )
        self._drained.set()

    # ------------------------------------------------------------------ #
    # per-connection loop
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        writer.transport.max_size = _READ_CHUNK
        metrics = self.state.metrics
        metrics.connections_open += 1
        metrics.connections_total += 1
        peer = writer.get_extra_info("peername")
        client = peer[0] if isinstance(peer, tuple) else "unknown"
        loop = asyncio.get_running_loop()
        conn = _Connection(writer, loop.time())
        conn.timer = loop.call_at(
            conn.read_started + self.idle_timeout, self._idle_check, conn
        )
        task = asyncio.current_task()
        if task is not None:
            self._connections[task] = conn
        try:
            while True:
                conn.busy = False
                conn.read_started = loop.time()
                try:
                    request = await read_http_request(reader)
                except ProtocolError as error:
                    if conn.timed_out:
                        break
                    metrics.note_rejected("protocol")
                    writer.write(
                        render_http_response(
                            error.status,
                            error_payload(error.code, error.message),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                except (ConnectionResetError, BrokenPipeError):
                    break
                if request is None or conn.timed_out:
                    break
                conn.busy = True
                keep_alive = not request.wants_close
                body, close_after = await self._admit_and_answer(
                    request, client
                )
                try:
                    writer.write(body)
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    break
                if close_after or not keep_alive:
                    break
        finally:
            if conn.timer is not None:
                conn.timer.cancel()
            if task is not None:
                self._connections.pop(task, None)
            metrics.connections_open -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def _idle_check(self, conn: _Connection) -> None:
        """The idle deadline's timer: close the connection if its current
        read has run past ``idle_timeout``, else re-arm for the deadline
        of the read in progress (or, mid-answer, of the next read, which
        starts no earlier than now)."""
        loop = self._loop
        now = loop.time()
        if conn.busy:
            due = now + self.idle_timeout
        else:
            due = conn.read_started + self.idle_timeout
            if due <= now:
                # The reader sees EOF; the handler then leaves without
                # writing (a half-read request is not answered 400).
                conn.timer = None
                conn.timed_out = True
                conn.writer.close()
                return
        conn.timer = loop.call_at(due, self._idle_check, conn)

    async def _admit_and_answer(
        self, request: HttpRequest, client: str
    ) -> Tuple[bytes, bool]:
        """Admission control; returns (response bytes, close-connection?)."""
        metrics = self.state.metrics
        version = self.state.version
        if self._draining:
            metrics.note_rejected("shutting_down")
            return (
                render_http_response(
                    503,
                    error_payload(
                        ERR_SHUTTING_DOWN,
                        "server is draining; connection will close",
                        version=version,
                    ),
                    keep_alive=False,
                ),
                True,
            )
        if self.rate_limit is not None and request.path != "/healthz":
            bucket = self._bucket_for(client)
            if not bucket.allow(time.monotonic()):
                metrics.note_rejected("rate_limited")
                return (
                    render_http_response(
                        429,
                        error_payload(
                            ERR_RATE_LIMITED,
                            f"client {client} exceeded "
                            f"{self.rate_limit:g} requests/second",
                            version=version,
                        ),
                        retry_after=bucket.retry_after(),
                    ),
                    False,
                )
        raw_fence = request.param("min_version")
        if raw_fence is not None:
            try:
                want = int(raw_fence)
            except ValueError:
                want = -1
            if want < 0:
                return (
                    render_http_response(
                        400,
                        error_payload(
                            ERR_BAD_REQUEST,
                            f"min_version must be a non-negative integer, "
                            f"got {raw_fence!r}",
                            version=version,
                        ),
                    ),
                    False,
                )
            if self.state.version < want:
                outcome = await self.version_gate.wait(
                    want, timeout=self.fence_timeout
                )
                if outcome == "draining":
                    metrics.note_rejected("shutting_down")
                    return (
                        render_http_response(
                            503,
                            error_payload(
                                ERR_SHUTTING_DOWN,
                                "server is draining; connection will close",
                                version=self.state.version,
                            ),
                            keep_alive=False,
                        ),
                        True,
                    )
                if outcome == "timeout":
                    metrics.note_rejected("stale")
                    return (
                        render_http_response(
                            503,
                            error_payload(
                                ERR_STALE,
                                f"state is at version {self.state.version}, "
                                f"min_version={want} not reached within "
                                f"{self.fence_timeout:g}s",
                                version=self.state.version,
                            ),
                            retry_after=self.fence_timeout,
                        ),
                        False,
                    )
        if self._queue.qsize() >= self.max_queue:
            metrics.note_rejected("overloaded")
            return (
                render_http_response(
                    503,
                    error_payload(
                        ERR_OVERLOADED,
                        f"request queue is full ({self.max_queue} pending)",
                        version=version,
                    ),
                    retry_after=1.0,
                ),
                False,
            )
        # The dispatcher never yields while it holds a request (handlers,
        # handler_delay included, are synchronous), so an empty queue
        # means nobody is ahead of us.  Only the first request of a loop
        # pass goes inline: the others that became ready in the same pass
        # are a pile-up, and wait in the queue where its bounds see them.
        if self._queue.empty() and not self._inline_this_pass:
            self._inline_this_pass = True
            self._loop.call_soon(self._end_inline_pass)
            status, payload, retry_after = self._answer(
                request, time.monotonic()
            )
        else:
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            metrics.note_queued()
            await self._queue.put((request, future, time.monotonic()))
            status, payload, retry_after = await future
        return (
            render_http_response(
                status, payload, retry_after=retry_after
            ),
            False,
        )

    def _bucket_for(self, client: str) -> TokenBucket:
        bucket = self._buckets.get(client)
        if bucket is None:
            if len(self._buckets) >= _MAX_CLIENT_BUCKETS:
                # Drop the stalest buckets (coarse, rare).
                for key in sorted(
                    self._buckets, key=lambda k: self._buckets[k].updated
                )[: _MAX_CLIENT_BUCKETS // 2]:
                    del self._buckets[key]
            bucket = TokenBucket(
                self.rate_limit or 1.0, self.rate_burst, now=time.monotonic()
            )
            self._buckets[client] = bucket
        return bucket

    # ------------------------------------------------------------------ #
    # dispatcher
    # ------------------------------------------------------------------ #

    async def _dispatch_loop(self) -> None:
        metrics = self.state.metrics
        while True:
            item = await self._queue.get()
            if item is None:
                break
            request, future, enqueued = item
            metrics.note_dequeued()
            if future.cancelled():
                continue
            future.set_result(self._answer(request, enqueued))

    def _end_inline_pass(self) -> None:
        self._inline_this_pass = False

    def _answer(
        self, request: HttpRequest, enqueued: float
    ) -> Tuple[int, Dict[str, object], Optional[float]]:
        """Run the request's handler; return (status, payload, Retry-After).

        The one handler path, reached inline from a connection task or
        from the dispatcher.  ``enqueued`` is the admission time, so the
        recorded latency, and the age ``request_timeout`` sheds on,
        include any queue wait.
        """
        metrics = self.state.metrics
        if self.handler_delay:
            # Blocks the loop, as a slow synchronous handler would.
            time.sleep(self.handler_delay)
        if self.request_timeout is not None:
            waited = time.monotonic() - enqueued
            if waited > self.request_timeout:
                metrics.note_rejected("timed_out")
                return (
                    503,
                    error_payload(
                        ERR_TIMED_OUT,
                        f"request waited {waited:.2f}s for its handler "
                        f"(limit {self.request_timeout:g}s)",
                        version=self.state.version,
                    ),
                    1.0,
                )
        context = RequestContext(
            allow_stale=(
                self.degrade_after is not None
                and self._queue.qsize() >= self.degrade_after
            ),
            draining=self._draining,
        )
        endpoint = "other"
        error = False
        retry_after: Optional[float] = None
        try:
            endpoint, handler = route(request)
            status, payload = handler(self.state, request, context)
        except ServiceError as exc:
            status = exc.status
            payload = error_payload(
                exc.code, exc.message, version=self.state.version
            )
            retry_after = exc.retry_after
            error = True
        except Exception:
            traceback.print_exc(file=sys.stderr)
            status = 500
            payload = error_payload(
                ERR_INTERNAL,
                "unhandled error while answering the request",
                version=self.state.version,
            )
            error = True
        metrics.note_request(endpoint, time.monotonic() - enqueued, error=error)
        # A write may have advanced the state; release matured
        # min_version fences (no-op when nobody is waiting).
        self.version_gate.notify(self.state.version)
        return status, payload, retry_after


# --------------------------------------------------------------------- #
# blocking entry point (CLI) and background helper (tests / examples)
# --------------------------------------------------------------------- #


async def _run_async(
    server: ServiceServer, *, announce=None, install_signals: bool = True
) -> None:
    if install_signals:
        # Before start/announce: the instant the port is printed, a
        # supervisor may already be sending SIGTERM.
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                signal.signal(
                    signum, lambda *_args: server.request_shutdown()
                )
    await server.start()
    if announce is not None:
        announce(server)
    await server.serve_forever()


def run_server(server: ServiceServer, *, announce=None) -> None:
    """Serve until SIGTERM/SIGINT, drain cleanly, then return.

    ``announce(server)`` is called once the port is bound (the CLI prints
    the listening URL from it; tests parse that line).
    """
    asyncio.run(_run_async(server, announce=announce, install_signals=True))


class BackgroundServer:
    """A service server running on an event loop in a daemon thread.

    The in-process harness used by tests, examples, and notebooks::

        with BackgroundServer(graph) as server:
            client = ServiceClient("127.0.0.1", server.port)
            client.kappa(0, 1)

    ``state``/server knobs pass through to :class:`ServiceState` and
    :class:`ServiceServer`.  ``stop()`` performs the same graceful drain
    as SIGTERM and joins the thread.
    """

    def __init__(
        self,
        graph: Optional[Graph] = None,
        *,
        state: Optional[ServiceState] = None,
        backend: Optional[str] = None,
        **server_kwargs,
    ) -> None:
        if (graph is None) == (state is None):
            raise ValueError("pass exactly one of graph= or state=")
        self.state = state if state is not None else ServiceState(
            graph, backend=backend
        )
        self._server_kwargs = server_kwargs
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._failed: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.server: Optional[ServiceServer] = None
        self.port: Optional[int] = None

    def start(self) -> "BackgroundServer":
        if self._thread is not None:
            raise RuntimeError("already started")
        self._thread = threading.Thread(
            target=self._thread_main, name="triangle-kcore-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service thread failed to start in time")
        if self._failed is not None:
            raise RuntimeError(
                f"service thread failed to start: {self._failed!r}"
            ) from self._failed
        return self

    def _thread_main(self) -> None:
        async def main() -> None:
            server = ServiceServer(self.state, **self._server_kwargs)
            try:
                await server.start()
            except BaseException as error:
                self._failed = error
                self._ready.set()
                raise
            self.server = server
            self.port = server.port
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await server.serve_forever()

        try:
            asyncio.run(main())
        except BaseException as error:  # noqa: BLE001 - surfaced via start()
            if not self._ready.is_set():
                self._failed = error
                self._ready.set()

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful drain + thread join (idempotent)."""
        if self._thread is None:
            return
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_shutdown)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("service thread did not stop in time")
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
