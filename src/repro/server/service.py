"""The HTTP service skeleton shared by ``mao serve`` and ``mao fleet``.

Both front ends answer :mod:`repro.server.http` requests over keep-alive
connections and differ only in what a routed request does (execute it
on a worker pool, or forward it to a worker process).  The rest is
written once, here: :class:`Admission` (the 503/504 policy),
:class:`Service` (bind, serve until drain, drain, the connection loop
and the request-id / 404 / 400 / 500 envelope) and
:class:`ServiceThread` (the in-process harness).  Registry counters are
``<name>.requests`` / ``.not_found`` / ``.errors`` / ``.protocol_errors``
/ ``.rejected`` / ``.timeouts``, with ``<name>`` the subclass's
:attr:`Service.name`.
"""

from __future__ import annotations

import asyncio
import itertools
import signal
import socket
import threading
from typing import Any, Awaitable, Callable, Dict, Optional, Set

from repro import obs
from repro.server.http import (
    ProtocolError,
    Request,
    error_payload,
    read_request,
    render_json,
)


class Admission:
    """One front end's admission state: at most *limit* admitted
    requests and none while draining (``503`` + ``Retry-After``); an
    admitted request always ends in a response, ``504`` past
    *timeout_s*.  *on_change* runs whenever the admitted count moves.
    """

    def __init__(self, registry: obs.Registry, prefix: str, *,
                 limit: int, full_message: str, retry_after_s: float,
                 timeout_s: float, on_change: Callable[[], None]) -> None:
        self.registry = registry
        self.prefix = prefix
        self.limit = limit
        self.full_message = full_message
        self.retry_after_s = retry_after_s
        self.timeout_s = timeout_s
        self.on_change = on_change
        self.admitted = 0
        self.draining = False

    def refuse(self, rid: str, keep_alive: bool,
               headers: Dict[str, str]) -> Optional[bytes]:
        """The ``503`` answer when a request cannot be admitted now,
        else None.  Synchronous, so a caller that goes straight on to
        :meth:`run` is counted before any other request is considered."""
        if not self.draining and self.admitted < self.limit:
            return None
        self.registry.inc(self.prefix + ".rejected")
        headers = dict(headers)
        headers["Retry-After"] = "%g" % self.retry_after_s
        return render_json(503, error_payload(
            503, "draining" if self.draining else self.full_message, rid),
            keep_alive=keep_alive, headers=headers)

    async def run(self, work: Awaitable[Any],
                  respond: Callable[[Any], bytes], rid: str,
                  keep_alive: bool, headers: Dict[str, str],
                  on_timeout: Callable[[], None] = lambda: None) -> bytes:
        """Hold one admission while *work* runs and answer
        ``respond(result)``, or ``504`` (cancelling *work*) past
        ``timeout_s``; the admission is released however *work* ends."""
        self.admitted += 1
        self.on_change()
        try:
            try:
                result = await asyncio.wait_for(work,
                                                timeout=self.timeout_s)
            except asyncio.TimeoutError:
                self.registry.inc(self.prefix + ".timeouts")
                on_timeout()
                return render_json(504, error_payload(
                    504, "request exceeded %.1fs" % self.timeout_s, rid),
                    keep_alive=keep_alive, headers=headers)
            return respond(result)
        finally:
            self.admitted -= 1
            self.on_change()


class Service:
    """Listener, lifecycle and connection handling of one front end.

    A subclass sets :attr:`name` (registry prefix) and
    :attr:`request_id_prefix` and implements :meth:`_route`, ``_open``
    (run before the listener binds), ``_close`` (run once every
    connection has finished) and ``_admission_changed`` (run whenever
    the admitted count moves).
    """

    name: str
    request_id_prefix: str

    def __init__(self, config: Any, registry: Optional[obs.Registry], *,
                 limit: int, full_message: str) -> None:
        self.config = config
        self.registry = registry if registry is not None else obs.REGISTRY
        self.admission = Admission(
            self.registry, self.name, limit=limit,
            full_message=full_message,
            retry_after_s=config.retry_after_s,
            timeout_s=config.request_timeout_s,
            on_change=self._admission_changed)
        self.port: Optional[int] = None      # bound port after start()
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain_requested: Optional[asyncio.Event] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._idle_writers: Set[asyncio.StreamWriter] = set()
        self._request_seq = itertools.count(1)

    async def _route(self, request: Request, rid: str, keep_alive: bool,
                     headers: Dict[str, str]) -> Any:
        """Rendered bytes, a JSON payload to answer ``200`` with, or
        None for ``404``."""
        raise NotImplementedError

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._drain_requested = asyncio.Event()
        await self._open()
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port)
        for sock in self._server.sockets or []:
            if sock.family in (socket.AF_INET, socket.AF_INET6):
                self.port = sock.getsockname()[1]
                break

    async def run(self, *, install_signals: bool = True,
                  ready=None) -> None:
        """Start, serve until drain is requested, then drain."""
        await self.start()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(signum, self.request_drain)
        try:
            if ready is not None:
                ready(self)
            await self._drain_requested.wait()
        finally:
            if install_signals:
                for signum in (signal.SIGTERM, signal.SIGINT):
                    self._loop.remove_signal_handler(signum)
            await self.drain()

    def request_drain(self) -> None:
        """Signal-safe (from the loop thread) drain trigger."""
        self.admission.draining = True
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def drain(self) -> None:
        """Stop accepting, let every connection finish, then
        :meth:`_close`."""
        self.admission.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Idle keep-alive connections sit in read_request() forever;
        # closing their transports turns that into a clean EOF.
        for writer in list(self._idle_writers):
            writer.close()
        pending = [task for task in self._conn_tasks if not task.done()]
        if pending:
            _done, not_done = await asyncio.wait(
                pending, timeout=self.config.drain_grace_s)
            for task in not_done:
                task.cancel()
            if not_done:
                await asyncio.gather(*not_done, return_exceptions=True)
        await self._close()

    # -- connection handling ------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            keep_alive = True
            while keep_alive:
                self._idle_writers.add(writer)
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.config.max_body_bytes)
                except ProtocolError as exc:
                    self.registry.inc(self.name + ".protocol_errors")
                    writer.write(render_json(
                        exc.status, error_payload(exc.status, exc.message),
                        keep_alive=False))
                    await writer.drain()
                    return
                finally:
                    self._idle_writers.discard(writer)
                if request is None:
                    return
                keep_alive = (request.keep_alive
                              and not self.admission.draining)
                writer.write(await self._dispatch(request, keep_alive))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._conn_tasks.discard(task)
            self._idle_writers.discard(writer)
            writer.close()

    async def _dispatch(self, request: Request, keep_alive: bool) -> bytes:
        rid = request.headers.get("x-request-id") or "%s-%06d" % (
            self.request_id_prefix, next(self._request_seq))
        self.registry.inc(self.name + ".requests")
        headers = {"X-Request-Id": rid}
        try:
            routed = await self._route(request, rid, keep_alive, headers)
            if isinstance(routed, dict):
                return render_json(200, routed, keep_alive=keep_alive,
                                   headers=headers)
            if routed is not None:
                return routed
            self.registry.inc(self.name + ".not_found")
            return render_json(404, error_payload(
                404, "no route for %s %s" % (request.method, request.path),
                rid), keep_alive=keep_alive, headers=headers)
        except ProtocolError as exc:
            return render_json(exc.status,
                               error_payload(exc.status, exc.message, rid),
                               keep_alive=keep_alive, headers=headers)
        except Exception as exc:   # a handler bug, not a client error
            self.registry.inc(self.name + ".errors")
            return render_json(500, error_payload(
                500, "internal error: %s: %s" % (type(exc).__name__, exc),
                rid), keep_alive=keep_alive, headers=headers)


class ServiceThread:
    """Run a :class:`Service` subclass on a background thread (``with
    ServerThread(config) as handle:``); once entered, ``port`` is the
    bound port and ``service`` the running instance."""

    service_class: type
    ready_timeout_s = 30.0
    stop_timeout_s = 60.0

    def __init__(self, config: Any) -> None:
        self.config = config
        self.service: Optional[Service] = None
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:     # surface startup failures
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()

        def on_ready(bound: Service) -> None:
            self.service = bound
            self.port = bound.port
            self._ready.set()

        await self.service_class(self.config).run(install_signals=False,
                                                  ready=on_ready)

    def __enter__(self) -> "ServiceThread":
        self._thread.start()
        self._ready.wait(timeout=self.ready_timeout_s)
        noun = self.service_class.name
        if self._startup_error is not None:
            raise RuntimeError("%s failed to start" % noun) \
                from self._startup_error
        if self.port is None:
            raise RuntimeError("%s did not become ready" % noun)
        return self

    def stop(self) -> None:
        if (self._loop is not None and self.service is not None
                and not self._loop.is_closed()):
            try:
                self._loop.call_soon_threadsafe(self.service.request_drain)
            except RuntimeError:
                pass               # loop torn down between check and call
        self._thread.join(timeout=self.stop_timeout_s)

    def __exit__(self, *exc_info) -> None:
        self.stop()
