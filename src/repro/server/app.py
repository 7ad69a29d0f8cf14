"""The asyncio optimization service.

One long-lived :class:`MaoServer` turns the :mod:`repro.api` facade and
the :mod:`repro.batch` artifact cache into a network service, so many
clients amortize one warm cache and one worker pool:

* ``POST /v1/optimize`` — one source through a pass spec (the
  ``pymao.pipeline/1`` report rides in the response);
* ``POST /v1/batch`` — a corpus in one request (``pymao.batch/1``);
* ``POST /v1/simulate`` — execute + time on a processor model;
* ``POST /v1/predict`` — the static throughput model
  (``pymao.predict/1``); cheap enough to skip the artifact cache;
* ``GET /healthz`` — liveness + admission state;
* ``GET /metrics`` — the :data:`repro.obs.REGISTRY` snapshot as a
  ``pymao.trace/1`` metrics event.

**Admission control.**  CPU-bound work never runs on the event loop; it
is shipped to a bounded worker pool (thread or process, from
:mod:`repro.pool`).  The shared :class:`~repro.server.service.Admission`
admits up to ``max_inflight + max_queue`` requests and refuses the rest
up front with ``503`` + ``Retry-After`` (backpressure, not buffering).
Admitted requests wait on a semaphore for one of the ``max_inflight``
execution slots, bounded by ``request_timeout_s`` end to end (``504``),
and always end in a response, even during drain.

**Shared cache.**  All optimize/batch work shares one content-addressed
:class:`~repro.batch.cache.ArtifactCache` store; identical concurrent
``/v1/optimize`` requests are additionally *coalesced* — followers await
the leader's executor task (shielded, so one impatient client cannot
cancel work others depend on) instead of re-optimizing.

**Drain.**  ``SIGTERM``/``SIGINT`` (or :meth:`MaoServer.request_drain`)
runs the shared :meth:`~repro.server.service.Service.drain`, then shuts
the worker pool down and flushes the trace sink; the process exits 0.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro import obs, pool
from repro.batch.cache import (
    DEFAULT_MAX_BYTES,
    default_cache_dir,
    default_salt,
    source_sha256,
)
from repro.passes.manager import (
    canonical_pass_spec,
    encode_pass_spec,
    parse_pass_spec,
    spec_has_side_effects,
)
from repro.result import register_schema
from repro.server import work
from repro.server.http import ProtocolError, Request, render_json
from repro.server.service import Service, ServiceThread

#: Schema tag carried by every JSON response envelope.
SERVER_SCHEMA = register_schema("server", "pymao.server/1")

def _validate_core(core: Any) -> Any:
    """Validate a request's ``core`` field against the profile registry.

    Accepts a registry name (``core2`` … plus any data-only profile
    dropped into ``repro/uarch/data/``) or an inline ``pymao.uarch/1``
    document; filesystem paths are deliberately rejected server-side.
    """
    from repro.uarch import tables

    if isinstance(core, dict):
        try:
            tables.validate_doc(core, where="request core")
        except ValueError as exc:
            raise ProtocolError(400, "invalid inline core profile: %s"
                                % (exc,))
        return core
    names = tables.profile_names()
    if not isinstance(core, str) or core not in names:
        raise ProtocolError(400, "field 'core' must be one of %s or an "
                            "inline pymao.uarch/1 document"
                            % ", ".join(names))
    return core


@dataclass
class ServerConfig:
    """Everything a :class:`MaoServer` needs to run."""

    host: str = "127.0.0.1"
    port: int = 8423                  # 0 = ephemeral (bound port on start)
    parallel_backend: str = "thread"  # worker pool kind: thread | process
    workers: int = 0                  # pool size; 0 = max_inflight
    max_inflight: int = 4             # concurrently executing requests
    max_queue: int = 16               # admitted-but-waiting bound
    request_timeout_s: float = 120.0  # admission-to-response bound
    max_body_bytes: int = 8 * 1024 * 1024
    retry_after_s: float = 1.0        # advisory backoff floor on 503s
    cache: bool = True
    cache_dir: Optional[str] = None   # None = default_cache_dir()
    cache_salt: Optional[str] = None
    max_cache_bytes: int = DEFAULT_MAX_BYTES
    trace_out: Optional[str] = None   # pymao.trace/1 JSONL, flushed on drain
    drain_grace_s: float = 60.0
    #: Root of the PGO profile store served by ``/v1/profile``;
    #: ``None`` = :func:`repro.pgo.default_profile_dir`.
    profile_dir: Optional[str] = None
    #: Artificial pre-execution delay per work item.  Test/bench hook for
    #: holding execution slots open deterministically; never set in
    #: production configs.
    test_delay_s: float = 0.0

    def cache_spec(self) -> work.CacheSpec:
        if not self.cache:
            return None
        root = self.cache_dir or default_cache_dir()
        salt = self.cache_salt or default_salt()
        return (root, salt, self.max_cache_bytes)


def _delayed(fn, delay_s: float):
    """Wrap a worker so it sleeps *delay_s* before executing (the
    ``test_delay_s`` hook).  Defined at module scope per backend rules —
    but a closure cannot cross a process boundary, so the process
    backend rejects the hook instead (see :meth:`MaoServer._open`)."""
    import functools
    import time

    @functools.wraps(fn)
    def wrapper(payload):
        time.sleep(delay_s)
        return fn(payload)

    return wrapper


class MaoServer(Service):
    """The service: admission control + routing over a worker pool."""

    name = "server"
    request_id_prefix = "req"

    def __init__(self, config: ServerConfig, *,
                 registry: Optional[obs.Registry] = None) -> None:
        limit = config.max_inflight + config.max_queue
        super().__init__(config, registry, limit=limit,
                         full_message="at capacity (inflight+queued >= %d)"
                         % limit)
        self._executor = None
        self._executing = 0
        self._slots: Optional[asyncio.Semaphore] = None
        self._singleflight: Dict[str, asyncio.Future] = {}

    # -- lifecycle ----------------------------------------------------------

    async def _open(self) -> None:
        config = self.config
        if config.parallel_backend == "process" and config.test_delay_s:
            raise ValueError("test_delay_s requires the thread backend")
        if config.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self._executor = pool.executor(config.workers or config.max_inflight,
                                       config.parallel_backend)
        self._slots = asyncio.Semaphore(config.max_inflight)

    async def _close(self) -> None:
        """Shut the worker pool down and flush the trace sink."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self.config.trace_out:
            sink = obs.JsonlSink(self.config.trace_out)
            try:
                obs.write_trace(sink, obs.finish_spans(),
                                server="%s:%s" % (self.config.host,
                                                  self.port))
            finally:
                sink.close()

    # -- routing ------------------------------------------------------------

    #: Work endpoints and the handler each one runs in an execution slot.
    _HANDLERS = {"/v1/optimize": "_handle_optimize",
                 "/v1/batch": "_handle_batch",
                 "/v1/simulate": "_handle_simulate",
                 "/v1/predict": "_handle_predict",
                 "/v1/tune": "_handle_tune",
                 "/v1/profile": "_handle_profile"}

    async def _route(self, request: Request, rid: str, keep_alive: bool,
                     headers: Dict[str, str]) -> Any:
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return self._health_payload(rid)
        if route == ("GET", "/metrics"):
            event = obs.metrics_event(self.registry.snapshot())
            event["request_id"] = rid
            return event
        if request.method == "POST" and request.path in self._HANDLERS:
            return await self._dispatch_work(request, rid, keep_alive,
                                             headers)
        return None

    def _health_payload(self, rid: str) -> Dict[str, Any]:
        from repro import __version__

        admission = self.admission
        return {"schema": SERVER_SCHEMA,
                "status": "draining" if admission.draining else "ok",
                "version": __version__,
                "request_id": rid,
                "inflight": self._executing,
                "queue_depth": admission.admitted - self._executing,
                "queued": admission.admitted - self._executing,
                "max_inflight": self.config.max_inflight,
                "max_queue": self.config.max_queue,
                "cache": self.config.cache_spec() is not None}

    def _admission_changed(self) -> None:
        """Keep the live admission state visible as registry gauges, so
        ``/metrics`` (and the fleet front door aggregating it) reports
        the same ``inflight`` / ``queue_depth`` numbers ``/healthz``
        does — the backpressure bench asserts against these."""
        self.registry.gauge("server.inflight", self._executing)
        self.registry.gauge("server.queue_depth",
                            self.admission.admitted - self._executing)

    # -- admission + execution ----------------------------------------------

    async def _dispatch_work(self, request: Request, rid: str,
                             keep_alive: bool,
                             headers: Dict[str, str]) -> bytes:
        refused = self.admission.refuse(rid, keep_alive, headers)
        if refused is not None:
            return refused
        try:
            with obs.detached_span("request:%s" % request.path,
                                   request_id=rid,
                                   bytes=len(request.body)) as span:
                def respond(payload: Dict[str, Any]) -> bytes:
                    if span:
                        span.attach(status=200)
                    return render_json(200, payload, keep_alive=keep_alive,
                                       headers=headers)

                def timed_out() -> None:
                    if span:
                        span.attach(outcome="timeout")

                return await self.admission.run(
                    self._execute(request, rid, span), respond, rid,
                    keep_alive, headers, on_timeout=timed_out)
        finally:
            obs.adopt_span(None, span)

    async def _execute(self, request: Request, rid: str,
                       span) -> Dict[str, Any]:
        async with self._slots:
            self._executing += 1
            self._admission_changed()
            try:
                handler = getattr(self, self._HANDLERS[request.path])
                return await handler(request, rid, span)
            finally:
                self._executing -= 1
                self._admission_changed()

    def _run_in_pool(self, fn, payload) -> "asyncio.Future":
        if self.config.test_delay_s:
            fn = _delayed(fn, self.config.test_delay_s)
        return self._loop.run_in_executor(self._executor, fn, payload)

    def _checked(self, outcome: Dict[str, Any], span) -> Dict[str, Any]:
        """A worker's outcome; an input error it reports is the
        client's 400."""
        if outcome["status"] == "error":
            self.registry.inc("server.client_errors")
            if span:
                span.attach(error=outcome["kind"], status=400)
            raise ProtocolError(400, outcome["error"])
        return outcome

    # -- handlers -----------------------------------------------------------

    @staticmethod
    def _body_object(request: Request) -> Dict[str, Any]:
        data = request.json()
        if not isinstance(data, dict):
            raise ProtocolError(400, "request body must be a JSON object")
        return data

    @staticmethod
    def _parse_spec(data: Dict[str, Any]):
        spec = data.get("spec")
        try:
            if spec is None:
                items = []
            elif isinstance(spec, str):
                items = parse_pass_spec(spec)
            elif isinstance(spec, list):
                items = [(str(name), dict(options))
                         for name, options in spec]
            else:
                raise ValueError("spec must be a string or [name, options] "
                                 "items")
        except ValueError as exc:
            raise ProtocolError(400, "bad pass spec: %s" % exc)
        if spec_has_side_effects(items):
            # The response carries the emitted asm; letting a request
            # run ASM=o[...] would write arbitrary server-side paths and
            # make warm (cache-replayed) runs skip the effect cold runs
            # performed.
            raise ProtocolError(400, "side-effecting passes (ASM) are not "
                                     "allowed over the wire; read the asm "
                                     "from the response")
        return items

    @staticmethod
    def _core_and_input(data: Dict[str, Any]):
        """The validated ``core`` and exactly one of ``source`` /
        ``workload``."""
        core = _validate_core(data.get("core"))
        source = data.get("source")
        workload = data.get("workload")
        if (source is None) == (workload is None):
            raise ProtocolError(400, "pass exactly one of 'source' or "
                                     "'workload'")
        return core, source, workload

    async def _handle_optimize(self, request: Request, rid: str,
                               span) -> Dict[str, Any]:
        data = self._body_object(request)
        source = data.get("source")
        if not isinstance(source, str):
            raise ProtocolError(400, "missing string field 'source'")
        spec_items = self._parse_spec(data)
        payload = {"source": source, "spec_items": spec_items,
                   "filename": data.get("filename"),
                   "want_spans": obs.enabled(),
                   "cache": self.config.cache_spec(),
                   "key_spec": encode_pass_spec(spec_items),
                   "canonical_spec": canonical_pass_spec(spec_items)}
        # Singleflight: identical concurrent requests share one executor
        # task keyed by (salt, source, spec).  The task is shielded so a
        # follower's (or the leader's) timeout cancels only its own
        # wait, never the shared computation.
        key = "%s\x00%s" % (source_sha256(source), payload["key_spec"])
        task = self._singleflight.get(key)
        coalesced = task is not None
        if task is None:
            task = self._run_in_pool(work.optimize_worker, payload)
            self._singleflight[key] = task
            task.add_done_callback(
                lambda _t, _key=key: self._singleflight.pop(_key, None))
        outcome = self._checked(await asyncio.shield(task), span)
        if outcome.get("span") is not None and span:
            obs.adopt_span(span, obs.Span.from_dict(outcome["span"]))
        cache_state = "coalesced" if coalesced else outcome["cache"]
        if span:
            span.attach(cache=cache_state)
        self.registry.inc("server.optimize.%s" % cache_state)
        return {"schema": SERVER_SCHEMA, "request_id": rid,
                "cache": cache_state, "asm": outcome["asm"],
                "pipeline": outcome["pipeline"]}

    async def _handle_batch(self, request: Request, rid: str,
                            span) -> Dict[str, Any]:
        data = self._body_object(request)
        inputs = data.get("inputs")
        if (not isinstance(inputs, list)
                or not all(isinstance(pair, (list, tuple))
                           and len(pair) == 2
                           and isinstance(pair[0], str)
                           and isinstance(pair[1], str)
                           for pair in inputs)):
            raise ProtocolError(400, "field 'inputs' must be a list of "
                                     "[name, source] pairs")
        spec_items = self._parse_spec(data)
        payload = {"inputs": [(name, source) for name, source in inputs],
                   "spec_items": spec_items,
                   "want_spans": obs.enabled(),
                   "cache": self.config.cache_spec()}
        outcome = self._checked(
            await self._run_in_pool(work.batch_worker, payload), span)
        if span:
            span.attach(files=len(inputs))
        return {"schema": SERVER_SCHEMA, "request_id": rid,
                "summary": outcome["summary"], "asm": outcome["asm"]}

    async def _handle_predict(self, request: Request, rid: str,
                              span) -> Dict[str, Any]:
        """``/v1/predict``: the static model, no artifact cache.

        A prediction re-runs faster than a cache round trip, so unlike
        optimize/batch this path never touches the shared store; the
        ``predict.*`` counters in :data:`repro.obs.REGISTRY` (surfaced
        at ``/metrics``) are its observability story.
        """
        data = self._body_object(request)
        core, source, workload = self._core_and_input(data)
        payload = {"source": source, "workload": workload, "core": core,
                   "function": data.get("function"),
                   "loop": data.get("loop"),
                   "assume_lsd": bool(data.get("assume_lsd", False)),
                   "want_spans": obs.enabled()}
        outcome = self._checked(
            await self._run_in_pool(work.predict_worker, payload), span)
        prediction = outcome["prediction"]
        self.registry.inc("server.predict.requests")
        if span:
            span.attach(core=core, cycles=prediction["cycles"],
                        bottleneck=prediction["bottleneck"])
        return {"schema": SERVER_SCHEMA, "request_id": rid,
                "core": core, "prediction": prediction}

    #: Server-side ceilings for the tuner search parameters: a request
    #: can spend at most this much work, whatever it asks for.
    _TUNE_MAX_BUDGET = 256
    _TUNE_MAX_ROUNDS = 8
    _TUNE_MAX_SELECT = 16

    async def _handle_tune(self, request: Request, rid: str,
                           span) -> Dict[str, Any]:
        """``/v1/tune``: the pass-pipeline autotuner over the shared
        artifact cache.

        Every prefix the search materializes is published to the same
        store ``/v1/optimize`` replays from, so tuning an input warms
        the cache for later plain optimizes of the winning spec (and the
        fleet routes both by the same input digest — cache affinity).
        """
        data = self._body_object(request)
        core, source, workload = self._core_and_input(data)
        payload: Dict[str, Any] = {
            "source": source, "workload": workload, "core": core,
            "function": data.get("function"),
            "simulate_top": self._tune_param(data, "simulate_top",
                                             self._TUNE_MAX_SELECT) or 0,
            "budget": self._tune_param(data, "budget",
                                       self._TUNE_MAX_BUDGET),
            "n_select": self._tune_param(data, "n_select",
                                         self._TUNE_MAX_SELECT),
            "max_rounds": self._tune_param(data, "max_rounds",
                                           self._TUNE_MAX_ROUNDS),
            "want_spans": obs.enabled(),
            "cache": self.config.cache_spec()}
        outcome = self._checked(
            await self._run_in_pool(work.tune_worker, payload), span)
        doc = outcome["tune"]
        self.registry.inc("server.tune.requests")
        if span:
            span.attach(core=core, winner=doc["winner"]["spec"],
                        cycles=doc["winner"]["cycles"],
                        stop=doc["early_stop"]["reason"])
        return {"schema": SERVER_SCHEMA, "request_id": rid,
                "core": core, "tune": doc, "asm": outcome["asm"]}

    async def _handle_profile(self, request: Request, rid: str,
                              span) -> Dict[str, Any]:
        """``/v1/profile``: ingest or read back one ``pymao.profile/1``.

        Exactly one profile document per request — that keeps the fleet's
        digest-based routing well defined (profile affinity = cache
        affinity: the worker that ingests an input's profile is the one
        holding its warm tune prefixes).  A ``{"digest": ...}``-only body
        reads the stored entry back without ingesting.
        """
        data = self._body_object(request)
        document = data.get("profile")
        digest = data.get("digest")
        if (document is None) == (digest is None):
            raise ProtocolError(400, "pass exactly one of 'profile' "
                                     "(a pymao.profile/1 document) or "
                                     "'digest'")
        if document is not None:
            if not isinstance(document, dict):
                raise ProtocolError(400, "field 'profile' must be an object")
        elif not isinstance(digest, str):
            raise ProtocolError(400, "field 'digest' must be a string")
        payload = {"profile": document, "digest": digest,
                   "want_spans": obs.enabled(),
                   "profile_dir": self.config.profile_dir}
        outcome = self._checked(
            await self._run_in_pool(work.profile_worker, payload), span)
        self.registry.inc("server.profile.requests")
        stored = outcome["profile"]
        if span:
            span.attach(found=outcome["found"],
                        ingested=document is not None,
                        epoch=stored["epoch"] if stored else 0)
        return {"schema": SERVER_SCHEMA, "request_id": rid,
                "found": outcome["found"], "profile": stored}

    @staticmethod
    def _tune_param(data: Dict[str, Any], name: str,
                    ceiling: int) -> Optional[int]:
        value = data.get(name)
        if value is None:
            return None
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 0:
            raise ProtocolError(400, "field %r must be a non-negative "
                                     "integer" % name)
        return min(value, ceiling)

    async def _handle_simulate(self, request: Request, rid: str,
                               span) -> Dict[str, Any]:
        data = self._body_object(request)
        core, source, workload = self._core_and_input(data)
        payload = {"source": source, "workload": workload, "core": core,
                   "entry_symbol": data.get("entry_symbol", "main"),
                   "max_steps": data.get("max_steps", 5_000_000),
                   "want_spans": obs.enabled()}
        outcome = self._checked(
            await self._run_in_pool(work.simulate_worker, payload), span)
        if span:
            span.attach(core=core, cycles=outcome["cycles"])
        return {"schema": SERVER_SCHEMA, "request_id": rid,
                "core": core, "cycles": outcome["cycles"],
                "steps": outcome["steps"], "ipc": outcome["ipc"],
                "counters": outcome["counters"]}


class ServerThread(ServiceThread):
    """Run a :class:`MaoServer` on a background thread — the in-process
    harness tests and benches use (``with ServerThread(config) as s:``).
    """

    service_class = MaoServer

    @property
    def server(self) -> Optional[MaoServer]:
        return self.service
