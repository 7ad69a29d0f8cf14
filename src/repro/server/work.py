"""The CPU-bound request bodies, as picklable top-level functions.

The event loop never runs a parser or a pass pipeline: every ``/v1/*``
request is shipped to the server's worker pool (thread or process, from
:mod:`repro.pool`) as one of these functions.  They follow the
``repro.batch`` worker contract:

* **never raise** — a raised exception inside ``pool.map`` /
  ``run_in_executor`` would surface as a 500 with a traceback instead of
  a typed error payload, and on the process backend could poison the
  pool.  Every outcome is a plain dict with ``"status"``;
* **plain-data in, plain-data out** — payloads and outcomes must cross a
  process boundary, so they are dicts of JSON-able values (spans ride
  back serialized via ``Span.to_dict``, artifacts as the stored dicts);
* **cache by construction parameters** — a process worker cannot share
  the coordinator's :class:`~repro.batch.cache.ArtifactCache` object, so
  the payload carries ``(root, salt, max_bytes)`` and each worker opens
  its own handle onto the same store.  That is safe because the store's
  publication is atomic (tmp + ``os.replace``) and reads treat anything
  torn as a miss.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

#: Cache construction parameters as they ride inside a worker payload.
CacheSpec = Optional[Tuple[str, str, int]]   # (root, salt, max_bytes)

#: One long-lived handle per (root, salt, max_bytes) per process.  A
#: fresh :class:`~repro.batch.cache.ArtifactCache` seeds its running
#: size estimate with a full store walk on its first ``put``; a fleet
#: worker serving thousands of requests must pay that walk once per
#: process, not once per request.  Sharing a handle across pool threads
#: is safe: publication is atomic on disk, and the estimate is advisory
#: (a race at worst triggers an early eviction sweep, which resyncs it).
_CACHE_HANDLES: Dict[Tuple[str, str, int], Any] = {}
_CACHE_HANDLES_LOCK = threading.Lock()


def _open_cache(cache_spec: CacheSpec):
    if cache_spec is None:
        return None
    from repro.batch.cache import ArtifactCache

    root, salt, max_bytes = cache_spec
    key = (root, salt, max_bytes)
    with _CACHE_HANDLES_LOCK:
        cache = _CACHE_HANDLES.get(key)
        if cache is None:
            cache = _CACHE_HANDLES[key] = ArtifactCache(
                root, salt=salt, max_bytes=max_bytes)
    return cache


def optimize_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One ``/v1/optimize`` body: cache get -> optimize -> cache put.

    Outcome: ``{"status": "ok", "cache": "hit"|"miss"|"off", "asm": str,
    "pipeline": <pymao.pipeline/1>, "span": <span dict>|None}`` or
    ``{"status": "error", "error": str, "kind": <exception name>}``.
    """
    import repro.passes  # noqa: F401 — register built-ins in spawned children
    from repro import api, obs
    from repro.batch.cache import source_sha256
    from repro.passes.manager import PipelineResult

    source = payload["source"]
    spec_items = payload["spec_items"]
    filename = payload.get("filename") or "<request>"
    obs.set_enabled(payload.get("want_spans", False))
    cache = _open_cache(payload.get("cache"))
    try:
        key = None
        if cache is not None:
            key = cache.key_for(source, payload["key_spec"])
            hit = cache.get(key)
            if hit is not None:
                try:
                    PipelineResult.from_dict(hit.pipeline)
                except (ValueError, KeyError, TypeError):
                    pass           # stale schema: fall through to a miss
                else:
                    return {"status": "ok", "cache": "hit",
                            "asm": hit.asm, "pipeline": hit.pipeline,
                            "span": None}
        span_data = None
        with obs.detached_span("optimize:%s" % filename,
                               bytes=len(source)) as span:
            result = api.optimize(source, spec_items, filename=filename)
            asm = result.unit.to_asm()
            if span:
                span.attach(reports=len(result.pipeline.reports))
        if span:
            span_data = span.to_dict()
        pipeline = result.pipeline.to_dict()
        if cache is not None and key is not None:
            cache.put(key, asm, pipeline,
                      source_sha=source_sha256(source),
                      spec=payload.get("canonical_spec", ""))
        return {"status": "ok",
                "cache": "off" if cache is None else "miss",
                "asm": asm, "pipeline": pipeline, "span": span_data}
    except Exception as exc:  # parse errors, bad specs, pass failures
        return {"status": "error", "kind": type(exc).__name__,
                "error": "%s: %s" % (type(exc).__name__, exc)}


def batch_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One ``/v1/batch`` body: the whole corpus through ``run_batch``.

    The batch runs with ``jobs=1`` inside this worker so one admitted
    request occupies exactly one pool slot; concurrency across requests
    is the server's admission control, not a nested pool.
    """
    import repro.passes  # noqa: F401
    from repro import obs
    from repro.batch import run_batch

    obs.set_enabled(payload.get("want_spans", False))
    cache = _open_cache(payload.get("cache"))
    try:
        inputs = [(name, source) for name, source in payload["inputs"]]
        batch = run_batch(inputs, payload["spec_items"], jobs=1,
                          cache=cache)
        return {"status": "ok",
                "summary": batch.to_dict(),
                "asm": {item.name: item.asm for item in batch if item.ok}}
    except Exception as exc:
        return {"status": "error", "kind": type(exc).__name__,
                "error": "%s: %s" % (type(exc).__name__, exc)}


def predict_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One ``/v1/predict`` body over :func:`repro.api.predict`.

    Cheap enough that it skips the artifact cache entirely — the static
    model re-runs faster than a cache round trip would pay for itself.
    """
    import repro.passes  # noqa: F401
    from repro import api, obs

    obs.set_enabled(payload.get("want_spans", False))
    try:
        prediction = api.predict(
            payload.get("source"), payload["core"],
            workload=payload.get("workload"),
            function=payload.get("function"),
            loop=payload.get("loop"),
            assume_lsd=bool(payload.get("assume_lsd", False)))
        return {"status": "ok", "prediction": prediction.to_dict()}
    except Exception as exc:
        return {"status": "error", "kind": type(exc).__name__,
                "error": "%s: %s" % (type(exc).__name__, exc)}


def tune_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One ``/v1/tune`` body over :func:`repro.api.tune`.

    Opens the shared artifact cache like :func:`optimize_worker` does,
    so tuned pipeline prefixes are published for every other worker —
    and for plain ``/v1/optimize`` requests — to replay.
    """
    import repro.passes  # noqa: F401
    from repro import api, obs

    obs.set_enabled(payload.get("want_spans", False))
    cache = _open_cache(payload.get("cache"))
    try:
        result = api.tune(
            payload.get("source"), payload["core"],
            workload=payload.get("workload"),
            function=payload.get("function"),
            budget=payload.get("budget"),
            n_select=payload.get("n_select"),
            max_rounds=payload.get("max_rounds"),
            simulate_top=int(payload.get("simulate_top", 0)),
            cache=cache if cache is not None else False)
        return {"status": "ok", "tune": result.to_dict(),
                "asm": result.asm}
    except Exception as exc:
        return {"status": "error", "kind": type(exc).__name__,
                "error": "%s: %s" % (type(exc).__name__, exc)}


#: One long-lived :class:`~repro.pgo.ProfileStore` handle per root per
#: process — same rationale as :data:`_CACHE_HANDLES`.
_STORE_HANDLES: Dict[str, Any] = {}
_STORE_HANDLES_LOCK = threading.Lock()


def _open_store(profile_dir: Optional[str]):
    from repro.pgo import ProfileStore

    root = profile_dir or ""
    with _STORE_HANDLES_LOCK:
        store = _STORE_HANDLES.get(root)
        if store is None:
            store = _STORE_HANDLES[root] = ProfileStore(profile_dir or None)
    return store


def profile_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One ``/v1/profile`` body: ingest or look up a profile document.

    With a ``"profile"`` document the store ingests it (epoch bumps only
    when the weight changed) and returns the stored entry.  With only a
    ``"digest"`` the stored entry is returned (``"found": false`` when
    absent) — that read-back path is what lets tests and operators
    confirm the store survives worker restarts.
    """
    from repro import obs

    obs.set_enabled(payload.get("want_spans", False))
    try:
        store = _open_store(payload.get("profile_dir"))
        document = payload.get("profile")
        with obs.detached_span("pgo.ingest" if document is not None
                               else "pgo.lookup") as span:
            if document is not None:
                entry = store.ingest(document)
                outcome = {"status": "ok", "found": True,
                           "profile": entry.to_dict()}
            else:
                entry = store.get(payload["digest"])
                outcome = {"status": "ok", "found": entry is not None,
                           "profile": entry.to_dict() if entry else None}
            if span:
                span.attach(found=outcome["found"])
        return outcome
    except Exception as exc:
        return {"status": "error", "kind": type(exc).__name__,
                "error": "%s: %s" % (type(exc).__name__, exc)}


def simulate_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One ``/v1/simulate`` body over :func:`repro.api.simulate`."""
    import repro.passes  # noqa: F401
    from repro import api, obs

    obs.set_enabled(payload.get("want_spans", False))
    try:
        sim = api.simulate(payload.get("source"), payload["core"],
                           workload=payload.get("workload"),
                           entry_symbol=payload.get("entry_symbol", "main"),
                           max_steps=int(payload.get("max_steps",
                                                     5_000_000)))
        return {"status": "ok", "cycles": sim.cycles, "steps": sim.steps,
                "counters": dict(sim.counters), "ipc": sim.stats.ipc()}
    except Exception as exc:
        return {"status": "error", "kind": type(exc).__name__,
                "error": "%s: %s" % (type(exc).__name__, exc)}
