"""The service core both front ends share: the admission object, socket
free, and the guard that keeps listener and shed code in one module."""

import asyncio
import json
import os
import re

import pytest

from repro import obs
from repro.server.http import parse_response
from repro.server.service import Admission

SRC_ROOT = os.path.join(os.path.dirname(__file__), "..", "..", "src")
HEADERS = {"X-Request-Id": "r1"}


def make_admission(limit=1, timeout_s=5.0):
    registry = obs.Registry()
    seen = []
    admission = Admission(registry, "svc", limit=limit,
                          full_message="svc at capacity",
                          retry_after_s=0.25, timeout_s=timeout_s,
                          on_change=lambda: seen.append(admission.admitted))
    return admission, registry, seen


def decode(raw):
    status, headers, body = parse_response(raw)
    return status, headers, json.loads(body)


class TestAdmission:
    def test_admits_up_to_the_limit_then_sheds_with_retry_after(self):
        admission, registry, _seen = make_admission(limit=1)
        assert admission.refuse("r1", True, HEADERS) is None
        admission.admitted = 1            # one request holds the slot
        status, headers, body = decode(
            admission.refuse("r1", True, HEADERS))
        assert status == 503
        assert headers["retry-after"] == "0.25"
        assert headers["x-request-id"] == "r1"
        assert body == {"error": "svc at capacity", "status": 503,
                        "request_id": "r1"}
        assert registry.counter_value("svc.rejected") == 1

    def test_draining_sheds_even_with_room(self):
        admission, registry, _seen = make_admission(limit=4)
        admission.draining = True
        status, _headers, body = decode(
            admission.refuse("r1", False, HEADERS))
        assert status == 503
        assert body["error"] == "draining"
        assert registry.counter_value("svc.rejected") == 1

    def test_success_releases_the_admission(self):
        admission, _registry, seen = make_admission()

        async def work():
            assert admission.admitted == 1
            return "done"

        raw = asyncio.run(admission.run(
            work(), lambda result: result.encode(), "r1", True, HEADERS))
        assert raw == b"done"
        assert admission.admitted == 0
        assert seen == [1, 0]

    def test_timeout_answers_504_and_releases(self):
        admission, registry, seen = make_admission(timeout_s=0.1)
        timed_out = []

        raw = asyncio.run(admission.run(
            asyncio.sleep(5), lambda result: b"unreachable", "r1", True,
            HEADERS, on_timeout=lambda: timed_out.append(True)))
        status, _headers, body = decode(raw)
        assert status == 504
        assert body["error"] == "request exceeded 0.1s"
        assert registry.counter_value("svc.timeouts") == 1
        assert timed_out == [True]
        assert admission.admitted == 0
        assert seen == [1, 0]

    def test_exception_propagates_and_releases(self):
        admission, _registry, seen = make_admission()

        async def work():
            raise KeyError("boom")

        with pytest.raises(KeyError):
            asyncio.run(admission.run(work(), lambda result: b"", "r1",
                                      True, HEADERS))
        assert admission.admitted == 0
        assert seen == [1, 0]


def test_only_service_module_binds_or_sheds():
    """Listener bind and the 503 + Retry-After shed live in one module,
    so ``mao serve`` and ``mao fleet`` cannot drift apart again."""
    pattern = re.compile(r"\bstart_server\b|[\[{\s]\"Retry-After\"\s*[\]:]")
    offenders = []
    for root, _dirs, files in os.walk(SRC_ROOT):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, SRC_ROOT).replace(os.sep, "/")
            with open(path, encoding="utf-8") as handle:
                if pattern.search(handle.read()) \
                        and rel != "repro/server/service.py":
                    offenders.append(rel)
    assert offenders == []
