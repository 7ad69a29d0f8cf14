"""The fleet front door, against real worker subprocesses.

What must hold: routing affinity (identical requests land on one
worker), cross-instance cache coherence (a put by one worker/process is
a hit for every other one sharing the store), aggregated ``/healthz`` /
``/metrics``, and rolling restarts that drop zero admitted requests.
"""

import asyncio
import gc
import http.client
import json
import sys
import threading
import time
import uuid
import warnings

import pytest

from repro import obs
from repro.server import (
    Client,
    FleetConfig,
    FleetServer,
    FleetThread,
    ServerConfig,
    ServerThread,
)
from repro.server.fleet import merge_metric_values
from repro.server.http import Request, parse_response

SOURCE = """\
.text
.globl main
main:
  movq $0, %rax
loop:
  addq $1, %rax
  cmpq $16, %rax
  jl loop
  ret
"""


def raw_request(port, method, path, payload=None):
    """One request via http.client, returning (status, headers, body) —
    the tests need response headers (X-Worker), which Client hides."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        return response.status, dict(response.getheaders()), \
            json.loads(raw.decode())
    finally:
        conn.close()


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    config = FleetConfig(
        port=0, workers=2, worker_inflight=1, max_queue=32,
        cache_dir=str(tmp_path_factory.mktemp("fleet-cache")),
        cache_salt="fleet-test-%s" % uuid.uuid4().hex)
    with FleetThread(config) as handle:
        yield handle


class TestHealthAggregation:
    def test_healthz_reports_every_worker_and_the_ring(self, fleet):
        status, headers, payload = raw_request(fleet.port, "GET",
                                               "/healthz")
        assert status == 200
        assert payload["schema"] == "pymao.fleet/1"
        assert payload["status"] == "ok"
        assert [w["member"] for w in payload["workers"]] == ["w0", "w1"]
        for worker in payload["workers"]:
            assert worker["state"] == "live"
            assert worker["health"]["status"] == "ok"
            assert worker["health"]["inflight"] == 0
            assert worker["health"]["queue_depth"] == 0
        assert payload["inflight"] == 0
        assert payload["queue_depth"] == 0
        assert payload["capacity"] == 2 * 1 + 32
        assert payload["ring"]["members"] == ["w0", "w1"]

    def test_unknown_route_is_404(self, fleet):
        status, _headers, payload = raw_request(fleet.port, "GET",
                                                "/nope")
        assert status == 404
        assert payload["status"] == 404


class TestRoutingAffinity:
    def test_identical_requests_land_on_one_worker(self, fleet):
        seen = set()
        for _ in range(4):
            status, headers, payload = raw_request(
                fleet.port, "POST", "/v1/optimize",
                {"source": SOURCE, "spec": "LOOP16"})
            assert status == 200
            seen.add(headers["X-Worker"])
        assert len(seen) == 1
        assert seen <= {"w0", "w1"}

    def test_first_request_misses_then_hits(self, fleet):
        body = {"source": SOURCE + "# affinity\n", "spec": "LOOP16"}
        _s, _h, first = raw_request(fleet.port, "POST", "/v1/optimize",
                                    body)
        _s, _h, second = raw_request(fleet.port, "POST", "/v1/optimize",
                                     body)
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"

    def test_tune_routes_by_input_digest(self, fleet):
        """Tune-by-name and tune-by-text of the same kernel must land
        on one worker — and the second must replay the first's
        prefixes from the shared store with zero executions."""
        from repro.workloads.kernels import fig4_loop

        by_name = {"workload": "fig4_loop", "core": "core2",
                   "budget": 16}
        by_text = {"source": fig4_loop(), "core": "core2", "budget": 16}
        status_a, headers_a, cold = raw_request(
            fleet.port, "POST", "/v1/tune", by_name)
        status_b, headers_b, warm = raw_request(
            fleet.port, "POST", "/v1/tune", by_text)
        assert status_a == 200 and status_b == 200
        assert headers_a["X-Worker"] == headers_b["X-Worker"]
        assert warm["tune"]["pass_runs"]["cache_hits"] > 0
        assert cold["tune"]["schema"] == "pymao.tune/1"

    def test_metrics_merge_worker_and_front_door_views(self, fleet):
        _s, _h, event = raw_request(fleet.port, "GET", "/metrics")
        assert event["schema"] == "pymao.trace/1"
        assert event["workers"] == 2
        values = event["values"]
        assert values["fleet.forwarded"] >= 1
        # Worker-side counters survive the merge: the optimize calls
        # above executed inside the worker subprocesses.
        assert values["server.requests"] >= 1


class TestRollingRestart:
    def test_restart_preserves_cache_across_generations(self, fleet):
        body = {"source": SOURCE + "# restart\n", "spec": "LOOP16"}
        _s, _h, first = raw_request(fleet.port, "POST", "/v1/optimize",
                                    body)
        assert first["cache"] == "miss"
        status, _h, report = raw_request(fleet.port, "POST",
                                         "/admin/restart", {})
        assert status == 200
        assert [w["member"] for w in report["restarted"]] == ["w0", "w1"]
        assert all(w["generation"] == 2 for w in report["restarted"])
        assert report["ring"]["members"] == ["w0", "w1"]
        # The replacement processes share the store: cross-instance
        # coherence makes the old generation's put their hit.
        _s, _h, again = raw_request(fleet.port, "POST", "/v1/optimize",
                                    body)
        assert again["cache"] == "hit"

    def test_restart_rejects_bad_slot(self, fleet):
        status, _h, payload = raw_request(fleet.port, "POST",
                                          "/admin/restart",
                                          {"worker": 7})
        assert status == 400
        assert "slot index" in payload["error"]


class TestZeroDropUnderRestart:
    def test_admitted_requests_survive_a_rolling_restart(
            self, tmp_path_factory):
        """Clients with a zero retry budget see zero failures while
        every worker is restarted mid-stream."""
        config = FleetConfig(
            port=0, workers=2, worker_inflight=1, max_queue=64,
            worker_test_delay_s=0.05,
            cache_dir=str(tmp_path_factory.mktemp("fleet-drop")),
            cache_salt="fleet-drop-%s" % uuid.uuid4().hex)
        failures = []
        results = []

        def worker_thread(index):
            client = Client(port=fleet.port, retries=0, timeout=60)
            try:
                for step in range(6):
                    body = {"source": SOURCE + "# t%d s%d\n"
                            % (index, step), "spec": "LOOP16"}
                    results.append(client.request(
                        "POST", "/v1/optimize", body))
            except Exception as exc:   # any client-visible failure
                failures.append(repr(exc))
            finally:
                client.close()

        with FleetThread(config) as fleet:
            threads = [threading.Thread(target=worker_thread, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            status, _h, report = raw_request(fleet.port, "POST",
                                             "/admin/restart", {})
            for thread in threads:
                thread.join(timeout=120)
            assert status == 200
        assert failures == []
        assert len(results) == 24
        assert all(r["cache"] in ("miss", "hit") for r in results)


class TestCrossInstanceCoherence:
    def test_two_servers_sharing_a_store_share_artifacts(self, tmp_path):
        """The coherence contract the fleet is built on, at the level of
        two independent server instances: a put by A is a hit for B."""
        shared = dict(cache_dir=str(tmp_path / "store"),
                      cache_salt="coherence-%s" % uuid.uuid4().hex)
        with ServerThread(ServerConfig(port=0, **shared)) as a:
            with Client(port=a.port) as client:
                first = client.optimize(SOURCE, "LOOP16")
        with ServerThread(ServerConfig(port=0, **shared)) as b:
            with Client(port=b.port) as client:
                second = client.optimize(SOURCE, "LOOP16")
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"
        assert second["asm"] == first["asm"]


class TestRoutingKey:
    """Unit-level contract of FleetServer.routing_key — no sockets."""

    @staticmethod
    def _front_door():
        from repro.server.fleet import FleetServer
        return FleetServer(FleetConfig(port=0, workers=1,
                                       cache_salt="rk-test"))

    @staticmethod
    def _request(path, payload):
        from repro.server.http import Request
        return Request(method="POST", path=path, version="HTTP/1.1",
                       body=json.dumps(payload).encode())

    def test_tune_key_is_input_digest_only(self):
        """Different search parameters over one input share a key (one
        worker owns that input's prefixes); by-name and by-text of the
        same kernel share it too."""
        from repro.workloads.kernels import hash_bench

        door = self._front_door()
        a = door.routing_key(self._request(
            "/v1/tune", {"workload": "hash_bench", "core": "core2"}))
        b = door.routing_key(self._request(
            "/v1/tune", {"source": hash_bench(), "core": "opteron",
                         "budget": 99}))
        assert a == b
        assert a.startswith("input\x00")

    def test_tune_key_differs_per_input(self):
        door = self._front_door()
        a = door.routing_key(self._request(
            "/v1/tune", {"workload": "hash_bench", "core": "core2"}))
        b = door.routing_key(self._request(
            "/v1/tune", {"workload": "mcf_fig1", "core": "core2"}))
        assert a != b

    def test_unparsable_tune_body_falls_back_to_body_hash(self):
        door = self._front_door()
        from repro.server.http import Request
        key = door.routing_key(Request(method="POST", path="/v1/tune",
                                       version="HTTP/1.1",
                                       body=b"\xff not json"))
        assert key.startswith("body\x00/v1/tune\x00")


class TestMetricsMerge:
    def test_counters_sum_and_summary_components_keep_meaning(self):
        merged = merge_metric_values([
            {"server.requests": 3, "server.inflight": 1,
             "wall.min": 0.2, "wall.max": 1.0, "wall.count": 2,
             "wall.sum": 1.2, "wall.mean": 0.6},
            {"server.requests": 5, "server.inflight": 0,
             "wall.min": 0.1, "wall.max": 3.0, "wall.count": 2,
             "wall.sum": 3.1, "wall.mean": 1.55},
        ])
        assert merged["server.requests"] == 8
        assert merged["server.inflight"] == 1
        assert merged["wall.min"] == 0.1
        assert merged["wall.max"] == 3.0
        assert merged["wall.count"] == 4
        assert merged["wall.sum"] == pytest.approx(4.3)
        assert merged["wall.mean"] == pytest.approx(4.3 / 4)

    def test_non_numeric_values_are_dropped(self):
        assert merge_metric_values([{"a": 1, "b": "x", "c": True}]) \
            == {"a": 1}


def front_door_count(port, name):
    _s, _h, event = raw_request(port, "GET", "/metrics")
    return event["values"].get(name, 0)


class TestFrontDoorShedding:
    """The front door's own 503/504, not a worker's."""

    def test_past_capacity_sheds_503_with_retry_after(self):
        config = FleetConfig(port=0, workers=1, worker_inflight=1,
                             max_queue=0, worker_test_delay_s=1.0,
                             retry_after_s=0.5, cache=False)
        body = {"source": SOURCE, "spec": "LOOP16"}
        admitted = []
        with FleetThread(config) as fleet:
            before = front_door_count(fleet.port, "fleet.rejected")
            blocker = threading.Thread(target=lambda: admitted.append(
                raw_request(fleet.port, "POST", "/v1/optimize", body)))
            blocker.start()
            time.sleep(0.3)        # the blocker holds the only admission
            status, headers, payload = raw_request(
                fleet.port, "POST", "/v1/optimize", body)
            blocker.join()
            after = front_door_count(fleet.port, "fleet.rejected")
        assert status == 503
        assert headers["Retry-After"] == "0.5"
        assert "X-Worker" not in headers
        assert payload["error"] == "fleet at capacity (admitted >= 1)"
        assert after - before == 1
        assert [status for status, _h, _p in admitted] == [200]

    def test_request_timeout_below_worker_delay_is_504(self, monkeypatch):
        # The worker's own bound stays long, so the 504 is the front
        # door's (argparse keeps the last --timeout).
        argv = FleetServer._worker_argv
        monkeypatch.setattr(FleetServer, "_worker_argv",
                            lambda self: argv(self) + ["--timeout", "60"])
        config = FleetConfig(port=0, workers=1, worker_test_delay_s=1.0,
                             request_timeout_s=0.3, cache=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with FleetThread(config) as fleet:
                before = front_door_count(fleet.port, "fleet.timeouts")
                status, headers, payload = raw_request(
                    fleet.port, "POST", "/v1/optimize",
                    {"source": SOURCE, "spec": "LOOP16"})
                after = front_door_count(fleet.port, "fleet.timeouts")
            gc.collect()
        assert status == 504
        assert "X-Worker" not in headers
        assert payload["error"] == "request exceeded 0.3s"
        assert after - before == 1
        # The abandoned upstream connection and the worker's stdout
        # pipe are closed, not left to the garbage collector.
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []

    def test_draining_front_door_sheds_503_draining(self):
        registry = obs.Registry()
        door = FleetServer(FleetConfig(port=0, workers=1,
                                       retry_after_s=0.5),
                           registry=registry)
        door.request_drain()
        raw = asyncio.run(door._dispatch(
            Request(method="POST", path="/v1/optimize",
                    version="HTTP/1.1", body=b"{}"), True))
        status, headers, body = parse_response(raw)
        assert status == 503
        assert headers["retry-after"] == "0.5"
        assert headers["x-request-id"].startswith("fleet-")
        assert json.loads(body)["error"] == "draining"
        assert registry.counter_value("fleet.rejected") == 1


class TestWorkerStartTimeout:
    def test_silent_worker_fails_start_at_the_deadline(self, monkeypatch):
        """A worker that never prints its port is killed at
        ``worker_start_timeout_s`` instead of hanging start()."""
        monkeypatch.setattr(FleetServer, "_worker_argv", lambda self: [
            sys.executable, "-c", "import time; time.sleep(20)"])
        door = FleetServer(FleetConfig(port=0, workers=1,
                                       worker_start_timeout_s=1))
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="failed to start"):
            asyncio.run(door.start())
        assert time.monotonic() - started < 10
