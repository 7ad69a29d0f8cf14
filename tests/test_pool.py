"""``repro.pool``: the one worker-pool decision behind every ``jobs``."""

import os
import re
import threading
import time

import pytest

from repro import api, pool
from repro.pgo import profile_many

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

SOURCE = """\
.text
.globl main
.type main, @function
main:
  movq $0, %rax
loop:
  addq $1, %rax
  cmpq $16, %rax
  jl loop
  ret
"""


def _sleep_then_echo(payload):
    delay, value = payload
    time.sleep(delay)
    return value


def _fail_on_two(value):
    if value == 2:
        raise RuntimeError("worker failed on %d" % value)
    return value


def _thread_id(_payload):
    return threading.get_ident()


class TestOrderedMap:
    @pytest.mark.parametrize("backend", pool.BACKENDS)
    def test_results_in_input_order(self, backend):
        # The first payload finishes last; results still follow input order.
        payloads = [(0.3, "slow"), (0.0, "a"), (0.0, "b"), (0.0, "c")]
        assert pool.ordered_map(_sleep_then_echo, payloads, 4, backend) \
            == ["slow", "a", "b", "c"]

    def test_one_job_runs_inline(self):
        here = threading.get_ident()
        assert pool.ordered_map(_thread_id, [1, 2, 3], 1, "thread") \
            == [here] * 3

    def test_single_payload_runs_inline(self):
        assert pool.ordered_map(_thread_id, [1], 4, "thread") \
            == [threading.get_ident()]

    @pytest.mark.parametrize("backend", pool.BACKENDS)
    def test_worker_exception_propagates(self, backend):
        with pytest.raises(RuntimeError, match="worker failed on 2"):
            pool.ordered_map(_fail_on_two, [1, 2, 3], 2, backend)

    @pytest.mark.parametrize("jobs,backend", [(0, "thread"), (-1, "thread"),
                                              (2, "fiber")])
    def test_bad_arguments_rejected(self, jobs, backend):
        with pytest.raises(ValueError):
            pool.ordered_map(_thread_id, [1, 2], jobs, backend)


_ENTRY_POINTS = {
    "optimize_many": lambda jobs, backend: api.optimize_many(
        [("a.s", SOURCE), ("b.s", SOURCE)], "REDTEST", jobs=jobs,
        parallel_backend=backend, cache=False),
    "tune": lambda jobs, backend: api.tune(
        SOURCE, core="core2", jobs=jobs, parallel_backend=backend,
        cache=False),
    "profile_many": lambda jobs, backend: profile_many(
        [("a.s", SOURCE), ("b.s", SOURCE)], period=97, jobs=jobs,
        parallel_backend=backend),
    "discover": lambda jobs, backend: api.discover(
        seed=1, jobs=jobs, parallel_backend=backend),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("jobs,backend", [(0, "thread"), (2, "fiber")],
                         ids=["jobs0", "fiber"])
def test_entry_points_reject_bad_pool_arguments(entry, jobs, backend):
    with pytest.raises(ValueError):
        _ENTRY_POINTS[entry](jobs, backend)


def test_only_pool_module_names_an_executor():
    pattern = re.compile(r"\b(ThreadPoolExecutor|ProcessPoolExecutor)\b")
    offenders = []
    for root, _dirs, files in os.walk(SRC_ROOT):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, SRC_ROOT).replace(os.sep, "/")
            with open(path, encoding="utf-8") as handle:
                if pattern.search(handle.read()) \
                        and rel != "repro/pool.py":
                    offenders.append(rel)
    assert offenders == []
