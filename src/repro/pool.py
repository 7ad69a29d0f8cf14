"""The one worker-pool decision behind every ``jobs``/``parallel_backend``.

``jobs`` is how many files, tune candidates, profiles or discovery tasks
run at once; ``parallel_backend`` picks threads (``"thread"``) or
processes (``"process"``).  One file's pass pipeline is always serial.
"""

from __future__ import annotations

from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, List, Sequence, TypeVar

BACKENDS = ("thread", "process")

T = TypeVar("T")
R = TypeVar("R")


def check(jobs: int, backend: str) -> None:
    """Reject a worker count below one or an unknown backend."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1, got %d" % jobs)
    if backend not in BACKENDS:
        raise ValueError("unknown parallel backend %r (expected one of %s)"
                         % (backend, ", ".join(BACKENDS)))


def executor(workers: int, backend: str) -> Executor:
    """A pool of *workers* threads or processes; the caller shuts it down."""
    check(workers, backend)
    if backend == "thread":
        return ThreadPoolExecutor(max_workers=workers)
    return ProcessPoolExecutor(max_workers=workers)


def ordered_map(fn: Callable[[T], R], payloads: Sequence[T], jobs: int,
                backend: str) -> List[R]:
    """``[fn(p) for p in payloads]``, fanned over at most *jobs* workers.

    Results come back in input order whatever the completion order.  One
    job or one payload runs inline, with no pool; a worker's exception
    propagates to the caller.  The process backend needs *fn* and the
    payloads to pickle.
    """
    check(jobs, backend)
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(payload) for payload in payloads]
    with executor(min(jobs, len(payloads)), backend) as pool:
        return list(pool.map(fn, payloads))
