"""Run independent jobs on every usable core, with the calling process as worker 0.

`run_jobs(fn, state, n)` returns `[fn(state, i) for i in range(n)]`. With more
than one usable core and more than one job, it forks helper processes. They
inherit `state` without pickling it, so large arrays are shared copy-on-write,
and they send back only their results. The caller runs job 0 itself and then,
like every helper, takes the next unclaimed job until none is left. Each job
must be a pure function of (state, i); results come back in index order, so
they are the same bytes as the serial loop's.

While helpers run, OpenBLAS runs one thread per process, so N processes do
not oversubscribe N cores. One BLAS thread gives the same bits. Where no
OpenBLAS thread setter is found, the jobs run serially, and so does a process
pinned to one core (`taskset -c 0`).

Forking is safe here because the package starts no threads of its own and
OpenBLAS stops its thread pool before every fork (a `pthread_atfork` handler).
"""

from __future__ import annotations

import ctypes
import os
import pickle
from functools import cache
from typing import Any, Callable


def worker_count() -> int:
    """The number of cores this process may run on."""
    return len(os.sched_getaffinity(0))


@cache
def _blas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) for the thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, set_ = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def pool_size(n: int) -> int:
    """How many processes `run_jobs` uses for `n` jobs: one per usable core, at most one per job."""
    workers = min(worker_count(), n)
    return workers if workers > 1 and _blas_threads() is not None else 1


def run_jobs(fn: Callable[[Any, int], Any], state: Any, n: int) -> list:
    """`[fn(state, i) for i in range(n)]`, spread over `pool_size(n)` processes.

    An error in any job is raised here with its type and message; pending
    jobs are cancelled, and every helper has exited before this returns or raises.
    """
    workers = pool_size(n)
    if workers == 1:
        return [fn(state, i) for i in range(n)]
    get_threads, set_threads = _blas_threads()
    saved = get_threads()
    set_threads(1)
    try:
        return _run_forked(fn, state, n, workers)
    finally:
        set_threads(saved)


class HelperTraceback(Exception):
    """The traceback of a job that failed in a helper process, chained to the re-raised error."""


def _failure(i: int, exc: BaseException) -> bytes:
    import traceback

    text = "".join(traceback.format_exception(exc))
    try:
        payload = pickle.dumps((i, None, exc, text))
        pickle.loads(payload)
        return payload
    except Exception:  # an exception that does not survive pickling is reported by name
        return pickle.dumps((i, None, RuntimeError(f"{type(exc).__name__}: {exc}"), text))


def _run_forked(fn, state, n: int, workers: int) -> list:
    import multiprocessing
    import queue

    ctx = multiprocessing.get_context("fork")
    next_job = ctx.Value("q", 1)  # job 0 is the caller's
    results = ctx.Queue()

    def claim() -> int | None:
        with next_job.get_lock():
            i = next_job.value
            if i >= n:
                return None
            next_job.value = i + 1
            return i

    def helper() -> None:
        while (i := claim()) is not None:
            try:
                results.put(pickle.dumps((i, fn(state, i), None, None)))
            except BaseException as exc:  # an interrupt too: the caller raises it
                results.put(_failure(i, exc))
                return

    out: list = [None] * n
    pending = n

    def receive(wait: bool) -> None:
        nonlocal pending
        i, value, error, text = pickle.loads(results.get(timeout=0.05) if wait else results.get_nowait())
        if error is not None:
            raise error from HelperTraceback(text)
        out[i] = value
        pending -= 1

    helpers = [ctx.Process(target=helper, daemon=True) for _ in range(workers - 1)]
    try:
        for p in helpers:
            p.start()
        i = 0
        while i is not None:
            out[i] = fn(state, i)
            pending -= 1
            while True:  # take what the helpers finished meanwhile, so an error stops the run early
                try:
                    receive(wait=False)
                except queue.Empty:
                    break
            i = claim()
        while pending:
            try:
                receive(wait=True)
            except queue.Empty:
                if not any(p.is_alive() for p in helpers):
                    try:  # a helper's results reach the queue before it exits
                        receive(wait=True)
                    except queue.Empty:
                        raise RuntimeError("a worker process exited without returning its job") from None
        return out
    finally:
        with next_job.get_lock():
            next_job.value = n
        for p in helpers:
            if pending:
                p.terminate()
            p.join()
        results.close()
