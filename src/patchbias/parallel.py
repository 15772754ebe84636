"""Run independent jobs on every usable core, with the calling process as worker 0.

`run_jobs(jobs)` returns `[job() for job in jobs]` for a list of zero-argument
callables. With more than one usable core and more than one job, it forks
helper processes. They inherit the jobs and what they refer to without
pickling, so large arrays are shared copy-on-write, and they send back only
their results. The caller runs job 0 itself and then, like every helper,
takes the next unclaimed job until none is left. Each job must be pure;
results come back in list order, so they are the same bytes as the serial loop's.

While helpers run, OpenBLAS runs one thread per process, so N processes do
not oversubscribe N cores. One BLAS thread gives the same bits. Where no
OpenBLAS thread setter is found, the jobs run serially, and so does a process
pinned to one core (`taskset -c 0`).

A process outside a `run_jobs` pool with two or more usable cores
(`has_spare_core`) can use a second core for one job. `spare_core_helper(fn)`
then forks one `Helper` that answers `fn(*args)` request by request while the
caller works on something else; elsewhere it gives an `InProcessHelper`, which
computes each request at once in the caller. A `Helper` inherits `fn` and
what it refers to copy-on-write; only each request and each reply are
pickled. Both processes run one BLAS thread while it lives, so a reply holds
the bits the caller would have computed. The helper exits on the stop
message, or when its end of the pipe reaches EOF, so a caller that dies
leaves nothing running. Pool processes fork no `Helper`: pool helpers are
daemonic, and the pool already has a process on every core.

Forking is safe here because the package starts no threads of its own and
OpenBLAS stops its thread pool before every fork (a `pthread_atfork` handler).
The `ru_maxrss` and `ru_minflt` a stage records are the caller's own: a
helper's private pages are not counted.
"""

from __future__ import annotations

import ctypes
import os
import pickle
from contextlib import contextmanager
from functools import cache
from typing import Any, Callable, Iterator

# whether this process works in a `run_jobs` pool; pool helpers inherit it when they are forked
_in_pool = False


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


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """OpenBLAS runs one thread in this process, and in those it forks, until the block ends."""
    get_threads, set_threads = _blas_threads()
    saved = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(saved)


def pool_size(n: int) -> int:
    """How many processes `run_jobs` uses for `n` jobs: one per usable core, at most one per job."""
    workers = min(worker_count(), n)
    return workers if workers > 1 and _blas_threads() is not None else 1


def has_spare_core() -> bool:
    """Whether this process has a core to spare for a `Helper`: two usable cores, and no `run_jobs` pool."""
    return not _in_pool and worker_count() >= 2 and _blas_threads() is not None


def run_jobs(jobs: list[Callable[[], Any]]) -> list:
    """`[job() for job in jobs]`, spread over `pool_size(len(jobs))` processes.

    An error in any job is raised here with its type and message; pending
    jobs are cancelled, and every helper has exited before this returns or raises.
    """
    global _in_pool
    workers = pool_size(len(jobs))
    if workers == 1:
        return [job() for job in jobs]
    outer, _in_pool = _in_pool, True
    try:
        with _one_blas_thread():
            return _run_forked(jobs, workers)
    finally:
        _in_pool = outer


class HelperTraceback(Exception):
    """The traceback of a job that failed in a helper process, chained to the re-raised error."""


def _failure(head: tuple, exc: BaseException) -> bytes:
    """`(*head, None, exc, traceback text)` pickled, for the caller to raise `exc` from."""
    import traceback

    text = "".join(traceback.format_exception(exc))
    try:
        payload = pickle.dumps((*head, None, exc, text))
        pickle.loads(payload)
        return payload
    except Exception:  # an exception that does not survive pickling is reported by name
        return pickle.dumps((*head, None, RuntimeError(f"{type(exc).__name__}: {exc}"), text))


def _run_forked(jobs: list[Callable[[], Any]], workers: int) -> list:
    import multiprocessing
    import queue

    n = len(jobs)
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
                results.put(pickle.dumps((i, jobs[i](), None, None)))
            except BaseException as exc:  # an interrupt too: the caller raises it
                results.put(_failure((i,), exc))
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
            out[i] = jobs[i]()
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


def _serve(fn: Callable, conn, callers_end) -> None:
    """The helper's loop: reply to each request with `fn(*request)` until the stop message or EOF."""
    callers_end.close()  # else this process would hold the pipe open against its own EOF
    while True:
        try:
            request = conn.recv()
        except EOFError:  # the caller closed its end, or died, without the stop message
            return
        if request is None:
            return
        try:
            reply = pickle.dumps((fn(*request), None, None))
        except BaseException as exc:  # an interrupt too: the caller raises it
            reply = _failure((), exc)
        try:
            conn.send_bytes(reply)
        except OSError:  # the caller has closed its end and wants no reply
            return


class Helper:
    """A forked process that computes `fn(*args)` for the caller, one request at a time.

    `submit` sends a request and returns at once, so the caller can work
    while the helper computes; `result` waits for the reply and raises the
    helper's error with its type and message. `close` stops the helper, at
    once if a reply is still pending, and waits for it to exit.
    """

    def __init__(self, fn: Callable) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._conn, theirs = ctx.Pipe()
        self._pending = False
        self._process = ctx.Process(target=_serve, args=(fn, theirs, self._conn), daemon=True)
        self._process.start()
        theirs.close()

    def submit(self, *args) -> None:
        self._conn.send(args)
        self._pending = True

    def result(self) -> Any:
        if not self._pending:
            raise RuntimeError("no request is waiting for its reply")
        try:
            payload = self._conn.recv_bytes()
        except EOFError:
            raise RuntimeError("the helper process exited without replying") from None
        self._pending = False
        value, error, text = pickle.loads(payload)
        if error is not None:
            raise error from HelperTraceback(text)
        return value

    def close(self) -> None:
        if self._pending:
            self._process.terminate()  # its reply is not wanted
        else:
            try:
                self._conn.send(None)
            except OSError:  # it has exited already
                pass
        self._conn.close()
        self._process.join()


class InProcessHelper:
    """`Helper`'s interface in the calling process: `submit` computes `fn(*args)` at once, `result` returns it."""

    def __init__(self, fn: Callable) -> None:
        self._fn = fn

    def submit(self, *args) -> None:
        self._reply = self._fn(*args)

    def result(self) -> Any:
        return self._reply


@contextmanager
def spare_core_helper(fn: Callable) -> Iterator[Helper | InProcessHelper]:
    """A `Helper` for `fn` while the block runs if `has_spare_core()`, else an `InProcessHelper`.

    With a `Helper`, both processes run one BLAS thread meanwhile, and the
    helper has exited before the block is left, whether it ends or raises.
    """
    if not has_spare_core():
        yield InProcessHelper(fn)
        return
    with _one_blas_thread():
        helper = Helper(fn)
        try:
            yield helper
        finally:
            helper.close()
