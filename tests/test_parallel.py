"""The job pool: serial results in index order, errors, cleanup and the BLAS thread pin."""

import multiprocessing
import os
import time

import pytest

from patchbias import parallel
from patchbias.errors import NonFiniteGradientError, ValidationError

needs_blas_pin = pytest.mark.skipif(
    parallel._blas_threads() is None, reason="no OpenBLAS thread setter, so run_jobs runs serially"
)


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)


def _wait_for(marker):
    deadline = time.monotonic() + 30
    while not marker.exists() and time.monotonic() < deadline:
        time.sleep(0.01)


def _square(state, i):
    caller, marker, values = state
    if os.getpid() == caller:
        if i == 0:
            _wait_for(marker)  # so that a helper surely takes part
    else:
        marker.touch()
    return i, os.getpid(), values[i] ** 2


@needs_blas_pin
def test_four_workers_return_the_serial_results_in_index_order(monkeypatch, tmp_path):
    # more processes than a small host has cores contend for the job counter;
    # a job claimed twice would fill its slot twice and leave another empty
    monkeypatch.setattr(parallel, "worker_count", lambda: 4)
    values = list(range(400))
    results = parallel.run_jobs(_square, (os.getpid(), tmp_path / "helped", values), len(values))
    assert [(i, sq) for i, _, sq in results] == [(i, i * i) for i in values]
    assert results[0][1] == os.getpid()  # the caller runs job 0
    assert len({pid for _, pid, _ in results}) >= 2
    assert multiprocessing.active_children() == []


def _fail_in_helper(state, i):
    caller, marker, error = state
    if os.getpid() == caller:
        _wait_for(marker)  # until a helper has failed, so the failure is never the caller's
        return i
    marker.touch()
    raise error


@needs_blas_pin
@pytest.mark.parametrize("error", [NonFiniteGradientError("non-finite gradient on the biased batch"),
                                   ValidationError("group 1 is empty")])
def test_a_helper_error_surfaces_with_its_type_and_message(two_workers, tmp_path, error):
    with pytest.raises(type(error)) as raised:
        parallel.run_jobs(_fail_in_helper, (os.getpid(), tmp_path / "failed", error), 4)
    assert str(raised.value) == str(error)
    assert isinstance(raised.value.__cause__, parallel.HelperTraceback)
    assert multiprocessing.active_children() == []


def _fail_in_caller(state, i):
    if i == 0:
        raise ValidationError("job 0 failed")
    time.sleep(5)  # a pending helper job is cut short, not waited for
    return i


@needs_blas_pin
def test_a_caller_error_stops_the_helpers(two_workers):
    started = time.monotonic()
    with pytest.raises(ValidationError, match="job 0 failed"):
        parallel.run_jobs(_fail_in_caller, None, 4)
    assert time.monotonic() - started < 4
    assert multiprocessing.active_children() == []


def _die_in_helper(state, i):
    caller, marker = state
    if os.getpid() == caller:
        _wait_for(marker)
        return i
    marker.touch()
    os._exit(3)


@needs_blas_pin
def test_a_helper_that_dies_fails_the_run(two_workers, tmp_path):
    with pytest.raises(RuntimeError, match="exited without returning its job"):
        parallel.run_jobs(_die_in_helper, (os.getpid(), tmp_path / "died"), 2)
    assert multiprocessing.active_children() == []


def _blas_threads_in_job(state, i):
    return parallel._blas_threads()[0]()


@needs_blas_pin
def test_blas_runs_one_thread_in_the_pool_and_is_restored(two_workers):
    get_threads, set_threads = parallel._blas_threads()
    saved = get_threads()
    try:
        set_threads(2)
        assert parallel.run_jobs(_blas_threads_in_job, None, 3) == [1, 1, 1]
        assert get_threads() == 2
    finally:
        set_threads(saved)


def test_one_job_or_one_worker_starts_no_process(monkeypatch):
    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    assert parallel.pool_size(1) == 1
    assert parallel.run_jobs(lambda state, i: state + i, 10, 1) == [10]
    assert parallel.run_jobs(lambda state, i: state + i, 10, 0) == []
    monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    assert parallel.pool_size(5) == 1
    assert parallel.run_jobs(lambda state, i: state + i, 10, 3) == [10, 11, 12]
