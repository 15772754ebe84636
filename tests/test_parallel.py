"""The job pool: serial results in index order, errors, cleanup and the BLAS thread pin."""

import multiprocessing
import os
import time
from functools import partial

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


def _square(caller, marker, values, i):
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
    jobs = [partial(_square, os.getpid(), tmp_path / "helped", values, i) for i in values]
    results = parallel.run_jobs(jobs)
    assert [(i, sq) for i, _, sq in results] == [(i, i * i) for i in values]
    assert results[0][1] == os.getpid()  # the caller runs job 0
    assert len({pid for _, pid, _ in results}) >= 2
    assert multiprocessing.active_children() == []


def _fail_in_helper(caller, marker, error, i):
    if os.getpid() == caller:
        _wait_for(marker)  # until a helper has failed, so the failure is never the caller's
        return i
    marker.touch()
    raise error


@needs_blas_pin
@pytest.mark.parametrize("error", [NonFiniteGradientError("non-finite gradient on the biased batch"),
                                   ValidationError("group 1 is empty")])
def test_a_helper_error_surfaces_with_its_type_and_message(two_workers, tmp_path, error):
    jobs = [partial(_fail_in_helper, os.getpid(), tmp_path / "failed", error, i) for i in range(4)]
    with pytest.raises(type(error)) as raised:
        parallel.run_jobs(jobs)
    assert str(raised.value) == str(error)
    assert isinstance(raised.value.__cause__, parallel.HelperTraceback)
    assert multiprocessing.active_children() == []


def _fail_in_caller(i):
    if i == 0:
        raise ValidationError("job 0 failed")
    time.sleep(5)  # a pending helper job is cut short, not waited for
    return i


@needs_blas_pin
def test_a_caller_error_stops_the_helpers(two_workers):
    started = time.monotonic()
    with pytest.raises(ValidationError, match="job 0 failed"):
        parallel.run_jobs([partial(_fail_in_caller, i) for i in range(4)])
    assert time.monotonic() - started < 4
    assert multiprocessing.active_children() == []


def _die_in_helper(caller, marker, i):
    if os.getpid() == caller:
        _wait_for(marker)
        return i
    marker.touch()
    os._exit(3)


@needs_blas_pin
def test_a_helper_that_dies_fails_the_run(two_workers, tmp_path):
    with pytest.raises(RuntimeError, match="exited without returning its job"):
        parallel.run_jobs([partial(_die_in_helper, os.getpid(), tmp_path / "died", i) for i in range(2)])
    assert multiprocessing.active_children() == []


def _blas_threads_in_job():
    return parallel._blas_threads()[0]()


@needs_blas_pin
def test_blas_runs_one_thread_in_the_pool_and_is_restored(two_workers):
    get_threads, set_threads = parallel._blas_threads()
    saved = get_threads()
    try:
        set_threads(2)
        assert parallel.run_jobs([_blas_threads_in_job] * 3) == [1, 1, 1]
        assert get_threads() == 2
    finally:
        set_threads(saved)


def test_one_job_or_one_worker_starts_no_process(monkeypatch):
    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    assert parallel.pool_size(1) == 1
    assert parallel.run_jobs([lambda: 10]) == [10]
    assert parallel.run_jobs([]) == []
    monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    assert parallel.pool_size(5) == 1
    assert parallel.run_jobs([partial(int.__add__, 10, i) for i in range(3)]) == [10, 11, 12]


def _pid_and_sum(values, offset):
    return os.getpid(), sum(values) + offset


def test_a_helper_answers_requests_and_exits_when_the_callers_end_of_its_pipe_closes():
    helper = parallel.Helper(partial(_pid_and_sum, [1, 2, 3]))
    try:
        for offset in (10, 20):
            helper.submit(offset)
            pid, total = helper.result()
            assert pid != os.getpid() and total == 6 + offset
        with pytest.raises(RuntimeError, match="no request"):
            helper.result()
        # what a caller that dies leaves: its end closed, no stop message sent
        helper._conn.close()
        helper._process.join(timeout=30)
        assert helper._process.exitcode == 0
    finally:
        if helper._process.is_alive():
            helper._process.terminate()
    assert multiprocessing.active_children() == []


def _raise(error):
    raise error


@pytest.mark.parametrize("error", [NonFiniteGradientError("non-finite gradient on the biased batch"),
                                   ValidationError("labels must be binary")])
def test_a_helper_error_surfaces_in_the_caller_with_its_type_and_message(error):
    helper = parallel.Helper(_raise)
    try:
        helper.submit(error)
        with pytest.raises(type(error)) as raised:
            helper.result()
    finally:
        helper.close()
    assert str(raised.value) == str(error)
    assert isinstance(raised.value.__cause__, parallel.HelperTraceback)
    assert multiprocessing.active_children() == []


def test_closing_a_helper_with_a_request_pending_stops_it_at_once():
    helper = parallel.Helper(time.sleep)
    started = time.monotonic()
    helper.submit(20)
    helper.close()
    assert time.monotonic() - started < 10
    assert multiprocessing.active_children() == []


@needs_blas_pin
def test_spare_core_helper_forks_only_outside_a_pool_on_two_cores(monkeypatch):
    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    monkeypatch.setattr(os, "fork", no_fork)
    with parallel.spare_core_helper(abs) as helper:
        assert isinstance(helper, parallel.InProcessHelper)
        helper.submit(-3)
        assert helper.result() == 3
    monkeypatch.undo()
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    get_threads, set_threads = parallel._blas_threads()
    saved = get_threads()
    try:
        set_threads(2)
        with parallel.spare_core_helper(_blas_threads_in_job) as helper:
            assert isinstance(helper, parallel.Helper)
            assert get_threads() == 1  # the caller's while the helper runs
            helper.submit()
            assert helper.result() == 1  # and the helper's
        assert get_threads() == 2
    finally:
        set_threads(saved)
    assert multiprocessing.active_children() == []
    # a pool process has no core to spare, however many the host has
    for cores in (2, 4):
        monkeypatch.setattr(parallel, "worker_count", lambda: cores)
        assert parallel.run_jobs([parallel.has_spare_core] * 2) == [False, False]
        assert parallel.has_spare_core()
