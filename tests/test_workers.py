"""The fork helper: results and errors of forked workers, and their reaping."""

import os
import pickle
import time

import pytest

from lwirange._workers import fork_map, spans
from lwirange.errors import ConfigError, ConstraintError


def open_fds():
    # the descriptors this process holds, where the OS lists them
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


def no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("refuses to pickle")


@pytest.mark.parametrize("n, k", [(1, 1), (7, 1), (7, 2), (10, 3), (73, 3),
                                  (73, 8), (6, 6)])
def test_spans_tile_the_range_in_order_evenly(n, k):
    out = spans(n, k)
    assert len(out) == k
    assert [i for a, b in out for i in range(a, b)] == list(range(n))
    sizes = [b - a for a, b in out]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


def test_results_come_back_in_job_order_from_forked_workers():
    caller = os.getpid()
    before = open_fds()
    # a closure is no job argument to pickle: the workers inherit it
    out = fork_map(lambda x, y: (x * y, os.getpid()), [(i, 10) for i in range(4)])
    assert [v for v, _ in out] == [0, 10, 20, 30]
    assert caller not in {pid for _, pid in out} and len({pid for _, pid in out}) == 4
    assert open_fds() == before and no_children()


def test_a_single_job_runs_in_this_process():
    assert fork_map(lambda: os.getpid(), [()]) == [os.getpid()]


@pytest.mark.parametrize("exc", [ConstraintError("cube values must be finite"),
                                 ConfigError(["a", "b"]), KeyError("k")])
def test_the_first_failed_job_raises_its_error_as_itself(exc):
    def job(i):
        if i >= 1:
            raise type(exc)(*exc.args) if not isinstance(exc, ConfigError) \
                else ConfigError(exc.violations + [str(i)])
        return i

    before = open_fds()
    with pytest.raises(type(exc)) as info:
        fork_map(job, [(i,) for i in range(3)])
    if isinstance(exc, ConfigError):
        assert info.value.violations == ["a", "b", "1"]
    else:
        assert info.value.args == exc.args
    assert open_fds() == before and no_children()


def test_an_unpicklable_error_comes_back_as_a_runtime_error():
    def job():
        raise Unpicklable("x")

    with pytest.raises(RuntimeError, match="could not be pickled"):
        fork_map(job, [(), ()])
    with pytest.raises(TypeError):
        pickle.dumps(Unpicklable("x"))
    assert no_children()


def test_a_worker_that_ends_without_a_result_raises_child_process_error():
    with pytest.raises(ChildProcessError, match="exit status 3"):
        fork_map(os._exit, [(3,), (3,)])
    assert no_children()


def test_an_error_here_kills_and_reaps_the_workers():
    # the first job's error is raised here while the second job sleeps
    def job(i):
        if i == 0:
            raise ConstraintError("stop")
        time.sleep(60)

    before = open_fds()
    t0 = time.perf_counter()
    with pytest.raises(ConstraintError, match="stop"):
        fork_map(job, [(0,), (1,)])
    assert time.perf_counter() - t0 < 30
    assert open_fds() == before and no_children()
