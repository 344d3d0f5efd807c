"""Shared fixtures."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_leaked_worker_processes():
    # the solver's pixel blocks and the simulator's row spans run in forked
    # worker processes; a worker left running or unreaped fails the test that
    # started it, not a later one
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child process at all
        return
    assert False, ("test left a worker process running" if pid == 0 else
                   f"test left worker process {pid} unreaped")
